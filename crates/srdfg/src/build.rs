//! AST → srDFG generation (paper §IV.A).
//!
//! Each component instantiation is *inlined*: it becomes a
//! [`NodeKind::Component`] node holding its own freshly built sub-srDFG,
//! so every instantiation has its own graph (paper Fig. 5 ②). Statements
//! within a component become `Map`/`Reduce` nodes stitched together with
//! static single assignment — assigning to a variable creates a new edge
//! version, and partial writes carry the previous version in.
//!
//! Compile-time values: integer `param`s and implicit size parameters are
//! bound at build time (they parameterize shapes and index bounds and
//! become constants in kernels, matching the paper's "constant used to
//! parameterize the component"). Float/complex `param`s (weights, cost
//! matrices, …) remain runtime boundary inputs tagged [`Modifier::Param`].

use crate::error::BuildError;
use crate::graph::{
    map_op_name, EdgeId, EdgeMeta, IndexRange, MapSpec, Modifier, NodeKind, ReduceOp, ReduceSpec,
    SrDfg, WriteSpec,
};
use crate::kernel::{self, KExpr, EXACT};
use crate::pattern::detect_pattern;
use crate::value::Scalar;
use pmlang::ast::{ArgDecl, Component, Expr, ExprKind, Stmt};
use pmlang::{BuiltinReduction, DType, Domain, Program, ScalarFunc, Span, TypeModifier};
use std::collections::HashMap;

/// A name table keyed by text borrowed from the AST or the bindings. The
/// names come from the program text, which `pmc serve` takes off the
/// wire, so they keep std's keyed hasher: `FxHasher` keys can be chosen
/// to collide.
type Names<'a, V> = HashMap<&'a str, V>;

/// Compile-time bindings for the entry component.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// Values for `main`'s integer `param` arguments and any implicit size
    /// parameters appearing in its argument dimensions.
    pub sizes: HashMap<String, i64>,
}

impl Bindings {
    /// Creates bindings from `(name, value)` pairs.
    pub fn from_sizes<'a>(pairs: impl IntoIterator<Item = (&'a str, i64)>) -> Self {
        Bindings { sizes: pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect() }
    }
}

/// Builds the srDFG for a checked program's `main` component.
///
/// # Errors
///
/// Returns a [`BuildError`] for unbound sizes, shape mismatches, reads of
/// never-written variables, unsupported argument expressions, or nested
/// reductions.
pub fn build(program: &Program, bindings: &Bindings) -> Result<SrDfg, BuildError> {
    let main = program
        .main()
        .ok_or_else(|| BuildError::new("program has no `main` component", Span::synthetic()))?;
    let mut builder = ComponentBuilder::new(program, main, None);
    // Bind main's integer params and size params from `bindings`.
    for arg in &main.args {
        if is_const_param(arg) {
            let v = bindings.sizes.get(&arg.name).copied().ok_or_else(|| {
                BuildError::new(
                    format!("int param `{}` of main must be bound at build time", arg.name),
                    arg.span,
                )
            })?;
            builder.sizes.insert(&arg.name, v);
        }
    }
    // Implicit size params of main.
    for (name, v) in &bindings.sizes {
        builder.sizes.entry(name).or_insert(*v);
    }
    builder.run()
}

/// What a name currently denotes inside a component body.
#[derive(Debug, Clone)]
enum Value {
    /// A tensor/scalar variable with SSA tracking.
    Var(VarSlot),
    /// A compile-time integer (int param or size param).
    ConstInt(i64),
    /// A declared index variable (its name is the scope key).
    Index { lo: i64, hi: i64 },
}

#[derive(Debug, Clone)]
struct VarSlot {
    dtype: DType,
    shape: Vec<usize>,
    /// The edge holding the variable's current value, if written/bound.
    current: Option<EdgeId>,
    /// SSA version counter, for edge naming.
    version: u32,
}

impl VarSlot {
    /// The edge holding variable `name`'s current value.
    fn current_edge(&self, name: &str, span: Span) -> Result<EdgeId, BuildError> {
        self.current.ok_or_else(|| {
            BuildError::new(format!("`{name}` is read before any value is assigned"), span)
        })
    }
}

/// Builds one component's graph, borrowing the program it reads.
struct ComponentBuilder<'a> {
    program: &'a Program,
    comp: &'a Component,
    domain: Option<Domain>,
    graph: SrDfg,
    scope: Names<'a, Value>,
    sizes: Names<'a, i64>,
}

impl<'a> ComponentBuilder<'a> {
    fn new(program: &'a Program, comp: &'a Component, domain: Option<Domain>) -> Self {
        let mut graph = SrDfg::new(comp.name.clone());
        graph.domain = domain;
        ComponentBuilder {
            program,
            comp,
            domain,
            graph,
            scope: Names::default(),
            sizes: Names::default(),
        }
    }

    /// Builds the component graph. `self.sizes` must already hold every int
    /// param and size param value.
    fn run(mut self) -> Result<SrDfg, BuildError> {
        self.declare_args()?;
        for stmt in &self.comp.body {
            self.stmt(stmt)?;
        }
        self.finish_boundary()?;
        Ok(self.graph)
    }

    fn declare_args(&mut self) -> Result<(), BuildError> {
        // Size params become compile-time constants before any dimension is
        // resolved (argument dims may reference them in any order).
        for (&name, &v) in &self.sizes {
            self.scope.entry(name).or_insert(Value::ConstInt(v));
        }
        for arg in &self.comp.args {
            // Compile-time int params were pre-bound by the caller.
            if is_const_param(arg) {
                let Some(&v) = self.sizes.get(arg.name.as_str()) else {
                    return Err(BuildError::new(
                        format!("int param `{}` not bound", arg.name),
                        arg.span,
                    ));
                };
                self.scope.insert(&arg.name, Value::ConstInt(v));
                continue;
            }
            let shape = self.resolve_dims(&arg.dims, arg.span)?;
            let modifier = match arg.modifier {
                TypeModifier::Input => Modifier::Input,
                TypeModifier::Output => Modifier::Output,
                TypeModifier::State => Modifier::State,
                TypeModifier::Param => Modifier::Param,
            };
            let mut slot =
                VarSlot { dtype: arg.dtype, shape: shape.clone(), current: None, version: 0 };
            // Inputs, state, and runtime params arrive via boundary edges.
            if modifier != Modifier::Output {
                let e = self.graph.add_edge(
                    EdgeMeta::new(arg.name.clone(), arg.dtype, modifier, shape).at(arg.span),
                );
                self.graph.boundary_inputs.push(e);
                slot.current = Some(e);
            }
            self.scope.insert(&arg.name, Value::Var(slot));
        }
        Ok(())
    }

    /// Binds an incoming value to an `output` argument (used when a caller
    /// passes an already-written variable, whose value the component may
    /// read before overwriting — the paper's `update_ctrl_model` does this
    /// with `ctrl_mdl`).
    fn bind_output_incoming(
        &mut self,
        name: &str,
        dtype: DType,
        shape: Vec<usize>,
        span: Span,
    ) -> EdgeId {
        let e = self.graph.add_edge(EdgeMeta::new(name, dtype, Modifier::Input, shape).at(span));
        self.graph.boundary_inputs.push(e);
        if let Some(Value::Var(slot)) = self.scope.get_mut(name) {
            slot.current = Some(e);
        }
        e
    }

    fn finish_boundary(&mut self) -> Result<(), BuildError> {
        for arg in &self.comp.args {
            if !matches!(arg.modifier, TypeModifier::Output | TypeModifier::State) {
                continue;
            }
            let name = &arg.name;
            let Some(Value::Var(slot)) = self.scope.get(name.as_str()) else { continue };
            let current = slot.current.ok_or_else(|| {
                BuildError::new(format!("`{name}` has no value at component end"), arg.span)
            })?;
            self.graph.boundary_outputs.push(current);
            // Restore boundary metadata (the final SSA edge was a temp).
            let modifier = if arg.modifier == TypeModifier::State {
                Modifier::State
            } else {
                Modifier::Output
            };
            self.graph.rename_edge(current, name, modifier);
        }
        Ok(())
    }

    // ---- helpers ------------------------------------------------------

    fn resolve_dims(&self, dims: &[Expr], span: Span) -> Result<Vec<usize>, BuildError> {
        dims.iter()
            .map(|d| {
                let v = self.const_int(d)?;
                if v < 0 {
                    return Err(BuildError::new(format!("negative dimension {v}"), span));
                }
                Ok(v as usize)
            })
            .collect()
    }

    /// The compile-time constant `e` (see [`const_eval`]) over this
    /// component's integer params and sizes; `exact` when it is read as an
    /// integer.
    fn constant(&self, e: &Expr, exact: bool) -> Result<f64, BuildError> {
        let int = |name: &str| match self.scope.get(name) {
            Some(&Value::ConstInt(v)) => Some(v),
            _ => None,
        };
        const_eval(e, &int, exact)
    }

    /// The compile-time integer `e`: a size, a bound or an `int` argument,
    /// read as the interpreter reads an index.
    fn const_int(&self, e: &Expr) -> Result<i64, BuildError> {
        index(self.constant(e, true)?, e.span)
    }

    fn var_slot(&self, name: &str, span: Span) -> Result<&VarSlot, BuildError> {
        match self.scope.get(name) {
            Some(Value::Var(slot)) => Ok(slot),
            Some(_) => Err(BuildError::new(format!("`{name}` is not a tensor variable"), span)),
            None => Err(BuildError::new(format!("undeclared variable `{name}`"), span)),
        }
    }

    fn current_edge(&self, name: &str, span: Span) -> Result<EdgeId, BuildError> {
        self.var_slot(name, span)?.current_edge(name, span)
    }

    /// The declared range of `name`, if it is an index variable.
    fn index_range(&self, name: &str) -> Option<IndexRange> {
        match self.scope.get(name) {
            Some(&Value::Index { lo, hi }) => Some(IndexRange { name: name.into(), lo, hi }),
            _ => None,
        }
    }

    /// Creates the next SSA version edge for a variable and marks it current.
    fn new_version(&mut self, name: &str, span: Span) -> Result<EdgeId, BuildError> {
        let (dtype, shape, version) = {
            let slot = self.var_slot(name, span)?;
            (slot.dtype, slot.shape.clone(), slot.version + 1)
        };
        let e = self.graph.add_edge(
            EdgeMeta::new(format!("{name}.{version}"), dtype, Modifier::Temp, shape).at(span),
        );
        if let Some(Value::Var(slot)) = self.scope.get_mut(name) {
            slot.current = Some(e);
            slot.version = version;
        }
        Ok(e)
    }

    // ---- statements ----------------------------------------------------

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<(), BuildError> {
        match stmt {
            Stmt::IndexDecl { specs, .. } => {
                for s in specs {
                    let lo = self.const_int(&s.lo)?;
                    let hi = self.const_int(&s.hi)?;
                    self.scope.insert(&s.name, Value::Index { lo, hi });
                }
                Ok(())
            }
            Stmt::VarDecl { dtype, vars, span } => {
                for (name, dims) in vars {
                    let shape = self.resolve_dims(dims, *span)?;
                    self.scope.insert(
                        name,
                        Value::Var(VarSlot { dtype: *dtype, shape, current: None, version: 0 }),
                    );
                }
                Ok(())
            }
            Stmt::Assign { domain, target, indices, value, span } => {
                let saved = self.domain;
                if domain.is_some() {
                    self.domain = *domain;
                }
                let r = self.assign(target, indices, value, *span);
                self.domain = saved;
                r
            }
            Stmt::Instantiate { domain, component, args, span } => {
                self.instantiate(*domain, component, args, *span)
            }
        }
    }

    /// Builds `target[lhs...] = value` into Map/Reduce nodes.
    fn assign(
        &mut self,
        target: &str,
        lhs_exprs: &[Expr],
        value: &Expr,
        span: Span,
    ) -> Result<(), BuildError> {
        let (target_dtype, target_shape) = {
            let slot = self.var_slot(target, span)?;
            (slot.dtype, slot.shape.clone())
        };
        if lhs_exprs.len() != target_shape.len() {
            return Err(BuildError::new(
                format!(
                    "`{target}` has rank {} but the left-hand side uses {} indices",
                    target_shape.len(),
                    lhs_exprs.len()
                ),
                span,
            ));
        }

        // Free indices: index variables appearing anywhere in the LHS, in
        // order of first appearance.
        let mut free: Vec<IndexRange> = Vec::new();
        for ix in lhs_exprs {
            self.collect_index_vars(ix, &mut free)?;
        }
        let index_pos: Names<usize> =
            free.iter().enumerate().map(|(i, r)| (r.name.as_str(), i)).collect();

        // Translate LHS index expressions (may only reference free indices
        // and constants).
        let mut ops = OperandSet::default();
        let lhs: Vec<KExpr> = lhs_exprs
            .iter()
            .map(|ix| self.kexpr(ix, &index_pos, &mut ops))
            .collect::<Result<_, _>>()?;
        if !ops.edges.is_empty() {
            return Err(BuildError::new("left-hand-side indices may not read tensors", span));
        }

        // Identity write ⇔ LHS is exactly the free indices in order, each
        // range starting at 0 and spanning the full axis.
        let identity = lhs.len() == free.len()
            && lhs.iter().enumerate().all(|(i, k)| *k == KExpr::Idx(i))
            && free.iter().zip(&target_shape).all(|(r, &dim)| r.lo == 0 && r.size() == dim);
        let carried = !identity;

        // RHS: pull out reductions into their own nodes first.
        let rhs = self.extract_reductions(value, &free, &index_pos)?;

        let write = WriteSpec { target_shape: target_shape.clone(), lhs, carried };

        // If the whole RHS is one extracted reduction read back at identity
        // indices, attach the write spec to the Reduce node directly.
        if let RhsExpr::SingleReduce(spec, mut node_inputs) = rhs {
            let mut spec = *spec;
            spec.write = write;
            if carried {
                let prev = self.carry_edge(target, target_dtype, &target_shape, span)?;
                node_inputs.insert(0, prev);
                shift_slots(&mut spec.body, 1);
                if let Some(c) = &mut spec.cond {
                    shift_slots(c, 1);
                }
            }
            let out = self.new_version(target, span)?;
            let name = spec.op.name().to_string();
            let pattern = detect_pattern(&spec);
            let id = self.graph.add_node_at(
                pattern.map_or(name, |p| p.op_name().to_string()),
                NodeKind::reduce(spec),
                self.domain,
                node_inputs,
                vec![out],
                span,
            );
            self.graph.node_mut(id).pattern = pattern;
            return Ok(());
        }

        let RhsExpr::Kernel(mut kernel, mut ops) = rhs else { unreachable!() };
        if carried {
            let prev = self.carry_edge(target, target_dtype, &target_shape, span)?;
            ops.edges.insert(0, prev);
            shift_slots(&mut kernel, 1);
        }
        let out = self.new_version(target, span)?;
        let spec = MapSpec { out_space: free, kernel, write };
        let name = map_op_name(&spec.kernel);
        self.graph.add_node_at(name, NodeKind::map(spec), self.domain, ops.edges, vec![out], span);
        Ok(())
    }

    /// The previous-version edge for a carried (partial) write, creating a
    /// zero-fill node if the variable was never written.
    fn carry_edge(
        &mut self,
        name: &str,
        dtype: DType,
        shape: &[usize],
        span: Span,
    ) -> Result<EdgeId, BuildError> {
        if let Ok(e) = self.current_edge(name, span) {
            return Ok(e);
        }
        // Zero-initialize: Map filling the whole tensor with 0.
        let e = self.graph.add_edge(
            EdgeMeta::new(format!("{name}.init"), dtype, Modifier::Temp, shape.to_vec()).at(span),
        );
        let out_space: Vec<IndexRange> = shape
            .iter()
            .enumerate()
            .map(|(i, &d)| IndexRange { name: format!("z{i}"), lo: 0, hi: d as i64 - 1 })
            .collect();
        let spec =
            MapSpec { out_space, kernel: KExpr::Const(0.0), write: WriteSpec::identity(shape) };
        self.graph.add_node_at("map.fill", NodeKind::map(spec), self.domain, vec![], vec![e], span);
        Ok(e)
    }

    /// Collects index variables referenced by `e` into `out` (preserving
    /// first-appearance order).
    fn collect_index_vars(&self, e: &Expr, out: &mut Vec<IndexRange>) -> Result<(), BuildError> {
        match &e.kind {
            ExprKind::Var(name) => {
                if !out.iter().any(|x| x.name == *name) {
                    out.extend(self.index_range(name));
                }
                Ok(())
            }
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Ok(()),
            ExprKind::Access { indices, .. } => {
                indices.iter().try_for_each(|ix| self.collect_index_vars(ix, out))
            }
            ExprKind::Unary { operand, .. } => self.collect_index_vars(operand, out),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.collect_index_vars(lhs, out)?;
                self.collect_index_vars(rhs, out)
            }
            ExprKind::Ternary { cond, then, otherwise } => {
                self.collect_index_vars(cond, out)?;
                self.collect_index_vars(then, out)?;
                self.collect_index_vars(otherwise, out)
            }
            ExprKind::Call { args, .. } => {
                args.iter().try_for_each(|a| self.collect_index_vars(a, out))
            }
            ExprKind::Reduce { body, iters, .. } => {
                // Indices bound by the reduction are not free here.
                let mut inner = Vec::new();
                self.collect_index_vars(body, &mut inner)?;
                for r in inner {
                    if !iters.iter().any(|it| it.index == r.name)
                        && !out.iter().any(|x| x.name == r.name)
                    {
                        out.push(r);
                    }
                }
                Ok(())
            }
        }
    }

    /// Replaces every `Reduce` subexpression of `value` with a freshly built
    /// Reduce node writing a temp, returning the residual expression. When
    /// the entire RHS is exactly one reduction, returns it un-emitted so the
    /// caller can fuse the statement's write spec into it.
    fn extract_reductions(
        &mut self,
        value: &Expr,
        free: &[IndexRange],
        index_pos: &Names<usize>,
    ) -> Result<RhsExpr, BuildError> {
        if let ExprKind::Reduce { .. } = &value.kind {
            let (spec, inputs) = self.build_reduce(value, free, index_pos)?;
            return Ok(RhsExpr::SingleReduce(Box::new(spec), inputs));
        }
        let mut ops = OperandSet::default();
        let kernel = self.kexpr(value, index_pos, &mut ops)?;
        Ok(RhsExpr::Kernel(kernel, ops))
    }

    /// Builds a ReduceSpec (and its operand list) for a `Reduce` expression.
    fn build_reduce(
        &mut self,
        e: &Expr,
        free: &[IndexRange],
        index_pos: &Names<usize>,
    ) -> Result<(ReduceSpec, Vec<EdgeId>), BuildError> {
        let ExprKind::Reduce { op, iters, body } = &e.kind else { unreachable!() };
        // Reduction index space: positions continue after the free space.
        let mut red_pos = index_pos.clone();
        let mut red_space = Vec::new();
        for it in iters {
            let Some(r) = self.index_range(&it.index) else {
                return Err(BuildError::new(
                    format!("`{}` is not an index variable", it.index),
                    it.span,
                ));
            };
            red_pos.insert(&it.index, free.len() + red_space.len());
            red_space.push(r);
        }
        let mut ops = OperandSet::default();
        let body_kernel = self.kexpr(body, &red_pos, &mut ops)?;
        // Conjunction of all iteration conditions.
        let mut cond: Option<KExpr> = None;
        for it in iters {
            if let Some(c) = &it.cond {
                let ck = self.kexpr(c, &red_pos, &mut ops)?;
                cond = Some(match cond {
                    None => ck,
                    Some(prev) => KExpr::Binary(pmlang::BinOp::And, Box::new(prev), Box::new(ck)),
                });
            }
        }
        let rop = if let Some(b) = BuiltinReduction::by_name(op) {
            ReduceOp::Builtin(b)
        } else {
            let def = self
                .program
                .reduction(op)
                .ok_or_else(|| BuildError::new(format!("unknown reduction `{op}`"), e.span))?;
            ReduceOp::Custom { name: op.clone(), combiner: combiner_kernel(def)? }
        };
        let out_shape: Vec<usize> = free.iter().map(IndexRange::size).collect();
        let spec = ReduceSpec {
            op: rop,
            out_space: free.to_vec(),
            red_space,
            cond,
            body: body_kernel,
            write: WriteSpec::identity(&out_shape),
        };
        Ok((spec, ops.edges))
    }

    /// Translates an AST expression into a kernel, registering operand
    /// edges in `ops` and emitting Reduce nodes for reduction subtrees.
    fn kexpr(
        &mut self,
        e: &Expr,
        index_pos: &Names<usize>,
        ops: &mut OperandSet,
    ) -> Result<KExpr, BuildError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(KExpr::Const(*v as f64)),
            ExprKind::FloatLit(v) => Ok(KExpr::Const(*v)),
            ExprKind::StrLit(_) => {
                Err(BuildError::new("string literals cannot appear in kernels", e.span))
            }
            ExprKind::Var(name) => match self.scope.get(name.as_str()) {
                Some(Value::Index { .. }) => {
                    let pos = index_pos.get(name.as_str()).ok_or_else(|| {
                        BuildError::new(
                            format!("index `{name}` is not bound here (missing from the left-hand side or the reduction's index groups)"),
                            e.span,
                        )
                    })?;
                    Ok(KExpr::Idx(*pos))
                }
                Some(Value::ConstInt(v)) => Ok(KExpr::Const(*v as f64)),
                Some(Value::Var(slot)) => {
                    if !slot.shape.is_empty() {
                        return Err(BuildError::new(
                            format!("tensor `{name}` used without indices"),
                            e.span,
                        ));
                    }
                    let edge = slot.current_edge(name, e.span)?;
                    Ok(KExpr::Operand { slot: ops.slot(edge), indices: vec![] })
                }
                None => Err(BuildError::new(format!("undeclared variable `{name}`"), e.span)),
            },
            ExprKind::Access { name, indices } => {
                let var = self.var_slot(name, e.span)?;
                let rank = var.shape.len();
                if indices.len() != rank {
                    return Err(BuildError::new(
                        format!(
                            "`{name}` has rank {rank} but is accessed with {} indices",
                            indices.len()
                        ),
                        e.span,
                    ));
                }
                let slot = ops.slot(var.current_edge(name, e.span)?);
                let ixs: Vec<KExpr> = indices
                    .iter()
                    .map(|ix| self.kexpr(ix, index_pos, ops))
                    .collect::<Result<_, _>>()?;
                Ok(KExpr::Operand { slot, indices: ixs })
            }
            ExprKind::Unary { op, operand } => {
                Ok(KExpr::Unary(*op, Box::new(self.kexpr(operand, index_pos, ops)?)))
            }
            ExprKind::Binary { op, lhs, rhs } => Ok(KExpr::Binary(
                *op,
                Box::new(self.kexpr(lhs, index_pos, ops)?),
                Box::new(self.kexpr(rhs, index_pos, ops)?),
            )),
            ExprKind::Ternary { cond, then, otherwise } => Ok(KExpr::Select(
                Box::new(self.kexpr(cond, index_pos, ops)?),
                Box::new(self.kexpr(then, index_pos, ops)?),
                Box::new(self.kexpr(otherwise, index_pos, ops)?),
            )),
            ExprKind::Call { name, args } => {
                let f = ScalarFunc::by_name(name)
                    .ok_or_else(|| BuildError::new(format!("unknown function `{name}`"), e.span))?;
                let ks: Vec<KExpr> =
                    args.iter().map(|a| self.kexpr(a, index_pos, ops)).collect::<Result<_, _>>()?;
                Ok(KExpr::Call(f, ks))
            }
            ExprKind::Reduce { .. } => {
                // An embedded reduction: emit its node into a temp and read
                // the temp back at the statement's free indices.
                let free: Vec<IndexRange> = {
                    // Reconstruct the free space from index_pos. Positions
                    // 0..n of index_pos that map into the statement space.
                    let mut v: Vec<(&str, usize)> =
                        index_pos.iter().map(|(&name, &pos)| (name, pos)).collect();
                    v.sort_by_key(|&(_, pos)| pos);
                    v.into_iter().filter_map(|(name, _)| self.index_range(name)).collect()
                };
                let (spec, inputs) = self.build_reduce(e, &free, index_pos)?;
                let out_shape: Vec<usize> = free.iter().map(IndexRange::size).collect();
                let temp = self.graph.add_edge(
                    EdgeMeta::new(
                        format!("red.{}", self.graph.edge_count()),
                        DType::Float,
                        Modifier::Temp,
                        out_shape,
                    )
                    .at(e.span),
                );
                let name = spec.op.name().to_string();
                let pattern = detect_pattern(&spec);
                let id = self.graph.add_node_at(
                    pattern.map_or(name, |p| p.op_name().to_string()),
                    NodeKind::reduce(spec),
                    self.domain,
                    inputs,
                    vec![temp],
                    e.span,
                );
                self.graph.node_mut(id).pattern = pattern;
                let slot = ops.slot(temp);
                let ixs: Vec<KExpr> = (0..free.len()).map(KExpr::Idx).collect();
                Ok(KExpr::Operand { slot, indices: ixs })
            }
        }
    }

    // ---- instantiation ---------------------------------------------------

    fn instantiate(
        &mut self,
        domain: Option<Domain>,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<(), BuildError> {
        let callee = self
            .program
            .component(name)
            .ok_or_else(|| BuildError::new(format!("unknown component `{name}`"), span))?;
        let callee_domain = domain.or(self.domain);

        // Pass 1: bind callee int params from constant arguments, and unify
        // size params against actual shapes.
        let mut callee_sizes: Names<i64> = Names::default();
        let pairs = || args.iter().zip(&callee.args);
        for (actual, formal) in pairs().filter(|(_, formal)| is_const_param(formal)) {
            callee_sizes.insert(&formal.name, self.const_int(actual)?);
        }
        for (actual, formal) in pairs().filter(|(_, formal)| !is_const_param(formal)) {
            let shape = self.actual_shape(actual)?;
            unify_dims(&formal.dims, &shape, &mut callee_sizes, formal, span)?;
        }

        // Pass 2: build the callee sub-graph.
        let mut sub_builder = ComponentBuilder::new(self.program, callee, callee_domain);
        sub_builder.sizes = callee_sizes;
        sub_builder.declare_args()?;
        // Outputs whose actual variable already has a value may be read
        // before written inside the callee; bind the incoming value.
        let mut extra_inputs: Vec<usize> = Vec::new(); // arg indices
        for (i, (actual, formal)) in args.iter().zip(&callee.args).enumerate() {
            if formal.modifier == TypeModifier::Output {
                if let ExprKind::Var(vn) = &actual.kind {
                    if self.var_slot(vn, actual.span).ok().and_then(|s| s.current).is_some() {
                        let (dtype, shape) = {
                            let s = self.var_slot(vn, actual.span)?;
                            (s.dtype, s.shape.clone())
                        };
                        sub_builder.bind_output_incoming(&formal.name, dtype, shape, actual.span);
                        extra_inputs.push(i);
                    }
                }
            }
        }
        for stmt in &callee.body {
            sub_builder.stmt(stmt)?;
        }
        sub_builder.finish_boundary()?;
        let sub = sub_builder.graph;

        // Pass 3: wire the Component node. Inputs follow the sub-graph's
        // boundary_inputs order (signature order for input/state/param,
        // then output-incoming bindings); outputs follow boundary_outputs
        // (signature order for output/state).
        let mut node_inputs: Vec<EdgeId> = Vec::new();
        for (actual, formal) in args.iter().zip(&callee.args) {
            match formal.modifier {
                TypeModifier::Input | TypeModifier::State => {
                    node_inputs.push(self.actual_edge(actual, formal)?);
                }
                TypeModifier::Param if is_const_param(formal) => {}
                TypeModifier::Param => node_inputs.push(self.actual_edge(actual, formal)?),
                TypeModifier::Output => {}
            }
        }
        for &i in &extra_inputs {
            let ExprKind::Var(vn) = &args[i].kind else { unreachable!() };
            node_inputs.push(self.current_edge(vn, args[i].span)?);
        }

        let mut node_outputs: Vec<EdgeId> = Vec::new();
        for (actual, formal) in args.iter().zip(&callee.args) {
            if matches!(formal.modifier, TypeModifier::Output | TypeModifier::State) {
                let ExprKind::Var(vn) = &actual.kind else {
                    return Err(BuildError::new(
                        format!("argument for `{}` must be a variable", formal.name),
                        actual.span,
                    ));
                };
                node_outputs.push(self.new_version(vn, actual.span)?);
            }
        }

        debug_assert_eq!(node_inputs.len(), sub.boundary_inputs.len());
        debug_assert_eq!(node_outputs.len(), sub.boundary_outputs.len());
        self.graph.add_node_at(
            name.to_string(),
            NodeKind::Component(Box::new(sub)),
            callee_domain,
            node_inputs,
            node_outputs,
            span,
        );
        Ok(())
    }

    /// The shape of an instantiation argument (scalar for constants).
    fn actual_shape(&self, actual: &Expr) -> Result<Vec<usize>, BuildError> {
        match &actual.kind {
            ExprKind::Var(vn) => match self.scope.get(vn.as_str()) {
                Some(Value::Var(slot)) => Ok(slot.shape.clone()),
                Some(Value::ConstInt(_)) => Ok(vec![]),
                Some(Value::Index { .. }) => Err(BuildError::new(
                    format!("index variable `{vn}` cannot be an argument"),
                    actual.span,
                )),
                None => Err(BuildError::new(format!("undeclared variable `{vn}`"), actual.span)),
            },
            _ => {
                // Constant expression: scalar.
                self.constant(actual, false).map(|_| vec![]).map_err(|err| {
                    BuildError::new(
                        format!(
                            "instantiation arguments must be variables or constants: {}",
                            err.message
                        ),
                        err.span,
                    )
                })
            }
        }
    }

    /// The edge supplying an instantiation argument, materializing constant
    /// scalars as fill nodes.
    fn actual_edge(&mut self, actual: &Expr, formal: &ArgDecl) -> Result<EdgeId, BuildError> {
        match &actual.kind {
            ExprKind::Var(vn) if matches!(self.scope.get(vn.as_str()), Some(Value::Var(_))) => {
                self.current_edge(vn, actual.span)
            }
            _ => {
                let v = self.constant(actual, false)?;
                let e = self.graph.add_edge(
                    EdgeMeta::new(
                        format!("const.{}", self.graph.edge_count()),
                        formal.dtype,
                        Modifier::Temp,
                        vec![],
                    )
                    .at(actual.span),
                );
                let spec = MapSpec {
                    out_space: vec![],
                    kernel: KExpr::Const(v),
                    write: WriteSpec::identity(&[]),
                };
                self.graph.add_node_at(
                    "map.fill",
                    NodeKind::map(spec),
                    self.domain,
                    vec![],
                    vec![e],
                    actual.span,
                );
                Ok(e)
            }
        }
    }
}

/// Residual right-hand side of a statement after reduction extraction.
enum RhsExpr {
    /// The RHS was exactly one reduction (not yet emitted).
    SingleReduce(Box<ReduceSpec>, Vec<EdgeId>),
    /// A kernel over the registered operands.
    Kernel(KExpr, OperandSet),
}

/// Deduplicating operand-edge registry; slot order is first-use order.
#[derive(Default)]
struct OperandSet {
    edges: Vec<EdgeId>,
}

impl OperandSet {
    fn slot(&mut self, edge: EdgeId) -> usize {
        if let Some(pos) = self.edges.iter().position(|e| *e == edge) {
            pos
        } else {
            self.edges.push(edge);
            self.edges.len() - 1
        }
    }
}

/// Adds `by` to every operand slot in `k` (carry insertion).
fn shift_slots(k: &mut KExpr, by: usize) {
    match k {
        KExpr::Operand { slot, indices } => {
            *slot += by;
            indices.iter_mut().for_each(|ix| shift_slots(ix, by));
        }
        KExpr::Unary(_, e) => shift_slots(e, by),
        KExpr::Binary(_, a, b) => {
            shift_slots(a, by);
            shift_slots(b, by);
        }
        KExpr::Select(c, a, b) => {
            shift_slots(c, by);
            shift_slots(a, by);
            shift_slots(b, by);
        }
        KExpr::Call(_, args) => args.iter_mut().for_each(|a| shift_slots(a, by)),
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => {}
    }
}

/// Translates a custom reduction definition into a combiner kernel with
/// `Arg(0)` = accumulator, `Arg(1)` = element.
fn combiner_kernel(def: &pmlang::ReductionDef) -> Result<KExpr, BuildError> {
    fn walk(e: &Expr, def: &pmlang::ReductionDef) -> Result<KExpr, BuildError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(KExpr::Const(*v as f64)),
            ExprKind::FloatLit(v) => Ok(KExpr::Const(*v)),
            ExprKind::Var(n) if *n == def.acc => Ok(KExpr::Arg(0)),
            ExprKind::Var(n) if *n == def.elem => Ok(KExpr::Arg(1)),
            ExprKind::Unary { op, operand } => Ok(KExpr::Unary(*op, Box::new(walk(operand, def)?))),
            ExprKind::Binary { op, lhs, rhs } => {
                Ok(KExpr::Binary(*op, Box::new(walk(lhs, def)?), Box::new(walk(rhs, def)?)))
            }
            ExprKind::Ternary { cond, then, otherwise } => Ok(KExpr::Select(
                Box::new(walk(cond, def)?),
                Box::new(walk(then, def)?),
                Box::new(walk(otherwise, def)?),
            )),
            ExprKind::Call { name, args } => {
                let f = ScalarFunc::by_name(name)
                    .ok_or_else(|| BuildError::new(format!("unknown function `{name}`"), e.span))?;
                let ks: Result<Vec<KExpr>, _> = args.iter().map(|a| walk(a, def)).collect();
                Ok(KExpr::Call(f, ks?))
            }
            _ => Err(BuildError::new(
                format!("unsupported construct in reduction `{}`", def.name),
                e.span,
            )),
        }
    }
    walk(&def.body, def)
}

/// An `int` scalar `param`: a compile-time constant its caller binds,
/// with no edge of its own.
fn is_const_param(arg: &ArgDecl) -> bool {
    arg.modifier == TypeModifier::Param && arg.dtype == DType::Int && arg.dims.is_empty()
}

/// Unifies declared dimension expressions against an actual shape,
/// binding single-variable dims and checking the rest.
fn unify_dims<'a>(
    dims: &'a [Expr],
    shape: &[usize],
    sizes: &mut Names<'a, i64>,
    formal: &ArgDecl,
    span: Span,
) -> Result<(), BuildError> {
    if dims.len() != shape.len() {
        return Err(BuildError::new(
            format!(
                "argument `{}` expects rank {} but the actual has rank {}",
                formal.name,
                dims.len(),
                shape.len()
            ),
            span,
        ));
    }
    for (d, &actual) in dims.iter().zip(shape) {
        match &d.kind {
            ExprKind::Var(name) => match sizes.get(name.as_str()) {
                Some(&bound) => {
                    if bound != actual as i64 {
                        return Err(BuildError::new(
                            format!(
                                "size `{name}` already bound to {bound} but `{}` needs {actual}",
                                formal.name
                            ),
                            span,
                        ));
                    }
                }
                None => {
                    sizes.insert(name, actual as i64);
                }
            },
            _ => {
                let v = const_eval(d, &|name| sizes.get(name).copied(), true)
                    .and_then(|v| index(v, d.span))
                    .map_err(|err| {
                        BuildError::new(
                            format!(
                                "cannot evaluate dimension of `{}`: {}",
                                formal.name, err.message
                            ),
                            span,
                        )
                    })?;
                if v != actual as i64 {
                    return Err(BuildError::new(
                        format!(
                            "argument `{}` dimension mismatch: declared {v}, actual {actual}",
                            formal.name
                        ),
                        span,
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Evaluates a compile-time constant through the kernel's operators
/// ([`crate::kernel`]): literals, the integers `int` binds, and unary,
/// binary and call expressions over them. When the constant is `exact` —
/// read as an integer — every value it forms must lie within ±2^52
/// ([`EXACT`]), where `f64` integer arithmetic is exact, so a size is what
/// its integer arithmetic says or a [`BuildError`], never a rounded or
/// saturated value.
fn const_eval(
    e: &Expr,
    int: &impl Fn(&str) -> Option<i64>,
    exact: bool,
) -> Result<f64, BuildError> {
    let fail = |message: String| BuildError::new(message, e.span);
    let v = match &e.kind {
        ExprKind::IntLit(v) => Ok(Scalar::Real(*v as f64)),
        ExprKind::FloatLit(v) => Ok(Scalar::Real(*v)),
        ExprKind::Var(name) => match int(name) {
            Some(v) => Ok(Scalar::Real(v as f64)),
            None => return Err(fail(format!("`{name}` is not a compile-time constant"))),
        },
        ExprKind::Unary { op, operand } => {
            kernel::eval_unary(*op, const_eval(operand, int, exact)?.into())
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (const_eval(lhs, int, exact)?, const_eval(rhs, int, exact)?);
            kernel::eval_binary(*op, a.into(), b.into())
        }
        ExprKind::Call { name, args } => {
            let f = ScalarFunc::by_name(name)
                .ok_or_else(|| fail(format!("unknown function `{name}`")))?;
            let args: Vec<Scalar> = args
                .iter()
                .map(|a| Ok(const_eval(a, int, exact)?.into()))
                .collect::<Result<_, _>>()?;
            kernel::eval_call(f, &args)
        }
        _ => return Err(fail("expression is not a compile-time constant".into())),
    };
    match v.and_then(|v| v.as_real()) {
        Ok(x) if !exact || x.abs() <= EXACT as f64 => Ok(x),
        Ok(x) => Err(fail(format!("constant {x} is outside the exact integer range ±2^52"))),
        Err(err) => Err(fail(err.to_string())),
    }
}

/// Reads a compile-time constant as an integer, as the interpreter reads
/// an index.
fn index(v: f64, span: Span) -> Result<i64, BuildError> {
    Scalar::Real(v).as_index().map_err(|err| BuildError::new(err.to_string(), span))
}
