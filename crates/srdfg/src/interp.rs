//! Reference interpreter for srDFGs.
//!
//! Executes a graph functionally (paper §III.B semantics: a node fires when
//! its operand edges are ready — realized here as a topological sweep) and
//! persists `state` values across invocations, which is how iterative
//! workloads run: the host invokes `main` once per sample / time-step /
//! graph-iteration, exactly as the accelerators stream data through a
//! statically compiled dataflow graph.

use crate::error::ExecError;
use crate::graph::{
    space_size, IndexRange, MapSpec, Modifier, NodeKind, Odometer, ReduceOp, ReduceSpec, SrDfg,
    WriteSpec,
};
use crate::kernel::{KernelPlan, PlanExpr};
use crate::value::{too_large, try_vec, Scalar, Tensor};
use pmlang::BuiltinReduction;
use std::collections::HashMap;
use std::sync::Arc;

/// A stateful executor for one program graph. The graph is shared and
/// never mutated; everything an invocation changes lives in `state`.
#[derive(Debug, Clone)]
pub struct Machine {
    graph: Arc<SrDfg>,
    state: HashMap<String, Tensor>,
}

impl Machine {
    /// Creates a machine for `graph` — an owned graph, or an [`Arc`] the
    /// machine then shares with its other holders (a compiled program, a
    /// cache entry) without copying it. State variables start zero-filled.
    pub fn new(graph: impl Into<Arc<SrDfg>>) -> Self {
        Machine { graph: graph.into(), state: HashMap::new() }
    }

    /// The program graph.
    pub fn graph(&self) -> &SrDfg {
        &self.graph
    }

    /// Reads a persisted state variable.
    pub fn state(&self, name: &str) -> Option<&Tensor> {
        self.state.get(name)
    }

    /// Overwrites a persisted state variable (e.g. to seed a model).
    pub fn set_state(&mut self, name: &str, value: Tensor) {
        self.state.insert(name.to_string(), value);
    }

    /// Runs one invocation of the program.
    ///
    /// `feeds` supplies every boundary `input` and runtime `param` by name.
    /// Missing `state` values are zero-initialized. Returns the `output`
    /// values by name (state updates are retained internally).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] for missing feeds, shape mismatches, or
    /// kernel evaluation failures (e.g. out-of-bounds accesses).
    pub fn invoke(
        &mut self,
        feeds: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Tensor>, ExecError> {
        let mut bound: Vec<Option<Tensor>> = Vec::with_capacity(self.graph.boundary_inputs.len());
        for &e in &self.graph.boundary_inputs {
            let meta = &self.graph.edge(e).meta;
            let value = match meta.modifier {
                Modifier::State => Some(match self.state.get(&meta.name) {
                    Some(live) => live.clone(),
                    None => Tensor::try_zeros(meta.dtype, meta.shape.clone())?,
                }),
                _ => feeds.get(&meta.name).cloned(),
            };
            let value = value.ok_or_else(|| {
                ExecError::new(format!("missing feed for {} `{}`", meta.modifier, meta.name))
            })?;
            if value.shape() != meta.shape {
                return Err(ExecError::new(format!(
                    "feed `{}` has shape {:?}, expected {:?}",
                    meta.name,
                    value.shape(),
                    meta.shape
                )));
            }
            bound.push(Some(value));
        }
        let results = exec_graph(&self.graph, bound)?;
        let mut outputs = HashMap::new();
        let mut state_updates = Vec::new();
        for (i, &e) in self.graph.boundary_outputs.iter().enumerate() {
            let meta = &self.graph.edge(e).meta;
            let value = results[i].clone();
            match meta.modifier {
                Modifier::State => state_updates.push((meta.name.clone(), value)),
                _ => {
                    outputs.insert(meta.name.clone(), value);
                }
            }
        }
        for (name, value) in state_updates {
            self.state.insert(name, value);
        }
        Ok(outputs)
    }
}

/// Executes `graph` with boundary inputs bound positionally; returns the
/// boundary outputs positionally.
pub fn exec_graph(
    graph: &SrDfg,
    boundary_values: Vec<Option<Tensor>>,
) -> Result<Vec<Tensor>, ExecError> {
    let mut values: Vec<Option<Tensor>> = vec![None; graph.edge_count()];
    let mut bound = boundary_values.into_iter();
    for &e in &graph.boundary_inputs {
        let meta = &graph.edge(e).meta;
        let zeros = || Tensor::try_zeros(meta.dtype, meta.shape.clone());
        values[e.0 as usize] = Some(bound.next().flatten().map_or_else(zeros, Ok)?);
    }
    let order = graph.try_topo_order().map_err(|stuck| {
        ExecError::new(format!("graph contains a cycle through {} node(s)", stuck.len()))
    })?;
    for id in order {
        exec_node(graph, id, &mut values)?;
    }
    graph
        .boundary_outputs
        .iter()
        .map(|&e| {
            values[e.0 as usize].clone().ok_or_else(|| {
                ExecError::new(format!(
                    "boundary output `{}` was never produced",
                    graph.edge(e).meta.name
                ))
            })
        })
        .collect()
}

fn exec_node(
    graph: &SrDfg,
    id: crate::graph::NodeId,
    values: &mut [Option<Tensor>],
) -> Result<(), ExecError> {
    let node = graph.node(id);
    // Gather operand clones (cheap relative to kernel work; keeps borrows simple).
    let operands: Vec<Tensor> = node
        .inputs
        .iter()
        .map(|&e| {
            values[e.0 as usize].clone().ok_or_else(|| {
                ExecError::new(format!(
                    "operand `{}` of `{}` not ready",
                    graph.edge(e).meta.name,
                    node.name
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let operand_refs: Vec<&Tensor> = operands.iter().collect();

    match &node.kind {
        NodeKind::Component(sub) => {
            let outs = exec_graph(sub, operands.iter().cloned().map(Some).collect())?;
            for (&e, v) in node.outputs.iter().zip(outs) {
                values[e.0 as usize] = Some(v);
            }
        }
        NodeKind::Map(spec) => {
            let out_meta = &graph.edge(node.outputs[0]).meta;
            let result = exec_map(spec, &operand_refs, out_meta.dtype)?;
            values[node.outputs[0].0 as usize] = Some(result);
        }
        NodeKind::Reduce(spec) => {
            let out_meta = &graph.edge(node.outputs[0]).meta;
            let result = exec_reduce(spec, &operand_refs, out_meta.dtype)?;
            values[node.outputs[0].0 as usize] = Some(result);
        }
        NodeKind::Scalar(kind) => {
            let result = exec_scalar(kind, &operand_refs)?;
            values[node.outputs[0].0 as usize] = Some(result);
        }
        NodeKind::ConstTensor(t) => {
            values[node.outputs[0].0 as usize] = Some((**t).clone());
        }
        NodeKind::Load | NodeKind::Store => {
            // Pure data movement: forward the value.
            values[node.outputs[0].0 as usize] = Some(operands[0].clone());
        }
        NodeKind::Unpack => {
            let t = &operands[0];
            if t.len() != node.outputs.len() {
                return Err(ExecError::new(format!(
                    "unpack of {} elements into {} edges",
                    t.len(),
                    node.outputs.len()
                )));
            }
            for (i, &e) in node.outputs.iter().enumerate() {
                let mut s = Tensor::zeros(t.dtype(), vec![]);
                s.set_flat(0, t.get_flat(i))?;
                values[e.0 as usize] = Some(s);
            }
        }
        NodeKind::Pack => {
            let meta = &graph.edge(node.outputs[0]).meta;
            let mut t = Tensor::try_zeros(meta.dtype, meta.shape.clone())?;
            if t.len() != operands.len() {
                return Err(ExecError::new(format!(
                    "pack of {} edges into {} elements",
                    operands.len(),
                    t.len()
                )));
            }
            for (i, s) in operands.iter().enumerate() {
                t.set_flat(i, s.get_flat(0))?;
            }
            values[node.outputs[0].0 as usize] = Some(t);
        }
    }
    Ok(())
}

/// Allocates the output tensor for a write spec (carry or zeros).
fn init_output(
    write: &WriteSpec,
    operands: &[&Tensor],
    dtype: pmlang::DType,
) -> Result<Tensor, ExecError> {
    if write.carried {
        let prev = operands
            .first()
            .ok_or_else(|| ExecError::new("carried write without carry operand"))?;
        Ok((*prev).clone())
    } else {
        Tensor::try_zeros(dtype, write.target_shape.clone())
    }
}

/// Executes an elementwise map through the kernel's plan (see
/// `KernelPlan`), compiled once for this call.
pub fn exec_map(
    spec: &MapSpec,
    operands: &[&Tensor],
    out_dtype: pmlang::DType,
) -> Result<Tensor, ExecError> {
    let mut out = init_output(&spec.write, operands, out_dtype)?;
    let mut points = Odometer::new(&spec.out_space);
    let mut plan = KernelPlan::default();
    let kernel = plan.expr(&spec.kernel, points.bounds(), operands);
    let place = plan.place(&spec.write.lhs, points.bounds(), out.shape());
    while let Some(point) = points.next_point() {
        let v = plan.eval(kernel, point, operands, &[])?;
        plan.store(place, point, &mut out, v)?;
    }
    Ok(out)
}

/// Executes a group reduction through its kernels' plan: one pass over
/// `out_space ++ red_space` accumulates, a second over `out_space` writes.
pub fn exec_reduce(
    spec: &ReduceSpec,
    operands: &[&Tensor],
    out_dtype: pmlang::DType,
) -> Result<Tensor, ExecError> {
    let out_points = space_size(&spec.out_space).max(1);
    let oversized = || {
        let out_dims: Vec<usize> = spec.out_space.iter().map(IndexRange::size).collect();
        too_large(&out_dims)
    };
    // Accumulators per output point.
    let mut acc: Vec<Option<Scalar>> = try_vec(out_points, None).ok_or_else(oversized)?;
    // Arg-reduction winners.
    let mut best: Vec<i64> = try_vec(out_points, 0).ok_or_else(oversized)?;

    let mut points = Odometer::new(spec.out_space.iter().chain(&spec.red_space));
    let mut plan = KernelPlan::default();
    let cond = spec.cond.as_ref().map(|c| plan.expr(c, points.bounds(), operands));
    let body = plan.expr(&spec.body, points.bounds(), operands);
    let fold = match &spec.op {
        ReduceOp::Builtin(b) if b.is_arg() => Fold::Arg { max: *b == BuiltinReduction::Argmax },
        ReduceOp::Builtin(b) => Fold::Builtin(*b),
        ReduceOp::Custom { combiner, .. } => Fold::Custom(plan.expr(combiner, &[], &[])),
    };
    // Row-major flat positions of the point in the output and in the
    // reduced space (the latter names an arg reduction's winner).
    let red_points = space_size(&spec.red_space) as i64;
    let (mut flat, mut red_flat) = (0usize, -1i64);
    while let Some(point) = points.next_point() {
        red_flat += 1;
        if red_flat == red_points {
            red_flat = 0;
            flat += 1;
        }
        if let Some(cond) = cond {
            if !plan.eval(cond, point, operands, &[])?.as_bool()? {
                continue;
            }
        }
        let elem = plan.eval(body, point, operands, &[])?;
        let slot = &mut acc[flat];
        let Some(prev) = *slot else {
            // The first element seeds the accumulator and the winner.
            best[flat] = red_flat;
            *slot = Some(elem);
            continue;
        };
        *slot = Some(match fold {
            Fold::Arg { max } => {
                let (p, v) = (prev.as_real()?, elem.as_real()?);
                if (max && v > p) || (!max && v < p) {
                    best[flat] = red_flat;
                    elem
                } else {
                    prev
                }
            }
            Fold::Builtin(b) => combine_builtin(b, prev, elem)?,
            Fold::Custom(combiner) => plan.eval(combiner, &[], &[], &[prev, elem])?,
        });
    }

    // Materialize the output tensor.
    let mut out = init_output(&spec.write, operands, out_dtype)?;
    let mut points = Odometer::new(&spec.out_space);
    let place = plan.place(&spec.write.lhs, points.bounds(), out.shape());
    let mut flat = 0usize;
    while let Some(point) = points.next_point() {
        let value = match (&spec.op, acc[flat]) {
            (ReduceOp::Builtin(b), None) => {
                if b.is_arg() {
                    Scalar::Real(0.0)
                } else {
                    Scalar::Real(b.identity())
                }
            }
            (ReduceOp::Builtin(b), Some(v)) => {
                if b.is_arg() {
                    Scalar::Real(best[flat] as f64)
                } else {
                    v
                }
            }
            (ReduceOp::Custom { .. }, None) => Scalar::Real(0.0),
            (ReduceOp::Custom { .. }, Some(v)) => v,
        };
        plan.store(place, point, &mut out, value)?;
        flat += 1;
    }
    Ok(out)
}

/// How a reduction folds an element into its accumulator.
#[derive(Clone, Copy)]
enum Fold {
    Builtin(BuiltinReduction),
    /// `argmax` (`max`) or `argmin`: the first strictly better element wins.
    Arg {
        max: bool,
    },
    Custom(PlanExpr),
}

fn combine_builtin(b: BuiltinReduction, prev: Scalar, elem: Scalar) -> Result<Scalar, ExecError> {
    // Sum/prod work on complex values (FFT); the rest require reals.
    match (b, prev, elem) {
        (BuiltinReduction::Sum, a, e) => Ok(crate::kernel::binary(pmlang::BinOp::Add, a, e)?),
        (BuiltinReduction::Prod, a, e) => Ok(crate::kernel::binary(pmlang::BinOp::Mul, a, e)?),
        (b, a, e) => Ok(Scalar::Real(b.combine(a.as_real()?, e.as_real()?))),
    }
}

fn exec_scalar(kind: &crate::graph::ScalarKind, operands: &[&Tensor]) -> Result<Tensor, ExecError> {
    use crate::graph::ScalarKind;
    use crate::kernel::{buffered, eval_binary, eval_call, eval_unary};
    let get = |i: usize| -> Result<Scalar, ExecError> {
        operands
            .get(i)
            .map(|t| t.get_flat(0))
            .ok_or_else(|| ExecError::new("missing scalar operand"))
    };
    let v = match kind {
        ScalarKind::Const(c) => Scalar::Real(*c),
        ScalarKind::Bin(op) => eval_binary(*op, get(0)?, get(1)?)?,
        ScalarKind::Un(op) => eval_unary(*op, get(0)?)?,
        ScalarKind::Func(f) => {
            buffered(f.arity(), Scalar::Real(0.0), get, |args| Ok(eval_call(*f, args)?))?
        }
        ScalarKind::Select => {
            if get(0)?.as_bool()? {
                get(1)?
            } else {
                get(2)?
            }
        }
    };
    let dtype = match v {
        Scalar::Real(_) => pmlang::DType::Float,
        Scalar::Complex(..) => pmlang::DType::Complex,
    };
    let mut t = Tensor::zeros(dtype, vec![]);
    t.set_flat(0, v)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Bindings};
    use pmlang::DType;

    fn run_once(
        src: &str,
        feeds: Vec<(&str, Tensor)>,
        sizes: Vec<(&str, i64)>,
    ) -> HashMap<String, Tensor> {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        let graph = build(&prog, &Bindings::from_sizes(sizes)).unwrap();
        let mut m = Machine::new(graph);
        let feeds: HashMap<String, Tensor> =
            feeds.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        m.invoke(&feeds).unwrap()
    }

    fn vec_t(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(DType::Float, vec![n], v).unwrap()
    }

    fn mat_t(r: usize, c: usize, v: Vec<f64>) -> Tensor {
        Tensor::from_vec(DType::Float, vec![r, c], v).unwrap()
    }

    #[test]
    fn an_odd_size_halves_by_truncation_everywhere() {
        // `n/2` and `m/2` at 5 are 2.5, read as the index 2 by the caller's
        // declaration, the callee's declaration and the size unification.
        let out = run_once(
            "half(input float x[m], output float y[m/2]) {
                 index i[0:m/2-1];
                 y[i] = x[2*i] + x[2*i+1];
             }
             main(input float x[n], output float y[n/2]) { half(x, y); }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0]))],
            vec![("n", 5)],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[3.0, 7.0]);
    }

    #[test]
    fn elementwise_scale() {
        let out = run_once(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = 2.0 * x[i] + 1.0;
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_via_reduce() {
        let out = run_once(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
            vec![
                ("A", mat_t(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
                ("B", vec_t(vec![1.0, 1.0, 1.0])),
            ],
            vec![],
        );
        assert_eq!(out["C"].as_real_slice().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn conditional_reduction_skips_diagonal() {
        let out = run_once(
            "main(input float A[3][3], output float res) {
                 index i[0:2], j[0:2];
                 res = sum[i][j: j != i](A[i][j]);
             }",
            vec![("A", mat_t(3, 3, vec![9.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 9.0]))],
            vec![],
        );
        assert_eq!(out["res"].scalar_value().unwrap(), 6.0);
    }

    #[test]
    fn custom_reduction_min() {
        let out = run_once(
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[5], output float res) {
                 index i[0:4];
                 res = mn[i](A[i]);
             }",
            vec![("A", vec_t(vec![3.0, -1.0, 4.0, 1.0, 5.0]))],
            vec![],
        );
        assert_eq!(out["res"].scalar_value().unwrap(), -1.0);
    }

    #[test]
    fn argmax_returns_position() {
        let out = run_once(
            "main(input float A[5], output float which) {
                 index i[0:4];
                 which = argmax[i](A[i]);
             }",
            vec![("A", vec_t(vec![3.0, -1.0, 9.0, 1.0, 5.0]))],
            vec![],
        );
        assert_eq!(out["which"].scalar_value().unwrap(), 2.0);
    }

    #[test]
    fn strided_partial_write_carries_previous() {
        // First write fills, second overwrites even positions.
        let out = run_once(
            "main(input float x[6], output float y[6]) {
                 index i[0:5], j[0:2];
                 y[i] = x[i];
                 y[2*j] = 0.0 - 1.0;
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[-1.0, 2.0, -1.0, 4.0, -1.0, 6.0]);
    }

    #[test]
    fn ssa_read_then_update() {
        // pred[k] = ...; pred[k] = pred[k] + ...  (paper lines 7-8)
        let out = run_once(
            "main(input float a[3], input float b[3], output float y[3]) {
                 index k[0:2];
                 y[k] = a[k];
                 y[k] = y[k] + b[k];
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0])), ("b", vec_t(vec![10.0, 20.0, 30.0]))],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn component_instantiation_inlines() {
        let out = run_once(
            "mvmul(input float A[m][n], input float B[n], output float C[m]) {
                 index i[0:n-1], j[0:m-1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }
             main(input float W[2][2], input float x[2], output float y[2]) {
                 DA: mvmul(W, x, y);
             }",
            vec![("W", mat_t(2, 2, vec![1.0, 2.0, 3.0, 4.0])), ("x", vec_t(vec![1.0, 10.0]))],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[21.0, 43.0]);
    }

    #[test]
    fn state_persists_across_invocations() {
        let prog = pmlang::parse(
            "main(input float x, state float acc, output float y) {
                 acc = acc + x;
                 y = acc;
             }",
        )
        .unwrap();
        let graph = build(&prog, &Bindings::default()).unwrap();
        let mut m = Machine::new(graph);
        for (step, expect) in [(1.0, 1.0), (2.0, 3.0), (3.0, 6.0)] {
            let feeds = HashMap::from([("x".to_string(), Tensor::scalar(DType::Float, step))]);
            let out = m.invoke(&feeds).unwrap();
            assert_eq!(out["y"].scalar_value().unwrap(), expect);
        }
        assert_eq!(m.state("acc").unwrap().scalar_value().unwrap(), 6.0);
    }

    #[test]
    fn int_param_binds_at_build_time() {
        let out = run_once(
            "main(input float x[8], param int h, output float y[2]) {
                 index j[0:1];
                 y[j] = x[h*j];
             }",
            vec![("x", vec_t(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))],
            vec![("h", 3)],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[0.0, 3.0]);
    }

    #[test]
    fn nonlinear_builtin_in_kernel() {
        let out = run_once(
            "main(input float x[3], output float y[3]) {
                 index i[0:2];
                 y[i] = sigmoid(x[i]);
             }",
            vec![("x", vec_t(vec![-50.0, 0.0, 50.0]))],
            vec![],
        );
        let y = out["y"].as_real_slice().unwrap();
        assert!(y[0] < 1e-10 && (y[1] - 0.5).abs() < 1e-12 && y[2] > 1.0 - 1e-10);
    }

    #[test]
    fn missing_feed_reports_name() {
        let prog = pmlang::parse("main(input float x, output float y) { y = x; }").unwrap();
        let graph = build(&prog, &Bindings::default()).unwrap();
        let mut m = Machine::new(graph);
        let err = m.invoke(&HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("`x`"), "{err}");
    }

    #[test]
    fn feed_shape_mismatch_rejected() {
        let prog = pmlang::parse(
            "main(input float x[3], output float y[3]) { index i[0:2]; y[i] = x[i]; }",
        )
        .unwrap();
        let graph = build(&prog, &Bindings::default()).unwrap();
        let mut m = Machine::new(graph);
        let feeds = HashMap::from([("x".to_string(), vec_t(vec![1.0, 2.0]))]);
        assert!(m.invoke(&feeds).is_err());
    }

    #[test]
    fn component_reading_output_incoming_value() {
        // The paper's update_ctrl_model reads its output arg (bound to a
        // written caller variable) before overwriting it.
        let out = run_once(
            "shiftset(input float g[4], output float c[4], param int h) {
                 index i[0:2], j[0:3];
                 c[j] = c[j] + g[j];
                 c[h] = 0.0;
             }
             main(input float g[4], state float c[4], output float y[4]) {
                 index j[0:3];
                 RBT: shiftset(g, c, 3);
                 y[j] = c[j];
             }",
            vec![("g", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        // state c starts at zeros; c = c + g = g; then c[3] = 0.
        assert_eq!(out["y"].as_real_slice().unwrap(), &[1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn reduce_inside_larger_expression() {
        let out = run_once(
            "main(input float A[2][3], input float b[2], output float y[2]) {
                 index i[0:2], j[0:1];
                 y[j] = sum[i](A[j][i]) + b[j];
             }",
            vec![
                ("A", mat_t(2, 3, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0])),
                ("b", vec_t(vec![0.5, 0.25])),
            ],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[3.5, 6.25]);
    }

    #[test]
    fn two_reductions_in_one_statement() {
        let out = run_once(
            "main(input float a[4], input float b[4], output float y) {
                 index i[0:3], j[0:3];
                 y = sum[i](a[i]) * sum[j](b[j]);
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0, 4.0])), ("b", vec_t(vec![1.0, 1.0, 1.0, 1.0]))],
            vec![],
        );
        assert_eq!(out["y"].scalar_value().unwrap(), 40.0);
    }

    #[test]
    fn empty_reduction_space_yields_identity() {
        let out = run_once(
            "main(input float a[4], output float y) {
                 index i[0:3];
                 y = sum[i: i > 100](a[i]);
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        assert_eq!(out["y"].scalar_value().unwrap(), 0.0);
    }

    #[test]
    fn complex_fft_style_butterfly() {
        // One butterfly stage on two complex points.
        let out = run_once(
            "main(input complex x[2], output complex y[2]) {
                 y[0] = x[0] + x[1];
                 y[1] = x[0] - x[1];
             }",
            vec![("x", Tensor::from_complex_vec(vec![2], vec![(1.0, 2.0), (3.0, -1.0)]).unwrap())],
            vec![],
        );
        let y = out["y"].as_complex_slice().unwrap();
        assert_eq!(y[0], (4.0, 1.0));
        assert_eq!(y[1], (-2.0, 3.0));
    }

    #[test]
    fn bitrev_indexing() {
        let out = run_once(
            "main(input float x[8], output float y[8]) {
                 index i[0:7];
                 y[i] = x[bitrev(i, 3)];
             }",
            vec![("x", vec_t(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))],
            vec![],
        );
        assert_eq!(out["y"].as_real_slice().unwrap(), &[0.0, 4.0, 2.0, 6.0, 1.0, 5.0, 3.0, 7.0]);
    }

    #[test]
    fn any_and_all_builtins() {
        let out = run_once(
            "main(input float a[4], output float anyp, output float allp) {
                 index i[0:3];
                 anyp = any[i](a[i] > 2.5);
                 allp = all[i](a[i] > 0.5);
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        assert_eq!(out["anyp"].scalar_value().unwrap(), 1.0);
        assert_eq!(out["allp"].scalar_value().unwrap(), 1.0);
        let out = run_once(
            "main(input float a[4], output float anyp, output float allp) {
                 index i[0:3];
                 anyp = any[i](a[i] > 10.0);
                 allp = all[i](a[i] > 1.5);
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        assert_eq!(out["anyp"].scalar_value().unwrap(), 0.0);
        assert_eq!(out["allp"].scalar_value().unwrap(), 0.0);
    }

    #[test]
    fn prod_and_max_builtins() {
        let out = run_once(
            "main(input float a[4], output float p, output float m) {
                 index i[0:3];
                 p = prod[i](a[i]);
                 m = max[i](a[i]);
             }",
            vec![("a", vec_t(vec![1.0, 2.0, 3.0, 4.0]))],
            vec![],
        );
        assert_eq!(out["p"].scalar_value().unwrap(), 24.0);
        assert_eq!(out["m"].scalar_value().unwrap(), 4.0);
    }
}
