//! Semantic analysis for PMLang programs.
//!
//! Checks performed (shape checking with concrete sizes happens later, at
//! srDFG build time, when parameter values are known):
//!
//! * component and reduction names are unique and do not shadow built-ins;
//! * every referenced component and reduction exists, with matching arity;
//! * the component-instantiation graph is acyclic (components are inlined,
//!   so recursion would diverge);
//! * names within a component (arguments, locals, index variables) are
//!   unique, and every referenced variable is declared;
//! * assignment targets are writable (`output`, `state`, or a local — not
//!   `input`/`param`, not an index variable);
//! * `input` arguments are never written; `output` arguments are read only
//!   after being written; every `output` is written somewhere;
//! * instantiation arguments bound to callee `output`/`state` parameters
//!   are plain variable references;
//! * built-in function calls have the right arity;
//! * reduction iteration variables are declared index variables.

use crate::ast::*;
use crate::error::SemaError;
use crate::intrinsics::{BuiltinReduction, ScalarFunc};
use crate::span::Span;
use std::collections::{HashMap, HashSet};

/// Per-component metadata computed by [`check`].
#[derive(Debug, Clone, Default)]
pub struct ComponentInfo {
    /// Identifiers used in argument dimensions that are not themselves
    /// arguments: implicit size parameters bound at instantiation
    /// (e.g. `a`, `b`, `c` in the paper's `predict_trajectory`).
    pub size_params: Vec<String>,
    /// Names of components this component instantiates (with multiplicity).
    pub instantiates: Vec<String>,
    /// Variables assigned in the body.
    pub writes: Vec<String>,
}

/// Result of semantic analysis over a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramInfo {
    /// Metadata per component, keyed by component name.
    pub components: HashMap<String, ComponentInfo>,
}

/// Runs all semantic checks on `prog`.
///
/// The program does not need a `main` component to pass (libraries of
/// components are legal); the srDFG builder requires `main` separately.
///
/// # Errors
///
/// Returns the first [`SemaError`] found.
pub fn check(prog: &Program) -> Result<ProgramInfo, SemaError> {
    let mut info = ProgramInfo::default();

    // Unique component names, none shadowing a builtin function/reduction.
    let mut comp_names = HashSet::new();
    for c in &prog.components {
        if !comp_names.insert(c.name.as_str()) {
            return Err(err(c.span, format!("duplicate component `{}`", c.name)));
        }
        if ScalarFunc::by_name(&c.name).is_some() || BuiltinReduction::by_name(&c.name).is_some() {
            return Err(err(c.span, format!("component `{}` shadows a built-in", c.name)));
        }
    }
    // Unique reduction names.
    let mut red_names = HashSet::new();
    for r in &prog.reductions {
        if !red_names.insert(r.name.as_str()) {
            return Err(err(r.span, format!("duplicate reduction `{}`", r.name)));
        }
        if BuiltinReduction::by_name(&r.name).is_some() {
            return Err(err(r.span, format!("reduction `{}` shadows a built-in", r.name)));
        }
        check_reduction_body(r)?;
    }

    for c in &prog.components {
        let ci = check_component(prog, c)?;
        info.components.insert(c.name.clone(), ci);
    }

    check_acyclic(prog, &info)?;
    Ok(info)
}

fn err(span: Span, message: String) -> SemaError {
    SemaError { message, span }
}

/// The custom-reduction body may only reference its two parameters,
/// literals, and built-in scalar functions.
fn check_reduction_body(r: &ReductionDef) -> Result<(), SemaError> {
    fn walk(e: &Expr, r: &ReductionDef) -> Result<(), SemaError> {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Ok(()),
            ExprKind::Var(name) => {
                if name == &r.acc || name == &r.elem {
                    Ok(())
                } else {
                    Err(err(
                        e.span,
                        format!("reduction `{}` references unknown name `{name}`", r.name),
                    ))
                }
            }
            ExprKind::Access { .. } => Err(err(
                e.span,
                format!("reduction `{}` body must be scalar (no indexed access)", r.name),
            )),
            ExprKind::Unary { operand, .. } => walk(operand, r),
            ExprKind::Binary { lhs, rhs, .. } => {
                walk(lhs, r)?;
                walk(rhs, r)
            }
            ExprKind::Ternary { cond, then, otherwise } => {
                walk(cond, r)?;
                walk(then, r)?;
                walk(otherwise, r)
            }
            ExprKind::Call { name, args } => {
                let f = ScalarFunc::by_name(name).ok_or_else(|| {
                    err(e.span, format!("unknown function `{name}` in reduction `{}`", r.name))
                })?;
                if args.len() != f.arity() {
                    return Err(err(
                        e.span,
                        format!("`{name}` expects {} arguments, got {}", f.arity(), args.len()),
                    ));
                }
                args.iter().try_for_each(|a| walk(a, r))
            }
            ExprKind::Reduce { .. } => Err(err(
                e.span,
                format!("reduction `{}` body may not contain a nested reduction", r.name),
            )),
        }
    }
    walk(&r.body, r)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarClass {
    Arg(TypeModifier),
    Local,
    IndexVar,
}

/// A component's names, borrowed from its AST.
#[derive(Default)]
struct Scope<'a> {
    vars: HashMap<&'a str, VarClass>,
    /// Declared rank (number of dimensions) per tensor variable.
    ranks: HashMap<&'a str, usize>,
    /// Variables that have been assigned so far.
    written: HashSet<&'a str>,
}

fn check_component(prog: &Program, comp: &Component) -> Result<ComponentInfo, SemaError> {
    let mut scope = Scope::default();
    let mut ci = ComponentInfo::default();

    // Arguments.
    for a in &comp.args {
        scope.ranks.insert(&a.name, a.dims.len());
        if scope.vars.insert(&a.name, VarClass::Arg(a.modifier)).is_some() {
            return Err(err(a.span, format!("duplicate argument `{}`", a.name)));
        }
        if a.dtype == DType::Str && !a.dims.is_empty() {
            return Err(err(
                a.span,
                format!("argument `{}`: str arrays are not supported", a.name),
            ));
        }
    }
    // Implicit size parameters: identifiers in argument dims that are not
    // arguments themselves. They behave as scalar int params in the body.
    let mut size_params: Vec<&str> = Vec::new();
    for a in &comp.args {
        for d in &a.dims {
            collect_free_idents(d, &mut |name, span| {
                if !scope.vars.contains_key(name) && ScalarFunc::by_name(name).is_none() {
                    if !size_params.contains(&name) {
                        size_params.push(name);
                    }
                    Ok(())
                } else if matches!(scope.vars.get(name), Some(VarClass::Arg(m)) if *m != TypeModifier::Param)
                {
                    Err(err(
                        span,
                        format!("dimension of `{}` references non-param argument `{name}`", a.name),
                    ))
                } else {
                    Ok(())
                }
            })?;
        }
    }
    for &sp in &size_params {
        scope.vars.insert(sp, VarClass::Arg(TypeModifier::Param));
    }
    ci.size_params = size_params.into_iter().map(String::from).collect();

    // Body.
    for stmt in &comp.body {
        match stmt {
            Stmt::IndexDecl { specs, span } => {
                for s in specs {
                    if scope.vars.insert(&s.name, VarClass::IndexVar).is_some() {
                        return Err(err(*span, format!("duplicate name `{}`", s.name)));
                    }
                    // Bounds may reference params, size params, and literals.
                    check_expr(prog, &scope, &s.lo)?;
                    check_expr(prog, &scope, &s.hi)?;
                }
            }
            Stmt::VarDecl { vars, span, .. } => {
                for (name, dims) in vars {
                    scope.ranks.insert(name, dims.len());
                    if scope.vars.insert(name, VarClass::Local).is_some() {
                        return Err(err(*span, format!("duplicate name `{name}`")));
                    }
                    for d in dims {
                        check_expr(prog, &scope, d)?;
                    }
                }
            }
            Stmt::Assign { target, indices, value, span, .. } => {
                match scope.vars.get(target.as_str()) {
                    None => return Err(err(*span, format!("assignment to undeclared `{target}`"))),
                    Some(VarClass::IndexVar) => {
                        return Err(err(
                            *span,
                            format!("cannot assign to index variable `{target}`"),
                        ))
                    }
                    Some(VarClass::Arg(TypeModifier::Input)) => {
                        return Err(err(*span, format!("cannot assign to input `{target}`")))
                    }
                    Some(VarClass::Arg(TypeModifier::Param)) => {
                        return Err(err(*span, format!("cannot assign to param `{target}`")))
                    }
                    Some(VarClass::Arg(_)) | Some(VarClass::Local) => {}
                }
                if let Some(&rank) = scope.ranks.get(target.as_str()) {
                    if indices.len() != rank {
                        return Err(err(
                            *span,
                            format!(
                                "`{target}` has rank {rank} but the left-hand side uses {} {}",
                                indices.len(),
                                if indices.len() == 1 { "index" } else { "indices" }
                            ),
                        ));
                    }
                }
                for ix in indices {
                    check_expr(prog, &scope, ix)?;
                }
                check_expr(prog, &scope, value)?;
                scope.written.insert(target);
            }
            Stmt::Instantiate { component, args, span, .. } => {
                let callee = prog.component(component).ok_or_else(|| {
                    err(*span, format!("instantiation of unknown component `{component}`"))
                })?;
                if callee.name == comp.name {
                    return Err(err(
                        *span,
                        format!("component `{}` instantiates itself", comp.name),
                    ));
                }
                if args.len() != callee.args.len() {
                    return Err(err(
                        *span,
                        format!(
                            "`{component}` expects {} arguments, got {}",
                            callee.args.len(),
                            args.len()
                        ),
                    ));
                }
                for (actual, formal) in args.iter().zip(&callee.args) {
                    match formal.modifier {
                        TypeModifier::Output | TypeModifier::State => {
                            // Must be a plain variable we can write to.
                            let name = match &actual.kind {
                                ExprKind::Var(n) => n,
                                ExprKind::Access { name, .. } => name,
                                _ => {
                                    return Err(err(
                                        actual.span,
                                        format!(
                                            "argument for `{}` ({}) must be a variable",
                                            formal.name, formal.modifier
                                        ),
                                    ))
                                }
                            };
                            match scope.vars.get(name.as_str()) {
                                Some(VarClass::Arg(TypeModifier::Input))
                                | Some(VarClass::Arg(TypeModifier::Param))
                                    if formal.modifier == TypeModifier::Output =>
                                {
                                    return Err(err(
                                        actual.span,
                                        format!(
                                            "cannot bind read-only `{name}` to output `{}`",
                                            formal.name
                                        ),
                                    ))
                                }
                                Some(VarClass::IndexVar) => {
                                    return Err(err(
                                        actual.span,
                                        format!(
                                            "cannot bind index variable `{name}` to `{}`",
                                            formal.name
                                        ),
                                    ))
                                }
                                None => {
                                    return Err(err(
                                        actual.span,
                                        format!("undeclared variable `{name}`"),
                                    ))
                                }
                                _ => {}
                            }
                            scope.written.insert(name);
                        }
                        TypeModifier::Input | TypeModifier::Param => {
                            check_expr(prog, &scope, actual)?;
                        }
                    }
                }
                ci.instantiates.push(component.clone());
            }
        }
    }

    // Every output must be written.
    for a in &comp.args {
        if a.modifier == TypeModifier::Output && !scope.written.contains(a.name.as_str()) {
            return Err(err(a.span, format!("output `{}` is never written", a.name)));
        }
    }
    ci.writes = scope.written.into_iter().map(String::from).collect();
    ci.writes.sort();
    Ok(ci)
}

/// Maximum expression nesting depth. Deeper trees would exhaust the
/// stack in the recursive passes downstream, so they are rejected here
/// with a diagnostic instead.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Checks an expression for undeclared names, bad calls, and reduce-iter
/// validity.
fn check_expr(prog: &Program, scope: &Scope, e: &Expr) -> Result<(), SemaError> {
    check_expr_depth(prog, scope, e, 0)
}

fn check_expr_depth(
    prog: &Program,
    scope: &Scope,
    e: &Expr,
    depth: usize,
) -> Result<(), SemaError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(err(
            e.span,
            format!("expression nesting exceeds the {MAX_EXPR_DEPTH}-level limit"),
        ));
    }
    let check_expr = |prog, scope, e| check_expr_depth(prog, scope, e, depth + 1);
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Ok(()),
        ExprKind::Var(name) => {
            if scope.vars.contains_key(name.as_str()) {
                Ok(())
            } else {
                Err(err(e.span, format!("undeclared variable `{name}`")))
            }
        }
        ExprKind::Access { name, indices } => {
            match scope.vars.get(name.as_str()) {
                None => return Err(err(e.span, format!("undeclared variable `{name}`"))),
                Some(VarClass::IndexVar) => {
                    return Err(err(e.span, format!("index variable `{name}` cannot be indexed")))
                }
                Some(_) => {}
            }
            indices.iter().try_for_each(|ix| check_expr(prog, scope, ix))
        }
        ExprKind::Unary { operand, .. } => check_expr(prog, scope, operand),
        ExprKind::Binary { lhs, rhs, .. } => {
            check_expr(prog, scope, lhs)?;
            check_expr(prog, scope, rhs)
        }
        ExprKind::Ternary { cond, then, otherwise } => {
            check_expr(prog, scope, cond)?;
            check_expr(prog, scope, then)?;
            check_expr(prog, scope, otherwise)
        }
        ExprKind::Call { name, args } => {
            let f = ScalarFunc::by_name(name)
                .ok_or_else(|| err(e.span, format!("unknown function `{name}`")))?;
            if args.len() != f.arity() {
                return Err(err(
                    e.span,
                    format!("`{name}` expects {} arguments, got {}", f.arity(), args.len()),
                ));
            }
            args.iter().try_for_each(|a| check_expr(prog, scope, a))
        }
        ExprKind::Reduce { op, iters, body } => {
            if BuiltinReduction::by_name(op).is_none() && prog.reduction(op).is_none() {
                return Err(err(e.span, format!("unknown reduction `{op}`")));
            }
            for it in iters {
                match scope.vars.get(it.index.as_str()) {
                    Some(VarClass::IndexVar) => {}
                    Some(_) => {
                        return Err(err(
                            it.span,
                            format!("`{}` is not an index variable", it.index),
                        ))
                    }
                    None => {
                        return Err(err(
                            it.span,
                            format!("undeclared index variable `{}`", it.index),
                        ))
                    }
                }
                if let Some(c) = &it.cond {
                    check_expr(prog, scope, c)?;
                }
            }
            check_expr(prog, scope, body)
        }
    }
}

fn collect_free_idents<'a>(
    e: &'a Expr,
    f: &mut impl FnMut(&'a str, Span) -> Result<(), SemaError>,
) -> Result<(), SemaError> {
    match &e.kind {
        ExprKind::Var(name) => f(name, e.span),
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Ok(()),
        ExprKind::Access { indices, .. } => {
            indices.iter().try_for_each(|ix| collect_free_idents(ix, f))
        }
        ExprKind::Unary { operand, .. } => collect_free_idents(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_free_idents(lhs, f)?;
            collect_free_idents(rhs, f)
        }
        ExprKind::Ternary { cond, then, otherwise } => {
            collect_free_idents(cond, f)?;
            collect_free_idents(then, f)?;
            collect_free_idents(otherwise, f)
        }
        ExprKind::Call { args, .. } => args.iter().try_for_each(|a| collect_free_idents(a, f)),
        ExprKind::Reduce { body, .. } => collect_free_idents(body, f),
    }
}

/// Rejects recursive component instantiation (components are inlined).
fn check_acyclic(prog: &Program, info: &ProgramInfo) -> Result<(), SemaError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        InProgress,
        Done,
    }
    fn visit<'a>(
        name: &'a str,
        prog: &Program,
        info: &'a ProgramInfo,
        marks: &mut HashMap<&'a str, Mark>,
    ) -> Result<(), SemaError> {
        match marks.get(name) {
            Some(Mark::Done) => return Ok(()),
            Some(Mark::InProgress) => {
                let span = prog.component(name).map(|c| c.span).unwrap_or_default();
                return Err(err(span, format!("recursive instantiation cycle through `{name}`")));
            }
            None => {}
        }
        marks.insert(name, Mark::InProgress);
        if let Some(ci) = info.components.get(name) {
            for callee in &ci.instantiates {
                visit(callee, prog, info, marks)?;
            }
        }
        marks.insert(name, Mark::Done);
        Ok(())
    }
    let mut marks = HashMap::new();
    for c in &prog.components {
        visit(&c.name, prog, info, &mut marks)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<ProgramInfo, SemaError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn accepts_paper_style_component() {
        let info = check_src(
            "predict_trajectory(input float pos[a], input float ctrl_mdl[b],
                                param float P[c][a], param float H[c][b],
                                output float pred[c]) {
                 index i[0:a-1], j[0:b-1], k[0:c-1];
                 pred[k] = sum[i](P[k][i]*pos[i]);
                 pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
             }",
        )
        .unwrap();
        let ci = &info.components["predict_trajectory"];
        assert_eq!(ci.size_params, vec!["a", "b", "c"]);
        assert_eq!(ci.writes, vec!["pred"]);
    }

    #[test]
    fn rejects_write_to_input() {
        let e = check_src("main(input float x, output float y) { x = 1.0; y = x; }").unwrap_err();
        assert!(e.message.contains("input"), "{e}");
    }

    #[test]
    fn rejects_write_to_param() {
        let e = check_src("main(param float p, output float y) { p = 1.0; y = p; }").unwrap_err();
        assert!(e.message.contains("param"), "{e}");
    }

    #[test]
    fn rejects_undeclared_variable() {
        let e = check_src("main(input float x, output float y) { y = z; }").unwrap_err();
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn rejects_unwritten_output() {
        let e = check_src("main(input float x, output float y, output float z) { y = x; }")
            .unwrap_err();
        assert!(e.message.contains("never written"), "{e}");
    }

    #[test]
    fn rejects_unknown_component() {
        let e = check_src("main(input float x, output float y) { f(x, y); y = x; }").unwrap_err();
        assert!(e.message.contains("unknown component"), "{e}");
    }

    #[test]
    fn rejects_arity_mismatch_instantiation() {
        let e = check_src(
            "f(input float a, output float b) { b = a; }
             main(input float x, output float y) { f(x); y = x; }",
        )
        .unwrap_err();
        assert!(e.message.contains("expects 2"), "{e}");
    }

    #[test]
    fn rejects_self_recursion() {
        let e = check_src(
            "f(input float a, output float b) { f(a, b); }
             main(input float x, output float y) { f(x, y); }",
        )
        .unwrap_err();
        assert!(e.message.contains("instantiates itself"), "{e}");
    }

    #[test]
    fn rejects_mutual_recursion() {
        let e = check_src(
            "f(input float a, output float b) { g(a, b); }
             g(input float a, output float b) { f(a, b); }",
        )
        .unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn rejects_unknown_function() {
        let e =
            check_src("main(input float x, output float y) { y = frobnicate(x); }").unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn rejects_wrong_builtin_arity() {
        let e = check_src("main(input float x, output float y) { y = pow(x); }").unwrap_err();
        assert!(e.message.contains("expects 2"), "{e}");
    }

    #[test]
    fn rejects_unknown_reduction() {
        let e = check_src(
            "main(input float A[n], output float y) { index i[0:n-1]; y = median[i](A[i]); }",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown reduction"), "{e}");
    }

    #[test]
    fn accepts_custom_reduction_use() {
        check_src(
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[n], output float y) { index i[0:n-1]; y = mn[i](A[i]); }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_reduction_over_non_index() {
        let e =
            check_src("main(input float A[n], param int k, output float y) { y = sum[k](A[k]); }")
                .unwrap_err();
        assert!(e.message.contains("not an index variable"), "{e}");
    }

    #[test]
    fn rejects_custom_reduction_with_free_names() {
        let e = check_src(
            "reduction bad(a, b) = a + c;
             main(input float x, output float y) { y = x; }",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown name"), "{e}");
    }

    #[test]
    fn rejects_duplicate_component() {
        let e = check_src(
            "f(input float a, output float b) { b = a; }
             f(input float a, output float b) { b = a; }",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate component"), "{e}");
    }

    #[test]
    fn rejects_shadowing_builtin_reduction() {
        let e = check_src(
            "reduction sum(a, b) = a + b;
             main(input float x, output float y) { y = x; }",
        )
        .unwrap_err();
        assert!(e.message.contains("shadows"), "{e}");
    }

    #[test]
    fn rejects_binding_input_to_output_arg() {
        let e = check_src(
            "f(input float a, output float b) { b = a; }
             main(input float x, output float y) { f(x, x); y = x; }",
        )
        .unwrap_err();
        assert!(e.message.contains("read-only"), "{e}");
    }

    #[test]
    fn state_arg_can_be_read_and_written() {
        check_src(
            "main(input float x, state float s, output float y) {
                 s = s + x;
                 y = s;
             }",
        )
        .unwrap();
    }

    #[test]
    fn duplicate_local_rejected() {
        let e = check_src("main(input float x, output float y) { float t; float t; y = x; }")
            .unwrap_err();
        assert!(e.message.contains("duplicate name"), "{e}");
    }

    #[test]
    fn size_params_collected_in_order() {
        let info = check_src(
            "f(input float A[rows][cols], input float B[cols], output float C[rows]) {
                 index i[0:cols-1], j[0:rows-1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
        )
        .unwrap();
        assert_eq!(info.components["f"].size_params, vec!["rows", "cols"]);
    }
}
