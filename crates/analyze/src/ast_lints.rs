//! Declaration-level checks over the PMLang AST.
//!
//! These need no graph, so they see the program exactly as written: every
//! statement, every declaration, with full spans.

use crate::diagnostic::Diagnostic;
use pmlang::{Component, Expr, ExprKind, Program, Span, Stmt, TypeModifier};
use std::collections::HashSet;

/// Calls `f(name, span)` for every variable reference inside `e`
/// (including names used inside index expressions and reduction guards).
fn walk_expr(e: &Expr, f: &mut impl FnMut(&str, Span)) {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::StrLit(_) => {}
        ExprKind::Var(name) => f(name, e.span),
        ExprKind::Access { name, indices } => {
            f(name, e.span);
            for ix in indices {
                walk_expr(ix, f);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Ternary { cond, then, otherwise } => {
            walk_expr(cond, f);
            walk_expr(then, f);
            walk_expr(otherwise, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Reduce { iters, body, .. } => {
            for it in iters {
                if let Some(c) = &it.cond {
                    walk_expr(c, f);
                }
            }
            walk_expr(body, f);
        }
    }
}

/// Every variable reference in a statement, plus the assignment target.
fn walk_stmt(stmt: &Stmt, f: &mut impl FnMut(&str, Span)) {
    match stmt {
        Stmt::IndexDecl { specs, .. } => {
            for s in specs {
                walk_expr(&s.lo, f);
                walk_expr(&s.hi, f);
            }
        }
        Stmt::VarDecl { vars, .. } => {
            for (_, dims) in vars {
                for d in dims {
                    walk_expr(d, f);
                }
            }
        }
        Stmt::Assign { target, indices, value, span, .. } => {
            f(target, *span);
            for ix in indices {
                walk_expr(ix, f);
            }
            walk_expr(value, f);
        }
        Stmt::Instantiate { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
    }
}

/// `PM-W001` — `input`/`param`/`state` declarations that the component body
/// never references. Dead declarations usually indicate a forgotten wire-up
/// (and they still cost boundary-edge bookkeeping in the srDFG).
pub(crate) fn unused_decl(program: &Program, out: &mut Vec<Diagnostic>) {
    for comp in &program.components {
        let mut used: HashSet<String> = HashSet::new();
        // Dimension expressions of *other* declarations count as uses
        // (`input float A[n][m]` uses a size param `n`).
        for arg in &comp.args {
            for d in &arg.dims {
                walk_expr(d, &mut |name, _| {
                    used.insert(name.to_string());
                });
            }
        }
        for stmt in &comp.body {
            walk_stmt(stmt, &mut |name, _| {
                used.insert(name.to_string());
            });
        }
        for arg in &comp.args {
            let lintable = matches!(
                arg.modifier,
                TypeModifier::Input | TypeModifier::Param | TypeModifier::State
            );
            if lintable && !used.contains(&arg.name) {
                out.push(
                    Diagnostic::warning(
                        "PM-W001",
                        format!(
                            "{} `{}` of component `{}` is never used",
                            arg.modifier, arg.name, comp.name
                        ),
                    )
                    .at(arg.span)
                    .with_note("remove the declaration or reference it in the body"),
                );
            }
        }
    }
}

/// What one statement does to a particular variable.
#[derive(Clone, Copy, Default)]
struct Effect {
    reads: bool,
    writes: bool,
}

/// The read/write effect of `stmt` on variable `name`, resolving
/// instantiation argument directions through the callee's signature.
fn effect_on(program: &Program, stmt: &Stmt, name: &str) -> Effect {
    let mut eff = Effect::default();
    match stmt {
        Stmt::IndexDecl { .. } | Stmt::VarDecl { .. } => {
            walk_stmt(stmt, &mut |n, _| eff.reads |= n == name);
        }
        Stmt::Assign { target, indices, value, .. } => {
            eff.writes = target == name;
            let mut mark = |n: &str, _: Span| eff.reads |= n == name;
            for ix in indices {
                walk_expr(ix, &mut mark);
            }
            walk_expr(value, &mut mark);
        }
        Stmt::Instantiate { component, args, .. } => {
            let callee = program.components.iter().find(|c| &c.name == component);
            for (pos, actual) in args.iter().enumerate() {
                let mut mentioned = false;
                walk_expr(actual, &mut |n, _| mentioned |= n == name);
                if !mentioned {
                    continue;
                }
                match callee.and_then(|c| c.args.get(pos)).map(|a| a.modifier) {
                    Some(TypeModifier::Output) => eff.writes = true,
                    Some(TypeModifier::State) => {
                        eff.reads = true;
                        eff.writes = true;
                    }
                    // Input/param formals — or an unresolvable callee, where
                    // a read is the conservative assumption.
                    _ => eff.reads = true,
                }
            }
        }
    }
    eff
}

/// `PM-N002` — a `state` variable whose first access in the component body
/// is a read. That read observes the value carried over from the previous
/// invocation (zero on the first one) — the standard PolyMath accumulator
/// idiom, but worth surfacing because it makes the component's output
/// depend on invocation history.
pub(crate) fn state_read_before_write(program: &Program, out: &mut Vec<Diagnostic>) {
    for comp in &program.components {
        for arg in &comp.args {
            if arg.modifier != TypeModifier::State {
                continue;
            }
            if let Some(stmt) = first_carried_read(program, comp, &arg.name) {
                out.push(
                    Diagnostic::note(
                        "PM-N002",
                        format!(
                            "state `{}` is read before its first write in `{}`; \
                             the read observes the value carried from the previous \
                             invocation (zero initially)",
                            arg.name, comp.name
                        ),
                    )
                    .at(stmt.span())
                    .with_note(format!("`{}` is declared state at {}", arg.name, arg.span)),
                );
            }
        }
    }
}

/// The first statement that reads `name` before any *earlier* statement
/// wrote it. A statement that reads and writes in one go (`acc = acc + x`)
/// counts: its right-hand side still sees the carried value.
fn first_carried_read<'c>(program: &Program, comp: &'c Component, name: &str) -> Option<&'c Stmt> {
    for stmt in &comp.body {
        let eff = effect_on(program, stmt, name);
        if eff.reads {
            return Some(stmt);
        }
        if eff.writes {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one AST check over `source`.
    fn lint_one(check: fn(&Program, &mut Vec<Diagnostic>), source: &str) -> Vec<Diagnostic> {
        let (program, _) = pmlang::frontend(source).expect("test source must check");
        let mut out = Vec::new();
        check(&program, &mut out);
        out
    }

    #[test]
    fn flags_unused_input_param_and_state() {
        let diags = lint_one(
            unused_decl,
            "main(input float x[4], input float dead[4], param float w, state float s,
                  output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        let names: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(diags.len(), 3, "{names:?}");
        assert!(names.iter().any(|m| m.contains("`dead`")), "{names:?}");
        assert!(names.iter().any(|m| m.contains("`w`")), "{names:?}");
        assert!(names.iter().any(|m| m.contains("`s`")), "{names:?}");
        for d in &diags {
            assert_eq!(d.code, "PM-W001");
            let span = d.span.expect("decl span");
            assert!(!span.is_synthetic());
        }
    }

    #[test]
    fn size_param_used_only_in_dims_is_not_unused() {
        let diags = lint_one(
            unused_decl,
            "main(param int n, input float x[n], output float y[n]) {
                 index i[0:n-1];
                 y[i] = x[i];
             }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn instantiation_arguments_count_as_uses() {
        let diags = lint_one(
            unused_decl,
            "f(input float a, output float b) { b = a + 1.0; }
             main(input float x, output float y) { f(x, y); }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn accumulator_idiom_gets_a_note() {
        let diags = lint_one(
            state_read_before_write,
            "main(input float x, state float acc, output float y) {
                 acc = acc + x;
                 y = acc;
             }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PM-N002");
        assert_eq!(diags[0].severity, crate::Severity::Note);
        // The note points at the reading statement (line 2).
        assert_eq!(diags[0].span.unwrap().line, 2);
    }

    #[test]
    fn state_written_first_is_quiet() {
        let diags = lint_one(
            state_read_before_write,
            "main(input float x, state float acc, output float y) {
                 acc = x * 2.0;
                 y = acc;
             }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn state_passed_to_output_formal_is_a_write() {
        let diags = lint_one(
            state_read_before_write,
            "init(input float x, output float o) { o = x; }
             main(input float x, state float s, output float y) {
                 init(x, s);
                 y = s;
             }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
