//! Pretty-printer: renders an AST back to PMLang source.
//!
//! The printer is precedence-aware (it inserts only the parentheses the
//! grammar needs) and round-trips: for any program `p`,
//! `parse(print(p))` succeeds and prints identically — pinned by the
//! `roundtrip` tests and used by tooling that rewrites programs.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program.
pub fn print_program(prog: &Program) -> String {
    let mut out = String::new();
    for r in &prog.reductions {
        let _ =
            writeln!(out, "reduction {}({}, {}) = {};", r.name, r.acc, r.elem, print_expr(&r.body));
    }
    for c in &prog.components {
        out.push_str(&print_component(c));
    }
    out
}

/// Renders one component.
fn print_component(c: &Component) -> String {
    let mut out = String::new();
    let args: Vec<String> = c
        .args
        .iter()
        .map(|a| {
            let dims: String = a.dims.iter().map(|d| format!("[{}]", print_expr(d))).collect();
            format!("{} {} {}{}", a.modifier, a.dtype, a.name, dims)
        })
        .collect();
    let _ = writeln!(out, "{}({}) {{", c.name, args.join(", "));
    for stmt in &c.body {
        let _ = writeln!(out, "    {}", print_stmt(stmt));
    }
    out.push_str("}\n");
    out
}

/// Renders one statement (without trailing newline).
fn print_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::IndexDecl { specs, .. } => {
            let parts: Vec<String> = specs
                .iter()
                .map(|s| format!("{}[{}:{}]", s.name, print_expr(&s.lo), print_expr(&s.hi)))
                .collect();
            format!("index {};", parts.join(", "))
        }
        Stmt::VarDecl { dtype, vars, .. } => {
            let parts: Vec<String> = vars
                .iter()
                .map(|(name, dims)| {
                    let dims: String =
                        dims.iter().map(|d| format!("[{}]", print_expr(d))).collect();
                    format!("{name}{dims}")
                })
                .collect();
            format!("{dtype} {};", parts.join(", "))
        }
        Stmt::Assign { domain, target, indices, value, .. } => {
            let prefix = domain.map(|d| format!("{}: ", d.keyword())).unwrap_or_default();
            let ix: String = indices.iter().map(|i| format!("[{}]", print_expr(i))).collect();
            format!("{prefix}{target}{ix} = {};", print_expr(value))
        }
        Stmt::Instantiate { domain, component, args, .. } => {
            let prefix = domain.map(|d| format!("{}: ", d.keyword())).unwrap_or_default();
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{prefix}{component}({});", args.join(", "))
        }
    }
}

/// Binding strength of each operator level (higher binds tighter).
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne => 3,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        BinOp::Pow => 7,
    }
}

/// Renders an expression with minimal parentheses.
fn print_expr(e: &Expr) -> String {
    print_prec(e, 0)
}

fn print_prec(e: &Expr, parent: u8) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::FloatLit(v) => {
            // Keep the float/int distinction on reparse.
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        ExprKind::StrLit(s) => format!("{s:?}"),
        ExprKind::Var(name) => name.clone(),
        ExprKind::Access { name, indices } => {
            let ix: String = indices.iter().map(|i| format!("[{}]", print_expr(i))).collect();
            format!("{name}{ix}")
        }
        ExprKind::Unary { op, operand } => {
            let body = print_prec(operand, 8);
            let text = format!("{op}{body}");
            if parent > 7 {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let prec = precedence(*op);
            // Left-associative levels need the right child one notch
            // tighter; `^` is right-associative, so mirror it.
            let (lp, rp) = if *op == BinOp::Pow { (prec + 1, prec) } else { (prec, prec + 1) };
            let text = format!("{} {op} {}", print_prec(lhs, lp), print_prec(rhs, rp));
            if prec < parent {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Ternary { cond, then, otherwise } => {
            let text = format!(
                "{} ? {} : {}",
                print_prec(cond, 1),
                print_expr(then),
                print_prec(otherwise, 0)
            );
            if parent > 0 {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Call { name, args } => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        ExprKind::Reduce { op, iters, body } => {
            let iters: String = iters
                .iter()
                .map(|it| match &it.cond {
                    Some(c) => format!("[{}: {}]", it.index, print_expr(c)),
                    None => format!("[{}]", it.index),
                })
                .collect();
            format!("{op}{iters}({})", print_expr(body))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// `print ∘ parse` is idempotent: printing, reparsing, and printing
    /// again yields the same text.
    fn assert_roundtrip(src: &str) {
        let prog = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let printed = print_program(&prog);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let reprinted = print_program(&reparsed);
        assert_eq!(printed, reprinted, "printer not a fixpoint");
        crate::sema::check(&reparsed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    }

    #[test]
    fn roundtrips_the_paper_mpc() {
        assert_roundtrip(
            "predict_trajectory(input float pos[a], input float ctrl_mdl[b],
                                param float P[c][a], param float H[c][b],
                                output float pred[c]) {
                 index i[0:a-1], j[0:b-1], k[0:c-1];
                 pred[k] = sum[i](P[k][i]*pos[i]);
                 pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
             }
             main(input float pos[3], state float ctrl_mdl[20],
                  param float P[30][3], param float H[30][20],
                  output float sgnl[2]) {
                 index j[0:1];
                 float pred[30];
                 RBT: predict_trajectory(pos, ctrl_mdl, P, H, pred);
                 sgnl[j] = ctrl_mdl[10*j];
             }",
        );
    }

    #[test]
    fn roundtrips_reductions_and_conditionals() {
        assert_roundtrip(
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[4][4], output float res, output float m) {
                 index i[0:3], j[0:3];
                 res = sum[i][j: j != i](A[i][j]);
                 GA: m = mn[i](A[i][i]);
             }",
        );
    }

    #[test]
    fn precedence_parentheses_are_minimal_but_sufficient() {
        let cases = [
            ("y = a * (b + c);", "a * (b + c)"),
            ("y = a * b + c;", "a * b + c"),
            ("y = (a + b) * (c - d);", "(a + b) * (c - d)"),
            ("y = a - (b - c);", "a - (b - c)"),
            ("y = a - b - c;", "a - b - c"),
            ("y = 2.0 ^ b ^ c;", "2.0 ^ b ^ c"),
            ("y = (2.0 ^ b) ^ c;", "(2.0 ^ b) ^ c"),
            ("y = -(a + b);", "-(a + b)"),
            ("y = a < b && c > d ? a : b;", "a < b && c > d ? a : b"),
            ("y = (a > 0.0 ? a : b) * c;", "(a > 0.0 ? a : b) * c"),
        ];
        for (stmt_src, expect) in cases {
            let src = format!(
                "main(input float a, input float b, input float c, input float d,
                      output float y) {{ {stmt_src} }}"
            );
            let prog = parse(&src).unwrap();
            let crate::ast::Stmt::Assign { value, .. } = &prog.components[0].body[0] else {
                panic!()
            };
            assert_eq!(print_expr(value), expect, "for `{stmt_src}`");
            // And the rendering reparses to the same tree shape.
            assert_roundtrip(&src);
        }
    }

    #[test]
    fn float_literals_stay_floats() {
        let src = "main(input float x, output float y) { y = x * 2.0 + 3.5; }";
        let prog = parse(src).unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("2.0"), "{printed}");
        assert!(printed.contains("3.5"), "{printed}");
    }

    #[test]
    fn roundtrips_every_workload_source() {
        // Smoke: the printer handles real-sized generated programs too.
        let sources = [
            "main(input complex x[8], output complex X[8]) {
                 index i[0:7];
                 complex s0[8];
                 s0[i] = x[bitrev(i, 3)];
                 DSP: X[i] = s0[(i - i % 2) + (i % 1)]
                     + (1.0 - 2.0*floor((i % 2)/1.0))
                     * complex(cos(0.0 - 2.0*pi()*(i % 1)/2.0), sin(0.0)) * s0[i];
             }",
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[4], output float m) {
                 index i[0:3];
                 m = mn[i](A[i]);
             }",
        ];
        for src in sources {
            assert_roundtrip(src);
        }
    }
}
