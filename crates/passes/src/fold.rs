//! Constant folding and algebraic simplification over kernels.
//!
//! Both are classic passes the paper lists as supported by the PolyMath
//! pass infrastructure (§IV.B). They rewrite the scalar kernels carried by
//! `Map`/`Reduce` nodes; node names are recomputed afterwards so lowering
//! sees the simplified operation.

use crate::manager::{Pass, PassStats};
use pmlang::{BinOp, UnOp};
use srdfg::graph::map_op_name;
use srdfg::{KExpr, MapSpec, NodeKind, ReduceSpec, SrDfg};

/// Folds constant subexpressions inside kernels: `2 * 3 + x` → `6 + x`,
/// `pi()` → `3.14159…`, `-(1)` → `-1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantFold;

impl Pass for ConstantFold {
    fn name(&self) -> &'static str {
        "constant-fold"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        rewrite_kernels(graph, try_fold)
    }
}

/// Applies identity rewrites: `x*1 → x`, `x*0 → 0`, `x+0 → x`, `x-0 → x`,
/// `x/1 → x`, `x^1 → x`, `select(const, a, b) → a|b`, `!!x → x`, `--x → x`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgebraicSimplify;

impl Pass for AlgebraicSimplify {
    fn name(&self) -> &'static str {
        "algebraic-simplify"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        rewrite_kernels(graph, try_simplify)
    }
}

/// Runs a kernel rewriter over every Map/Reduce node, renaming nodes whose
/// kernel shape changed. The rewriter returns `None` when a kernel needs
/// no rewriting, so converged pipelines allocate nothing here.
fn rewrite_kernels(graph: &mut SrDfg, rewriter: fn(&KExpr) -> Option<(KExpr, usize)>) -> PassStats {
    let mut stats = PassStats::default();
    let ids: Vec<_> = graph.node_ids().collect();
    for id in ids {
        let node = graph.node_mut(id);
        match &mut node.kind {
            NodeKind::Map(spec) => {
                if let Some((kernel, n)) = rewriter(&spec.kernel) {
                    // Copy-on-write: the spec may be shared with sibling
                    // template instances, so divergence builds a fresh
                    // record (around the new kernel) instead of
                    // writing through the handle.
                    node.name = map_op_name(&kernel).into();
                    let owned = MapSpec {
                        out_space: spec.out_space.clone(),
                        kernel,
                        write: spec.write.clone(),
                    };
                    *spec = srdfg::Consed::new(owned);
                    stats.changed = true;
                    stats.rewrites += n;
                }
            }
            NodeKind::Reduce(spec) => {
                let body = rewriter(&spec.body);
                let cond = spec.cond.as_ref().and_then(rewriter);
                let total = body.as_ref().map_or(0, |b| b.1) + cond.as_ref().map_or(0, |c| c.1);
                if total > 0 {
                    // Copy-on-write, as for a Map spec.
                    let owned = ReduceSpec {
                        op: spec.op.clone(),
                        out_space: spec.out_space.clone(),
                        red_space: spec.red_space.clone(),
                        cond: cond.map(|c| c.0).or_else(|| spec.cond.clone()),
                        body: take_or_clone(body, &spec.body),
                        write: spec.write.clone(),
                    };
                    *spec = srdfg::Consed::new(owned);
                    stats.changed = true;
                    stats.rewrites += total;
                }
            }
            _ => {}
        }
    }
    stats
}

/// Rewrites an unchanged-or-rewritten child back into an owned `KExpr`.
fn take_or_clone(rewritten: Option<(KExpr, usize)>, original: &KExpr) -> KExpr {
    match rewritten {
        Some((k, _)) => k,
        None => original.clone(),
    }
}

/// Applies `f` to each list element; `None` when nothing changed (no
/// allocation), otherwise the rebuilt list and the total rewrite count.
fn try_rewrite_list(
    items: &[KExpr],
    f: fn(&KExpr) -> Option<(KExpr, usize)>,
) -> Option<(Vec<KExpr>, usize)> {
    // Find the first element that changes before allocating anything.
    let (first, r) = items.iter().enumerate().find_map(|(i, it)| f(it).map(|r| (i, r)))?;
    let mut n = r.1;
    let mut out: Vec<KExpr> = Vec::with_capacity(items.len());
    out.extend(items[..first].iter().cloned());
    out.push(r.0);
    for it in &items[first + 1..] {
        match f(it) {
            Some((k, c)) => {
                n += c;
                out.push(k);
            }
            None => out.push(it.clone()),
        }
    }
    Some((out, n))
}

/// Recursively folds constants; returns the rewritten kernel and the number
/// of folds applied.
pub fn fold_kexpr(k: &KExpr) -> (KExpr, usize) {
    match try_fold(k) {
        Some(r) => r,
        None => (k.clone(), 0),
    }
}

/// Copy-on-write constant folding: `None` means "already fully folded"
/// and performs no allocation; `Some` carries the rewritten kernel and
/// the fold count.
fn try_fold(k: &KExpr) -> Option<(KExpr, usize)> {
    match k {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => None,
        KExpr::Operand { slot, indices } => {
            let (ixs, n) = try_rewrite_list(indices, try_fold)?;
            Some((KExpr::Operand { slot: *slot, indices: ixs }, n))
        }
        KExpr::Unary(op, e) => {
            let child = try_fold(e);
            let n = child.as_ref().map_or(0, |(_, c)| *c);
            let cur = child.as_ref().map_or(&**e, |(e2, _)| e2);
            if let KExpr::Const(v) = cur {
                let folded = match op {
                    UnOp::Neg => -v,
                    UnOp::Not => {
                        if *v == 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                return Some((KExpr::Const(folded), n + 1));
            }
            child.map(|(e2, c)| (KExpr::Unary(*op, Box::new(e2)), c))
        }
        KExpr::Binary(op, a, b) => {
            let ca = try_fold(a);
            let cb = try_fold(b);
            let n = ca.as_ref().map_or(0, |(_, c)| *c) + cb.as_ref().map_or(0, |(_, c)| *c);
            let ra = ca.as_ref().map_or(&**a, |(x, _)| x);
            let rb = cb.as_ref().map_or(&**b, |(x, _)| x);
            if let (KExpr::Const(x), KExpr::Const(y)) = (ra, rb) {
                if let Ok(v) = srdfg::kernel::eval_binary(*op, (*x).into(), (*y).into()) {
                    if let Ok(r) = v.as_real() {
                        return Some((KExpr::Const(r), n + 1));
                    }
                }
            }
            if ca.is_none() && cb.is_none() {
                return None;
            }
            let a2 = take_or_clone(ca, a);
            let b2 = take_or_clone(cb, b);
            Some((KExpr::Binary(*op, Box::new(a2), Box::new(b2)), n))
        }
        KExpr::Select(c, a, b) => {
            let cc = try_fold(c);
            let ca = try_fold(a);
            let cb = try_fold(b);
            let n = cc.as_ref().map_or(0, |(_, x)| *x)
                + ca.as_ref().map_or(0, |(_, x)| *x)
                + cb.as_ref().map_or(0, |(_, x)| *x);
            let rc = cc.as_ref().map_or(&**c, |(x, _)| x);
            if let KExpr::Const(v) = rc {
                let taken = if *v != 0.0 { take_or_clone(ca, a) } else { take_or_clone(cb, b) };
                return Some((taken, n + 1));
            }
            if cc.is_none() && ca.is_none() && cb.is_none() {
                return None;
            }
            let c2 = take_or_clone(cc, c);
            let a2 = take_or_clone(ca, a);
            let b2 = take_or_clone(cb, b);
            Some((KExpr::Select(Box::new(c2), Box::new(a2), Box::new(b2)), n))
        }
        KExpr::Call(f, args) => {
            let folded = try_rewrite_list(args, try_fold);
            // Fold calls over all-constant arguments (complex-producing
            // builtins are left alone — Const is real-only).
            let cur: &[KExpr] = folded.as_ref().map_or(args, |(v, _)| v);
            let all_const = cur.iter().all(|a| matches!(a, KExpr::Const(_)));
            let produces_real = !matches!(f, pmlang::ScalarFunc::Complex);
            if all_const && produces_real {
                let vals: Vec<f64> = cur
                    .iter()
                    .map(|a| match a {
                        KExpr::Const(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                let n = folded.as_ref().map_or(0, |(_, c)| *c);
                return Some((KExpr::Const(f.eval_real(&vals)), n + 1));
            }
            folded.map(|(v, n)| (KExpr::Call(*f, v), n))
        }
    }
}

/// Recursively applies identity rewrites; returns the rewritten kernel and
/// the number of rewrites.
pub fn simplify_kexpr(k: &KExpr) -> (KExpr, usize) {
    match try_simplify(k) {
        Some(r) => r,
        None => (k.clone(), 0),
    }
}

/// Copy-on-write identity rewriting: `None` means "nothing to simplify"
/// and performs no allocation.
fn try_simplify(k: &KExpr) -> Option<(KExpr, usize)> {
    match k {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => None,
        KExpr::Operand { slot, indices } => {
            let (ixs, n) = try_rewrite_list(indices, try_simplify)?;
            Some((KExpr::Operand { slot: *slot, indices: ixs }, n))
        }
        KExpr::Unary(op, e) => {
            let child = try_simplify(e);
            let n = child.as_ref().map_or(0, |(_, c)| *c);
            let cur = child.as_ref().map_or(&**e, |(e2, _)| e2);
            // --x → x, !!x → x
            if let KExpr::Unary(inner_op, inner) = cur {
                if inner_op == op && *op == UnOp::Neg {
                    return Some(((**inner).clone(), n + 1));
                }
            }
            child.map(|(e2, c)| (KExpr::Unary(*op, Box::new(e2)), c))
        }
        KExpr::Binary(op, a, b) => {
            let ca = try_simplify(a);
            let cb = try_simplify(b);
            let n = ca.as_ref().map_or(0, |(_, c)| *c) + cb.as_ref().map_or(0, |(_, c)| *c);
            let is_const = |e: &KExpr, v: f64| matches!(e, KExpr::Const(c) if *c == v);
            let const_a = {
                let ra = ca.as_ref().map_or(&**a, |(x, _)| x);
                (is_const(ra, 0.0), is_const(ra, 1.0))
            };
            let const_b = {
                let rb = cb.as_ref().map_or(&**b, |(x, _)| x);
                (is_const(rb, 0.0), is_const(rb, 1.0))
            };
            match op {
                BinOp::Mul if const_b.1 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Mul if const_a.1 => Some((take_or_clone(cb, b), n + 1)),
                BinOp::Mul if const_a.0 || const_b.0 => Some((KExpr::Const(0.0), n + 1)),
                BinOp::Add if const_b.0 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Add if const_a.0 => Some((take_or_clone(cb, b), n + 1)),
                BinOp::Sub if const_b.0 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Div if const_b.1 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Pow if const_b.1 => Some((take_or_clone(ca, a), n + 1)),
                _ if ca.is_none() && cb.is_none() => None,
                _ => {
                    let a2 = take_or_clone(ca, a);
                    let b2 = take_or_clone(cb, b);
                    Some((KExpr::Binary(*op, Box::new(a2), Box::new(b2)), n))
                }
            }
        }
        KExpr::Select(c, a, b) => {
            let cc = try_simplify(c);
            let ca = try_simplify(a);
            let cb = try_simplify(b);
            let n = cc.as_ref().map_or(0, |(_, x)| *x)
                + ca.as_ref().map_or(0, |(_, x)| *x)
                + cb.as_ref().map_or(0, |(_, x)| *x);
            let same = {
                let ra = ca.as_ref().map_or(&**a, |(x, _)| x);
                let rb = cb.as_ref().map_or(&**b, |(x, _)| x);
                ra == rb
            };
            if same {
                return Some((take_or_clone(ca, a), n + 1));
            }
            if cc.is_none() && ca.is_none() && cb.is_none() {
                return None;
            }
            let c2 = take_or_clone(cc, c);
            let a2 = take_or_clone(ca, a);
            let b2 = take_or_clone(cb, b);
            Some((KExpr::Select(Box::new(c2), Box::new(a2), Box::new(b2)), n))
        }
        KExpr::Call(f, args) => {
            let (v, n) = try_rewrite_list(args, try_simplify)?;
            Some((KExpr::Call(*f, v), n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlang::ScalarFunc;

    fn op0() -> KExpr {
        KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }
    }

    #[test]
    fn folds_arithmetic() {
        // (2*3) + x → 6 + x
        let k = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Const(2.0)),
                Box::new(KExpr::Const(3.0)),
            )),
            Box::new(op0()),
        );
        let (r, n) = fold_kexpr(&k);
        assert_eq!(n, 1);
        assert_eq!(r, KExpr::Binary(BinOp::Add, Box::new(KExpr::Const(6.0)), Box::new(op0())));
    }

    #[test]
    fn folds_function_calls() {
        let k = KExpr::Call(ScalarFunc::Pi, vec![]);
        let (r, n) = fold_kexpr(&k);
        assert_eq!(n, 1);
        assert!(matches!(r, KExpr::Const(v) if (v - std::f64::consts::PI).abs() < 1e-15));
    }

    #[test]
    fn folds_select_with_const_condition() {
        let k = KExpr::Select(
            Box::new(KExpr::Const(1.0)),
            Box::new(op0()),
            Box::new(KExpr::Const(9.0)),
        );
        let (r, n) = fold_kexpr(&k);
        assert_eq!(r, op0());
        assert_eq!(n, 1);
    }

    #[test]
    fn does_not_fold_complex_constructor() {
        let k = KExpr::Call(ScalarFunc::Complex, vec![KExpr::Const(1.0), KExpr::Const(2.0)]);
        let (r, n) = fold_kexpr(&k);
        assert_eq!(n, 0);
        assert_eq!(r, k);
    }

    #[test]
    fn simplifies_identities() {
        for (k, expect) in [
            (KExpr::Binary(BinOp::Mul, Box::new(op0()), Box::new(KExpr::Const(1.0))), op0()),
            (
                KExpr::Binary(BinOp::Mul, Box::new(op0()), Box::new(KExpr::Const(0.0))),
                KExpr::Const(0.0),
            ),
            (KExpr::Binary(BinOp::Add, Box::new(KExpr::Const(0.0)), Box::new(op0())), op0()),
            (KExpr::Binary(BinOp::Sub, Box::new(op0()), Box::new(KExpr::Const(0.0))), op0()),
            (KExpr::Binary(BinOp::Div, Box::new(op0()), Box::new(KExpr::Const(1.0))), op0()),
            (KExpr::Binary(BinOp::Pow, Box::new(op0()), Box::new(KExpr::Const(1.0))), op0()),
        ] {
            let (r, n) = simplify_kexpr(&k);
            assert_eq!(r, expect);
            assert_eq!(n, 1, "{k:?}");
        }
    }

    #[test]
    fn simplifies_double_negation() {
        let k = KExpr::Unary(UnOp::Neg, Box::new(KExpr::Unary(UnOp::Neg, Box::new(op0()))));
        let (r, n) = simplify_kexpr(&k);
        assert_eq!(r, op0());
        assert_eq!(n, 1);
    }

    #[test]
    fn select_same_branches_collapses() {
        let k = KExpr::Select(Box::new(KExpr::Idx(0)), Box::new(op0()), Box::new(op0()));
        let (r, _) = simplify_kexpr(&k);
        assert_eq!(r, op0());
    }

    #[test]
    fn pass_renames_simplified_map() {
        // y[i] = x[i] * 1.0  — a "map" that simplifies to a "copy".
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 1.0; }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let before: Vec<_> = g.iter_nodes().map(|(_, n)| n.name.clone()).collect();
        assert!(before.iter().any(|n| n == "map.mul"));
        let stats = AlgebraicSimplify.run(&mut g);
        assert!(stats.changed);
        let after: Vec<_> = g.iter_nodes().map(|(_, n)| n.name.clone()).collect();
        assert!(after.iter().any(|n| n == "map.copy"), "{after:?}");
    }

    #[test]
    fn folding_preserves_semantics() {
        use std::collections::HashMap;
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = (2.0 * 3.0) * x[i] + (1.0 - 1.0);
             }",
        )
        .unwrap();
        let g0 = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut g1 = g0.clone();
        ConstantFold.run(&mut g1);
        AlgebraicSimplify.run(&mut g1);
        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let mut m0 = srdfg::Machine::new(g0);
        let mut m1 = srdfg::Machine::new(g1);
        let a = m0.invoke(&feeds).unwrap();
        let b = m1.invoke(&feeds).unwrap();
        assert_eq!(a["y"], b["y"]);
    }
}
