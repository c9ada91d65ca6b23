//! Constant folding and algebraic simplification over kernels.
//!
//! Both are classic passes the paper lists as supported by the PolyMath
//! pass infrastructure (§IV.B). They rewrite the scalar kernels carried by
//! `Map`/`Reduce` nodes; node names are recomputed afterwards so lowering
//! sees the simplified operation. A folded operator is evaluated by
//! `srdfg::kernel`, the interpreter's own definition of it, so a folded
//! kernel computes what the unfolded one would.

use crate::manager::{Pass, PassStats};
use pmlang::{BinOp, UnOp};
use srdfg::graph::map_op_name;
use srdfg::kernel::{eval_binary, eval_call, eval_unary};
use srdfg::{KExpr, MapSpec, NodeKind, ReduceSpec, Scalar, SrDfg};

/// Folds constant subexpressions inside kernels: `2 * 3 + x` → `6 + x`,
/// `pi()` → `3.14159…`, `-(1)` → `-1`, `1 ? a : b` → `a`. A result that is
/// not real (`complex(1, 2)`) stays unfolded: a `Const` holds a real.
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

/// Applies identity rewrites: `x*1 → x`, `1*x → x`, `x+0 → x`, `0+x → x`,
/// `x-0 → x`, `x/1 → x`, `x^1 → x`, `--x → x`, and `c ? a : a → a` when
/// `c` cannot fail. Each holds for every real `x` under the kernel's IEEE
/// arithmetic, up to the sign of a zero; `x*0` is kept, since it is NaN for
/// an infinite or NaN `x`, and so is a select whose condition reads an
/// operand, since that read may be out of bounds.
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
                if let Ok(Scalar::Real(r)) = eval_unary(*op, Scalar::Real(*v)) {
                    return Some((KExpr::Const(r), n + 1));
                }
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
                if let Ok(Scalar::Real(r)) = eval_binary(*op, (*x).into(), (*y).into()) {
                    return Some((KExpr::Const(r), n + 1));
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
                if let Ok(cond) = Scalar::Real(*v).as_bool() {
                    let taken = if cond { take_or_clone(ca, a) } else { take_or_clone(cb, b) };
                    return Some((taken, n + 1));
                }
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
            let cur: &[KExpr] = folded.as_ref().map_or(args, |(v, _)| v);
            let constant = |a: &KExpr| match a {
                KExpr::Const(v) => Some(Scalar::Real(*v)),
                _ => None,
            };
            if cur.iter().all(|a| constant(a).is_some()) {
                let vals: Vec<Scalar> = cur.iter().filter_map(constant).collect();
                if let Ok(Scalar::Real(r)) = eval_call(*f, &vals) {
                    let n = folded.as_ref().map_or(0, |(_, c)| *c);
                    return Some((KExpr::Const(r), n + 1));
                }
            }
            folded.map(|(v, n)| (KExpr::Call(*f, v), n))
        }
    }
}

/// True if evaluating `e` cannot fail: it reads no operand or argument
/// and calls no builtin, so every value it forms is real.
fn infallible(e: &KExpr) -> bool {
    match e {
        KExpr::Const(_) | KExpr::Idx(_) => true,
        KExpr::Unary(_, x) => infallible(x),
        KExpr::Binary(_, a, b) => infallible(a) && infallible(b),
        KExpr::Select(c, a, b) => [c, a, b].iter().all(|x| infallible(x)),
        KExpr::Operand { .. } | KExpr::Arg(_) | KExpr::Call(..) => false,
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
            // --x → x
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
            let is = |e: &Option<(KExpr, usize)>, orig: &KExpr, v: f64| matches!(e.as_ref().map_or(orig, |(x, _)| x), KExpr::Const(c) if *c == v);
            let (a0, a1) = (is(&ca, a, 0.0), is(&ca, a, 1.0));
            let (b0, b1) = (is(&cb, b, 0.0), is(&cb, b, 1.0));
            match op {
                BinOp::Mul if b1 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Mul if a1 => Some((take_or_clone(cb, b), n + 1)),
                BinOp::Add if b0 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Add if a0 => Some((take_or_clone(cb, b), n + 1)),
                BinOp::Sub if b0 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Div if b1 => Some((take_or_clone(ca, a), n + 1)),
                BinOp::Pow if b1 => Some((take_or_clone(ca, a), n + 1)),
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
            let rc = cc.as_ref().map_or(&**c, |(x, _)| x);
            let ra = ca.as_ref().map_or(&**a, |(x, _)| x);
            if ra == cb.as_ref().map_or(&**b, |(x, _)| x) && infallible(rc) {
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
    fn every_simplification_agrees_with_the_kernel() {
        let inf = f64::INFINITY;
        let values = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e308, -1e308, inf, -inf, f64::NAN];
        let x = || Box::new(KExpr::Arg(0));
        let mut operands: Vec<KExpr> = values.iter().map(|&v| KExpr::Const(v)).collect();
        operands.push(KExpr::Arg(0));
        let mut kernels = vec![
            KExpr::Unary(UnOp::Neg, Box::new(KExpr::Unary(UnOp::Neg, x()))),
            KExpr::Select(x(), x(), x()),
        ];
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Mod, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            for a in &operands {
                for b in &operands {
                    kernels.push(KExpr::Binary(op, Box::new(a.clone()), Box::new(b.clone())));
                }
            }
        }
        for k in &kernels {
            let (simplified, _) = simplify_kexpr(k);
            for &v in &values {
                let eval = |k: &KExpr| k.eval(&[], &[], &[Scalar::Real(v)]);
                let (want, got) = (eval(k), eval(&simplified));
                let agree = match (&want, &got) {
                    (Ok(Scalar::Real(a)), Ok(Scalar::Real(b))) => {
                        a == b || a.is_nan() && b.is_nan()
                    }
                    _ => want == got,
                };
                assert!(agree, "{k} → {simplified} at x = {v}: {want:?}, then {got:?}");
            }
        }
    }

    /// The output `y` of `source` fed `x`, as built and after the standard
    /// pipeline.
    fn at_o0_and_o2(source: &str, x: srdfg::Tensor) -> [Result<srdfg::Tensor, String>; 2] {
        let prog = pmlang::parse(source).unwrap();
        let g0 = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut g2 = g0.clone();
        crate::PassManager::standard().run(&mut g2);
        let feeds = std::collections::HashMap::from([("x".to_string(), x)]);
        [g0, g2].map(|g| match srdfg::Machine::new(g).invoke(&feeds) {
            Ok(mut out) => Ok(out.remove("y").unwrap()),
            Err(err) => Err(err.to_string()),
        })
    }

    #[test]
    fn a_product_with_zero_keeps_its_nan() {
        // exp(1000) is infinite, and ∞ · 0 is NaN at every optimization level.
        let x = srdfg::Tensor::scalar(pmlang::DType::Float, 1000.0);
        for y in at_o0_and_o2("main(input float x, output float y) { y = exp(x) * 0.0; }", x) {
            let y = y.unwrap().scalar_value().unwrap();
            assert!(y.is_nan(), "{y}");
        }
    }

    #[test]
    fn a_select_keeps_its_failing_condition() {
        // Both branches are 1, but the condition reads past the end of `x`.
        let source = "main(input float x[4], output float y[4]) {
                          index i[0:3];
                          y[i] = x[i + 4] > 0.0 ? 1.0 : 1.0;
                      }";
        let x = srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0; 4]).unwrap();
        for y in at_o0_and_o2(source, x) {
            assert!(y.as_ref().is_err_and(|e| e.contains("out of bounds")), "{y:?}");
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
