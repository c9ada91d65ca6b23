//! Property tests for the kernel rewriters: folding and simplification
//! must preserve evaluation on arbitrary kernels, and must be idempotent.

use pm_passes::fold::{fold_kexpr, simplify_kexpr};
use pmlang::{BinOp, ScalarFunc, UnOp};
use proptest::prelude::*;
use srdfg::{KExpr, Scalar, Tensor};

fn kexpr_strategy() -> impl Strategy<Value = KExpr> {
    let leaf = prop_oneof![
        (-4.0..4.0f64).prop_map(|v| KExpr::Const((v * 8.0).round() / 8.0)),
        (0usize..2).prop_map(KExpr::Idx),
        (0usize..2, 0usize..2)
            .prop_map(|(slot, ix)| KExpr::Operand { slot, indices: vec![KExpr::Idx(ix)] }),
    ];
    leaf.prop_recursive(5, 40, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                ]
            )
                .prop_map(|(a, b, op)| KExpr::Binary(op, Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| KExpr::Unary(UnOp::Neg, Box::new(a))),
            inner.clone().prop_map(|a| KExpr::Call(ScalarFunc::Abs, vec![a])),
            inner.clone().prop_map(|a| KExpr::Call(ScalarFunc::Sigmoid, vec![a])),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| KExpr::Select(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

/// Checks that `rewrite` keeps `k`'s value at every point, with operands
/// `av` and `bv`: equal up to rounding, or both an error.
fn preserves_evaluation(
    rewrite: fn(&KExpr) -> (KExpr, usize),
    k: &KExpr,
    av: Vec<f64>,
    bv: Vec<f64>,
) -> Result<(), TestCaseError> {
    let a = Tensor::from_vec(pmlang::DType::Float, vec![2], av).unwrap();
    let b = Tensor::from_vec(pmlang::DType::Float, vec![2], bv).unwrap();
    let (rewritten, _) = rewrite(k);
    for p in [[0i64, 0], [0, 1], [1, 0], [1, 1]] {
        match (k.eval(&p, &[&a, &b], &[]), rewritten.eval(&p, &[&a, &b], &[])) {
            (Ok(Scalar::Real(u)), Ok(Scalar::Real(v))) => {
                prop_assert!((u - v).abs() <= 1e-9 * (1.0 + u.abs()), "{u} vs {v}");
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "divergent results: {other:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn folding_preserves_evaluation(
        k in kexpr_strategy(),
        av in proptest::collection::vec(-3.0..3.0f64, 2),
        bv in proptest::collection::vec(-3.0..3.0f64, 2),
    ) {
        preserves_evaluation(fold_kexpr, &k, av, bv)?;
    }

    #[test]
    fn simplification_preserves_evaluation(
        k in kexpr_strategy(),
        av in proptest::collection::vec(-3.0..3.0f64, 2),
        bv in proptest::collection::vec(-3.0..3.0f64, 2),
    ) {
        preserves_evaluation(simplify_kexpr, &k, av, bv)?;
    }

    /// Rewriters reach a fixpoint in one extra application.
    #[test]
    fn rewriters_are_idempotent(k in kexpr_strategy()) {
        let (once, _) = fold_kexpr(&k);
        let (twice, n) = fold_kexpr(&once);
        prop_assert_eq!(n, 0, "second fold still rewrote: {:?}", twice);
        let (once, _) = simplify_kexpr(&k);
        let (twice, n) = simplify_kexpr(&once);
        prop_assert_eq!(n, 0, "second simplify still rewrote: {:?}", twice);
    }

    /// Fold counts are honest: zero rewrites implies structural equality.
    #[test]
    fn zero_rewrites_means_unchanged(k in kexpr_strategy()) {
        let (folded, n) = fold_kexpr(&k);
        if n == 0 {
            prop_assert_eq!(&folded, &k);
        }
        let (simplified, n) = simplify_kexpr(&k);
        if n == 0 {
            prop_assert_eq!(&simplified, &k);
        }
    }
}
