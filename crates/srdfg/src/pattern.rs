//! Recognition of coarse compute patterns on `Reduce` nodes.
//!
//! Coarse-granularity accelerators (the DL backend in particular) accept
//! whole layers — `conv2d`, `matmul`, `matvec` — rather than scalar ops.
//! The builder tags Reduce nodes whose index structure matches one of these
//! shapes so the lowering algorithm can leave them at layer granularity
//! when the target supports them (paper §III.C: "an accelerator might
//! support the element-wise multiplication in ④, but requires the number
//! of elements being multiplied").

use crate::graph::{Pattern, ReduceOp, ReduceSpec};
use crate::kernel::KExpr;
use pmlang::{BinOp, BuiltinReduction};

/// Classifies a reduction node's compute pattern, if it matches one of the
/// recognized layer shapes.
pub fn detect_pattern(spec: &ReduceSpec) -> Option<Pattern> {
    match &spec.op {
        ReduceOp::Builtin(BuiltinReduction::Sum) => detect_sum_pattern(spec),
        ReduceOp::Builtin(BuiltinReduction::Max) => detect_pool(spec),
        _ => None,
    }
}

fn detect_sum_pattern(spec: &ReduceSpec) -> Option<Pattern> {
    let out = spec.out_space.len();
    let red = spec.red_space.len();
    // The body must be a product of operand reads (2 factors for the dense
    // linear-algebra patterns).
    let mut factors = Vec::with_capacity(2);
    if !product_factors(&spec.body, &mut factors) || factors.len() != 2 {
        return None;
    }
    let (a, b) = (factors[0], factors[1]);
    match (out, red) {
        // dot: y = Σ_k a[k]·b[k]
        (0, 1) if is_plain(a, &[out]) && is_plain(b, &[out]) => Some(Pattern::Dot),
        // matvec: y[i] = Σ_k A[i,k]·x[k] (either factor order / layout)
        (1, 1) => {
            let matvec = (is_plain(a, &[0, 1]) || is_plain(a, &[1, 0])) && is_plain(b, &[1])
                || (is_plain(b, &[0, 1]) || is_plain(b, &[1, 0])) && is_plain(a, &[1]);
            if matvec {
                Some(Pattern::MatVec)
            } else {
                None
            }
        }
        // matmul: C[i,j] = Σ_k A[i,k]·B[k,j]
        (2, 1) => {
            let ab = is_plain(a, &[0, 2]) && is_plain(b, &[2, 1]);
            let ba = is_plain(b, &[0, 2]) && is_plain(a, &[2, 1]);
            if ab || ba {
                Some(Pattern::MatMul)
            } else {
                None
            }
        }
        // conv2d: out[c,i,j] (or out[i,j]) reduced over (ic, kh, kw) with
        // at least one affine spatial access mixing out and red indices.
        (2..=4, 2..=3) => {
            let spatial_mix = factors.iter().any(|f| has_affine_mixed_access(f, out));
            if spatial_mix {
                Some(Pattern::Conv2d)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn detect_pool(spec: &ReduceSpec) -> Option<Pattern> {
    // pool: out[c,i,j] = max over (kh, kw) of a single operand read with
    // affine mixed spatial indices.
    if spec.red_space.len() != 2 {
        return None;
    }
    if let KExpr::Operand { .. } = &spec.body {
        if has_affine_mixed_access(&spec.body, spec.out_space.len()) {
            return Some(Pattern::Pool);
        }
    }
    None
}

/// Appends a kernel's multiplication factors to `out`; false if the kernel
/// is not a pure product of operand reads.
fn product_factors<'k>(k: &'k KExpr, out: &mut Vec<&'k KExpr>) -> bool {
    match k {
        KExpr::Binary(BinOp::Mul, a, b) => product_factors(a, out) && product_factors(b, out),
        KExpr::Operand { .. } => {
            out.push(k);
            true
        }
        _ => false,
    }
}

/// True if `k` is an operand read whose indices are exactly `Idx(positions)`
/// in the given order.
fn is_plain(k: &KExpr, positions: &[usize]) -> bool {
    match k {
        KExpr::Operand { indices, .. } => {
            indices.len() == positions.len()
                && indices.iter().zip(positions).all(|(ix, p)| *ix == KExpr::Idx(*p))
        }
        _ => false,
    }
}

/// True if `k` is an operand read where some axis mixes an output-space
/// index with a reduction-space index through affine arithmetic (the
/// sliding-window signature of convolution/pooling).
fn has_affine_mixed_access(k: &KExpr, out_rank: usize) -> bool {
    fn idx_positions(e: &KExpr, out: &mut Vec<usize>) {
        match e {
            KExpr::Idx(p) => out.push(*p),
            KExpr::Binary(_, a, b) => {
                idx_positions(a, out);
                idx_positions(b, out);
            }
            KExpr::Unary(_, a) => idx_positions(a, out),
            _ => {}
        }
    }
    match k {
        KExpr::Operand { indices, .. } => indices.iter().any(|ix| {
            if matches!(ix, KExpr::Idx(_)) {
                return false;
            }
            let mut ps = Vec::new();
            idx_positions(ix, &mut ps);
            ps.iter().any(|p| *p < out_rank) && ps.iter().any(|p| *p >= out_rank)
        }),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{IndexRange, WriteSpec};

    fn range(name: &str, n: i64) -> IndexRange {
        IndexRange { name: name.into(), lo: 0, hi: n - 1 }
    }

    fn sum_spec(out: Vec<IndexRange>, red: Vec<IndexRange>, body: KExpr) -> ReduceSpec {
        let shape: Vec<usize> = out.iter().map(IndexRange::size).collect();
        ReduceSpec {
            op: ReduceOp::Builtin(BuiltinReduction::Sum),
            out_space: out,
            red_space: red,
            cond: None,
            body,
            write: WriteSpec::identity(&shape),
        }
    }

    fn op(slot: usize, ixs: Vec<KExpr>) -> KExpr {
        KExpr::Operand { slot, indices: ixs }
    }

    fn mul(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
    }

    #[test]
    fn detects_dot() {
        let spec = sum_spec(
            vec![],
            vec![range("k", 8)],
            mul(op(0, vec![KExpr::Idx(0)]), op(1, vec![KExpr::Idx(0)])),
        );
        assert_eq!(detect_pattern(&spec), Some(Pattern::Dot));
    }

    #[test]
    fn detects_matvec() {
        // C[j] = sum[i](A[j][i] * B[i]): out = j(0), red = i(1)
        let spec = sum_spec(
            vec![range("j", 4)],
            vec![range("i", 8)],
            mul(op(0, vec![KExpr::Idx(0), KExpr::Idx(1)]), op(1, vec![KExpr::Idx(1)])),
        );
        assert_eq!(detect_pattern(&spec), Some(Pattern::MatVec));
        // Transposed layout A[i][j].
        let spec_t = sum_spec(
            vec![range("j", 4)],
            vec![range("i", 8)],
            mul(op(0, vec![KExpr::Idx(1), KExpr::Idx(0)]), op(1, vec![KExpr::Idx(1)])),
        );
        assert_eq!(detect_pattern(&spec_t), Some(Pattern::MatVec));
    }

    #[test]
    fn detects_matmul() {
        // C[i][j] = sum[k](A[i][k] * B[k][j]): out = i(0), j(1); red = k(2)
        let spec = sum_spec(
            vec![range("i", 4), range("j", 4)],
            vec![range("k", 8)],
            mul(
                op(0, vec![KExpr::Idx(0), KExpr::Idx(2)]),
                op(1, vec![KExpr::Idx(2), KExpr::Idx(1)]),
            ),
        );
        assert_eq!(detect_pattern(&spec), Some(Pattern::MatMul));
    }

    #[test]
    fn detects_conv2d() {
        // out[c][i][j] = sum[ic][kh][kw](W[c][ic][kh][kw] * X[ic][i+kh][j+kw])
        // out positions: c=0, i=1, j=2; red: ic=3, kh=4, kw=5
        let plus = |a: usize, b: usize| {
            KExpr::Binary(BinOp::Add, Box::new(KExpr::Idx(a)), Box::new(KExpr::Idx(b)))
        };
        let spec = sum_spec(
            vec![range("c", 8), range("i", 8), range("j", 8)],
            vec![range("ic", 3), range("kh", 3), range("kw", 3)],
            mul(
                op(0, vec![KExpr::Idx(0), KExpr::Idx(3), KExpr::Idx(4), KExpr::Idx(5)]),
                op(1, vec![KExpr::Idx(3), plus(1, 4), plus(2, 5)]),
            ),
        );
        assert_eq!(detect_pattern(&spec), Some(Pattern::Conv2d));
    }

    #[test]
    fn detects_pool() {
        let plus = |a: usize, b: usize| {
            KExpr::Binary(BinOp::Add, Box::new(KExpr::Idx(a)), Box::new(KExpr::Idx(b)))
        };
        let shape = vec![8usize, 4, 4];
        let spec = ReduceSpec {
            op: ReduceOp::Builtin(BuiltinReduction::Max),
            out_space: vec![range("c", 8), range("i", 4), range("j", 4)],
            red_space: vec![range("kh", 2), range("kw", 2)],
            cond: None,
            body: op(0, vec![KExpr::Idx(0), plus(1, 3), plus(2, 4)]),
            write: WriteSpec::identity(&shape),
        };
        assert_eq!(detect_pattern(&spec), Some(Pattern::Pool));
    }

    #[test]
    fn plain_sum_is_not_a_pattern() {
        let spec = sum_spec(vec![], vec![range("i", 8)], op(0, vec![KExpr::Idx(0)]));
        assert_eq!(detect_pattern(&spec), None);
    }

    #[test]
    fn conditional_matvec_still_detected() {
        let mut spec = sum_spec(
            vec![range("j", 4)],
            vec![range("i", 8)],
            mul(op(0, vec![KExpr::Idx(0), KExpr::Idx(1)]), op(1, vec![KExpr::Idx(1)])),
        );
        spec.cond =
            Some(KExpr::Binary(BinOp::Ne, Box::new(KExpr::Idx(1)), Box::new(KExpr::Idx(0))));
        assert_eq!(detect_pattern(&spec), Some(Pattern::MatVec));
    }

    #[test]
    fn three_factor_product_is_not_classified() {
        // DCT-style separable triple product stays generic.
        let spec = sum_spec(
            vec![range("u", 4), range("v", 4)],
            vec![range("x", 4)],
            mul(
                mul(op(0, vec![KExpr::Idx(2)]), op(1, vec![KExpr::Idx(0), KExpr::Idx(2)])),
                op(2, vec![KExpr::Idx(1), KExpr::Idx(2)]),
            ),
        );
        assert_eq!(detect_pattern(&spec), None);
    }

    #[test]
    fn min_reduction_is_not_a_pattern() {
        let spec = ReduceSpec {
            op: ReduceOp::Builtin(BuiltinReduction::Min),
            out_space: vec![],
            red_space: vec![range("i", 8)],
            cond: None,
            body: op(0, vec![KExpr::Idx(0)]),
            write: WriteSpec::identity(&[]),
        };
        assert_eq!(detect_pattern(&spec), None);
    }
}
