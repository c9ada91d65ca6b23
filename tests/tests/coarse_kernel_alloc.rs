//! A coarse kernel allocates per node, not per element.
//!
//! `exec_map` and `exec_reduce` compile their kernels once per call into a
//! plan whose stacks are reserved up front, then walk the iteration box
//! with one cursor. A counting global allocator holds both to the same
//! number of allocations whatever the box's size: MPC's
//! `P_g[i] = sum[j](HQ_g[i][j]*err[j])` at horizon 4 and at horizon 64,
//! and maps whose reads are strided and checked.

use pm_tests::{allocations, Counting};
use pmlang::{BinOp, BuiltinReduction, DType};
use srdfg::interp::{exec_map, exec_reduce};
use srdfg::{IndexRange, KExpr, MapSpec, ReduceOp, ReduceSpec, Tensor, WriteSpec};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn axis(name: &str, n: usize) -> IndexRange {
    IndexRange { name: name.into(), lo: 0, hi: n as i64 - 1 }
}

fn bin(op: BinOp, a: KExpr, b: KExpr) -> KExpr {
    KExpr::Binary(op, Box::new(a), Box::new(b))
}

/// `HQ_g[h][h]` and `err[h]`, filled with distinct values.
fn operands(h: usize) -> [Tensor; 2] {
    let ramp = |n: usize| (0..n).map(|v| v as f64 * 0.25 - 1.0).collect();
    [
        Tensor::from_vec(DType::Float, vec![h, h], ramp(h * h)).unwrap(),
        Tensor::from_vec(DType::Float, vec![h], ramp(h)).unwrap(),
    ]
}

/// Allocations one `exec_reduce` of `P_g[i] = sum[j](HQ_g[i][j]*err[j])`
/// makes at horizon `h`.
fn matvec(h: usize) -> u64 {
    let spec = ReduceSpec {
        op: ReduceOp::Builtin(BuiltinReduction::Sum),
        out_space: vec![axis("i", h)],
        red_space: vec![axis("j", h)],
        cond: None,
        body: bin(
            BinOp::Mul,
            KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0), KExpr::Idx(1)] },
            KExpr::Operand { slot: 1, indices: vec![KExpr::Idx(1)] },
        ),
        write: WriteSpec::identity(&[h]),
    };
    let [hq, err] = operands(h);
    let (out, allocs) = allocations(|| exec_reduce(&spec, &[&hq, &err], DType::Float));
    assert_eq!(out.unwrap().shape(), [h]);
    allocs
}

/// Allocations one `exec_map` of `kernel` over `[0, h)²` into `y[h][h]`
/// makes.
fn map(h: usize, kernel: &KExpr) -> u64 {
    let spec = MapSpec {
        out_space: vec![axis("i", h), axis("j", h)],
        kernel: kernel.clone(),
        write: WriteSpec::identity(&[h, h]),
    };
    let [hq, err] = operands(h);
    let (out, allocs) = allocations(|| exec_map(&spec, &[&hq, &err], DType::Float));
    assert_eq!(out.unwrap().shape(), [h, h]);
    allocs
}

#[test]
fn a_coarse_reduce_allocates_the_same_at_horizon_4_and_64() {
    assert_eq!(matvec(4), matvec(64));
}

#[test]
fn a_coarse_map_allocates_the_same_at_horizon_4_and_64() {
    // HQ_g[j][i] * 2 + err[j]: strided reads, the first one transposed.
    let strided = bin(
        BinOp::Add,
        bin(
            BinOp::Mul,
            KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(1), KExpr::Idx(0)] },
            KExpr::Const(2.0),
        ),
        KExpr::Operand { slot: 1, indices: vec![KExpr::Idx(1)] },
    );
    assert_eq!(map(4, &strided), map(64, &strided));
    // i >= 1 ? err[i-1] : 0 — a read that leaves `err` at i = 0, so it is
    // checked where it is evaluated.
    let guarded = KExpr::Select(
        Box::new(bin(BinOp::Ge, KExpr::Idx(0), KExpr::Const(1.0))),
        Box::new(KExpr::Operand {
            slot: 1,
            indices: vec![bin(BinOp::Sub, KExpr::Idx(0), KExpr::Const(1.0))],
        }),
        Box::new(KExpr::Const(0.0)),
    );
    assert_eq!(map(4, &guarded), map(64, &guarded));
}
