//! A coarse `Map` or `Reduce` runs through its compiled kernel plan
//! (`srdfg::interp::{exec_map, exec_reduce}`); here a tree walk over
//! `KExpr::eval`, the kernel language's definition, is the oracle. Values
//! are compared by `to_bits()` and errors by value, on random specs and on
//! a table of the access shapes the plan treats differently: strided,
//! reversed and non-affine reads, guarded reads that leave the box,
//! out-of-bounds reads and writes, complex operands, `int`/`bin` targets,
//! carried writes, and conditional, arg and custom reductions.
//!
//! This test and mpc-64's Rust reference in `pm_workloads::reference` are
//! the independent checks of the plan. The benchmark's expected outputs
//! for brain stimulation and option pricing are the unlowered graph run
//! through this same evaluator, so a plan bug would move both sides of
//! that comparison and pass.

use pmlang::{BinOp, BuiltinReduction, DType, ScalarFunc, UnOp};
use proptest::prelude::*;
use proptest::TestRng;
use srdfg::interp::{exec_map, exec_reduce};
use srdfg::kernel::eval_binary;
use srdfg::{
    ExecError, IndexRange, KExpr, MapSpec, ReduceOp, ReduceSpec, Scalar, Tensor, WriteSpec,
};

// ---- the oracle ------------------------------------------------------

/// Every point of `space`, row-major, by recursion.
fn points(space: &[IndexRange]) -> Vec<Vec<i64>> {
    match space.split_first() {
        None => vec![vec![]],
        Some((r, rest)) => {
            let tails = points(rest);
            (r.lo..=r.hi)
                .flat_map(|i| {
                    tails.iter().map(move |t| std::iter::once(i).chain(t.iter().copied()).collect())
                })
                .collect()
        }
    }
}

fn output(write: &WriteSpec, operands: &[&Tensor], dtype: DType) -> Result<Tensor, ExecError> {
    if write.carried {
        Ok(operands[0].clone())
    } else {
        Tensor::try_zeros(dtype, write.target_shape.clone())
    }
}

fn store(out: &mut Tensor, lhs: &[KExpr], point: &[i64], v: Scalar) -> Result<(), ExecError> {
    let at: Vec<i64> = lhs.iter().map(|l| l.eval_index(point)).collect::<Result<_, _>>()?;
    Ok(out.set(&at, v)?)
}

fn oracle_map(spec: &MapSpec, operands: &[&Tensor], dtype: DType) -> Result<Tensor, ExecError> {
    let mut out = output(&spec.write, operands, dtype)?;
    for p in points(&spec.out_space) {
        let v = spec.kernel.eval(&p, operands, &[])?;
        store(&mut out, &spec.write.lhs, &p, v)?;
    }
    Ok(out)
}

fn oracle_reduce(
    spec: &ReduceSpec,
    operands: &[&Tensor],
    dtype: DType,
) -> Result<Tensor, ExecError> {
    let outs = points(&spec.out_space);
    let reds = points(&spec.red_space);
    let mut acc: Vec<Option<(Scalar, usize)>> = vec![None; outs.len()];
    for (o, op) in outs.iter().enumerate() {
        for (r, rp) in reds.iter().enumerate() {
            let p: Vec<i64> = op.iter().chain(rp).copied().collect();
            if let Some(c) = &spec.cond {
                if !c.eval(&p, operands, &[])?.as_bool()? {
                    continue;
                }
            }
            let e = spec.body.eval(&p, operands, &[])?;
            acc[o] = Some(match (acc[o], &spec.op) {
                (None, _) => (e, r),
                (Some((a, w)), ReduceOp::Builtin(b)) if b.is_arg() => {
                    let (x, y) = (a.as_real()?, e.as_real()?);
                    let better = if *b == BuiltinReduction::Argmax { y > x } else { y < x };
                    if better {
                        (e, r)
                    } else {
                        (a, w)
                    }
                }
                (Some((a, w)), ReduceOp::Builtin(BuiltinReduction::Sum)) => {
                    (eval_binary(BinOp::Add, a, e)?, w)
                }
                (Some((a, w)), ReduceOp::Builtin(BuiltinReduction::Prod)) => {
                    (eval_binary(BinOp::Mul, a, e)?, w)
                }
                (Some((a, w)), ReduceOp::Builtin(b)) => {
                    (Scalar::Real(b.combine(a.as_real()?, e.as_real()?)), w)
                }
                (Some((a, w)), ReduceOp::Custom { combiner, .. }) => {
                    (combiner.eval(&[], &[], &[a, e])?, w)
                }
            });
        }
    }
    let mut out = output(&spec.write, operands, dtype)?;
    for (o, p) in outs.iter().enumerate() {
        let v = match (&spec.op, acc[o]) {
            (ReduceOp::Builtin(b), None) if !b.is_arg() => Scalar::Real(b.identity()),
            (_, None) => Scalar::Real(0.0),
            (ReduceOp::Builtin(b), Some((_, w))) if b.is_arg() => Scalar::Real(w as f64),
            (_, Some((v, _))) => v,
        };
        store(&mut out, &spec.write.lhs, p, v)?;
    }
    Ok(out)
}

/// Same dtype, shape and element bits, or the same error.
fn same(plan: &Result<Tensor, ExecError>, tree: &Result<Tensor, ExecError>) -> bool {
    match (plan, tree) {
        (Ok(a), Ok(b)) => {
            let bits = |t: &Tensor| -> Vec<u64> {
                match (t.as_real_slice(), t.as_complex_slice()) {
                    (Some(r), _) => r.iter().map(|x| x.to_bits()).collect(),
                    (_, Some(c)) => {
                        c.iter().flat_map(|(x, y)| [x.to_bits(), y.to_bits()]).collect()
                    }
                    _ => unreachable!(),
                }
            };
            a.dtype() == b.dtype() && a.shape() == b.shape() && bits(a) == bits(b)
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

// ---- building kernels ------------------------------------------------

fn k(v: f64) -> KExpr {
    KExpr::Const(v)
}
fn i(pos: usize) -> KExpr {
    KExpr::Idx(pos)
}
fn bin(op: BinOp, a: KExpr, b: KExpr) -> KExpr {
    KExpr::Binary(op, Box::new(a), Box::new(b))
}
fn read(slot: usize, indices: Vec<KExpr>) -> KExpr {
    KExpr::Operand { slot, indices }
}
fn call(f: ScalarFunc, args: Vec<KExpr>) -> KExpr {
    KExpr::Call(f, args)
}
fn select(c: KExpr, a: KExpr, b: KExpr) -> KExpr {
    KExpr::Select(Box::new(c), Box::new(a), Box::new(b))
}
fn range(lo: i64, n: i64) -> IndexRange {
    IndexRange { name: format!("r{lo}"), lo, hi: lo + n - 1 }
}
/// The zero-based identity write of `space` into a tensor of its sizes.
fn identity(space: &[IndexRange]) -> WriteSpec {
    WriteSpec {
        target_shape: space.iter().map(IndexRange::size).collect(),
        lhs: space.iter().enumerate().map(|(d, r)| bin(BinOp::Sub, i(d), k(r.lo as f64))).collect(),
        carried: false,
    }
}

/// The operands every spec reads: slot 0 a rank-2 tensor of `dtype`
/// (a carried write's previous value), slot 1 a vector (complex when
/// asked), slot 2 a rank-0 scalar that also serves as a data index.
fn operands(rows: usize, cols: usize, dtype: DType, complex: bool, len: usize) -> Vec<Tensor> {
    let vals = |n: usize, s: f64| (0..n).map(|j| s * (j as f64 - 1.5)).collect::<Vec<_>>();
    let vector = if complex {
        let pairs = vals(len, 0.5).into_iter().map(|x| (x, 1.0 - x)).collect();
        Tensor::from_complex_vec(vec![len], pairs).unwrap()
    } else {
        Tensor::from_vec(DType::Float, vec![len], vals(len, 0.75)).unwrap()
    };
    vec![
        Tensor::from_vec(dtype, vec![rows, cols], vals(rows * cols, 1.25)).unwrap(),
        vector,
        Tensor::scalar(DType::Float, 1.0),
    ]
}

// ---- strategies ------------------------------------------------------

/// An index over `axes` iteration variables: affine in all the forms the
/// plan strides (`i`, `i+c`, `c*i`, `c-i`, sums), non-affine (`bitrev`,
/// `%`), and — where operands may be read — data-dependent.
fn index(axes: usize, data: bool) -> BoxedStrategy<KExpr> {
    let c = (-2i64..4).prop_map(|c| k(c as f64));
    if axes == 0 {
        return c.boxed();
    }
    let v = (0..axes).prop_map(i);
    let affine = prop_oneof![
        3 => v.clone(),
        2 => (v.clone(), c.clone()).prop_map(|(v, c)| bin(BinOp::Add, v, c)),
        1 => (v.clone(), c.clone()).prop_map(|(v, c)| bin(BinOp::Mul, c, v)),
        1 => (v.clone(), c.clone()).prop_map(|(v, c)| bin(BinOp::Sub, c, v)),
        1 => (v.clone(), v.clone()).prop_map(|(a, b)| bin(BinOp::Add, a, b)),
        1 => v.clone().prop_map(|v| KExpr::Unary(UnOp::Neg, Box::new(v))),
        1 => c,
        1 => v.clone().prop_map(|v| call(ScalarFunc::Bitrev, vec![v, k(2.0)])),
        1 => v.prop_map(|v| bin(BinOp::Mod, v, k(3.0))),
    ];
    if data {
        prop_oneof![6 => affine, 1 => Just(read(2, vec![]))].boxed()
    } else {
        affine.boxed()
    }
}

fn leaf(axes: usize) -> BoxedStrategy<KExpr> {
    prop_oneof![
        (-3i32..4).prop_map(|c| k(f64::from(c) * 0.5)),
        (0..axes.max(1)).prop_map(move |p| if axes == 0 { k(2.0) } else { i(p) }),
        (index(axes, true), index(axes, true)).prop_map(|(a, b)| read(0, vec![a, b])),
        index(axes, true).prop_map(|a| read(1, vec![a])),
        Just(read(2, vec![])),
        index(axes, false).prop_map(|a| read(1, vec![read(1, vec![a])])),
    ]
    .boxed()
}

fn kernel(axes: usize) -> BoxedStrategy<KExpr> {
    leaf(axes)
        .prop_recursive(4, 24, 3, |inner| {
            let op = prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
                Just(BinOp::Lt),
                Just(BinOp::Ge),
                Just(BinOp::Eq),
                Just(BinOp::And),
                Just(BinOp::Or),
            ];
            prop_oneof![
                (op, inner.clone(), inner.clone()).prop_map(|(op, a, b)| bin(op, a, b)),
                inner.clone().prop_map(|a| KExpr::Unary(UnOp::Neg, Box::new(a))),
                inner.clone().prop_map(|a| KExpr::Unary(UnOp::Not, Box::new(a))),
                (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| select(c, a, b)),
                inner.clone().prop_map(|a| call(ScalarFunc::Abs, vec![a])),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| call(ScalarFunc::Max2, vec![a, b])),
                (inner.clone(), inner).prop_map(|(a, b)| call(ScalarFunc::Complex, vec![a, b])),
            ]
        })
        .boxed()
}

/// Three axes with negative, zero and empty ranges possible.
fn space() -> impl Strategy<Value = Vec<IndexRange>> {
    proptest::collection::vec((-2i64..3, 0i64..4), 3)
        .prop_map(|v| v.into_iter().map(|(lo, n)| range(lo, n)).collect())
}

/// A write for `space` into a tensor of rank 2 (the carry's rank) or the
/// space's identity write; `carried` writes into slot 0.
fn write(space: Vec<IndexRange>, rows: usize, cols: usize) -> BoxedStrategy<WriteSpec> {
    let axes = space.len();
    prop_oneof![
        Just(identity(&space)),
        (index(axes, false), index(axes, false), any::<bool>()).prop_map(move |(a, b, carried)| {
            WriteSpec { target_shape: vec![rows, cols], lhs: vec![a, b], carried }
        }),
    ]
    .boxed()
}

fn dtype() -> impl Strategy<Value = DType> {
    prop_oneof![Just(DType::Float), Just(DType::Int), Just(DType::Bool), Just(DType::Complex)]
}

/// A spec's operands: `(rows, cols, carry dtype, complex vector, length)`.
fn tensors() -> impl Strategy<Value = (usize, usize, DType, bool, usize)> {
    (1usize..4, 1usize..4, dtype(), any::<bool>(), 1usize..6)
}

fn reduce_op() -> impl Strategy<Value = ReduceOp> {
    let min = select(bin(BinOp::Lt, KExpr::Arg(0), KExpr::Arg(1)), KExpr::Arg(0), KExpr::Arg(1));
    let skew = bin(BinOp::Sub, KExpr::Arg(0), bin(BinOp::Mul, k(2.0), KExpr::Arg(1)));
    prop_oneof![
        prop_oneof![
            Just(BuiltinReduction::Sum),
            Just(BuiltinReduction::Prod),
            Just(BuiltinReduction::Max),
            Just(BuiltinReduction::Min),
            Just(BuiltinReduction::Argmax),
            Just(BuiltinReduction::Argmin),
            Just(BuiltinReduction::Any),
            Just(BuiltinReduction::All),
        ]
        .prop_map(ReduceOp::Builtin),
        prop_oneof![Just(min), Just(skew)]
            .prop_map(|combiner| ReduceOp::Custom { name: "custom".into(), combiner }),
    ]
}

/// The space, the rank of its output part, the operands and the output
/// dtype a case draws first; its kernels depend on them.
fn frame(rng: &mut TestRng) -> (Vec<IndexRange>, usize, Vec<Tensor>, DType) {
    let (space, rank, t, out) = (space(), 0usize..4, tensors(), dtype()).generate(rng);
    (space, rank, operands(t.0, t.1, t.2, t.3, t.4), out)
}

fn map_case() -> BoxedStrategy<(MapSpec, Vec<Tensor>, DType)> {
    BoxedStrategy::from_fn(|rng| {
        let (space, rank, ops, out) = frame(rng);
        let out_space = space[..rank].to_vec();
        let (rows, cols) = (ops[0].shape()[0], ops[0].shape()[1]);
        let kernel = kernel(rank).generate(rng);
        let write = write(out_space.clone(), rows, cols).generate(rng);
        (MapSpec { out_space, kernel, write }, ops, out)
    })
}

fn reduce_case() -> BoxedStrategy<(ReduceSpec, Vec<Tensor>, DType)> {
    BoxedStrategy::from_fn(|rng| {
        let (space, rank, ops, out) = frame(rng);
        let (out_space, red_space) = (space[..rank].to_vec(), space[rank..].to_vec());
        let (rows, cols) = (ops[0].shape()[0], ops[0].shape()[1]);
        let cond = prop_oneof![
            2 => Just(None),
            1 => kernel(3).prop_map(Some),
            1 => (index(3, true), index(3, true)).prop_map(|(a, b)| Some(bin(BinOp::Ne, a, b))),
        ]
        .generate(rng);
        let (op, body) = (reduce_op(), kernel(3)).generate(rng);
        let write = write(out_space.clone(), rows, cols).generate(rng);
        (ReduceSpec { op, out_space, red_space, cond, body, write }, ops, out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_map_runs_as_its_tree_walk((spec, ops, dtype) in map_case()) {
        let refs: Vec<&Tensor> = ops.iter().collect();
        let plan = exec_map(&spec, &refs, dtype);
        let tree = oracle_map(&spec, &refs, dtype);
        prop_assert!(same(&plan, &tree), "{spec:?}\nplan {plan:?}\ntree {tree:?}");
    }

    #[test]
    fn a_reduce_runs_as_its_tree_walk((spec, ops, dtype) in reduce_case()) {
        let refs: Vec<&Tensor> = ops.iter().collect();
        let plan = exec_reduce(&spec, &refs, dtype);
        let tree = oracle_reduce(&spec, &refs, dtype);
        prop_assert!(same(&plan, &tree), "{spec:?}\nplan {plan:?}\ntree {tree:?}");
    }
}

// ---- the listed shapes -----------------------------------------------

/// Runs a map both ways, asserts they agree, and returns the result.
fn map(
    space: Vec<IndexRange>,
    kernel: KExpr,
    write: WriteSpec,
    ops: &[Tensor],
    dtype: DType,
) -> Result<Tensor, ExecError> {
    let spec = MapSpec { out_space: space, kernel, write };
    let refs: Vec<&Tensor> = ops.iter().collect();
    let plan = exec_map(&spec, &refs, dtype);
    assert!(same(&plan, &oracle_map(&spec, &refs, dtype)), "{spec:?}: {plan:?}");
    plan
}

fn reduce(
    op: ReduceOp,
    (out, red): (Vec<IndexRange>, Vec<IndexRange>),
    cond: Option<KExpr>,
    body: KExpr,
    ops: &[Tensor],
) -> Result<Tensor, ExecError> {
    let write = identity(&out);
    let spec = ReduceSpec { op, out_space: out, red_space: red, cond, body, write };
    let refs: Vec<&Tensor> = ops.iter().collect();
    let plan = exec_reduce(&spec, &refs, DType::Float);
    assert!(same(&plan, &oracle_reduce(&spec, &refs, DType::Float)), "{spec:?}: {plan:?}");
    plan
}

fn reals(t: &Result<Tensor, ExecError>) -> Vec<f64> {
    t.as_ref().unwrap().as_real_slice().unwrap().to_vec()
}

#[test]
fn strided_reversed_and_non_affine_reads() {
    let ops = operands(2, 3, DType::Float, false, 5);
    let sp = || vec![range(0, 2)];
    // x[2*i+1], x[3-i], x[bitrev(i, 2)], x[(i+4) % 5], A[1][i]: slot 1 is
    // 0.75·(j − 1.5), slot 0 is 1.25·(j − 1.5) row-major.
    let strided = map(
        sp(),
        read(1, vec![bin(BinOp::Add, bin(BinOp::Mul, k(2.0), i(0)), k(1.0))]),
        identity(&sp()),
        &ops,
        DType::Float,
    );
    assert_eq!(reals(&strided), [-0.375, 1.125]);
    let reversed = map(
        sp(),
        read(1, vec![bin(BinOp::Sub, k(3.0), i(0))]),
        identity(&sp()),
        &ops,
        DType::Float,
    );
    assert_eq!(reals(&reversed), [1.125, 0.375]);
    let bitrev = call(ScalarFunc::Bitrev, vec![i(0), k(2.0)]);
    assert_eq!(
        reals(&map(sp(), read(1, vec![bitrev]), identity(&sp()), &ops, DType::Float)),
        [-1.125, 0.375]
    );
    let modulo = bin(BinOp::Mod, bin(BinOp::Add, i(0), k(4.0)), k(5.0));
    assert_eq!(
        reals(&map(sp(), read(1, vec![modulo]), identity(&sp()), &ops, DType::Float)),
        [1.875, -1.125]
    );
    // A negative `lo`, and a rank-0 operand as a data-dependent index.
    let neg = vec![range(-2, 2)];
    let shifted = read(0, vec![k(1.0), read(2, vec![])]);
    let sum = bin(BinOp::Add, read(1, vec![bin(BinOp::Add, i(0), k(2.0))]), shifted);
    assert_eq!(reals(&map(neg.clone(), sum, identity(&neg), &ops, DType::Float)), [2.0, 2.75]);
}

#[test]
fn guarded_and_out_of_bounds_accesses() {
    let ops = operands(2, 3, DType::Float, false, 4);
    let sp = || vec![range(0, 4)];
    // i >= 1 ? x[i-1] : 0 leaves the tensor at i = 0, unevaluated there.
    let guarded =
        select(bin(BinOp::Ge, i(0), k(1.0)), read(1, vec![bin(BinOp::Sub, i(0), k(1.0))]), k(0.0));
    assert_eq!(
        reals(&map(sp(), guarded, identity(&sp()), &ops, DType::Float)),
        [0.0, -1.125, -0.375, 0.375]
    );
    // x[i+1] reads x[4] at the last point; y[i+1] writes y[4].
    let oob = map(
        sp(),
        read(1, vec![bin(BinOp::Add, i(0), k(1.0))]),
        identity(&sp()),
        &ops,
        DType::Float,
    );
    assert_eq!(oob.unwrap_err().message, "index 4 out of bounds for axis 0 of size 4");
    let shifted = WriteSpec {
        target_shape: vec![4],
        lhs: vec![bin(BinOp::Add, i(0), k(1.0))],
        carried: false,
    };
    let oob = map(sp(), read(1, vec![i(0)]), shifted, &ops, DType::Float);
    assert_eq!(oob.unwrap_err().message, "index 4 out of bounds for axis 0 of size 4");
    // An empty range computes nothing and writes nothing.
    let empty = vec![range(3, 0)];
    assert_eq!(
        reals(&map(empty.clone(), read(1, vec![k(9.0)]), identity(&empty), &ops, DType::Float)),
        [] as [f64; 0]
    );
}

#[test]
fn complex_operands_coerced_targets_and_carried_writes() {
    let ops = operands(2, 3, DType::Int, true, 3);
    let sp = vec![range(0, 3)];
    let z = map(
        sp.clone(),
        bin(BinOp::Mul, read(1, vec![i(0)]), k(2.0)),
        identity(&sp),
        &ops,
        DType::Complex,
    );
    assert_eq!(z.unwrap().as_complex_slice().unwrap(), [(-1.5, 3.5), (-0.5, 2.5), (0.5, 1.5)]);
    // A complex element into a real target is an error, as is `<` on one.
    assert!(map(sp.clone(), read(1, vec![i(0)]), identity(&sp), &ops, DType::Float).is_err());
    let lt = bin(BinOp::Lt, read(1, vec![i(0)]), k(0.0));
    assert!(map(sp.clone(), lt, identity(&sp), &ops, DType::Float).is_err());
    // `int` truncates and `bin` normalises on write.
    let half = bin(BinOp::Mul, i(0), k(0.75));
    assert_eq!(
        reals(&map(sp.clone(), half.clone(), identity(&sp), &ops, DType::Int)),
        [0.0, 0.0, 1.0]
    );
    assert_eq!(reals(&map(sp.clone(), half, identity(&sp), &ops, DType::Bool)), [0.0, 1.0, 1.0]);
    // A carried write updates row 1 of the `int` carry in place.
    let row = WriteSpec { target_shape: vec![2, 3], lhs: vec![k(1.0), i(0)], carried: true };
    let carried = map(sp, bin(BinOp::Mul, i(0), k(-1.5)), row, &ops, DType::Float);
    assert_eq!(reals(&carried), [-1.875, -0.625, 0.625, 0.0, -1.0, -3.0]);
}

#[test]
fn conditional_arg_and_custom_reductions() {
    let ops = operands(3, 3, DType::Float, false, 5);
    let (out, red) = (vec![range(0, 3)], vec![range(0, 3)]);
    let a = read(0, vec![i(0), i(1)]);
    let sum = ReduceOp::Builtin(BuiltinReduction::Sum);
    // sum over j != i, and an empty group that yields the identity.
    let off = Some(bin(BinOp::Ne, i(0), i(1)));
    assert_eq!(
        reals(&reduce(sum.clone(), (out.clone(), red.clone()), off, a.clone(), &ops)),
        [0.0, 6.25, 12.5]
    );
    let never = Some(bin(BinOp::Gt, i(1), k(9.0)));
    let prod = ReduceOp::Builtin(BuiltinReduction::Prod);
    assert_eq!(reals(&reduce(prod, (out.clone(), red.clone()), never, a.clone(), &ops)), [1.0; 3]);
    // A data-dependent condition.
    let data = Some(bin(BinOp::Ge, read(1, vec![i(1)]), k(0.0)));
    assert_eq!(
        reals(&reduce(sum, (out.clone(), red.clone()), data, a.clone(), &ops)),
        [0.625, 4.375, 8.125]
    );
    // argmax keeps the first of two tied winners (x[j] >= -0.5 reads 0, 1,
    // 1); argmin over a negated row.
    let argmax = ReduceOp::Builtin(BuiltinReduction::Argmax);
    let tie = bin(BinOp::Ge, read(1, vec![i(1)]), k(-0.5));
    assert_eq!(reals(&reduce(argmax, (out.clone(), red.clone()), None, tie, &ops)), [1.0; 3]);
    let argmin = ReduceOp::Builtin(BuiltinReduction::Argmin);
    let neg = KExpr::Unary(UnOp::Neg, Box::new(a.clone()));
    assert_eq!(reals(&reduce(argmin, (out.clone(), red.clone()), None, neg, &ops)), [2.0; 3]);
    // A non-commutative custom combiner folds in order, first element first.
    let skew = bin(BinOp::Sub, KExpr::Arg(0), bin(BinOp::Mul, k(2.0), KExpr::Arg(1)));
    let custom = ReduceOp::Custom { name: "skew".into(), combiner: skew };
    assert_eq!(reals(&reduce(custom, (out, red), None, a, &ops)), [-1.875, -13.125, -24.375]);
}
