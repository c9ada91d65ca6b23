//! Integer-interval analysis: propagates value ranges along edges and
//! walks each kernel's index expressions over the index spaces they run
//! in. The walk reports only what it could not prove — an access not
//! provably inside its tensor, a rank mismatch, a divisor that may be
//! zero, overflowing index arithmetic, a construct it cannot reason
//! about — as a `Finding`, and two readings consume the same findings:
//! the lint's (an access provably `PM-E102` or possibly `PM-W103` out of
//! bounds, a possible division/modulo by zero, overflow) and
//! [`certify_bounds`], which refuses the first one.

use crate::{codes, Diagnostic};
use pmlang::{BinOp, BuiltinReduction, DType, ScalarFunc, UnOp};
use srdfg::graph::{space_size, IndexRange, Node, ReduceOp, ScalarKind, WriteSpec};
use srdfg::{EdgeId, KExpr, NodeKind as NK, SrDfg};

/// An interval of possible values. `exact` means every value the concrete
/// computation can produce here is integral — the property an expression
/// needs before it may be used as a tensor index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IVal {
    /// Inclusive lower bound (may be `-inf`).
    pub lo: f64,
    /// Inclusive upper bound (may be `+inf`).
    pub hi: f64,
    /// Whether every possible value is integral.
    pub exact: bool,
}

impl IVal {
    /// The top element: any value at all.
    pub fn unknown() -> IVal {
        IVal { lo: f64::NEG_INFINITY, hi: f64::INFINITY, exact: false }
    }

    /// A singleton interval.
    pub fn of(c: f64) -> IVal {
        IVal { lo: c, hi: c, exact: c.fract() == 0.0 && c.is_finite() }
    }

    fn mk(lo: f64, hi: f64, exact: bool) -> IVal {
        if lo.is_nan() || hi.is_nan() {
            IVal::unknown()
        } else {
            IVal { lo, hi, exact }
        }
    }

    /// Both bounds finite.
    pub fn finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Smallest interval containing both.
    pub fn hull(&self, o: &IVal) -> IVal {
        IVal::mk(self.lo.min(o.lo), self.hi.max(o.hi), self.exact && o.exact)
    }

    fn add(&self, o: &IVal) -> IVal {
        IVal::mk(self.lo + o.lo, self.hi + o.hi, self.exact && o.exact)
    }

    fn sub(&self, o: &IVal) -> IVal {
        IVal::mk(self.lo - o.hi, self.hi - o.lo, self.exact && o.exact)
    }

    fn mul(&self, o: &IVal) -> IVal {
        let p = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi];
        if p.iter().any(|v| v.is_nan()) {
            return IVal::unknown();
        }
        IVal::mk(
            p.iter().cloned().fold(f64::INFINITY, f64::min),
            p.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            self.exact && o.exact,
        )
    }

    fn neg(&self) -> IVal {
        IVal::mk(-self.hi, -self.lo, self.exact)
    }

    /// True if 0 is a possible value.
    fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }
}

fn fmt_bound(v: f64) -> String {
    if v == f64::INFINITY {
        "+inf".into()
    } else if v == f64::NEG_INFINITY {
        "-inf".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The stored range of an edge no node has produced yet. `f64::min` and
/// `f64::max` skip a NaN bound, so [`join`]ing a range into it assigns
/// that range, and [`read`] turns it into unknown. A NaN constant's range
/// is the same value and behaves the same.
const UNSET: IVal = IVal { lo: f64::NAN, hi: f64::NAN, exact: false };

/// Joins two stored edge ranges (NaN bounds skipped).
fn join(a: IVal, b: IVal) -> IVal {
    IVal { lo: a.lo.min(b.lo), hi: a.hi.max(b.hi), exact: false }
}

/// A stored edge range as a kernel or a scalar node reads it: never
/// integral, and unknown when unset.
fn read(v: IVal) -> IVal {
    IVal::mk(v.lo, v.hi, false)
}

/// Something the kernel walk could not prove. The lint reports some
/// findings ([`Finding::lint`]); certification refuses every one
/// ([`Finding::refusal`]).
#[derive(Debug, Clone, Copy)]
enum Finding<'g> {
    /// An index on `axis` of `name` (extent `dim`) takes values in `iv`,
    /// not provably an integer in `[0, dim)`.
    Index { name: &'g str, axis: usize, dim: usize, iv: IVal, guarded: bool },
    /// A read of a rank-`rank` operand with `indices` index(es).
    Rank { name: &'g str, indices: usize, rank: usize, guarded: bool },
    /// A divisor, or a modulus, whose range `b` includes 0.
    Zero { modulus: bool, b: IVal, guarded: bool },
    /// Index arithmetic on finite operands with a non-finite result.
    Overflow,
    /// An index variable outside the kernel's index space.
    FreeIndex(usize),
    /// A combiner argument outside a combiner.
    Arg,
    /// A `complex(...)` call.
    Complex,
    /// A `bitrev(v, bits)` that may get `v < 0` or `bits` outside `0..=64`.
    Bitrev,
    /// `positions` write positions into a rank-`rank` target.
    WriteRank { positions: usize, rank: usize },
    /// A write position computed from operand values.
    WriteFromData,
    /// A write position outside the output index space.
    WriteOutsideSpace,
}

impl Finding<'_> {
    /// The lint's reading: a provably out-of-bounds access is an error
    /// unless guarded; a possibly out-of-bounds unguarded access with a
    /// finite excess, a finite unguarded divisor range including zero and
    /// overflow are warnings; a rank mismatch is an error unless guarded.
    /// Everything else is certification's business.
    fn lint(&self, node: &Node) -> Option<Diagnostic> {
        let warn = |msg| Some(Diagnostic::warning(codes::ARITH_RANGE, msg).at(node.span));
        let error = |msg| Some(Diagnostic::error(codes::OUT_OF_BOUNDS, msg).at(node.span));
        match *self {
            Finding::Index { name, axis, dim, iv, guarded } => {
                let max = dim as f64 - 1.0;
                if iv.hi < 0.0 || iv.lo > max {
                    let msg = format!(
                        "`{}` indexes `{name}` axis {axis} with values in [{}, {}], entirely \
                         outside its size {dim}",
                        node.name,
                        fmt_bound(iv.lo),
                        fmt_bound(iv.hi),
                    );
                    if guarded {
                        warn(msg)
                    } else {
                        error(msg)
                    }
                } else if !guarded
                    && ((iv.lo < 0.0 && iv.lo.is_finite()) || (iv.hi > max && iv.hi.is_finite()))
                {
                    warn(format!(
                        "`{}` may index `{name}` axis {axis} out of bounds: value in [{}, {}] but \
                         the axis has size {dim}",
                        node.name,
                        fmt_bound(iv.lo),
                        fmt_bound(iv.hi),
                    ))
                } else {
                    None
                }
            }
            Finding::Rank { guarded: true, .. } => warn(self.refusal(node)),
            Finding::Rank { .. } => error(self.refusal(node)),
            Finding::Zero { b, guarded, .. } if b.finite() && !guarded => warn(self.refusal(node)),
            Finding::Overflow => warn(self.refusal(node)),
            _ => None,
        }
    }

    /// Certification's reading: why `node` cannot be certified.
    fn refusal(&self, node: &Node) -> String {
        let n = &node.name;
        match *self {
            Finding::Index { name, axis, dim, iv, .. } => format!(
                "cannot prove `{n}` indexes `{name}` axis {axis} in bounds: value in [{}, {}] vs \
                 size {dim}{}",
                fmt_bound(iv.lo),
                fmt_bound(iv.hi),
                if iv.exact { "" } else { " (possibly non-integral)" },
            ),
            Finding::Rank { name, indices, rank, .. } => {
                format!("`{n}` accesses `{name}` with {indices} index(es) but it has rank {rank}")
            }
            Finding::Zero { modulus, b, guarded } if b.finite() && !guarded => format!(
                "possible {} by zero in `{n}`: divisor range [{}, {}] includes 0",
                if modulus { "modulo" } else { "division" },
                fmt_bound(b.lo),
                fmt_bound(b.hi),
            ),
            Finding::Zero { modulus, .. } => format!(
                "cannot prove the {} in `{n}` is nonzero",
                if modulus { "modulus" } else { "divisor" }
            ),
            Finding::Overflow => format!("index arithmetic in `{n}` may overflow"),
            Finding::FreeIndex(i) => {
                format!("`{n}` references index variable #{i} outside its index space")
            }
            Finding::Arg => format!("`{n}` uses a reduction argument outside a combiner"),
            Finding::Complex => format!("`{n}` constructs a complex value"),
            Finding::Bitrev => format!("`bitrev` in `{n}` may get v < 0 or bits outside 0..=64"),
            Finding::WriteRank { positions, rank } => {
                format!("`{n}` writes {positions} position(s) into a rank-{rank} tensor")
            }
            Finding::WriteFromData => format!("`{n}` computes write positions from operand values"),
            Finding::WriteOutsideSpace => {
                format!("`{n}` writes at positions outside its output index space")
            }
        }
    }
}

/// A kernel's index environment: the output space, optionally followed by
/// a reduction space (numbered after it), without concatenating — the
/// `IndexRange` names are heap strings a clone would have to copy.
#[derive(Clone, Copy)]
struct Env<'a> {
    out: &'a [IndexRange],
    red: &'a [IndexRange],
}

impl<'a> Env<'a> {
    fn get(&self, i: usize) -> Option<&'a IndexRange> {
        self.out.get(i).or_else(|| self.red.get(i - self.out.len()))
    }
}

/// The walk over one Map or Reduce node: evaluates its expressions over
/// index intervals and hands every [`Finding`] to `report`. An operand
/// read takes its metadata from the edge in its slot and its value range
/// from `operands` (unknown past its end). It allocates nothing: it runs for
/// every map/reduce on the compiler's timed path.
struct Walk<'g, 'r> {
    graph: &'g SrDfg,
    node: &'g Node,
    env: Env<'g>,
    operands: &'r [IVal],
    report: &'r mut dyn FnMut(Finding<'g>),
}

/// Walks `node`'s kernels and write once — a Map's kernel, or a Reduce's
/// condition and its body (guarded by the condition) — and returns the
/// range of the kernel's value. Other nodes have no kernel: unknown.
fn walk<'g>(
    graph: &'g SrDfg,
    node: &'g Node,
    operands: &[IVal],
    report: &mut dyn FnMut(Finding<'g>),
) -> IVal {
    match &node.kind {
        NK::Map(m) => {
            let env = Env { out: &m.out_space, red: &[] };
            let mut w = Walk { graph, node, env, operands, report };
            let body = w.eval(&m.kernel, false);
            w.write(&m.write);
            body
        }
        NK::Reduce(r) => {
            let env = Env { out: &r.out_space, red: &r.red_space };
            let mut w = Walk { graph, node, env, operands, report };
            if let Some(c) = &r.cond {
                w.eval(c, false);
            }
            let body = w.eval(&r.body, r.cond.is_some());
            w.write(&r.write);
            body
        }
        _ => IVal::unknown(),
    }
}

impl<'g> Walk<'g, '_> {
    /// Reports an index interval on one axis of extent `dim` that is not
    /// provably an integer inside it.
    fn index(&mut self, iv: IVal, dim: usize, axis: usize, name: &'g str, guarded: bool) {
        if !(iv.exact && iv.finite() && iv.lo >= 0.0 && iv.hi <= dim as f64 - 1.0) {
            (self.report)(Finding::Index { name, axis, dim, iv, guarded });
        }
    }

    /// Checks one operand access and returns the value range read.
    fn access(&mut self, slot: usize, indices: &'g [KExpr], guarded: bool) -> IVal {
        // A slot beyond the inputs is `srdfg::validate`'s kernel-arity
        // defect, not this walk's.
        let Some(&e) = self.node.inputs.get(slot) else { return IVal::unknown() };
        let meta = &self.graph.edge(e).meta;
        if indices.len() != meta.shape.len() {
            let (indices_len, rank) = (indices.len(), meta.shape.len());
            (self.report)(Finding::Rank { name: &meta.name, indices: indices_len, rank, guarded });
            for k in indices {
                self.eval(k, guarded);
            }
            return IVal::unknown();
        }
        for (axis, (k, &dim)) in indices.iter().zip(&meta.shape).enumerate() {
            let iv = self.eval(k, guarded);
            self.index(iv, dim, axis, &meta.name, guarded);
        }
        self.operands.get(slot).copied().unwrap_or_else(IVal::unknown)
    }

    /// Checks the write positions against the target shape. They may use
    /// the output index space only.
    fn write(&mut self, write: &'g WriteSpec) {
        if write.lhs.is_empty() {
            return;
        }
        let rank = write.target_shape.len();
        if write.lhs.len() != rank {
            (self.report)(Finding::WriteRank { positions: write.lhs.len(), rank });
            return;
        }
        for k in &write.lhs {
            let opaque = if k.max_slot().is_some() {
                Finding::WriteFromData
            } else if k.max_idx().is_some_and(|m| m >= self.env.out.len()) {
                Finding::WriteOutsideSpace
            } else {
                continue;
            };
            (self.report)(opaque);
            return;
        }
        for (axis, (k, &dim)) in write.lhs.iter().zip(&write.target_shape).enumerate() {
            let iv = self.eval(k, false);
            self.index(iv, dim, axis, "its output", false);
        }
    }

    fn eval(&mut self, k: &'g KExpr, guarded: bool) -> IVal {
        match k {
            KExpr::Const(c) => IVal::of(*c),
            KExpr::Idx(i) => match self.env.get(*i) {
                Some(r) => IVal { lo: r.lo as f64, hi: r.hi as f64, exact: true },
                None => {
                    (self.report)(Finding::FreeIndex(*i));
                    IVal::unknown()
                }
            },
            KExpr::Operand { slot, indices } => self.access(*slot, indices, guarded),
            KExpr::Arg(_) => {
                (self.report)(Finding::Arg);
                IVal::unknown()
            }
            KExpr::Unary(op, e) => {
                let v = self.eval(e, guarded);
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => IVal { lo: 0.0, hi: 1.0, exact: true },
                }
            }
            KExpr::Binary(op, a, b) => {
                let va = self.eval(a, guarded);
                // `and`/`or` short-circuit, so the right operand is only
                // evaluated behind the left — a guard.
                let rhs_guarded = guarded || matches!(op, BinOp::And | BinOp::Or);
                let vb = self.eval(b, rhs_guarded);
                match op {
                    BinOp::Add => self.overflow_check(va.add(&vb), va, vb),
                    BinOp::Sub => match floor_multiple(a, b, va) {
                        Some(r) => r,
                        None => self.overflow_check(va.sub(&vb), va, vb),
                    },
                    BinOp::Mul => self.overflow_check(va.mul(&vb), va, vb),
                    BinOp::Div => self.div(va, vb, guarded),
                    BinOp::Mod => self.modulo(va, vb, guarded),
                    BinOp::Pow => IVal::unknown(),
                    BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::And
                    | BinOp::Or => IVal { lo: 0.0, hi: 1.0, exact: true },
                }
            }
            KExpr::Select(c, t, e) => {
                self.eval(c, guarded);
                // Only the taken branch evaluates: both sides are guarded.
                let vt = self.eval(t, true);
                let ve = self.eval(e, true);
                vt.hull(&ve)
            }
            KExpr::Call(f, args) => {
                if *f == ScalarFunc::Complex {
                    (self.report)(Finding::Complex);
                }
                // Intrinsics take at most two arguments today; keep the
                // common case off the heap (this runs per call site on the
                // compiler's timed path).
                if args.len() <= 4 {
                    let mut vs = [IVal::unknown(); 4];
                    for (v, a) in vs.iter_mut().zip(args) {
                        *v = self.eval(a, guarded);
                    }
                    let [v, bits, ..] = vs;
                    if *f == ScalarFunc::Bitrev
                        && !(v.lo >= 0.0 && bits.lo >= 0.0 && bits.hi <= 64.0)
                    {
                        (self.report)(Finding::Bitrev);
                    }
                    func_range(*f, &vs[..args.len()])
                } else {
                    let vs: Vec<IVal> = args.iter().map(|a| self.eval(a, guarded)).collect();
                    func_range(*f, &vs)
                }
            }
        }
    }

    /// Finite operands producing an infinite result means the arithmetic
    /// itself overflowed.
    fn overflow_check(&mut self, r: IVal, a: IVal, b: IVal) -> IVal {
        if a.finite() && b.finite() && !r.finite() {
            (self.report)(Finding::Overflow);
        }
        r
    }

    fn div(&mut self, a: IVal, b: IVal, guarded: bool) -> IVal {
        if b.contains_zero() {
            (self.report)(Finding::Zero { modulus: false, b, guarded });
            return IVal::unknown();
        }
        if !a.finite() || !b.finite() {
            return IVal::unknown();
        }
        let q = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
        IVal::mk(
            q.iter().cloned().fold(f64::INFINITY, f64::min),
            q.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            false,
        )
    }

    fn modulo(&mut self, a: IVal, b: IVal, guarded: bool) -> IVal {
        if b.lo > 0.0 && b.hi.is_finite() {
            // rem_euclid with a positive divisor lands in [0, b).
            let exact = a.exact && b.exact;
            let hi = if exact { b.hi - 1.0 } else { b.hi };
            return IVal::mk(0.0, hi, exact);
        }
        if b.contains_zero() {
            (self.report)(Finding::Zero { modulus: true, b, guarded });
        }
        IVal::unknown()
    }
}

/// Recognizes `x - x % c` with a positive integral constant `c`: that
/// floors `x` to a multiple of `c`, which is monotone in `x`, so the
/// interval maps bound-for-bound. Generic subtraction would manufacture
/// `c - 1` of negative slack and flag every strided stencil (FFT
/// butterflies, blocked matrices) as possibly out of bounds.
fn floor_multiple(a: &KExpr, b: &KExpr, va: IVal) -> Option<IVal> {
    let KExpr::Binary(BinOp::Mod, x, c) = b else { return None };
    let KExpr::Const(m) = **c else { return None };
    if !(m > 0.0 && m.fract() == 0.0 && va.finite()) || **x != *a {
        return None;
    }
    let f = |v: f64| v - v.rem_euclid(m);
    Some(IVal::mk(f(va.lo), f(va.hi), va.exact))
}

/// Conservative ranges for the intrinsics with well-known images.
fn func_range(f: ScalarFunc, args: &[IVal]) -> IVal {
    let a0 = args.first().copied().unwrap_or_else(IVal::unknown);
    match f {
        ScalarFunc::Sin | ScalarFunc::Cos => IVal { lo: -1.0, hi: 1.0, exact: false },
        ScalarFunc::Tanh | ScalarFunc::Erf | ScalarFunc::Sign => {
            IVal { lo: -1.0, hi: 1.0, exact: f == ScalarFunc::Sign }
        }
        ScalarFunc::Sigmoid | ScalarFunc::Gaussian | ScalarFunc::Phi => {
            IVal { lo: 0.0, hi: 1.0, exact: false }
        }
        ScalarFunc::Sqrt | ScalarFunc::Exp => IVal { lo: 0.0, hi: f64::INFINITY, exact: false },
        ScalarFunc::Abs => {
            let hi = a0.lo.abs().max(a0.hi.abs());
            IVal::mk(0.0, hi, a0.exact)
        }
        ScalarFunc::Relu => IVal::mk(0.0, a0.hi.max(0.0), a0.exact),
        ScalarFunc::Floor => IVal::mk(a0.lo.floor(), a0.hi.floor(), a0.finite()),
        ScalarFunc::Ceil => IVal::mk(a0.lo.ceil(), a0.hi.ceil(), a0.finite()),
        ScalarFunc::Min2 => {
            let a1 = args.get(1).copied().unwrap_or_else(IVal::unknown);
            IVal::mk(a0.lo.min(a1.lo), a0.hi.min(a1.hi), a0.exact && a1.exact)
        }
        ScalarFunc::Max2 => {
            let a1 = args.get(1).copied().unwrap_or_else(IVal::unknown);
            IVal::mk(a0.lo.max(a1.lo), a0.hi.max(a1.hi), a0.exact && a1.exact)
        }
        ScalarFunc::Pi => IVal { lo: std::f64::consts::PI, hi: std::f64::consts::PI, exact: false },
        _ => IVal::unknown(),
    }
}

fn scalar_range(
    kind: &ScalarKind,
    node: &Node,
    inputs: &[IVal],
    out: &mut Vec<Diagnostic>,
) -> IVal {
    let get = |i: usize| inputs.get(i).copied().unwrap_or_else(IVal::unknown);
    match kind {
        ScalarKind::Const(c) => IVal::of(*c),
        ScalarKind::Un(UnOp::Neg) => get(0).neg(),
        ScalarKind::Un(UnOp::Not) => IVal { lo: 0.0, hi: 1.0, exact: true },
        ScalarKind::Func(f) => func_range(*f, inputs),
        ScalarKind::Select => get(1).hull(&get(2)),
        ScalarKind::Bin(op) => {
            let (a, b) = (get(0), get(1));
            match op {
                BinOp::Add => a.add(&b),
                BinOp::Sub => a.sub(&b),
                BinOp::Mul => a.mul(&b),
                BinOp::Div => {
                    if b.contains_zero() {
                        let zero = Finding::Zero { modulus: false, b, guarded: false };
                        out.extend(zero.lint(node));
                    }
                    IVal::unknown()
                }
                BinOp::Mod | BinOp::Pow => IVal::unknown(),
                _ => IVal { lo: 0.0, hi: 1.0, exact: true },
            }
        }
    }
}

/// Runs interval analysis over one graph level (no component recursion),
/// appending findings to `out`. The srDFG is a DAG (`srdfg::validate`
/// rejects a cycle; `state` circulates through boundary input/output
/// pairs), so one sweep in topological order computes every operand's
/// range before its consumer reads it: that sweep is the fixpoint. On a
/// cyclic graph it falls back to id order, where an operand not computed
/// yet reads as unknown.
pub fn check_graph(graph: &SrDfg, out: &mut Vec<Diagnostic>) {
    let mut ranges = vec![UNSET; graph.edge_count()];
    for &e in &graph.boundary_inputs {
        ranges[e.0 as usize] = IVal::unknown();
    }
    let order = graph.try_topo_order().unwrap_or_else(|_| graph.node_ids().collect());
    let mut operands = Vec::new();
    for id in order {
        let node = graph.node(id);
        operands.clear();
        operands.extend(node.inputs.iter().map(|e| read(ranges[e.0 as usize])));
        let v = transfer(graph, node, &ranges, &operands, out);
        // Joined, not assigned: no builder makes a boundary input that a
        // node also produces, but `validate` allows one, and it stays
        // unknown.
        for &e in &node.outputs {
            ranges[e.0 as usize] = join(ranges[e.0 as usize], v);
        }
    }
}

/// The range of every output of `node`, linting its kernels on the way.
/// `operands` are its inputs as [`read`]; the nodes that only move values
/// (Load, Store, Unpack, Pack) pass on the stored `ranges` instead.
fn transfer(
    graph: &SrDfg,
    node: &Node,
    ranges: &[IVal],
    operands: &[IVal],
    out: &mut Vec<Diagnostic>,
) -> IVal {
    let stored = |e: &EdgeId| ranges[e.0 as usize];
    let carry = |v: IVal, write: &WriteSpec| {
        if write.carried {
            v.hull(&operands.first().copied().unwrap_or_else(IVal::unknown))
        } else {
            v
        }
    };
    let mut lint = |f: Finding<'_>| out.extend(f.lint(node));
    match &node.kind {
        NK::Map(m) => carry(walk(graph, node, operands, &mut lint), &m.write),
        NK::Reduce(r) => {
            let body = walk(graph, node, operands, &mut lint);
            let n = space_size(&r.red_space) as f64;
            let result = match &r.op {
                ReduceOp::Builtin(BuiltinReduction::Sum) => {
                    IVal::mk((n * body.lo).min(0.0), (n * body.hi).max(0.0), false)
                }
                ReduceOp::Builtin(BuiltinReduction::Max)
                | ReduceOp::Builtin(BuiltinReduction::Min) => body.hull(&IVal::of(0.0)),
                _ => IVal::unknown(),
            };
            carry(result, &r.write)
        }
        NK::Scalar(kind) => scalar_range(kind, node, operands, out),
        NK::ConstTensor(t) => match t.as_real_slice() {
            Some(xs) if !xs.is_empty() => {
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                IVal { lo, hi, exact: false }
            }
            _ => IVal::unknown(),
        },
        NK::Load | NK::Store | NK::Unpack => node.inputs.first().map_or(UNSET, stored),
        NK::Pack => node.inputs.iter().map(stored).fold(UNSET, join),
        // Component internals are analyzed at their own graph level.
        NK::Component(_) => IVal::unknown(),
    }
}

/// Certifies that invoking `graph` in the srDFG interpreter with complete,
/// metadata-conforming feeds can never trap: the graph passes
/// [`srdfg::validate`] (back-links, kernel arity, every node's shape rule,
/// in every component), and the kernel walk, run with unknown operand
/// ranges, finds nothing it could not prove — every access rank-correct,
/// integral and in bounds (guards do not count as proof), every divisor
/// nonzero, every `bitrev` inside its range. No edge is complex and no
/// custom combiner reads outside its two arguments.
///
/// # Errors
///
/// Returns a description of the first construct that could not be proven
/// safe. An `Err` does *not* mean the program traps — only that this
/// analysis cannot rule it out.
pub fn certify_bounds(graph: &SrDfg) -> Result<(), String> {
    srdfg::validate(graph).map_err(|e| e.to_string())?;
    certify_level(graph)
}

fn certify_level(graph: &SrDfg) -> Result<(), String> {
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        if edge.meta.dtype == DType::Complex {
            return Err(format!("edge `{}` is complex", edge.meta.name));
        }
        if crate::init::reads_unproduced(graph, e) {
            return Err(format!("edge `{}` is consumed but never produced", edge.meta.name));
        }
    }
    for (_, node) in graph.iter_nodes() {
        let mut first = None;
        walk(graph, node, &[], &mut |f| {
            first.get_or_insert(f);
        });
        if let Some(f) = first {
            return Err(f.refusal(node));
        }
        match &node.kind {
            NK::Reduce(r) => {
                if let ReduceOp::Custom { combiner, .. } = &r.op {
                    certify_combiner(node, combiner)?;
                }
            }
            NK::Scalar(kind) => {
                if matches!(kind.get(), ScalarKind::Func(ScalarFunc::Complex)) {
                    return Err(format!("`{}` constructs a complex value", node.name));
                }
                for &e in &node.inputs {
                    let meta = &graph.edge(e).meta;
                    if meta.volume() != 1 {
                        return Err(format!(
                            "scalar node `{}` consumes `{}` of shape {:?}",
                            node.name, meta.name, meta.shape
                        ));
                    }
                }
            }
            NK::Component(sub) => certify_level(sub)?,
            _ => {}
        }
    }
    Ok(())
}

/// A custom combiner runs with only `Arg(0)`/`Arg(1)` bound: any operand
/// read or index reference would trap.
fn certify_combiner(node: &Node, k: &KExpr) -> Result<(), String> {
    let ok = match k {
        KExpr::Const(_) => true,
        KExpr::Arg(i) => *i <= 1,
        KExpr::Idx(_) | KExpr::Operand { .. } => false,
        KExpr::Unary(_, e) => certify_combiner(node, e).is_ok(),
        KExpr::Binary(_, a, b) => {
            certify_combiner(node, a).is_ok() && certify_combiner(node, b).is_ok()
        }
        KExpr::Select(c, t, e) => [c, t, e].iter().all(|x| certify_combiner(node, x).is_ok()),
        KExpr::Call(f, args) => {
            *f != ScalarFunc::Complex && args.iter().all(|x| certify_combiner(node, x).is_ok())
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "custom combiner of `{}` references state outside its two arguments",
            node.name
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;

    fn check(graph: &SrDfg) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_graph(graph, &mut out);
        out
    }

    #[test]
    fn in_bounds_program_is_quiet_and_certifies() {
        let g = build(
            "main(input float x[8], output float y[4]) {
                 index i[0:3];
                 y[i] = x[2 * i] + x[2 * i + 1];
             }",
        );
        assert!(check(&g).is_empty());
        assert!(certify_bounds(&g).is_ok(), "{:?}", certify_bounds(&g));
    }

    #[test]
    fn flags_definite_out_of_bounds_access() {
        let g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i + 4];
             }",
        );
        let out = check(&g);
        assert!(out.iter().any(|f| f.code == codes::OUT_OF_BOUNDS), "{out:?}");
        assert!(certify_bounds(&g).is_err());
    }

    #[test]
    fn bitrev_certifies_only_inside_its_range() {
        for (args, ok) in [("i, 3", true), ("i, 70", false), ("i - 1, 3", false)] {
            let g = build(&format!(
                "main(input float x[8], output float y[8]) {{
                     index i[0:7];
                     y[i] = x[i] + bitrev({args});
                 }}"
            ));
            assert_eq!(certify_bounds(&g).is_ok(), ok, "{args}: {:?}", certify_bounds(&g));
        }
    }

    #[test]
    fn flags_possible_out_of_bounds_access() {
        let g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[2 * i];
             }",
        );
        let out = check(&g);
        assert!(out.iter().any(|f| f.code == codes::ARITH_RANGE), "{out:?}");
        assert!(!crate::has_errors(&out), "{out:?}");
        assert!(certify_bounds(&g).is_err());
    }

    #[test]
    fn flags_possible_division_by_zero() {
        let g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] / i;
             }",
        );
        let out = check(&g);
        assert!(out.iter().any(|f| f.message.contains("division by zero")), "{out:?}");
    }

    #[test]
    fn guarded_access_downgrades_to_warning() {
        let g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = i < 3 ? x[i + 1] : 0.0;
             }",
        );
        let out = check(&g);
        // i + 1 in [1, 4] partially overlaps [0, 3] under a guard: quiet
        // in check mode, but certification must still refuse.
        assert!(!crate::has_errors(&out), "{out:?}");
        assert!(certify_bounds(&g).is_err());
    }

    #[test]
    fn strided_stencil_indexes_are_precise() {
        // `(i - i % 4) + (i % 2)` floors i to a multiple of 4 and adds a
        // sub-stride offset — the FFT butterfly idiom. Generic interval
        // subtraction would report a possible out-of-bounds here.
        let g = build(
            "main(input float x[8], output float y[8]) {
                 index i[0:7];
                 y[i] = x[(i - i % 4) + (i % 2)];
             }",
        );
        let out = check(&g);
        assert!(out.is_empty(), "{out:?}");
        assert!(certify_bounds(&g).is_ok(), "{:?}", certify_bounds(&g));
    }

    #[test]
    fn modulo_keeps_indices_in_bounds() {
        let g = build(
            "main(input float x[4], output float y[8]) {
                 index i[0:7];
                 y[i] = x[i % 4];
             }",
        );
        let out = check(&g);
        assert!(out.is_empty(), "{out:?}");
        assert!(certify_bounds(&g).is_ok(), "{:?}", certify_bounds(&g));
    }

    #[test]
    fn certified_program_never_traps() {
        let g = build(
            "main(input float x[8], state float acc, output float y[8]) {
                 index i[0:7];
                 acc = acc + sum[i](x[i]);
                 y[i] = x[7 - i] * 0.5 + acc;
             }",
        );
        certify_bounds(&g).expect("certifiable");
        let mut machine = srdfg::Machine::new(g);
        let mut feeds = std::collections::HashMap::new();
        feeds.insert("x".to_string(), srdfg::Tensor::zeros(DType::Float, vec![8]));
        machine.invoke(&feeds).expect("certified programs must not trap");
    }
}
