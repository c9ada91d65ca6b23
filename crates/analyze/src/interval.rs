//! Integer-interval analysis: propagates value ranges along edges and
//! evaluates kernel index expressions over the index spaces they run in,
//! proving operand accesses in-bounds — or flagging the ones that are
//! provably (`PM-E102`) or possibly (`PM-W103`) out of bounds, along with
//! possible division/modulo by zero and index-arithmetic overflow.
//!
//! The same machinery runs in a *strict* mode behind [`certify_bounds`]:
//! instead of reporting suspicions it demands a positive proof for every
//! access, giving the soundness contract the fuzzer cross-checks — a
//! certified program never traps in the srDFG interpreter.

use crate::solver::{self, ForwardDomain, Lattice};
use crate::{codes, Diagnostic};
use pmlang::{BinOp, BuiltinReduction, DType, ScalarFunc, Span, UnOp};
use srdfg::graph::{space_size, IndexRange, Node, NodeId, ReduceOp, ScalarKind, WriteSpec};
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

/// Value range of an edge, the lattice the dataflow solver iterates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeVal {
    /// No information yet (never produced).
    Bot,
    /// All values lie in the inclusive interval.
    Known(f64, f64),
}

impl RangeVal {
    fn of(iv: IVal) -> RangeVal {
        RangeVal::Known(iv.lo, iv.hi)
    }

    fn to_ival(self) -> IVal {
        match self {
            // Reads of never-produced edges are the init domain's
            // problem; range-wise they are unconstrained.
            RangeVal::Bot => IVal::unknown(),
            RangeVal::Known(lo, hi) => IVal::mk(lo, hi, false),
        }
    }
}

impl Lattice for RangeVal {
    fn join(&mut self, other: &RangeVal) -> bool {
        let joined = match (*self, *other) {
            (v, RangeVal::Bot) => v,
            (RangeVal::Bot, v) => v,
            (RangeVal::Known(a, b), RangeVal::Known(c, d)) => RangeVal::Known(a.min(c), b.max(d)),
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }

    fn widen(&mut self, other: &RangeVal) -> bool {
        if self.join(other) {
            *self = RangeVal::Known(f64::NEG_INFINITY, f64::INFINITY);
            true
        } else {
            false
        }
    }
}

/// Per-input-slot facts the expression evaluator needs. Everything is
/// borrowed from the graph: this struct is rebuilt per node on the
/// compiler's timed path, so it must not allocate.
#[derive(Clone, Copy)]
struct SlotInfo<'g> {
    name: &'g str,
    shape: &'g [usize],
    range: IVal,
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
    fn of(out: &'a [IndexRange]) -> Env<'a> {
        Env { out, red: &[] }
    }

    fn get(&self, i: usize) -> Option<&'a IndexRange> {
        self.out.get(i).or_else(|| self.red.get(i - self.out.len()))
    }
}

/// A per-node slot table. Nodes rarely read more than a handful of
/// operands, so the common case stays on the stack — this is rebuilt for
/// every map/reduce on the compiler's timed path. The inline array is
/// the point: boxing it would put an allocation back in the hot loop.
#[allow(clippy::large_enum_variant)]
enum Slots<'g> {
    Stack([SlotInfo<'g>; 8], usize),
    Heap(Vec<SlotInfo<'g>>),
}

impl<'g> Slots<'g> {
    fn push(&mut self, s: SlotInfo<'g>) {
        match self {
            Slots::Stack(arr, n) if *n < arr.len() => {
                arr[*n] = s;
                *n += 1;
            }
            Slots::Stack(arr, n) => {
                let mut v: Vec<SlotInfo<'g>> = arr[..*n].to_vec();
                v.push(s);
                *self = Slots::Heap(v);
            }
            Slots::Heap(v) => v.push(s),
        }
    }

    fn as_slice(&self) -> &[SlotInfo<'g>] {
        match self {
            Slots::Stack(arr, n) => &arr[..*n],
            Slots::Heap(v) => v,
        }
    }
}

impl Default for Slots<'_> {
    fn default() -> Self {
        let empty = SlotInfo { name: "", shape: &[], range: IVal::unknown() };
        Slots::Stack([empty; 8], 0)
    }
}

/// Evaluates kernel expressions over index intervals, checking every
/// operand access on the way. In strict mode (certification) the first
/// unprovable access aborts; otherwise findings accumulate in `out`.
struct ExprCx<'a> {
    env: Env<'a>,
    slots: &'a [SlotInfo<'a>],
    node: &'a str,
    span: Span,
    strict: bool,
    failed: Option<String>,
    out: Vec<Diagnostic>,
}

impl<'a> ExprCx<'a> {
    fn new(env: Env<'a>, slots: &'a [SlotInfo<'a>], node: &'a Node, strict: bool) -> Self {
        ExprCx {
            env,
            slots,
            node: &node.name,
            span: node.span,
            strict,
            failed: None,
            out: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failed.is_none() {
            self.failed = Some(msg);
        }
    }

    fn error(&mut self, msg: String) {
        if self.strict {
            self.fail(msg);
        } else {
            self.out.push(Diagnostic::error(codes::OUT_OF_BOUNDS, msg).at(self.span));
        }
    }

    fn warn(&mut self, msg: String) {
        if self.strict {
            self.fail(msg);
        } else {
            self.out.push(Diagnostic::warning(codes::ARITH_RANGE, msg).at(self.span));
        }
    }

    /// Classifies one index interval against one axis extent.
    fn classify_index(&mut self, iv: IVal, dim: usize, axis: usize, name: &str, guarded: bool) {
        let max = dim as f64 - 1.0;
        if self.strict {
            if !(iv.exact && iv.finite() && iv.lo >= 0.0 && iv.hi <= max) {
                self.fail(format!(
                    "cannot prove `{}` indexes `{name}` axis {axis} in bounds: \
                     value in [{}, {}] vs size {dim}{}",
                    self.node,
                    fmt_bound(iv.lo),
                    fmt_bound(iv.hi),
                    if iv.exact { "" } else { " (possibly non-integral)" },
                ));
            }
            return;
        }
        if iv.hi < 0.0 || iv.lo > max {
            let msg = format!(
                "`{}` indexes `{name}` axis {axis} with values in [{}, {}], entirely outside \
                 its size {dim}",
                self.node,
                fmt_bound(iv.lo),
                fmt_bound(iv.hi),
            );
            if guarded {
                self.warn(msg);
            } else {
                self.error(msg);
            }
        } else if !guarded
            && ((iv.lo < 0.0 && iv.lo.is_finite()) || (iv.hi > max && iv.hi.is_finite()))
        {
            self.warn(format!(
                "`{}` may index `{name}` axis {axis} out of bounds: value in [{}, {}] but the \
                 axis has size {dim}",
                self.node,
                fmt_bound(iv.lo),
                fmt_bound(iv.hi),
            ));
        }
    }

    /// Checks one operand access and returns the value range read.
    fn access(&mut self, slot: usize, indices: &[KExpr], guarded: bool) -> IVal {
        // Copy the slot record out (it is two references and an interval)
        // so the recursive `eval` below can borrow `self` mutably.
        let Some(&info) = self.slots.get(slot) else {
            // max_slot beyond inputs: srdfg::validate territory.
            if self.strict {
                self.fail(format!("`{}` reads operand slot {slot} beyond its inputs", self.node));
            }
            return IVal::unknown();
        };
        if indices.len() != info.shape.len() {
            let msg = format!(
                "`{}` accesses `{}` with {} index(es) but it has rank {}",
                self.node,
                info.name,
                indices.len(),
                info.shape.len()
            );
            if self.strict || !guarded {
                self.error(msg);
            } else {
                self.warn(msg);
            }
            for k in indices {
                self.eval(k, guarded);
            }
            return IVal::unknown();
        }
        for (axis, (k, &dim)) in indices.iter().zip(info.shape).enumerate() {
            let iv = self.eval(k, guarded);
            self.classify_index(iv, dim, axis, info.name, guarded);
        }
        IVal { exact: false, ..info.range }
    }

    fn eval(&mut self, k: &KExpr, guarded: bool) -> IVal {
        match k {
            KExpr::Const(c) => IVal::of(*c),
            KExpr::Idx(i) => match self.env.get(*i) {
                Some(r) => IVal { lo: r.lo as f64, hi: r.hi as f64, exact: true },
                None => {
                    if self.strict {
                        self.fail(format!(
                            "`{}` references index variable #{i} outside its index space",
                            self.node
                        ));
                    }
                    IVal::unknown()
                }
            },
            KExpr::Operand { slot, indices } => self.access(*slot, indices, guarded),
            KExpr::Arg(_) => {
                if self.strict {
                    self.fail(format!(
                        "`{}` uses a reduction argument outside a combiner",
                        self.node
                    ));
                }
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
                if self.strict && *f == ScalarFunc::Complex {
                    self.fail(format!("`{}` constructs a complex value", self.node));
                }
                // Intrinsics take at most two arguments today; keep the
                // common case off the heap (this runs per call site on the
                // compiler's timed path).
                if args.len() <= 4 {
                    let mut vs = [IVal::unknown(); 4];
                    for (v, a) in vs.iter_mut().zip(args) {
                        *v = self.eval(a, guarded);
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
            self.warn(format!("index arithmetic in `{}` may overflow", self.node));
        }
        r
    }

    fn div(&mut self, a: IVal, b: IVal, guarded: bool) -> IVal {
        if b.contains_zero() {
            if b.finite() && !guarded {
                self.warn(format!(
                    "possible division by zero in `{}`: divisor range [{}, {}] includes 0",
                    self.node,
                    fmt_bound(b.lo),
                    fmt_bound(b.hi),
                ));
            } else if self.strict {
                self.fail(format!("cannot prove the divisor in `{}` is nonzero", self.node));
            }
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
            if b.finite() && !guarded {
                self.warn(format!(
                    "possible modulo by zero in `{}`: divisor range [{}, {}] includes 0",
                    self.node,
                    fmt_bound(b.lo),
                    fmt_bound(b.hi),
                ));
            } else if self.strict {
                self.fail(format!("cannot prove the modulus in `{}` is nonzero", self.node));
            }
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

/// The range-propagation domain; checks happen inside `transfer`.
struct RangeDomain<'a> {
    out: &'a mut Vec<Diagnostic>,
}

impl RangeDomain<'_> {
    fn slots<'g>(graph: &'g SrDfg, node: &Node, inputs: &[RangeVal]) -> Slots<'g> {
        let mut slots = Slots::default();
        for (&e, v) in node.inputs.iter().zip(inputs) {
            let meta = &graph.edge(e).meta;
            slots.push(SlotInfo { name: &meta.name, shape: &meta.shape, range: v.to_ival() });
        }
        slots
    }

    /// Checks the write positions of a map/reduce against the target
    /// shape. `write.lhs` index expressions refer to the *output* index
    /// space only.
    fn check_write(&mut self, cx: &mut ExprCx<'_>, write: &WriteSpec, out_len: usize) {
        let in_out_space = write
            .lhs
            .iter()
            .all(|k| k.max_slot().is_none() && max_idx(k).is_none_or(|m| m < out_len));
        if !in_out_space || write.lhs.len() != write.target_shape.len() {
            if !write.lhs.is_empty() && cx.strict {
                cx.fail(format!(
                    "cannot prove the write positions of `{}` lie in the target tensor",
                    cx.node
                ));
            }
            return;
        }
        for (axis, (k, &dim)) in write.lhs.iter().zip(&write.target_shape).enumerate() {
            let iv = cx.eval(k, false);
            cx.classify_index(iv, dim, axis, "its output", false);
        }
    }

    fn scalar_range(&mut self, kind: &ScalarKind, node: &Node, inputs: &[IVal]) -> IVal {
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
                        if b.contains_zero() && b.finite() {
                            self.out.push(
                                Diagnostic::warning(
                                    codes::ARITH_RANGE,
                                    format!(
                                        "possible division by zero in `{}`: divisor range \
                                         [{}, {}] includes 0",
                                        node.name,
                                        fmt_bound(b.lo),
                                        fmt_bound(b.hi),
                                    ),
                                )
                                .at(node.span),
                            );
                        }
                        IVal::unknown()
                    }
                    BinOp::Mod | BinOp::Pow => IVal::unknown(),
                    _ => IVal { lo: 0.0, hi: 1.0, exact: true },
                }
            }
        }
    }
}

/// Largest `Idx` position referenced by `k`, if any.
fn max_idx(k: &KExpr) -> Option<usize> {
    match k {
        KExpr::Const(_) | KExpr::Arg(_) => None,
        KExpr::Idx(i) => Some(*i),
        KExpr::Operand { indices, .. } => indices.iter().filter_map(max_idx).max(),
        KExpr::Unary(_, e) => max_idx(e),
        KExpr::Binary(_, a, b) => max_idx(a).max(max_idx(b)),
        KExpr::Select(c, t, e) => max_idx(c).max(max_idx(t)).max(max_idx(e)),
        KExpr::Call(_, args) => args.iter().filter_map(max_idx).max(),
    }
}

impl ForwardDomain for RangeDomain<'_> {
    type Value = RangeVal;

    fn bottom(&self) -> RangeVal {
        RangeVal::Bot
    }

    fn boundary(&mut self, _graph: &SrDfg, _edge: EdgeId) -> RangeVal {
        RangeVal::Known(f64::NEG_INFINITY, f64::INFINITY)
    }

    fn transfer(
        &mut self,
        graph: &SrDfg,
        _id: NodeId,
        node: &Node,
        inputs: &[RangeVal],
        out: &mut Vec<RangeVal>,
    ) {
        let n_out = node.outputs.len();
        let v = match &node.kind {
            NK::Map(m) => {
                let slots = Self::slots(graph, node, inputs);
                let mut cx = ExprCx::new(Env::of(&m.out_space), slots.as_slice(), node, false);
                let mut body = cx.eval(&m.kernel, false);
                self.check_write(&mut cx, &m.write, m.out_space.len());
                self.out.append(&mut cx.out);
                if m.write.carried {
                    body = body.hull(&inputs.first().copied().unwrap_or(RangeVal::Bot).to_ival());
                }
                RangeVal::of(body)
            }
            NK::Reduce(r) => {
                let env = Env { out: &r.out_space, red: &r.red_space };
                let slots = Self::slots(graph, node, inputs);
                let mut cx = ExprCx::new(env, slots.as_slice(), node, false);
                let guarded = r.cond.is_some();
                if let Some(c) = &r.cond {
                    cx.eval(c, false);
                }
                let body = cx.eval(&r.body, guarded);
                self.check_write(&mut cx, &r.write, r.out_space.len());
                self.out.append(&mut cx.out);
                let n = space_size(&r.red_space) as f64;
                let mut result = match &r.op {
                    ReduceOp::Builtin(BuiltinReduction::Sum) => {
                        IVal::mk((n * body.lo).min(0.0), (n * body.hi).max(0.0), false)
                    }
                    ReduceOp::Builtin(BuiltinReduction::Max)
                    | ReduceOp::Builtin(BuiltinReduction::Min) => body.hull(&IVal::of(0.0)),
                    _ => IVal::unknown(),
                };
                if r.write.carried {
                    result =
                        result.hull(&inputs.first().copied().unwrap_or(RangeVal::Bot).to_ival());
                }
                RangeVal::of(result)
            }
            NK::Scalar(kind) => {
                let mut ivs = [IVal::unknown(); 4];
                let r = if inputs.len() <= 4 {
                    for (iv, v) in ivs.iter_mut().zip(inputs) {
                        *iv = v.to_ival();
                    }
                    self.scalar_range(kind, node, &ivs[..inputs.len()])
                } else {
                    let ivs: Vec<IVal> = inputs.iter().map(|v| v.to_ival()).collect();
                    self.scalar_range(kind, node, &ivs)
                };
                RangeVal::of(r)
            }
            NK::ConstTensor(t) => match t.as_real_slice() {
                Some(xs) if !xs.is_empty() => {
                    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    RangeVal::Known(lo, hi)
                }
                _ => RangeVal::Known(f64::NEG_INFINITY, f64::INFINITY),
            },
            NK::Load | NK::Store | NK::Unpack => inputs.first().copied().unwrap_or(RangeVal::Bot),
            NK::Pack => {
                let mut acc = RangeVal::Bot;
                for v in inputs {
                    acc.join(v);
                }
                acc
            }
            // Component internals are analyzed at their own graph level.
            NK::Component(_) => RangeVal::Known(f64::NEG_INFINITY, f64::INFINITY),
        };
        out.extend(std::iter::repeat_n(v, n_out));
    }
}

/// Runs interval analysis over one graph level (no component recursion),
/// appending findings to `out`.
pub fn check_graph(graph: &SrDfg, out: &mut Vec<Diagnostic>) {
    let mut domain = RangeDomain { out };
    solver::solve(graph, &mut domain);
}

/// Certifies that invoking `graph` in the srDFG interpreter with complete,
/// metadata-conforming feeds can never trap: every operand access is
/// positively proven rank-correct and in-bounds (guards do not count as
/// proof), every index expression provably integral, no complex values
/// reach comparisons, and all marshalling arities line up.
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
        if edge.producer.is_none()
            && !edge.consumers.is_empty()
            && !graph.boundary_inputs.contains(&e)
        {
            return Err(format!("edge `{}` is consumed but never produced", edge.meta.name));
        }
    }
    for (_, node) in graph.iter_nodes() {
        certify_node(graph, node)?;
    }
    Ok(())
}

fn strict_eval(graph: &SrDfg, node: &Node, env: Env<'_>, k: &KExpr) -> Result<(), String> {
    let slots: Vec<SlotInfo> = node
        .inputs
        .iter()
        .map(|&e| {
            let meta = &graph.edge(e).meta;
            SlotInfo { name: &meta.name, shape: &meta.shape, range: IVal::unknown() }
        })
        .collect();
    let mut cx = ExprCx::new(env, &slots, node, true);
    cx.eval(k, false);
    match cx.failed {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

fn strict_write(
    graph: &SrDfg,
    node: &Node,
    out_space: &[IndexRange],
    write: &WriteSpec,
) -> Result<(), String> {
    if write.lhs.is_empty() {
        return Ok(());
    }
    if write.lhs.len() != write.target_shape.len() {
        return Err(format!(
            "`{}` writes {} position(s) into a rank-{} tensor",
            node.name,
            write.lhs.len(),
            write.target_shape.len()
        ));
    }
    for k in &write.lhs {
        if k.max_slot().is_some() {
            return Err(format!("`{}` computes write positions from operand values", node.name));
        }
        if max_idx(k).is_some_and(|m| m >= out_space.len()) {
            return Err(format!(
                "`{}` writes at positions outside its output index space",
                node.name
            ));
        }
        strict_eval(graph, node, Env::of(out_space), k)?;
    }
    let mut cx = ExprCx::new(Env::of(out_space), &[], node, true);
    for (axis, (k, &dim)) in write.lhs.iter().zip(&write.target_shape).enumerate() {
        let iv = cx.eval(k, false);
        cx.classify_index(iv, dim, axis, "its output", false);
    }
    match cx.failed {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
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

fn certify_node(graph: &SrDfg, node: &Node) -> Result<(), String> {
    match &node.kind {
        NK::Map(m) => {
            strict_eval(graph, node, Env::of(&m.out_space), &m.kernel)?;
            strict_write(graph, node, &m.out_space, &m.write)
        }
        NK::Reduce(r) => {
            let env = Env { out: &r.out_space, red: &r.red_space };
            if let Some(c) = &r.cond {
                strict_eval(graph, node, env, c)?;
            }
            strict_eval(graph, node, env, &r.body)?;
            strict_write(graph, node, &r.out_space, &r.write)?;
            if let ReduceOp::Custom { combiner, .. } = &r.op {
                certify_combiner(node, combiner)?;
            }
            Ok(())
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
            Ok(())
        }
        NK::Unpack => {
            let vol = node.inputs.first().map(|&e| graph.edge(e).meta.volume()).unwrap_or(0);
            if node.outputs.len() != vol {
                return Err(format!(
                    "unpack `{}` yields {} edge(s) for a {}-element tensor",
                    node.name,
                    node.outputs.len(),
                    vol
                ));
            }
            Ok(())
        }
        NK::Pack => {
            let vol = node.outputs.first().map(|&e| graph.edge(e).meta.volume()).unwrap_or(0);
            if node.inputs.len() != vol {
                return Err(format!(
                    "pack `{}` gathers {} edge(s) for a {}-element tensor",
                    node.name,
                    node.inputs.len(),
                    vol
                ));
            }
            Ok(())
        }
        NK::Component(sub) => {
            let pairs = sub
                .boundary_inputs
                .iter()
                .zip(&node.inputs)
                .chain(sub.boundary_outputs.iter().zip(&node.outputs));
            for (&inner, &outer) in pairs {
                let im = &sub.edge(inner).meta;
                let om = &graph.edge(outer).meta;
                if im.shape != om.shape {
                    return Err(format!(
                        "component `{}` binds `{}` of shape {:?} to `{}` of shape {:?}",
                        node.name, im.name, im.shape, om.name, om.shape
                    ));
                }
            }
            certify_level(sub)
        }
        NK::ConstTensor(_) | NK::Load | NK::Store => Ok(()),
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
