//! Scalar kernels: the finest-granularity expression trees carried by
//! `Map` and `Reduce` srDFG nodes.
//!
//! A kernel computes one scalar element of a node's result, given the
//! current index-point and the node's operand tensors. Kernels are what the
//! lazy scalar expansion unrolls into scalar-op subgraphs; the interpreter
//! compiles them per node into a `KernelPlan`, and [`KExpr::eval`] is
//! their definition.
//!
//! [`eval_unary`], [`eval_binary`] and [`eval_call`] are the one meaning of
//! each PMLang operator: compile-time sizes (`srdfg::build`), constant
//! folding (`pm_passes::fold`) and scalar nodes (the interpreter) all call
//! them, and [`Scalar::as_index`] is how any of them reads an integer.

use crate::value::{Scalar, Tensor, ValueError};
use pmlang::{BinOp, ScalarFunc, UnOp};
use std::fmt;

/// A scalar expression with operand references resolved to slot numbers and
/// index variables resolved to positions in the node's index space.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    /// A real constant.
    Const(f64),
    /// The value of index variable `#pos` in the node's combined index
    /// space (output-space indices first, then reduction-space indices).
    Idx(usize),
    /// An element of input operand `#slot`, addressed by index expressions.
    /// An empty index list reads a rank-0 operand.
    Operand {
        /// Operand slot in the node's input list.
        slot: usize,
        /// One index expression per operand axis.
        indices: Vec<KExpr>,
    },
    /// A combiner argument (custom reductions only): 0 = accumulator,
    /// 1 = element.
    Arg(usize),
    /// Unary operation.
    Unary(UnOp, Box<KExpr>),
    /// Binary operation. `&&`/`||` short-circuit.
    Binary(BinOp, Box<KExpr>, Box<KExpr>),
    /// `cond ? a : b` — only the taken branch is evaluated.
    Select(Box<KExpr>, Box<KExpr>, Box<KExpr>),
    /// Built-in scalar function call.
    Call(ScalarFunc, Vec<KExpr>),
}

impl KExpr {
    /// Counts the scalar primitive operations one evaluation performs
    /// (used by accelerator cost models). Conditional branches count the
    /// worst case; operand loads do not count as ops.
    pub fn op_count(&self) -> u64 {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => 0,
            KExpr::Operand { indices, .. } => indices.iter().map(KExpr::op_count).sum(),
            KExpr::Unary(_, e) => 1 + e.op_count(),
            KExpr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
            KExpr::Select(c, a, b) => 1 + c.op_count() + a.op_count().max(b.op_count()),
            KExpr::Call(_, args) => 1 + args.iter().map(KExpr::op_count).sum::<u64>(),
        }
    }

    /// Like [`KExpr::op_count`] but excluding operand *index* arithmetic —
    /// the count of ops the kernel's own datapath performs. Address
    /// computation is free on every modelled fabric (it is wiring/AGU
    /// work), and granularity decisions must not be skewed by strides.
    pub fn compute_op_count(&self) -> u64 {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) | KExpr::Operand { .. } => 0,
            KExpr::Unary(_, e) => 1 + e.compute_op_count(),
            KExpr::Binary(_, a, b) => 1 + a.compute_op_count() + b.compute_op_count(),
            KExpr::Select(c, a, b) => {
                1 + c.compute_op_count() + a.compute_op_count().max(b.compute_op_count())
            }
            KExpr::Call(_, args) => 1 + args.iter().map(KExpr::compute_op_count).sum::<u64>(),
        }
    }

    /// True if the kernel applies a transcendental builtin anywhere
    /// (used to route work to nonlinear function units / libm cost).
    pub fn has_nonlinear(&self) -> bool {
        match self {
            KExpr::Call(f, args) => f.is_nonlinear() || args.iter().any(KExpr::has_nonlinear),
            KExpr::Unary(_, e) => e.has_nonlinear(),
            KExpr::Binary(_, a, b) => a.has_nonlinear() || b.has_nonlinear(),
            KExpr::Select(c, a, b) => c.has_nonlinear() || a.has_nonlinear() || b.has_nonlinear(),
            KExpr::Operand { indices, .. } => indices.iter().any(KExpr::has_nonlinear),
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => false,
        }
    }

    /// The highest operand slot referenced, if any.
    pub fn max_slot(&self) -> Option<usize> {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => None,
            KExpr::Operand { slot, indices } => indices
                .iter()
                .filter_map(KExpr::max_slot)
                .max()
                .map_or(Some(*slot), |m| Some(m.max(*slot))),
            KExpr::Unary(_, e) => e.max_slot(),
            KExpr::Binary(_, a, b) => a.max_slot().max(b.max_slot()),
            KExpr::Select(c, a, b) => c.max_slot().max(a.max_slot()).max(b.max_slot()),
            KExpr::Call(_, args) => args.iter().filter_map(KExpr::max_slot).max(),
        }
    }

    /// The highest index variable (`Idx` position) referenced, if any.
    pub fn max_idx(&self) -> Option<usize> {
        match self {
            KExpr::Const(_) | KExpr::Arg(_) => None,
            KExpr::Idx(i) => Some(*i),
            KExpr::Operand { indices, .. } => indices.iter().filter_map(KExpr::max_idx).max(),
            KExpr::Unary(_, e) => e.max_idx(),
            KExpr::Binary(_, a, b) => a.max_idx().max(b.max_idx()),
            KExpr::Select(c, a, b) => c.max_idx().max(a.max_idx()).max(b.max_idx()),
            KExpr::Call(_, args) => args.iter().filter_map(KExpr::max_idx).max(),
        }
    }

    /// Visits every `Operand` reference in the expression.
    pub fn for_each_operand(&self, f: &mut impl FnMut(usize, &[KExpr])) {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => {}
            KExpr::Operand { slot, indices } => {
                f(*slot, indices);
                indices.iter().for_each(|ix| ix.for_each_operand(f));
            }
            KExpr::Unary(_, e) => e.for_each_operand(f),
            KExpr::Binary(_, a, b) => {
                a.for_each_operand(f);
                b.for_each_operand(f);
            }
            KExpr::Select(c, a, b) => {
                c.for_each_operand(f);
                a.for_each_operand(f);
                b.for_each_operand(f);
            }
            KExpr::Call(_, args) => args.iter().for_each(|a| a.for_each_operand(f)),
        }
    }

    /// Evaluates the kernel at an index point.
    ///
    /// `indices` supplies the value of each [`KExpr::Idx`]; `operands` the
    /// tensors for [`KExpr::Operand`]; `args` the accumulator/element pair
    /// for combiner kernels (empty otherwise).
    ///
    /// # Errors
    ///
    /// Returns a [`ValueError`] on out-of-bounds operand access or on
    /// operations undefined for complex values.
    pub fn eval(
        &self,
        indices: &[i64],
        operands: &[&Tensor],
        args: &[Scalar],
    ) -> Result<Scalar, ValueError> {
        match self {
            KExpr::Const(v) => Ok(Scalar::Real(*v)),
            KExpr::Idx(pos) => Ok(Scalar::Real(indices[*pos] as f64)),
            KExpr::Arg(i) => Ok(args[*i]),
            KExpr::Operand { slot, indices: ixs } => buffered(
                ixs.len(),
                0,
                |d| ixs[d].eval(indices, operands, args)?.as_index(),
                |point| operands[*slot].get(point),
            ),
            KExpr::Unary(op, e) => {
                let v = e.eval(indices, operands, args)?;
                eval_unary(*op, v)
            }
            KExpr::Binary(op, a, b) => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let lhs = a.eval(indices, operands, args)?.as_bool()?;
                    if !lhs {
                        return Ok(Scalar::Real(0.0));
                    }
                    return Ok(Scalar::Real(if b.eval(indices, operands, args)?.as_bool()? {
                        1.0
                    } else {
                        0.0
                    }));
                }
                if *op == BinOp::Or {
                    let lhs = a.eval(indices, operands, args)?.as_bool()?;
                    if lhs {
                        return Ok(Scalar::Real(1.0));
                    }
                    return Ok(Scalar::Real(if b.eval(indices, operands, args)?.as_bool()? {
                        1.0
                    } else {
                        0.0
                    }));
                }
                let lhs = a.eval(indices, operands, args)?;
                let rhs = b.eval(indices, operands, args)?;
                eval_binary(*op, lhs, rhs)
            }
            KExpr::Select(c, a, b) => {
                if c.eval(indices, operands, args)?.as_bool()? {
                    a.eval(indices, operands, args)
                } else {
                    b.eval(indices, operands, args)
                }
            }
            KExpr::Call(f, call_args) => buffered(
                call_args.len(),
                Scalar::Real(0.0),
                |i| call_args[i].eval(indices, operands, args),
                |vals| eval_call(*f, vals),
            ),
        }
    }

    /// Evaluates an index expression (no operands, integer result).
    ///
    /// # Errors
    ///
    /// Returns a [`ValueError`] if the expression is not real-valued.
    pub fn eval_index(&self, indices: &[i64]) -> Result<i64, ValueError> {
        self.eval(indices, &[], &[])?.as_index()
    }
}

/// Applies a unary operator to a scalar; `!` of a complex value is an error.
#[inline]
pub fn eval_unary(op: UnOp, v: Scalar) -> Result<Scalar, ValueError> {
    match (op, v) {
        (UnOp::Neg, Scalar::Real(x)) => Ok(Scalar::Real(-x)),
        (UnOp::Neg, Scalar::Complex(re, im)) => Ok(Scalar::Complex(-re, -im)),
        (UnOp::Not, v) => Ok(Scalar::Real(if v.as_bool()? { 0.0 } else { 1.0 })),
    }
}

/// Applies a binary operator with real/complex promotion; an operator
/// undefined on complex values is an error.
pub fn eval_binary(op: BinOp, lhs: Scalar, rhs: Scalar) -> Result<Scalar, ValueError> {
    binary(op, lhs, rhs)
}

/// [`eval_binary`], inlined into the coarse kernels' per-element loops: out
/// of line it made a `sum[j](A[i][j]*x[j])` element 1.7× slower. The
/// scalar-node path keeps calling it out of line.
#[inline(always)]
pub(crate) fn binary(op: BinOp, lhs: Scalar, rhs: Scalar) -> Result<Scalar, ValueError> {
    use Scalar::*;
    // Promote to complex if either side is complex (arithmetic only).
    let complex = matches!(lhs, Complex(..)) || matches!(rhs, Complex(..));
    if complex {
        let (ar, ai) = as_complex(lhs);
        let (br, bi) = as_complex(rhs);
        return match op {
            BinOp::Add => Ok(Complex(ar + br, ai + bi)),
            BinOp::Sub => Ok(Complex(ar - br, ai - bi)),
            BinOp::Mul => Ok(Complex(ar * br - ai * bi, ar * bi + ai * br)),
            BinOp::Div => {
                let d = br * br + bi * bi;
                Ok(Complex((ar * br + ai * bi) / d, (ai * br - ar * bi) / d))
            }
            BinOp::Eq => Ok(Real(if ar == br && ai == bi { 1.0 } else { 0.0 })),
            BinOp::Ne => Ok(Real(if ar != br || ai != bi { 1.0 } else { 0.0 })),
            other => Err(ValueError::UnsupportedOp(other.symbol())),
        };
    }
    let a = lhs.as_real()?;
    let b = rhs.as_real()?;
    let bool_to_real = |v: bool| Real(if v { 1.0 } else { 0.0 });
    Ok(match op {
        BinOp::Add => Real(a + b),
        BinOp::Sub => Real(a - b),
        BinOp::Mul => Real(a * b),
        BinOp::Div => Real(a / b),
        BinOp::Mod => Real(a.rem_euclid(b)),
        BinOp::Pow => Real(a.powf(b)),
        BinOp::Eq => bool_to_real(a == b),
        BinOp::Ne => bool_to_real(a != b),
        BinOp::Lt => bool_to_real(a < b),
        BinOp::Le => bool_to_real(a <= b),
        BinOp::Gt => bool_to_real(a > b),
        BinOp::Ge => bool_to_real(a >= b),
        BinOp::And => bool_to_real(a != 0.0 && b != 0.0),
        BinOp::Or => bool_to_real(a != 0.0 || b != 0.0),
    })
}

fn as_complex(s: Scalar) -> (f64, f64) {
    match s {
        Scalar::Real(x) => (x, 0.0),
        Scalar::Complex(re, im) => (re, im),
    }
}

/// Applies a built-in scalar function, handling the complex-aware builtins
/// and `bitrev`'s integer range; a complex argument to a real-only builtin
/// is an error. `args` holds exactly `f`'s arity of values.
pub fn eval_call(f: ScalarFunc, args: &[Scalar]) -> Result<Scalar, ValueError> {
    match f {
        ScalarFunc::Complex => Ok(Scalar::Complex(args[0].as_real()?, args[1].as_real()?)),
        ScalarFunc::CReal => Ok(Scalar::Real(as_complex(args[0]).0)),
        ScalarFunc::CImag => Ok(Scalar::Real(as_complex(args[0]).1)),
        ScalarFunc::Abs => match args[0] {
            Scalar::Real(x) => Ok(Scalar::Real(x.abs())),
            Scalar::Complex(re, im) => Ok(Scalar::Real((re * re + im * im).sqrt())),
        },
        ScalarFunc::Exp => match args[0] {
            // Complex exponential: used by FFT twiddle factors.
            Scalar::Complex(re, im) => {
                let m = re.exp();
                Ok(Scalar::Complex(m * im.cos(), m * im.sin()))
            }
            Scalar::Real(x) => Ok(Scalar::Real(x.exp())),
        },
        ScalarFunc::Bitrev => {
            let (v, bits) = (args[0].as_index()?, args[1].as_index()?);
            match (u64::try_from(v), u32::try_from(bits)) {
                (Ok(v), Ok(bits)) if bits <= 64 => {
                    Ok(Scalar::Real(pmlang::intrinsics::bitrev(v, bits) as f64))
                }
                _ => Err(ValueError::BitrevRange),
            }
        }
        other => buffered(
            args.len(),
            0.0,
            |i| args[i].as_real(),
            |reals| Ok(Scalar::Real(other.eval_real(reals))),
        ),
    }
}

/// Hands `use_` the `n` values `item` produces in order, stopping at the
/// first error. Up to four live on the stack, so an operand read or a
/// builtin call allocates nothing; only a longer list takes the heap.
pub(crate) fn buffered<T: Copy, R, E>(
    n: usize,
    fill: T,
    mut item: impl FnMut(usize) -> Result<T, E>,
    use_: impl FnOnce(&[T]) -> Result<R, E>,
) -> Result<R, E> {
    if n <= 4 {
        let mut buf = [fill; 4];
        for (i, slot) in buf[..n].iter_mut().enumerate() {
            *slot = item(i)?;
        }
        use_(&buf[..n])
    } else {
        use_(&(0..n).map(item).collect::<Result<Vec<T>, _>>()?)
    }
}

// ---- compiled plans --------------------------------------------------

/// Largest magnitude an index expression may reach, at any sub-expression
/// and any point, to be read as exact integer arithmetic: below 2^53 an
/// `f64` sum or product of integers is exact, so the affine form and the
/// tree's floating-point evaluation agree on every index.
pub(crate) const EXACT: i64 = 1 << 52;

/// One instruction of a [`KernelPlan`]. Values and indices live in
/// numbered slots that compiling assigns like stack depths, so every
/// operand position is fixed in the code. Jump targets are absolute
/// positions in the code.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const {
        v: f64,
        to: usize,
    },
    Idx {
        pos: usize,
        to: usize,
    },
    Arg {
        i: usize,
        to: usize,
    },
    /// Element `base + Σ coefs[at + k] · point[k]` of operand `slot`: an
    /// affine read proven in bounds over the whole box.
    Strided {
        slot: usize,
        base: i64,
        at: usize,
        to: usize,
    },
    /// Truncates value slot `from` into index slot `to`.
    ToIndex {
        from: usize,
        to: usize,
    },
    /// The element of operand `slot` at the `rank` indices from index slot
    /// `from` on, checked as [`Tensor::get`] checks it.
    Checked {
        slot: usize,
        from: usize,
        rank: usize,
        to: usize,
    },
    /// Value `at` becomes `op` of itself.
    Unary {
        op: UnOp,
        at: usize,
    },
    /// Value `at` becomes `op` of itself and value `at + 1`.
    Binary {
        op: BinOp,
        at: usize,
    },
    /// Value `at` becomes `f` of the `n` values from `at` on.
    Call {
        f: ScalarFunc,
        at: usize,
        n: usize,
    },
    /// `a && b` after `a`: a false `a` becomes `0` and skips `b`.
    AndElse {
        at: usize,
        end: usize,
    },
    /// `a || b` after `a`: a true `a` becomes `1` and skips `b`.
    OrElse {
        at: usize,
        end: usize,
    },
    /// Value `at` becomes its truth value, `0` or `1`.
    Truth {
        at: usize,
    },
    /// Jumps when value `at` is false.
    JumpUnless {
        at: usize,
        to: usize,
    },
    Jump {
        to: usize,
    },
}

/// A compiled expression: a range of its plan's code, leaving its value in
/// slot 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanExpr {
    start: usize,
    end: usize,
}

/// Where a compiled write puts each element.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Place {
    /// A flat offset `base + Σ coefs[at + k] · point[k]`, proven in bounds.
    Strided { base: i64, at: usize },
    /// Code that leaves the `rank` target indices in index slots `0..rank`,
    /// checked by [`Tensor::set`].
    Checked { code: PlanExpr, rank: usize },
}

/// A node's kernels compiled once per call of `exec_map`/`exec_reduce`:
/// flat code run without recursion, with an operand read or a write whose
/// every index is affine in the iteration variables (`i`, `i+c`, `c*i`,
/// `c-i` and their sums) reduced to a base offset plus one stride per axis
/// once its bounds are proven over the whole box. Every other access — a
/// data-dependent or non-affine index, or an affine one that leaves its
/// tensor somewhere in the box — is checked where it is evaluated, with the
/// error [`KExpr::eval`] gives. Arithmetic is [`KExpr::eval`]'s own
/// operators, in its order, with its short circuits, so a plan computes the
/// same bits; evaluation allocates nothing, because compiling sizes the
/// slots its code uses.
#[derive(Debug, Default)]
pub(crate) struct KernelPlan {
    code: Vec<Op>,
    /// One flat-offset coefficient per box axis for each strided access.
    coefs: Vec<i64>,
    vals: Vec<Scalar>,
    idxs: Vec<i64>,
    /// Value and index slots in use at the end of the code so far.
    depth: (usize, usize),
}

impl KernelPlan {
    /// Compiles `k` for points of the box `bounds` (`(lo, hi)` per axis)
    /// over `operands`.
    pub(crate) fn expr(
        &mut self,
        k: &KExpr,
        bounds: &[(i64, i64)],
        operands: &[&Tensor],
    ) -> PlanExpr {
        let start = self.code.len();
        self.code.reserve(3 * node_count(k));
        self.emit(k, bounds, operands);
        self.finish(start)
    }

    /// Compiles the write position `lhs` into a tensor of `shape` for
    /// points of `bounds`. Like [`KExpr::eval_index`], it reads no operand.
    pub(crate) fn place(&mut self, lhs: &[KExpr], bounds: &[(i64, i64)], shape: &[usize]) -> Place {
        if let Some((base, at)) = self.strided(lhs, shape, bounds) {
            return Place::Strided { base, at };
        }
        let start = self.code.len();
        for l in lhs {
            self.emit(l, bounds, &[]);
            self.push_index();
        }
        Place::Checked { code: self.finish(start), rank: lhs.len() }
    }

    /// Evaluates `e` at `point` (`args` binds a combiner's arguments).
    /// Inlined into the element loops, as are `store` and `run`: out of
    /// line, each call's setup outweighed a small kernel's work.
    #[inline(always)]
    pub(crate) fn eval(
        &mut self,
        e: PlanExpr,
        point: &[i64],
        operands: &[&Tensor],
        args: &[Scalar],
    ) -> Result<Scalar, ValueError> {
        self.run(e, point, operands, args)?;
        Ok(self.vals[0])
    }

    /// Stores `v` at `place` for `point`, with [`Tensor::set`]'s coercion.
    #[inline(always)]
    pub(crate) fn store(
        &mut self,
        place: Place,
        point: &[i64],
        out: &mut Tensor,
        v: Scalar,
    ) -> Result<(), ValueError> {
        match place {
            Place::Strided { base, at } => out.set_flat(offset(&self.coefs, base, at, point), v),
            Place::Checked { code, rank } => {
                self.run(code, point, &[], &[])?;
                out.set(&self.idxs[..rank], v)
            }
        }
    }

    fn finish(&mut self, start: usize) -> PlanExpr {
        self.depth = (0, 0);
        PlanExpr { start, end: self.code.len() }
    }

    /// Appends `op` and returns its position.
    fn op(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// The next free value slot, now taken; the slots grow to fit.
    fn push(&mut self) -> usize {
        let to = self.depth.0;
        self.depth.0 += 1;
        if self.vals.len() < self.depth.0 {
            self.vals.resize(self.depth.0, Scalar::Real(0.0));
        }
        to
    }

    /// Moves the top value to the next free index slot.
    fn push_index(&mut self) {
        self.depth.0 -= 1;
        let (from, to) = (self.depth.0, self.depth.1);
        self.depth.1 += 1;
        if self.idxs.len() < self.depth.1 {
            self.idxs.resize(self.depth.1, 0);
        }
        self.op(Op::ToIndex { from, to });
    }

    /// Points the jump at `at` to the end of the code.
    fn land(&mut self, at: usize) {
        let here = self.code.len();
        match &mut self.code[at] {
            Op::AndElse { end: to, .. }
            | Op::OrElse { end: to, .. }
            | Op::JumpUnless { to, .. }
            | Op::Jump { to } => *to = here,
            _ => unreachable!("not a jump"),
        }
    }

    fn emit(&mut self, k: &KExpr, bounds: &[(i64, i64)], operands: &[&Tensor]) {
        match k {
            KExpr::Const(v) => {
                let to = self.push();
                self.op(Op::Const { v: *v, to });
            }
            KExpr::Idx(pos) => {
                let to = self.push();
                self.op(Op::Idx { pos: *pos, to });
            }
            KExpr::Arg(i) => {
                let to = self.push();
                self.op(Op::Arg { i: *i, to });
            }
            KExpr::Operand { slot, indices } => {
                let slot = *slot;
                let strided =
                    operands.get(slot).and_then(|t| self.strided(indices, t.shape(), bounds));
                if let Some((base, at)) = strided {
                    let to = self.push();
                    self.op(Op::Strided { slot, base, at, to });
                    return;
                }
                let from = self.depth.1;
                for ix in indices {
                    self.emit(ix, bounds, operands);
                    self.push_index();
                }
                self.depth.1 = from;
                let to = self.push();
                self.op(Op::Checked { slot, from, rank: indices.len(), to });
            }
            KExpr::Unary(op, e) => {
                self.emit(e, bounds, operands);
                self.op(Op::Unary { op: *op, at: self.depth.0 - 1 });
            }
            KExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                self.emit(a, bounds, operands);
                let at = self.depth.0 - 1;
                let skip = if *op == BinOp::And {
                    self.op(Op::AndElse { at, end: 0 })
                } else {
                    self.op(Op::OrElse { at, end: 0 })
                };
                self.depth.0 = at;
                self.emit(b, bounds, operands);
                self.op(Op::Truth { at });
                self.land(skip);
            }
            KExpr::Binary(op, a, b) => {
                self.emit(a, bounds, operands);
                self.emit(b, bounds, operands);
                self.depth.0 -= 1;
                self.op(Op::Binary { op: *op, at: self.depth.0 - 1 });
            }
            KExpr::Select(c, a, b) => {
                self.emit(c, bounds, operands);
                let at = self.depth.0 - 1;
                let to_else = self.op(Op::JumpUnless { at, to: 0 });
                self.depth.0 = at;
                self.emit(a, bounds, operands);
                let to_end = self.op(Op::Jump { to: 0 });
                self.land(to_else);
                self.depth.0 = at;
                self.emit(b, bounds, operands);
                self.land(to_end);
            }
            KExpr::Call(f, args) => {
                let at = self.depth.0;
                for a in args {
                    self.emit(a, bounds, operands);
                }
                if args.is_empty() {
                    self.push();
                }
                self.depth.0 = at + 1;
                self.op(Op::Call { f: *f, at, n: args.len() });
            }
        }
    }

    /// The flat offset `base + Σ coefs · point` and the coefficients' place
    /// in `coefs`, when every index of an access into a tensor of `shape`
    /// is affine and in bounds at every point of `bounds`.
    fn strided(
        &mut self,
        indices: &[KExpr],
        shape: &[usize],
        bounds: &[(i64, i64)],
    ) -> Option<(i64, usize)> {
        if indices.len() != shape.len() {
            return None;
        }
        let axes = bounds.len();
        let empty = bounds.iter().any(|&(lo, hi)| lo > hi);
        let at = self.coefs.len();
        // The access's coefficients, then one index's scratch.
        self.coefs.resize(at + 2 * axes, 0);
        let mut base = 0i64;
        for (ix, &dim) in indices.iter().zip(shape) {
            let (flat, one) = self.coefs[at..].split_at_mut(axes);
            one.fill(0);
            let mut c = 0;
            let proven = i64::try_from(dim).ok().filter(|_| {
                affine(ix, 1, one, &mut c, bounds).is_some()
                    && (empty || within(c, one, bounds, dim as i64))
            });
            let Some(dim) = proven else {
                self.coefs.truncate(at);
                return None;
            };
            // Row-major, as `Tensor::flat_index` folds it. Wrapping is
            // exact: the true offset at every point of the box is in range.
            base = base.wrapping_mul(dim).wrapping_add(c);
            for (f, &a) in flat.iter_mut().zip(one.iter()) {
                *f = f.wrapping_mul(dim).wrapping_add(a);
            }
        }
        self.coefs.truncate(at + axes);
        Some((base, at))
    }

    #[inline(always)]
    fn run(
        &mut self,
        e: PlanExpr,
        point: &[i64],
        operands: &[&Tensor],
        args: &[Scalar],
    ) -> Result<(), ValueError> {
        let KernelPlan { code, coefs, vals, idxs, .. } = self;
        let truth = |b: bool| Scalar::Real(if b { 1.0 } else { 0.0 });
        let mut pc = e.start;
        while pc < e.end {
            let op = code[pc];
            pc += 1;
            match op {
                Op::Const { v, to } => vals[to] = Scalar::Real(v),
                Op::Idx { pos, to } => vals[to] = Scalar::Real(point[pos] as f64),
                Op::Arg { i, to } => vals[to] = args[i],
                Op::Strided { slot, base, at, to } => {
                    vals[to] = operands[slot].get_flat(offset(coefs, base, at, point));
                }
                Op::ToIndex { from, to } => idxs[to] = vals[from].as_index()?,
                Op::Checked { slot, from, rank, to } => {
                    vals[to] = operands[slot].get(&idxs[from..from + rank])?;
                }
                Op::Unary { op, at } => vals[at] = eval_unary(op, vals[at])?,
                Op::Binary { op, at } => vals[at] = binary(op, vals[at], vals[at + 1])?,
                Op::Call { f, at, n } => vals[at] = eval_call(f, &vals[at..at + n])?,
                Op::AndElse { at, end } => {
                    if !vals[at].as_bool()? {
                        vals[at] = truth(false);
                        pc = end;
                    }
                }
                Op::OrElse { at, end } => {
                    if vals[at].as_bool()? {
                        vals[at] = truth(true);
                        pc = end;
                    }
                }
                Op::Truth { at } => vals[at] = truth(vals[at].as_bool()?),
                Op::JumpUnless { at, to } => {
                    if !vals[at].as_bool()? {
                        pc = to;
                    }
                }
                Op::Jump { to } => pc = to,
            }
        }
        Ok(())
    }
}

/// The flat offset `base + Σ coefs[at + k] · point[k]`.
#[inline]
fn offset(coefs: &[i64], base: i64, at: usize, point: &[i64]) -> usize {
    let coefs = &coefs[at..at + point.len()];
    coefs.iter().zip(point).fold(base, |o, (&c, &p)| o.wrapping_add(c.wrapping_mul(p))) as usize
}

/// Adds `scale · k` to the affine form `c + Σ coefs · point` when `k` is
/// affine in the axes of `bounds` with integer coefficients, returning a
/// bound on `|k|` over the box; `None` when it is not, or when some
/// sub-expression could leave the range where `f64` is exact.
fn affine(
    k: &KExpr,
    scale: i64,
    coefs: &mut [i64],
    c: &mut i64,
    bounds: &[(i64, i64)],
) -> Option<i64> {
    let integer = |v: f64| (v.fract() == 0.0 && v.abs() <= EXACT as f64).then_some(v as i64);
    let bound = match k {
        KExpr::Const(v) => {
            let v = integer(*v)?;
            *c = c.checked_add(scale.checked_mul(v)?)?;
            v.abs()
        }
        KExpr::Idx(pos) => {
            let (lo, hi) = *bounds.get(*pos)?;
            coefs[*pos] = coefs[*pos].checked_add(scale)?;
            lo.checked_abs()?.max(hi.checked_abs()?)
        }
        KExpr::Unary(UnOp::Neg, e) => affine(e, scale.checked_neg()?, coefs, c, bounds)?,
        KExpr::Binary(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let sb = if *op == BinOp::Add { scale } else { scale.checked_neg()? };
            let ba = affine(a, scale, coefs, c, bounds)?;
            ba.checked_add(affine(b, sb, coefs, c, bounds)?)?
        }
        KExpr::Binary(BinOp::Mul, a, b) => {
            let (m, e) = match (&**a, &**b) {
                (KExpr::Const(m), e) | (e, KExpr::Const(m)) => (integer(*m)?, e),
                _ => return None,
            };
            affine(e, scale.checked_mul(m)?, coefs, c, bounds)?.checked_mul(m.abs())?
        }
        _ => return None,
    };
    (bound <= EXACT).then_some(bound)
}

/// True when `c + Σ coefs · point` lies in `[0, dim)` at every point of the
/// (non-empty) box `bounds`.
fn within(c: i64, coefs: &[i64], bounds: &[(i64, i64)], dim: i64) -> bool {
    let (mut lo, mut hi) = (c, c);
    for (&a, &(l, h)) in coefs.iter().zip(bounds) {
        // `affine` bounded every term by `EXACT`, so none overflows.
        let (x, y) = (a * l, a * h);
        lo += x.min(y);
        hi += x.max(y);
    }
    lo >= 0 && hi < dim
}

/// The number of nodes in `k`. Each compiles to at most three ops: its
/// own (two for a `Select`, `&&` or `||`) and a `ToIndex` when it is an
/// index.
fn node_count(k: &KExpr) -> usize {
    1 + match k {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => 0,
        KExpr::Operand { indices, .. } => indices.iter().map(node_count).sum(),
        KExpr::Unary(_, e) => node_count(e),
        KExpr::Binary(_, a, b) => node_count(a) + node_count(b),
        KExpr::Select(c, a, b) => node_count(c) + node_count(a) + node_count(b),
        KExpr::Call(_, args) => args.iter().map(node_count).sum(),
    }
}

impl fmt::Display for KExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KExpr::Const(v) => write!(f, "{v}"),
            KExpr::Idx(i) => write!(f, "i{i}"),
            KExpr::Arg(i) => write!(f, "arg{i}"),
            KExpr::Operand { slot, indices } => {
                write!(f, "%{slot}")?;
                for ix in indices {
                    write!(f, "[{ix}]")?;
                }
                Ok(())
            }
            KExpr::Unary(op, e) => write!(f, "({op}{e})"),
            KExpr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            KExpr::Select(c, a, b) => write!(f, "({c} ? {a} : {b})"),
            KExpr::Call(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlang::DType;

    fn t(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(DType::Float, vec![n], v).unwrap()
    }

    #[test]
    fn evaluates_arithmetic() {
        // 2 * %0[i0] + 1
        let k = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Const(2.0)),
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
            )),
            Box::new(KExpr::Const(1.0)),
        );
        let x = t(vec![10.0, 20.0]);
        assert_eq!(k.eval(&[1], &[&x], &[]).unwrap(), Scalar::Real(41.0));
        assert_eq!(k.op_count(), 2);
    }

    #[test]
    fn strided_operand_access() {
        // %0[(i0+1)*2]
        let k = KExpr::Operand {
            slot: 0,
            indices: vec![KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Binary(
                    BinOp::Add,
                    Box::new(KExpr::Idx(0)),
                    Box::new(KExpr::Const(1.0)),
                )),
                Box::new(KExpr::Const(2.0)),
            )],
        };
        let x = t(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(k.eval(&[1], &[&x], &[]).unwrap(), Scalar::Real(4.0));
    }

    #[test]
    fn out_of_bounds_propagates() {
        let k = KExpr::Operand { slot: 0, indices: vec![KExpr::Const(5.0)] };
        let x = t(vec![1.0, 2.0]);
        assert!(matches!(k.eval(&[], &[&x], &[]), Err(ValueError::OutOfBounds { .. })));
    }

    #[test]
    fn select_short_circuits() {
        // cond ? 1 : %0[100]  — the out-of-bounds arm must not be evaluated.
        let k = KExpr::Select(
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        let x = t(vec![1.0]);
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(1.0));
    }

    #[test]
    fn logical_short_circuit() {
        // (0 && %0[100]) must not touch the operand.
        let k = KExpr::Binary(
            BinOp::And,
            Box::new(KExpr::Const(0.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        let x = t(vec![1.0]);
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(0.0));
        let k = KExpr::Binary(
            BinOp::Or,
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(1.0));
    }

    #[test]
    fn complex_arithmetic() {
        let a = Scalar::Complex(1.0, 2.0);
        let b = Scalar::Complex(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(eval_binary(BinOp::Mul, a, b).unwrap(), Scalar::Complex(5.0, 5.0));
        assert_eq!(eval_binary(BinOp::Add, a, b).unwrap(), Scalar::Complex(4.0, 1.0));
        // Division round-trips multiplication.
        let prod = eval_binary(BinOp::Mul, a, b).unwrap();
        let q = eval_binary(BinOp::Div, prod, b).unwrap();
        match q {
            Scalar::Complex(re, im) => {
                assert!((re - 1.0).abs() < 1e-12 && (im - 2.0).abs() < 1e-12)
            }
            _ => panic!("expected complex"),
        }
    }

    #[test]
    fn complex_comparison_rejected() {
        assert!(eval_binary(BinOp::Lt, Scalar::Complex(1.0, 0.0), Scalar::Real(2.0)).is_err());
    }

    #[test]
    fn complex_builtins() {
        let z = eval_call(ScalarFunc::Complex, &[Scalar::Real(3.0), Scalar::Real(4.0)]).unwrap();
        assert_eq!(z, Scalar::Complex(3.0, 4.0));
        assert_eq!(eval_call(ScalarFunc::CReal, &[z]).unwrap(), Scalar::Real(3.0));
        assert_eq!(eval_call(ScalarFunc::CImag, &[z]).unwrap(), Scalar::Real(4.0));
        assert_eq!(eval_call(ScalarFunc::Abs, &[z]).unwrap(), Scalar::Real(5.0));
    }

    #[test]
    fn bitrev_reads_integers_and_refuses_what_it_cannot_reverse() {
        let bitrev = |v, b| eval_call(ScalarFunc::Bitrev, &[Scalar::Real(v), Scalar::Real(b)]);
        for (v, b, want) in [(6.0, 3.0, 3.0), (5.0, 0.0, 0.0), (1.0, 64.0, 2f64.powi(63))] {
            assert_eq!(bitrev(v, b), Ok(Scalar::Real(want)));
        }
        for (v, b) in [(1.0, 65.0), (1.0, 70.0), (1.0, -1.0), (-1.0, 3.0)] {
            assert_eq!(bitrev(v, b), Err(ValueError::BitrevRange), "bitrev({v}, {b})");
        }
    }

    #[test]
    fn complex_exp_is_eulers_formula() {
        let z = Scalar::Complex(0.0, std::f64::consts::PI);
        match eval_call(ScalarFunc::Exp, &[z]).unwrap() {
            Scalar::Complex(re, im) => {
                assert!((re + 1.0).abs() < 1e-12);
                assert!(im.abs() < 1e-12);
            }
            _ => panic!("expected complex"),
        }
    }

    #[test]
    fn mod_is_euclidean() {
        assert_eq!(
            eval_binary(BinOp::Mod, Scalar::Real(-1.0), Scalar::Real(4.0)).unwrap(),
            Scalar::Real(3.0)
        );
    }

    #[test]
    fn max_slot_and_operand_visit() {
        let k = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Operand { slot: 2, indices: vec![] }),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
        );
        assert_eq!(k.max_slot(), Some(2));
        assert_eq!((k.max_idx(), KExpr::Arg(0).max_idx()), (Some(0), None));
        let mut seen = Vec::new();
        k.for_each_operand(&mut |slot, _| seen.push(slot));
        assert_eq!(seen, vec![2, 0]);
    }

    #[test]
    fn arg_slots_for_combiners() {
        // acc < elem ? acc : elem (the custom `min` from the paper)
        let k = KExpr::Select(
            Box::new(KExpr::Binary(BinOp::Lt, Box::new(KExpr::Arg(0)), Box::new(KExpr::Arg(1)))),
            Box::new(KExpr::Arg(0)),
            Box::new(KExpr::Arg(1)),
        );
        let v = k.eval(&[], &[], &[Scalar::Real(4.0), Scalar::Real(2.0)]).unwrap();
        assert_eq!(v, Scalar::Real(2.0));
    }

    #[test]
    fn display_is_readable() {
        let k = KExpr::Binary(
            BinOp::Mul,
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0), KExpr::Idx(1)] }),
            Box::new(KExpr::Operand { slot: 1, indices: vec![KExpr::Idx(1)] }),
        );
        assert_eq!(k.to_string(), "(%0[i0][i1] * %1[i1])");
    }
}
