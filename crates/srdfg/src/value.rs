//! Runtime tensor values flowing along srDFG edges.
//!
//! PMLang's numeric types (`bin`, `int`, `float`) are all evaluated in
//! `f64` (exact for integers up to 2^53, far beyond any index space we
//! handle); `complex` is a pair of `f64`s. A [`Tensor`] records its declared
//! [`DType`] so compilation and accelerator translation can preserve the
//! source-level typing, and stores on integer/boolean tensors are coerced
//! to keep the declared semantics honest.

use crate::error::ExecError;
use pmlang::DType;
use std::fmt;

/// A scalar value produced while evaluating a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A real (also used for int/bool, as 0.0/1.0 for bool).
    Real(f64),
    /// A complex value `(re, im)`.
    Complex(f64, f64),
}

impl Scalar {
    /// Interprets the scalar as a Boolean (non-zero ⇒ true).
    ///
    /// # Errors
    ///
    /// Returns an error for complex values.
    #[inline]
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Scalar::Real(v) => Ok(*v != 0.0),
            Scalar::Complex(..) => Err(ValueError::ComplexCondition),
        }
    }

    /// Interprets the scalar as a real.
    ///
    /// # Errors
    ///
    /// Returns an error for complex values.
    #[inline]
    pub fn as_real(&self) -> Result<f64, ValueError> {
        match self {
            Scalar::Real(v) => Ok(*v),
            Scalar::Complex(..) => Err(ValueError::ComplexWhereRealExpected),
        }
    }

    /// Interprets the scalar as an index (truncating toward zero).
    ///
    /// # Errors
    ///
    /// Returns an error for complex values.
    #[inline]
    pub fn as_index(&self) -> Result<i64, ValueError> {
        Ok(self.as_real()? as i64)
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Real(v)
    }
}

/// Errors from tensor construction and element access.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueError {
    /// Index out of bounds: `(axis, index, size)`.
    OutOfBounds {
        /// Axis on which the access failed.
        axis: usize,
        /// The offending index value.
        index: i64,
        /// The axis size.
        size: usize,
    },
    /// The access used a different rank than the tensor's shape.
    RankMismatch {
        /// Rank implied by the access.
        got: usize,
        /// The tensor's actual rank.
        expected: usize,
    },
    /// Shape and data length disagree at construction.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Length of the provided data.
        got: usize,
    },
    /// The shape's element count does not fit in a `usize`. It names no
    /// shape: a heap payload gives every `Result<_, ValueError>` drop
    /// glue, and the kernel evaluator returns one per scalar (a `Vec`
    /// here cost serve-warm `execute_ms` ≈ 9 %).
    ShapeOverflow,
    /// A complex value was used where a real was required.
    ComplexWhereRealExpected,
    /// A complex value was used as a Boolean condition.
    ComplexCondition,
    /// Arithmetic not defined for the operand kinds (e.g. `<` on complex).
    UnsupportedOp(&'static str),
    /// `bitrev(v, bits)` with a negative `v` or `bits` outside `0..=64`.
    BitrevRange,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::OutOfBounds { axis, index, size } => {
                write!(f, "index {index} out of bounds for axis {axis} of size {size}")
            }
            ValueError::RankMismatch { got, expected } => {
                write!(f, "access of rank {got} on tensor of rank {expected}")
            }
            ValueError::LengthMismatch { expected, got } => {
                write!(f, "shape implies {expected} elements but data has {got}")
            }
            ValueError::ShapeOverflow => {
                f.write_str("shape has more elements than a tensor can hold")
            }
            ValueError::ComplexWhereRealExpected => {
                f.write_str("complex value where a real was expected")
            }
            ValueError::ComplexCondition => f.write_str("complex value used as a condition"),
            ValueError::UnsupportedOp(op) => write!(f, "operation `{op}` not defined for complex"),
            ValueError::BitrevRange => {
                f.write_str("bitrev needs a non-negative value and a width in 0..=64")
            }
        }
    }
}

impl std::error::Error for ValueError {}

/// The error for a declared `shape` whose storage cannot be allocated.
pub(crate) fn too_large(shape: &[usize]) -> ExecError {
    ExecError::new(format!("a tensor of shape {shape:?} is too large to allocate"))
}

/// The number of elements of `shape`, checked: a shape taken from a
/// request can name more than a `usize` counts.
fn element_count(shape: &[usize]) -> Result<usize, ValueError> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)).ok_or(ValueError::ShapeOverflow)
}

/// `n` copies of `fill`, or `None` when the allocation fails.
pub(crate) fn try_vec<T: Clone>(n: usize, fill: T) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).ok()?;
    v.resize(n, fill);
    Some(v)
}

/// Element storage for a tensor.
#[derive(Debug, Clone, PartialEq)]
enum TensorData {
    Real(Vec<f64>),
    Complex(Vec<(f64, f64)>),
}

/// A dense, row-major multi-dimensional value. Rank 0 is a scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    dtype: DType,
    shape: Vec<usize>,
    data: TensorData,
}

impl Tensor {
    /// Creates a real-element tensor from row-major `data`.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `shape`, and [`ValueError::ShapeOverflow`] if that
    /// product overflows.
    pub fn from_vec(dtype: DType, shape: Vec<usize>, data: Vec<f64>) -> Result<Self, ValueError> {
        let expected = element_count(&shape)?;
        if data.len() != expected {
            return Err(ValueError::LengthMismatch { expected, got: data.len() });
        }
        Ok(Tensor { dtype, shape, data: TensorData::Real(data) })
    }

    /// Creates a complex-element tensor from row-major `(re, im)` pairs.
    ///
    /// # Errors
    ///
    /// As [`Tensor::from_vec`].
    pub fn from_complex_vec(shape: Vec<usize>, data: Vec<(f64, f64)>) -> Result<Self, ValueError> {
        let expected = element_count(&shape)?;
        if data.len() != expected {
            return Err(ValueError::LengthMismatch { expected, got: data.len() });
        }
        Ok(Tensor { dtype: DType::Complex, shape, data: TensorData::Complex(data) })
    }

    /// Creates a zero-filled tensor of the given type and shape.
    pub fn zeros(dtype: DType, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        let data = if dtype == DType::Complex {
            TensorData::Complex(vec![(0.0, 0.0); n])
        } else {
            TensorData::Real(vec![0.0; n])
        };
        Tensor { dtype, shape, data }
    }

    /// [`Tensor::zeros`] for a shape read from program metadata, which a
    /// request can make arbitrarily large.
    ///
    /// # Errors
    ///
    /// When the element count overflows or the allocation fails.
    pub fn try_zeros(dtype: DType, shape: Vec<usize>) -> Result<Self, ExecError> {
        // A count saturated at `usize::MAX` fails to allocate like any
        // other too-large one.
        let n = shape.iter().fold(1, |n: usize, &d| n.saturating_mul(d));
        let data = if dtype == DType::Complex {
            try_vec(n, (0.0, 0.0)).map(TensorData::Complex)
        } else {
            try_vec(n, 0.0).map(TensorData::Real)
        };
        match data {
            Some(data) => Ok(Tensor { dtype, shape, data }),
            None => Err(too_large(&shape)),
        }
    }

    /// Creates a tensor filled with `fill`.
    pub fn filled(dtype: DType, shape: Vec<usize>, fill: f64) -> Self {
        let n: usize = shape.iter().product();
        let data = if dtype == DType::Complex {
            TensorData::Complex(vec![(fill, 0.0); n])
        } else {
            TensorData::Real(vec![fill; n])
        };
        Tensor { dtype, shape, data }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(dtype: DType, v: f64) -> Self {
        Tensor::filled(dtype, vec![], v)
    }

    /// The declared element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The tensor's shape (empty for scalars).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat row-major offset for a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::RankMismatch`] or [`ValueError::OutOfBounds`].
    pub fn flat_index(&self, idx: &[i64]) -> Result<usize, ValueError> {
        if idx.len() != self.shape.len() {
            return Err(ValueError::RankMismatch { got: idx.len(), expected: self.shape.len() });
        }
        let mut flat = 0usize;
        for (axis, (&i, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            if i < 0 || i as usize >= dim {
                return Err(ValueError::OutOfBounds { axis, index: i, size: dim });
            }
            flat = flat * dim + i as usize;
        }
        Ok(flat)
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Tensor::flat_index`].
    pub fn get(&self, idx: &[i64]) -> Result<Scalar, ValueError> {
        let flat = self.flat_index(idx)?;
        Ok(self.get_flat(flat))
    }

    /// Reads the element at a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    #[inline]
    pub fn get_flat(&self, flat: usize) -> Scalar {
        match &self.data {
            TensorData::Real(v) => Scalar::Real(v[flat]),
            TensorData::Complex(v) => Scalar::Complex(v[flat].0, v[flat].1),
        }
    }

    /// Writes the element at a multi-dimensional index, coercing the value
    /// to the tensor's declared type (`int` truncates toward zero, `bin`
    /// normalizes to 0/1, real→complex embeds on the real axis).
    ///
    /// # Errors
    ///
    /// Propagates indexing errors, and rejects storing a complex value into
    /// a real tensor.
    pub fn set(&mut self, idx: &[i64], v: Scalar) -> Result<(), ValueError> {
        let flat = self.flat_index(idx)?;
        self.set_flat(flat, v)
    }

    /// Writes the element at a flat row-major offset (with type coercion).
    ///
    /// # Errors
    ///
    /// Rejects storing a complex value into a real tensor.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    #[inline]
    pub fn set_flat(&mut self, flat: usize, v: Scalar) -> Result<(), ValueError> {
        match (&mut self.data, v) {
            (TensorData::Real(data), Scalar::Real(x)) => {
                data[flat] = coerce_real(self.dtype, x);
                Ok(())
            }
            (TensorData::Complex(data), Scalar::Real(x)) => {
                data[flat] = (x, 0.0);
                Ok(())
            }
            (TensorData::Complex(data), Scalar::Complex(re, im)) => {
                data[flat] = (re, im);
                Ok(())
            }
            (TensorData::Real(_), Scalar::Complex(..)) => Err(ValueError::ComplexWhereRealExpected),
        }
    }

    /// Views the underlying real data (None for complex tensors).
    pub fn as_real_slice(&self) -> Option<&[f64]> {
        match &self.data {
            TensorData::Real(v) => Some(v),
            TensorData::Complex(_) => None,
        }
    }

    /// Views the underlying complex data (None for real tensors).
    pub fn as_complex_slice(&self) -> Option<&[(f64, f64)]> {
        match &self.data {
            TensorData::Complex(v) => Some(v),
            TensorData::Real(_) => None,
        }
    }

    /// The value of a rank-0 tensor as a real.
    ///
    /// # Errors
    ///
    /// Errors if the tensor is not a real scalar.
    pub fn scalar_value(&self) -> Result<f64, ValueError> {
        if self.rank() != 0 {
            return Err(ValueError::RankMismatch { got: 0, expected: self.rank() });
        }
        self.get_flat(0).as_real()
    }

    /// Maximum absolute element-wise difference to `other`, for test
    /// tolerance checks. Complex elements compare by Euclidean distance.
    ///
    /// # Errors
    ///
    /// Errors if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f64, ValueError> {
        if self.shape != other.shape {
            return Err(ValueError::RankMismatch { got: other.rank(), expected: self.rank() });
        }
        let mut worst = 0.0f64;
        for i in 0..self.len() {
            let d = match (self.get_flat(i), other.get_flat(i)) {
                (Scalar::Real(a), Scalar::Real(b)) => (a - b).abs(),
                (Scalar::Complex(ar, ai), Scalar::Complex(br, bi)) => {
                    ((ar - br).powi(2) + (ai - bi).powi(2)).sqrt()
                }
                (Scalar::Real(a), Scalar::Complex(br, bi))
                | (Scalar::Complex(br, bi), Scalar::Real(a)) => {
                    ((a - br).powi(2) + bi.powi(2)).sqrt()
                }
            };
            worst = worst.max(d);
        }
        Ok(worst)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.dtype, self.shape)?;
        if self.len() <= 8 {
            write!(f, " [")?;
            for i in 0..self.len() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match self.get_flat(i) {
                    Scalar::Real(v) => write!(f, "{v}")?,
                    Scalar::Complex(re, im) => write!(f, "{re}+{im}i")?,
                }
            }
            write!(f, "]")?;
        } else {
            write!(f, " <{} elements>", self.len())?;
        }
        Ok(())
    }
}

/// Coerces a real to a tensor's declared element type.
#[inline]
fn coerce_real(dtype: DType, x: f64) -> f64 {
    match dtype {
        DType::Int => x.trunc(),
        DType::Bool => {
            if x != 0.0 {
                1.0
            } else {
                0.0
            }
        }
        _ => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t =
            Tensor::from_vec(DType::Float, vec![2, 3], (0..6).map(|v| v as f64).collect()).unwrap();
        assert_eq!(t.get(&[0, 0]).unwrap(), Scalar::Real(0.0));
        assert_eq!(t.get(&[1, 2]).unwrap(), Scalar::Real(5.0));
        assert_eq!(t.flat_index(&[1, 0]).unwrap(), 3);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            Tensor::from_vec(DType::Float, vec![2, 2], vec![1.0]),
            Err(ValueError::LengthMismatch { expected: 4, got: 1 })
        ));
    }

    #[test]
    fn overflowing_shape_rejected() {
        // 2^32 × 2^32 wraps to 0 unchecked, which an empty `data` matches.
        let huge = vec![1usize << 32, 1 << 32];
        let err = Tensor::from_vec(DType::Float, huge.clone(), vec![]).unwrap_err();
        assert_eq!(err, ValueError::ShapeOverflow);
        assert_eq!(Tensor::from_complex_vec(huge, vec![]), Err(ValueError::ShapeOverflow));
        // A zero extent anywhere is an empty tensor, whatever follows it.
        assert!(Tensor::from_vec(DType::Float, vec![0, usize::MAX, 2], vec![]).is_ok());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let t = Tensor::zeros(DType::Float, vec![2, 2]);
        assert!(matches!(t.get(&[2, 0]), Err(ValueError::OutOfBounds { axis: 0, .. })));
        assert!(matches!(t.get(&[0, -1]), Err(ValueError::OutOfBounds { axis: 1, .. })));
        assert!(matches!(t.get(&[0]), Err(ValueError::RankMismatch { .. })));
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::scalar(DType::Float, 7.5);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.scalar_value().unwrap(), 7.5);
    }

    #[test]
    fn int_store_truncates() {
        let mut t = Tensor::zeros(DType::Int, vec![2]);
        t.set(&[0], Scalar::Real(2.9)).unwrap();
        t.set(&[1], Scalar::Real(-2.9)).unwrap();
        assert_eq!(t.get(&[0]).unwrap(), Scalar::Real(2.0));
        assert_eq!(t.get(&[1]).unwrap(), Scalar::Real(-2.0));
    }

    #[test]
    fn bool_store_normalizes() {
        let mut t = Tensor::zeros(DType::Bool, vec![2]);
        t.set(&[0], Scalar::Real(3.5)).unwrap();
        assert_eq!(t.get(&[0]).unwrap(), Scalar::Real(1.0));
    }

    #[test]
    fn complex_round_trip() {
        let mut t = Tensor::zeros(DType::Complex, vec![2]);
        t.set(&[1], Scalar::Complex(1.0, -2.0)).unwrap();
        assert_eq!(t.get(&[1]).unwrap(), Scalar::Complex(1.0, -2.0));
        // Real stored into complex embeds on the real axis.
        t.set(&[0], Scalar::Real(4.0)).unwrap();
        assert_eq!(t.get(&[0]).unwrap(), Scalar::Complex(4.0, 0.0));
    }

    #[test]
    fn complex_into_real_rejected() {
        let mut t = Tensor::zeros(DType::Float, vec![1]);
        assert!(t.set(&[0], Scalar::Complex(1.0, 1.0)).is_err());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(DType::Float, vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(DType::Float, vec![2], vec![1.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        let c = Tensor::zeros(DType::Float, vec![3]);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn display_small_and_large() {
        let a = Tensor::from_vec(DType::Float, vec![2], vec![1.0, 2.0]).unwrap();
        assert!(a.to_string().contains("[1, 2]"));
        let big = Tensor::zeros(DType::Float, vec![100]);
        assert!(big.to_string().contains("100 elements"));
    }

    #[test]
    fn scalar_conversions() {
        assert!(Scalar::Real(2.0).as_bool().unwrap());
        assert!(!Scalar::Real(0.0).as_bool().unwrap());
        assert!(Scalar::Complex(1.0, 0.0).as_bool().is_err());
        assert_eq!(Scalar::Real(3.9).as_index().unwrap(), 3);
    }
}
