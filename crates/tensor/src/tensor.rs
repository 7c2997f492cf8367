//! Dense, row-major tensors of `f32` elements.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{broadcast_index, broadcast_shapes, DataType, Shape, TensorError};

/// A dense, row-major tensor of `f32` values.
///
/// All kernels in the workspace execute in `f32`; the [`DataType`] tag is
/// metadata used by the memory/cost model (e.g. fp16 GPU runs count 2 bytes
/// per element as in the paper's evaluation).
///
/// # Example
///
/// ```
/// use dnnf_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), dnnf_tensor::TensorError> {
/// let t = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.at(&[1, 0])?, 3.0);
/// let doubled = t.map(|x| x * 2.0);
/// assert_eq!(doubled.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DataType,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching element vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            dtype: DataType::F32,
            data,
        })
    }

    /// Creates a tensor of zeros.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            dtype: DataType::F32,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor with every element set to `value`.
    #[must_use]
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            dtype: DataType::F32,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            dtype: DataType::F32,
            data: vec![value],
        }
    }

    /// Creates a tensor with uniformly distributed values in `[-1, 1)`,
    /// deterministic in `seed`.
    #[must_use]
    pub fn random(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0f32);
        let n = shape.numel();
        let data = (0..n).map(|_| dist.sample(&mut rng)).collect();
        Tensor {
            shape,
            dtype: DataType::F32,
            data,
        }
    }

    /// Creates a tensor whose elements are `0, 1, 2, …` in row-major order.
    /// Handy for writing exact kernel tests.
    #[must_use]
    pub fn arange(shape: Shape) -> Self {
        let n = shape.numel();
        let data = (0..n).map(|i| i as f32).collect();
        Tensor {
            shape,
            dtype: DataType::F32,
            data,
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's element data type tag.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Returns a copy of the tensor retagged with `dtype` (data unchanged).
    #[must_use]
    pub fn with_dtype(mut self, dtype: DataType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the flat element slice.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat element slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat element vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.linear_offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.linear_offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Element at a linear row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= numel()`.
    #[must_use]
    pub fn at_linear(&self, offset: usize) -> f32 {
        self.data[offset]
    }

    /// Applies `f` element-wise, producing a new tensor of the same shape.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            dtype: self.dtype,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two tensors element-wise with ONNX broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if the shapes do not
    /// broadcast.
    pub fn zip_broadcast(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        let out_shape = broadcast_shapes(&self.shape, &other.shape)?;
        let mut out = Tensor::zeros(out_shape.clone());
        for offset in 0..out_shape.numel() {
            let idx = out_shape.multi_index(offset);
            let a = self.data[self
                .shape
                .linear_offset_unchecked(&broadcast_index(&idx, &self.shape))];
            let b = other.data[other
                .shape
                .linear_offset_unchecked(&broadcast_index(&idx, &other.shape))];
            out.data[offset] = f(a, b);
        }
        Ok(out)
    }

    /// Returns a reshaped copy with the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor, TensorError> {
        if shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to: shape.numel(),
            });
        }
        Ok(Tensor {
            shape,
            dtype: self.dtype,
            data: self.data.clone(),
        })
    }

    /// Returns a transposed copy with dimensions permuted by `perm`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] if `perm` is not a valid
    /// permutation of the tensor's rank.
    pub fn transpose(&self, perm: &[usize]) -> Result<Tensor, TensorError> {
        let out_shape = self.shape.permute(perm)?;
        let mut out = Tensor::zeros(out_shape.clone());
        for offset in 0..out_shape.numel() {
            let out_idx = out_shape.multi_index(offset);
            let mut in_idx = vec![0usize; self.shape.rank()];
            for (out_axis, &in_axis) in perm.iter().enumerate() {
                in_idx[in_axis] = out_idx[out_axis];
            }
            out.data[offset] = self.data[self.shape.linear_offset_unchecked(&in_idx)];
        }
        Ok(out)
    }

    /// Maximum absolute difference between two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] when the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Whether every element is within `tol` of the corresponding element of
    /// `other`. Returns `false` when shapes differ.
    ///
    /// Note: non-finite elements are ignored (`f32::max` drops NaN), so use
    /// [`Tensor::first_disagreement`] when NaN/infinity classes must match —
    /// e.g. in differential tests against a reference implementation.
    #[must_use]
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }

    /// Strict element-wise agreement for differential testing: finite pairs
    /// must be within `tol`; non-finite pairs must agree in class
    /// (`+inf` with `+inf`, `-inf` with `-inf`, NaN with NaN). Returns the
    /// linear offset of the first disagreeing element (offset 0 when the
    /// shapes differ), or `None` when the tensors agree everywhere.
    #[must_use]
    pub fn first_disagreement(&self, other: &Tensor, tol: f32) -> Option<usize> {
        if self.shape != other.shape {
            return Some(0);
        }
        self.data.iter().zip(&other.data).position(|(&a, &b)| {
            if a.is_finite() && b.is_finite() {
                (a - b).abs() > tol
            } else {
                a != b && !(a.is_nan() && b.is_nan())
            }
        })
    }

    /// Bit-level agreement, for engine-vs-engine determinism checks: the
    /// linear offset of the first element whose `to_bits` differ (offset 0
    /// when the shapes differ), or `None` when every bit agrees. Unlike
    /// [`Tensor::first_disagreement`] at tolerance 0, `+0` differs from
    /// `-0` and NaNs must carry the same payload.
    #[must_use]
    pub fn first_bit_difference(&self, other: &Tensor) -> Option<usize> {
        if self.shape != other.shape {
            return Some(0);
        }
        self.data
            .iter()
            .zip(&other.data)
            .position(|(a, b)| a.to_bits() != b.to_bits())
    }

    /// Size in bytes as seen by the memory model (depends on the dtype tag).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(Shape::scalar())
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects a flat iterator into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let shape = Shape::new(vec![data.len()]);
        Tensor {
            shape,
            dtype: DataType::F32,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0; 3]).is_err());
    }

    #[test]
    fn zeros_full_scalar_arange() {
        assert!(Tensor::zeros(Shape::new(vec![3])).iter().all(|&x| x == 0.0));
        assert!(Tensor::full(Shape::new(vec![3]), 7.0)
            .iter()
            .all(|&x| x == 7.0));
        assert_eq!(Tensor::scalar(5.0).numel(), 1);
        assert_eq!(
            Tensor::arange(Shape::new(vec![2, 2])).data(),
            &[0.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = Tensor::random(Shape::new(vec![16]), 42);
        let b = Tensor::random(Shape::new(vec![16]), 42);
        let c = Tensor::random(Shape::new(vec![16]), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(Shape::new(vec![2, 3]));
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.at_linear(5), 9.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::arange(Shape::new(vec![2, 2]));
        let m = t.map(|x| x + 1.0);
        assert_eq!(m.shape(), t.shape());
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zip_broadcast_adds_bias_row() {
        let a = Tensor::arange(Shape::new(vec![2, 3]));
        let bias = Tensor::from_vec(Shape::new(vec![3]), vec![10.0, 20.0, 30.0]).unwrap();
        let out = a.zip_broadcast(&bias, |x, y| x + y).unwrap();
        assert_eq!(out.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn zip_broadcast_rejects_incompatible() {
        let a = Tensor::zeros(Shape::new(vec![3]));
        let b = Tensor::zeros(Shape::new(vec![4]));
        assert!(a.zip_broadcast(&b, |x, _| x).is_err());
    }

    #[test]
    fn reshape_checks_element_count() {
        let t = Tensor::arange(Shape::new(vec![2, 3]));
        assert_eq!(
            t.reshape(Shape::new(vec![3, 2])).unwrap().shape().dims(),
            &[3, 2]
        );
        assert!(t.reshape(Shape::new(vec![4, 2])).is_err());
    }

    #[test]
    fn transpose_2d_matches_manual() {
        let t =
            Tensor::from_vec(Shape::new(vec![2, 3]), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tt = t.transpose(&[1, 0]).unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_then_transpose_is_identity() {
        let t = Tensor::random(Shape::new(vec![2, 3, 4]), 7);
        let back = t
            .transpose(&[2, 0, 1])
            .unwrap()
            .transpose(&[1, 2, 0])
            .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn allclose_and_max_abs_diff() {
        let a = Tensor::full(Shape::new(vec![4]), 1.0);
        let b = Tensor::full(Shape::new(vec![4]), 1.0 + 1e-6);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
        assert!(a.max_abs_diff(&Tensor::zeros(Shape::new(vec![3]))).is_err());
    }

    #[test]
    fn first_disagreement_checks_tolerance_and_nonfinite_classes() {
        let shape = Shape::new(vec![4]);
        let a = Tensor::from_vec(shape.clone(), vec![1.0, f32::NAN, f32::INFINITY, -1.0]).unwrap();
        let close = Tensor::from_vec(
            shape.clone(),
            vec![1.0 + 1e-7, f32::NAN, f32::INFINITY, -1.0],
        )
        .unwrap();
        assert_eq!(a.first_disagreement(&close, 1e-5), None);
        // Tolerance violations are reported at their offset.
        let off =
            Tensor::from_vec(shape.clone(), vec![1.0, f32::NAN, f32::INFINITY, -2.0]).unwrap();
        assert_eq!(a.first_disagreement(&off, 1e-5), Some(3));
        // Non-finite classes must match: inf vs NaN and +inf vs -inf fail.
        let wrong_class =
            Tensor::from_vec(shape.clone(), vec![1.0, f32::NAN, f32::NEG_INFINITY, -1.0]).unwrap();
        assert_eq!(a.first_disagreement(&wrong_class, 1e-5), Some(2));
        let nan_vs_inf =
            Tensor::from_vec(shape, vec![1.0, f32::INFINITY, f32::INFINITY, -1.0]).unwrap();
        assert_eq!(a.first_disagreement(&nan_vs_inf, 1e-5), Some(1));
        // Shape mismatch reports offset 0.
        assert_eq!(
            a.first_disagreement(&Tensor::zeros(Shape::new(vec![2])), 1e-5),
            Some(0)
        );
    }

    #[test]
    fn first_bit_difference_separates_signed_zeros_and_nan_payloads() {
        let shape = Shape::new(vec![3]);
        let quiet = f32::from_bits(0x7fc0_0001);
        let a = Tensor::from_vec(shape.clone(), vec![1.0, 0.0, quiet]).unwrap();
        assert_eq!(a.first_bit_difference(&a.clone()), None);
        let neg_zero = Tensor::from_vec(shape.clone(), vec![1.0, -0.0, quiet]).unwrap();
        assert_eq!(a.first_disagreement(&neg_zero, 0.0), None);
        assert_eq!(a.first_bit_difference(&neg_zero), Some(1));
        let other_nan = Tensor::from_vec(shape, vec![1.0, 0.0, f32::NAN]).unwrap();
        assert_eq!(a.first_disagreement(&other_nan, 0.0), None);
        assert_eq!(a.first_bit_difference(&other_nan), Some(2));
        assert_eq!(
            a.first_bit_difference(&Tensor::zeros(Shape::new(vec![2]))),
            Some(0)
        );
    }

    #[test]
    fn size_bytes_follows_dtype_tag() {
        let t = Tensor::zeros(Shape::new(vec![10]));
        assert_eq!(t.size_bytes(), 40);
        assert_eq!(t.with_dtype(DataType::F16).size_bytes(), 20);
    }

    #[test]
    fn from_iterator_builds_rank_one() {
        let t: Tensor = (0..5).map(|i| i as f32).collect();
        assert_eq!(t.shape().dims(), &[5]);
    }
}
