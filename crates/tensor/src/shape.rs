//! Tensor shapes and row-major stride computation.

use std::fmt;

use crate::TensorError;

/// A tensor shape: an ordered list of dimension extents.
///
/// Rank-0 shapes (scalars) are represented by an empty dimension list and
/// have exactly one element.
///
/// # Example
///
/// ```
/// use dnnf_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension extents.
    #[must_use]
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a rank-0 (scalar) shape.
    #[must_use]
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Dimension extents.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    #[must_use]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements (product of extents, 1 for scalars).
    #[must_use]
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether any dimension is zero, i.e. the shape holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dims.contains(&0)
    }

    /// Row-major (C-order) strides, in elements.
    #[must_use]
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a row-major linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank or any
    /// coordinate is out of bounds.
    pub fn linear_offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() || index.iter().zip(&self.dims).any(|(&i, &d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        Ok(self.linear_offset_unchecked(index))
    }

    /// Converts a multi-dimensional index into a linear offset without bounds
    /// checking. Out-of-range coordinates silently produce garbage offsets;
    /// callers in hot loops are expected to have validated shapes already.
    #[must_use]
    pub fn linear_offset_unchecked(&self, index: &[usize]) -> usize {
        let mut offset = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.dims.len()).rev() {
            offset += index[axis] * stride;
            stride *= self.dims[axis];
        }
        offset
    }

    /// Converts a linear row-major offset back into a multi-dimensional index.
    #[must_use]
    pub fn multi_index(&self, mut offset: usize) -> Vec<usize> {
        let mut index = vec![0usize; self.rank()];
        for axis in (0..self.rank()).rev() {
            let d = self.dims[axis];
            if d > 0 {
                index[axis] = offset % d;
                offset /= d;
            }
        }
        index
    }

    /// Normalizes a possibly-negative ONNX-style axis to `0..rank`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if the axis is out of range.
    pub fn normalize_axis(&self, axis: i64) -> Result<usize, TensorError> {
        let rank = self.rank() as i64;
        let adjusted = if axis < 0 { axis + rank } else { axis };
        if adjusted < 0 || adjusted >= rank.max(1) {
            return Err(TensorError::InvalidAxis {
                axis: axis.unsigned_abs() as usize,
                rank: self.rank(),
            });
        }
        Ok(adjusted as usize)
    }

    /// Returns the shape obtained by permuting dimensions with `perm`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] if `perm` is not a
    /// permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Shape, TensorError> {
        if perm.len() != self.rank() {
            return Err(TensorError::InvalidPermutation {
                perm: perm.to_vec(),
                rank: self.rank(),
            });
        }
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            if p >= self.rank() || seen[p] {
                return Err(TensorError::InvalidPermutation {
                    perm: perm.to_vec(),
                    rank: self.rank(),
                });
            }
            seen[p] = true;
        }
        Ok(Shape::new(perm.iter().map(|&p| self.dims[p]).collect()))
    }

    /// Size of this shape in bytes for an element of `elem_bytes` bytes.
    #[must_use]
    pub fn size_bytes(&self, elem_bytes: usize) -> usize {
        self.numel() * elem_bytes
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
        assert!(!s.is_empty());
        assert!(Shape::new(vec![2, 0, 4]).is_empty());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
        assert_eq!(s.linear_offset(&[]).unwrap(), 0);
    }

    #[test]
    fn row_major_strides() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(vec![5]).strides(), vec![1]);
    }

    #[test]
    fn linear_and_multi_index_roundtrip() {
        let s = Shape::new(vec![3, 4, 5]);
        for offset in 0..s.numel() {
            let idx = s.multi_index(offset);
            assert_eq!(s.linear_offset(&idx).unwrap(), offset);
        }
    }

    #[test]
    fn linear_offset_bounds_checking() {
        let s = Shape::new(vec![2, 2]);
        assert!(s.linear_offset(&[1, 1]).is_ok());
        assert!(s.linear_offset(&[2, 0]).is_err());
        assert!(s.linear_offset(&[0]).is_err());
    }

    #[test]
    fn normalize_axis_handles_negatives() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.normalize_axis(-1).unwrap(), 2);
        assert_eq!(s.normalize_axis(0).unwrap(), 0);
        assert!(s.normalize_axis(3).is_err());
        assert!(s.normalize_axis(-4).is_err());
    }

    #[test]
    fn permute_validates_permutation() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.permute(&[2, 0, 1]).unwrap(), Shape::new(vec![4, 2, 3]));
        assert!(s.permute(&[0, 0, 1]).is_err());
        assert!(s.permute(&[0, 1]).is_err());
        assert!(s.permute(&[0, 1, 3]).is_err());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Shape::new(vec![1, 3, 224, 224]).to_string(),
            "[1x3x224x224]"
        );
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions_from_arrays_and_slices() {
        let a: Shape = [2usize, 3].into();
        let b: Shape = vec![2usize, 3].into();
        let c: Shape = (&[2usize, 3][..]).into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn size_bytes_scales_with_element_width() {
        let s = Shape::new(vec![10, 10]);
        assert_eq!(s.size_bytes(4), 400);
        assert_eq!(s.size_bytes(2), 200);
    }
}
