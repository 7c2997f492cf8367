//! Dense tensor substrate for the DNNFusion reproduction.
//!
//! This crate provides the minimal-but-complete tensor machinery the rest of
//! the workspace is built on: [`Shape`] with stride/broadcast logic, a dense
//! row-major [`Tensor`] of `f32` elements, and multi-dimensional index
//! iteration used by the reference kernels and the fused-kernel interpreter.
//!
//! # Example
//!
//! ```
//! use dnnf_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), dnnf_tensor::TensorError> {
//! let a = Tensor::from_vec(Shape::new(vec![2, 3]), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::full(Shape::new(vec![2, 3]), 2.0);
//! let sum: f32 = a.iter().zip(b.iter()).map(|(x, y)| x + y).sum();
//! assert_eq!(sum, 33.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod broadcast;
mod dtype;
mod error;
mod index;
mod shape;
mod tensor;

pub use broadcast::{broadcast_index, broadcast_shapes};
pub use dtype::DataType;
pub use error::TensorError;
pub use index::IndexIter;
pub use shape::Shape;
pub use tensor::Tensor;
