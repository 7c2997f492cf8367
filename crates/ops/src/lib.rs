//! ONNX-flavoured DNN operator library for the DNNFusion reproduction.
//!
//! Each operator ([`OpKind`]) carries the metadata DNNFusion's analyses rely
//! on:
//!
//! * its **mapping type** (Table 2 of the paper) — see [`MappingType`],
//! * its **mathematical properties** (associativity / commutativity /
//!   distributivity) used by the graph-rewriting pass,
//! * whether it is **compute-intensive** (CIL) or **memory-intensive** (MIL),
//!   the distinction used by Table 5,
//! * a **FLOP / byte cost model** ([`cost`]) used by rewriting and by the
//!   simulated device latency model, and
//! * **shape inference** ([`infer_shapes`]) plus a **reference kernel**
//!   ([`execute`]) so graphs can actually be run and fused execution checked
//!   for bit-exact equivalence.
//!
//! # Example
//!
//! ```
//! use dnnf_ops::{execute, Attrs, MappingType, OpKind};
//! use dnnf_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), dnnf_ops::OpError> {
//! assert_eq!(OpKind::Relu.mapping_type(), MappingType::OneToOne);
//! let x = Tensor::from_vec(Shape::new(vec![3]), vec![-1.0, 0.0, 2.0]).unwrap();
//! let y = execute(OpKind::Relu, &Attrs::new(), &[&x])?;
//! assert_eq!(y[0].data(), &[0.0, 0.0, 2.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod attrs;
pub mod cost;
mod error;
mod kernels;
mod mapping;
mod op;
pub mod parallel;
mod properties;
mod scalar;
mod shape_infer;
pub mod simd;

pub use attrs::{AttrValue, Attrs};
pub use cost::{bytes_accessed, flops, OpCost};
pub use error::OpError;
pub use kernels::execute;
pub use kernels::fast::{execute_fast_into_packed, pack_conv_oc_panel, CONV_PANEL_LANES};
pub use mapping::MappingType;
pub use op::OpKind;
pub use parallel::WorkPool;
pub use properties::MathProperties;
pub use scalar::ScalarUnaryFn;
pub use shape_infer::infer_shapes;
pub use simd::{F32x4, F32x8};
