//! Computational graph IR for the DNNFusion reproduction.
//!
//! A [`Graph`] is the "traditional" computational graph the paper starts
//! from: nodes are operator invocations, values are tensors flowing between
//! them, and shape inference runs as the graph is built. The Extended
//! Computational Graph (ECG) — mapping types, `IR_removable`, mathematical
//! properties — is layered on top of this IR by `dnnf-core`.
//!
//! # Example
//!
//! ```
//! use dnnf_graph::{Graph, ValueKind};
//! use dnnf_ops::{Attrs, OpKind};
//! use dnnf_tensor::Shape;
//!
//! # fn main() -> Result<(), dnnf_graph::GraphError> {
//! let mut g = Graph::new("tiny");
//! let x = g.add_input("x", Shape::new(vec![1, 8]));
//! let w = g.add_weight("w", Shape::new(vec![8, 4]));
//! let y = g.add_op(OpKind::MatMul, Attrs::new(), &[x, w], "proj")?[0];
//! let z = g.add_op(OpKind::Relu, Attrs::new(), &[y], "act")?[0];
//! g.mark_output(z);
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.value(z).shape.dims(), &[1, 4]);
//! assert_eq!(g.value(x).kind, ValueKind::Input);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod binding;
mod error;
mod fingerprint;
mod graph;
mod node;
mod stats;
mod value;

pub use binding::{DimBinding, SymbolicAxes};
pub use error::GraphError;
pub use fingerprint::Fingerprint;
pub use graph::{Graph, Splice, SpliceArg, SpliceOp};
pub use node::{Node, NodeId};
pub use stats::GraphStats;
pub use value::{Value, ValueId, ValueKind};
