//! Batched multi-tenant model serving for the DNNFusion reproduction.
//!
//! The engine below this crate compiles, caches and executes fused plans;
//! this crate is the front door: a request queue plus a worker pool over
//! shared [`dnnf_core::CompiledModel`]s, with **dynamic batching** — workers
//! coalesce same-model requests along the batch dimension within a
//! configurable latency budget, execute them as one fused-engine run, and
//! split the outputs back per request.
//!
//! Design points:
//!
//! * **Async-free.** Plain `std` threads, a mutex-guarded queue and a
//!   condvar, consistent with the engine's own `WorkPool`. Clients block on
//!   a [`Ticket`] (an mpsc receiver) for their response.
//! * **One plan per model, any batch size.** Models are compiled once (at
//!   batch 1, typically through
//!   `dnnf_runtime::PlanCache::compile_polymorphic`) and executed at
//!   whatever batch the coalescer assembled via `Executor::run`, which
//!   reuses the fusion plan and re-runs only cheap code generation per
//!   batch size.
//! * **Backpressure, not buffering.** Each model has an admission limit
//!   ([`ServeConfig::queue_capacity`]); a submit beyond it fails fast with
//!   [`ServeError::QueueFull`] instead of growing the queue without bound.
//! * **Deterministic.** Every kernel partitions work so each thread/SIMD
//!   lane owns whole output elements of independent batch rows, so a
//!   coalesced batch produces **bit-identical** outputs to running each
//!   request alone — batching is invisible to clients, not a numerics
//!   trade-off.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use dnnf_core::{Compiler, CompilerOptions};
//! use dnnf_graph::Graph;
//! use dnnf_ops::{Attrs, OpKind};
//! use dnnf_serve::{ServeConfig, Server};
//! use dnnf_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("mlp");
//! let x = g.add_input("x", Shape::new(vec![1, 8]));
//! let w = g.add_weight("w", Shape::new(vec![8, 4]));
//! let y = g.add_op(OpKind::MatMul, Attrs::new(), &[x, w], "proj")?[0];
//! g.mark_output(y);
//! let model = Arc::new(Compiler::new(CompilerOptions::default()).compile(&g)?);
//!
//! let server = Server::builder(ServeConfig::default())
//!     .model("mlp", model)?
//!     .start();
//! let inputs: HashMap<String, Tensor> =
//!     [("x".to_string(), Tensor::random(Shape::new(vec![1, 8]), 7))].into();
//! let ticket = server.submit("mlp", inputs)?;
//! let response = ticket.wait()?;
//! assert_eq!(response.outputs[0].shape().dims(), &[1, 4]);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod error;
mod server;

pub use config::ServeConfig;
pub use error::ServeError;
pub use server::{ModelStats, Response, Server, ServerBuilder, ServerStats, Ticket};
