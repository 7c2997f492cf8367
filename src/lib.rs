//! # dnnfusion
//!
//! A comprehensive Rust reproduction of **DNNFusion: Accelerating Deep
//! Neural Networks Execution with Advanced Operator Fusion** (Niu et al.,
//! PLDI 2021).
//!
//! This facade crate re-exports the whole workspace so applications can pull
//! in one dependency:
//!
//! * [`tensor`] — dense tensors, shapes, layouts, broadcasting;
//! * [`ops`] — the ONNX-flavoured operator library with mapping types,
//!   mathematical properties, cost model and reference kernels;
//! * [`graph`] — the computational graph IR with shape inference;
//! * [`io`] — the versioned, checksummed `.dnnfg` text serialization with
//!   export/strict-import round-trip guarantees (spec:
//!   `docs/graph-format.md`);
//! * [`core`] — DNNFusion itself: the Extended Computational Graph, Table 3
//!   mapping analysis, graph rewriting, fusion plan generation, fused code
//!   generation and the end-to-end [`core::Compiler`];
//! * [`runtime`] — the executor, memory planner and fused-kernel interpreter;
//! * [`serve`] — the batched multi-tenant serving layer (request queue,
//!   worker pool, dynamic batching over one polymorphic plan per model);
//! * [`simdev`] — simulated mobile devices (cache hierarchy, cost model);
//! * [`profiledb`] — the offline profiling database;
//! * [`baselines`] — fixed-pattern fusion baselines and the TASO-like pass;
//! * [`models`] — structural builders for the 15 evaluated models.
//!
//! # Quickstart
//!
//! ```
//! use dnnfusion::core::{Compiler, CompilerOptions};
//! use dnnfusion::models::{ModelKind, ModelScale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = ModelKind::MobileNetV1Ssd.build(ModelScale::tiny())?;
//! let mut compiler = Compiler::new(CompilerOptions::default());
//! let compiled = compiler.compile(&graph)?;
//! assert!(compiled.stats.fusion_rate() > 1.5);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end walkthroughs and the
//! `dnnf-bench` crate's `paper` binary for regenerating every table and
//! figure of the paper.

#![warn(missing_docs)]

/// Baseline fusion strategies (fixed-pattern fusers, TASO-like rewriting).
pub mod baselines {
    pub use dnnf_baselines::*;
}

/// DNNFusion's compiler: ECG, mapping analysis, rewriting, fusion planning,
/// code generation.
pub mod core {
    pub use dnnf_core::*;
}

/// Computational graph IR.
pub mod graph {
    pub use dnnf_graph::*;
}

/// `.dnnfg` graph serialization: versioned, checksummed text export and
/// strict import (see `docs/graph-format.md`).
pub mod io {
    pub use dnnf_io::*;
}

/// The 15 evaluated model architectures.
pub mod models {
    pub use dnnf_models::*;
}

/// ONNX-flavoured operator library.
pub mod ops {
    pub use dnnf_ops::*;
}

/// Offline profiling database.
pub mod profiledb {
    pub use dnnf_profiledb::*;
}

/// Executor, memory planner and fused-kernel interpreter.
pub mod runtime {
    pub use dnnf_runtime::*;
}

/// Batched multi-tenant serving layer (request queue, worker pool,
/// dynamic batching).
pub mod serve {
    pub use dnnf_serve::*;
}

/// Simulated mobile devices.
pub mod simdev {
    pub use dnnf_simdev::*;
}

/// Dense tensor substrate.
pub mod tensor {
    pub use dnnf_tensor::*;
}
