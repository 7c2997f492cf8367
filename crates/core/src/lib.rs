//! DNNFusion — the paper's primary contribution, reproduced in Rust.
//!
//! This crate implements the full DNNFusion compilation pipeline on top of
//! the computational-graph IR from `dnnf-graph`:
//!
//! 1. the **Extended Computational Graph** ([`Ecg`]): mapping types and
//!    mathematical properties attached to each node (paper §3.2); the
//!    paper's per-value `IR_removable` flag is [`FusionPlan::lifetime`]
//!    being `None` for a produced value;
//! 2. the **mapping type analysis** of Table 3 ([`analyze_pair`]): for every
//!    ordered pair of mapping types, the fused mapping type and a
//!    green/yellow/red profitability verdict;
//! 3. **mathematical-property-based graph rewriting** ([`rewrite`]): a greedy,
//!    FLOPs-driven engine applying associative / distributive / commutative
//!    rules inside property-closed partitions (paper §4.2, Table 4);
//! 4. **light-weight profile-driven fusion plan generation** ([`plan`]):
//!    Listing 1 — seed selection, recursive successor/predecessor
//!    exploration, constraint checks and profile-database lookups;
//! 5. **fusion code generation** ([`exec`]): every block compiles to a
//!    [`FusedKernel`] — anchor, data-movement and reduce steps plus
//!    [`ScalarTape`]s that evaluate element-wise runs in one pass per output
//!    element (paper §4.4.1, Figure 4); [`FusedKernel::listing`] prints
//!    exactly what runs;
//! 6. an end-to-end [`Compiler`] driver — rewriting, planning and kernel
//!    compilation — with per-phase statistics used by the evaluation harness
//!    (Figure 7's rewriting/fusion ablation and Figure 9b's compile times).
//!
//! # Example
//!
//! ```
//! use dnnf_core::{Compiler, CompilerOptions};
//! use dnnf_graph::Graph;
//! use dnnf_ops::{Attrs, OpKind};
//! use dnnf_tensor::Shape;
//!
//! # fn main() -> Result<(), dnnf_core::CoreError> {
//! let mut g = Graph::new("conv-bn-relu");
//! let x = g.add_input("x", Shape::new(vec![1, 8, 16, 16]));
//! let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
//! let c = g.add_op(OpKind::Conv, Attrs::new().with_ints("pads", vec![1, 1, 1, 1]), &[x, w], "conv")?[0];
//! let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu")?[0];
//! g.mark_output(r);
//!
//! let mut compiler = Compiler::new(CompilerOptions::default());
//! let compiled = compiler.compile(&g)?;
//! assert_eq!(compiled.stats.fused_layers, 1); // Conv+Relu fuse into one block
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod compiler;
mod ecg;
mod error;
pub mod exec;
mod instance;
mod latency;
mod mapping;
pub mod plan;
pub mod rewrite;

pub use compiler::{CompilationStats, CompiledModel, Compiler, CompilerOptions, RuntimeCacheSlot};
pub use ecg::{Ecg, EcgNodeInfo};
pub use error::CoreError;
pub use exec::{
    compile_plan, kernel_compiles, BufferPool, CompiledPlan, FreshBuffers, FusedKernel,
    PackedWeights, ScalarTape,
};
pub use instance::PlanInstance;
pub use latency::{member_work, AnalyticLatencyModel, LatencyModel, MemberWork};
pub use mapping::{analyze_pair, fusable_cell_count, FusionDecision, FusionVerdict};
pub use plan::{block_profile_key, boundary_of, Boundary, FusionBlock, FusionPlan, FusionPlanner};
