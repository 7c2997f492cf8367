//! Executor, memory planner and fused-block execution engine for the
//! DNNFusion reproduction.
//!
//! # Execution engine
//!
//! The paper's implementation generates C++/OpenCL for each fused operator
//! and runs it on a phone. Here each fusion block is compiled (by
//! [`dnnf_core::exec`]) into a [`dnnf_core::FusedKernel`] and the executor
//! dispatches blocks through those kernels:
//!
//! * **Scalar tapes** — maximal element-wise/broadcast runs inside a block
//!   (including inference-form `BatchNormalization`) evaluate in one pass,
//!   an instruction at a time over strips of up to 64 elements; a tape's
//!   intermediate tensors live in strip-sized registers, never in memory.
//! * **Anchor kernels** — `Conv`, `MatMul`, `Gemm` and pooling execute
//!   through optimized flat-slice kernels that visit taps in exactly the
//!   reference kernels' order, so results stay bit-identical. Operators
//!   without a compiled form fall back to the reference kernels.
//! * **Memory** — boundary tensors live in `Arc`-backed slot storage keyed
//!   by value id (no cloning between blocks), and output buffers are
//!   recycled through a [`TensorArena`] at the positions the fusion plan
//!   ([`dnnf_core::FusionPlan::deaths`]) lists them dead, bounding
//!   allocation near the plan's peak working set.
//! * **Threads** — anchor kernels and scalar tapes are data-parallel over a
//!   scoped-thread [`WorkPool`] ([`ExecOptions::num_threads`], default =
//!   host parallelism, overridable via the `DNNF_NUM_THREADS` environment
//!   variable). The partitioning is a per-element **ownership** split —
//!   every output element is computed by exactly one thread in the serial
//!   accumulation order, never a split reduction — so outputs are
//!   bit-identical for every thread count. See `docs/execution.md`.
//! * **Compilation cache** — [`PlanCache`] keys compiled models by
//!   `(structural fingerprint, shape signature, compiler options)`: an
//!   in-memory hit is an `Arc` clone, and persisted plan seeds let a fresh
//!   process replay a previous run's fusion decisions (skipping plan
//!   search) after [`PlanCache::load_seeds`]. Host-measured block
//!   latencies recorded by [`Executor::profile_compiled`] persist through
//!   `dnnf_profiledb::ProfileDatabase::save`/`load` and feed the next
//!   compilation's plan search. See `docs/execution.md`.
//! * **SIMD** — within a thread's tile, the anchor and reduce kernels are
//!   lane-blocked over explicit `f32` bundles (`dnnf_ops::simd`): the dot
//!   micro-kernel of packed conv, `MatMul` and `Gemm` runs 256-bit AVX
//!   lanes where the host has them, the rest SSE. Each lane owns one
//!   output element and runs the scalar operation sequence, so SIMD results
//!   are bit-identical to each kernel's scalar instance, which
//!   [`ExecOptions::force_scalar`] selects for differential testing and
//!   benchmarking. Tapes have no explicit lanes: their strip loops are
//!   plain loops the compiler vectorizes, the same code in every mode.
//!
//! [`Executor::run_plan_reference`] keeps the original per-operator
//! reference interpreter alive as the semantic oracle: the differential
//! test harness (property tests plus per-model golden tests) pins the
//! engine's outputs to it. `dnnf-bench`'s `bench_exec` binary times the
//! engine against its own configurations (unfused, scalar, unpacked,
//! threaded, cold and warm compile), not against the interpreter; its only
//! `speedup` column is the KV-cached decode's cached-vs-recompute ratio.
//!
//! A run returns outputs and nothing else. The latency / memory / cache /
//! utilization counters the paper reads from real hardware come from
//! [`Executor::estimate_plan`], which feeds every boundary tensor access of
//! a plan through the `dnnf-simdev` cache simulator and cost model — and a
//! [`MemoryPlan`] through the lifetime sweep — without running a kernel.

#![warn(missing_docs)]

mod decode;
mod error;
mod executor;
mod latency;
mod memory;
mod options;
mod plan_cache;

pub use decode::{greedy_argmax, DecodeSession};
pub use dnnf_core::WeightStore;
pub use dnnf_ops::WorkPool;
pub use error::RuntimeError;
pub use executor::{ExecutionReport, Executor};
pub use latency::DeviceLatencyModel;
pub use memory::{MemoryPlan, TensorArena, ValueLifetime};
pub use options::{ExecOptions, FORCE_SCALAR_ENV, FORCE_SSE_ENV, NUM_THREADS_ENV};
pub use plan_cache::{
    CacheOutcome, PlanCache, PlanCacheStats, PlanKey, DEFAULT_MODEL_CAPACITY, PLAN_CACHE_HEADER,
};
