//! Memory planning for a fused execution, and the run-time buffer arena.
//!
//! Given a fusion plan and the order blocks execute in, [`MemoryPlan::build`]
//! computes when each boundary tensor is allocated and freed and from that
//! the peak memory consumption — the "MC" metric of the paper's Figure 8 —
//! together with the total boundary traffic ("MA"). It belongs to the
//! estimation path ([`Executor::estimate_plan`](crate::Executor::estimate_plan));
//! a real run builds no memory plan. Its [`TensorArena`] recycles a boundary
//! tensor's buffer the moment its last consuming block has run, as listed in
//! [`FusionPlan::deaths`] — the same deaths these lifetimes describe, both
//! read off the plan, which derived them once from ids alone.

use std::collections::BTreeSet;

use dnnf_core::{BufferPool, FusionPlan};
use dnnf_graph::{Graph, ValueId};

/// Lifetime of one boundary value over the block execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueLifetime {
    /// The boundary value.
    pub value: ValueId,
    /// Execution-order position of the producing block.
    pub birth: usize,
    /// Execution-order position of the last consuming block.
    pub death: usize,
    /// Size of the value in (element-width-scaled) bytes.
    pub bytes: u64,
}

/// The lifetime-based memory plan for one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryPlan {
    /// Bytes of weights and model inputs, resident for the whole inference.
    pub resident_bytes: u64,
    /// Peak bytes of boundary intermediate tensors live at any point.
    pub peak_intermediate_bytes: u64,
    /// Total bytes written to and read from boundary tensors.
    pub boundary_traffic_bytes: u64,
    /// Number of boundary tensors that had to be materialized.
    pub materialized_values: usize,
    /// Per-boundary-value lifetimes, in value order.
    pub lifetimes: Vec<ValueLifetime>,
}

impl MemoryPlan {
    /// Peak memory consumption: resident weights/inputs plus peak live
    /// intermediates.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.resident_bytes + self.peak_intermediate_bytes
    }

    /// Builds the memory plan for executing `plan` over `graph`, assuming
    /// `elem_bytes`-byte elements. Births and deaths are the plan's own
    /// ([`FusionPlan::lifetime`]), so they cover exactly the tensors the
    /// engine materializes and end exactly where it recycles them.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not the plan's [`FusionPlan::order`]: the
    /// lifetimes are positions in that order and no other.
    #[must_use]
    pub fn build(graph: &Graph, plan: &FusionPlan, order: &[usize], elem_bytes: u64) -> MemoryPlan {
        assert_eq!(
            order,
            plan.order(),
            "a memory plan follows its plan's order"
        );
        let scale = |bytes: usize| bytes as u64 / 4 * elem_bytes;
        let mut result = MemoryPlan::default();
        // Live bytes per position: a value's bytes come alive at its birth
        // and go away after its death.
        let mut born = vec![0u64; order.len()];
        let mut freed = vec![0u64; order.len() + 1];
        for value in graph.values() {
            if value.is_weight() || value.kind == dnnf_graph::ValueKind::Input {
                result.resident_bytes += scale(value.size_bytes());
            }
            let Some((birth, death)) = plan.lifetime(value.id) else {
                continue;
            };
            let bytes = scale(value.size_bytes());
            // Written once by the producer, read by each consuming block.
            let readers: BTreeSet<usize> =
                value.consumers.iter().map(|&c| plan.block_of(c)).collect();
            result.boundary_traffic_bytes += bytes * (1 + readers.len() as u64);
            born[birth] += bytes;
            freed[death + 1] += bytes;
            result.lifetimes.push(ValueLifetime {
                value: value.id,
                birth,
                death,
                bytes,
            });
        }
        result.materialized_values = result.lifetimes.len();

        let mut live = 0u64;
        for (born, freed) in born.iter().zip(&freed) {
            live = live + born - freed;
            result.peak_intermediate_bytes = result.peak_intermediate_bytes.max(live);
        }
        result
    }
}

/// A recycling pool of `f32` buffers backing boundary and scratch tensors.
///
/// The executor returns each boundary buffer here as soon as the fusion
/// plan lists the value dead, so a fused run allocates roughly its peak
/// working set once instead of one fresh allocation per tensor.
#[derive(Debug, Default)]
pub struct TensorArena {
    free: Vec<Vec<f32>>,
    allocated: usize,
    reused: usize,
}

/// Buffers retained by the arena at most (beyond this, recycled buffers are
/// simply dropped so pathological plans cannot hoard memory).
const MAX_POOLED_BUFFERS: usize = 64;

impl TensorArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        TensorArena::default()
    }

    /// Number of buffers handed out that required a fresh allocation.
    #[must_use]
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of buffers handed out that reused a recycled allocation.
    #[must_use]
    pub fn reused(&self) -> usize {
        self.reused
    }
}

impl BufferPool for TensorArena {
    fn take(&mut self, numel: usize) -> Vec<f32> {
        // Best-fit: the smallest free buffer whose capacity suffices.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= numel && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.free.swap_remove(i);
                self.reused += 1;
                buf.clear();
                buf.resize(numel, 0.0);
                buf
            }
            None => {
                self.allocated += 1;
                vec![0.0; numel]
            }
        }
    }

    fn recycle(&mut self, buf: Vec<f32>) {
        if self.free.len() < MAX_POOLED_BUFFERS && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_core::{Compiler, CompilerOptions, Ecg, FusionPlan};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    fn chain_graph(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut v = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        for i in 0..n {
            v = g
                .add_op(OpKind::Relu, Attrs::new(), &[v], format!("r{i}"))
                .unwrap()[0];
        }
        g.mark_output(v);
        g
    }

    #[test]
    fn fused_plan_materializes_fewer_values_than_unfused() {
        let g = chain_graph(6);
        let ecg = Ecg::new(g.clone());
        let unfused = FusionPlan::singletons(&ecg);
        let unfused_order = unfused.execution_order(&g);
        let unfused_plan = MemoryPlan::build(&g, &unfused, &unfused_order, 4);

        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let order = compiled.plan.execution_order(compiled.graph());
        let fused_plan = MemoryPlan::build(compiled.graph(), &compiled.plan, &order, 4);

        assert!(fused_plan.materialized_values < unfused_plan.materialized_values);
        assert!(fused_plan.boundary_traffic_bytes < unfused_plan.boundary_traffic_bytes);
        assert!(fused_plan.peak_bytes() <= unfused_plan.peak_bytes());
    }

    #[test]
    fn resident_bytes_count_inputs_and_weights() {
        let mut g = Graph::new("resident");
        let x = g.add_input("x", Shape::new(vec![8]));
        let w = g.add_weight("w", Shape::new(vec![8]));
        let y = g.add_op(OpKind::Add, Attrs::new(), &[x, w], "add").unwrap()[0];
        g.mark_output(y);
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let order = plan.execution_order(&g);
        let mem = MemoryPlan::build(&g, &plan, &order, 4);
        assert_eq!(mem.resident_bytes, 2 * 8 * 4);
        // The single output is materialized.
        assert_eq!(mem.materialized_values, 1);
        assert!(mem.peak_bytes() >= mem.resident_bytes);
    }

    #[test]
    fn lifetimes_cover_every_materialized_value_and_stay_ordered() {
        let g = chain_graph(6);
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let order = plan.execution_order(&g);
        let mem = MemoryPlan::build(&g, &plan, &order, 4);
        assert_eq!(mem.lifetimes.len(), mem.materialized_values);
        for lifetime in &mem.lifetimes {
            assert!(lifetime.birth <= lifetime.death);
            assert!(lifetime.death < order.len());
            assert!(lifetime.bytes > 0);
        }
        // The graph output must live until the final block.
        let out = g.outputs()[0];
        let out_lifetime = mem.lifetimes.iter().find(|l| l.value == out).unwrap();
        assert_eq!(out_lifetime.death, order.len() - 1);
    }

    #[test]
    fn arena_reuses_recycled_buffers_best_fit() {
        use dnnf_core::BufferPool;
        let mut arena = TensorArena::new();
        let a = arena.take(64);
        let b = arena.take(16);
        assert_eq!(arena.allocated(), 2);
        arena.recycle(a);
        arena.recycle(b);
        // 10 elements fits both; best-fit must pick the 16-element buffer.
        let c = arena.take(10);
        assert!(c.capacity() >= 10 && c.capacity() < 64);
        assert_eq!(c.len(), 10);
        assert!(c.iter().all(|&v| v == 0.0), "reused buffers are zeroed");
        assert_eq!(arena.reused(), 1);
        // Nothing big enough left for 128 -> fresh allocation.
        let d = arena.take(128);
        assert_eq!(d.len(), 128);
        assert_eq!(arena.allocated(), 3);
    }

    #[test]
    fn element_width_scales_traffic() {
        let g = chain_graph(3);
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let order = plan.execution_order(&g);
        let fp32 = MemoryPlan::build(&g, &plan, &order, 4);
        let fp16 = MemoryPlan::build(&g, &plan, &order, 2);
        assert_eq!(fp32.boundary_traffic_bytes, 2 * fp16.boundary_traffic_bytes);
    }
}
