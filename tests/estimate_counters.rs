//! Simulated-device numbers are pinned: for every bundled model at
//! `ModelScale::tiny()`, on the Snapdragon 865 CPU and GPU, the `Counters`
//! and peak bytes that `Executor::estimate_plan` (DNNFusion's plan) and
//! `Executor::estimate_unfused` produce equal `fixtures/estimate_counters.txt`,
//! recorded at commit 2ffce07 — while a real run still produced counters of
//! its own, before estimation became the only accounting site. Floats are
//! printed with `{:?}` (shortest round-trip form), so equality is bit-exact.

use std::fmt::Write;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::models::{ModelKind, ModelScale};
use dnnfusion::runtime::{Executor, MemoryPlan};
use dnnfusion::simdev::{Counters, DeviceSpec};

fn line(out: &mut String, device: &str, model: &str, config: &str, c: &Counters, m: &MemoryPlan) {
    writeln!(
        out,
        "{device} {model} {config} launches={} access_bytes={} peak_bytes={} flops={} \
         latency_us={:?} utilization={:?} cache_acc={:?} cache_miss={:?} tlb_acc={:?} \
         tlb_miss={:?} plan_peak_bytes={}",
        c.kernel_launches,
        c.memory_access_bytes,
        c.peak_memory_bytes,
        c.flops,
        c.latency_us,
        c.utilization_percent,
        c.cache.level_accesses,
        c.cache.level_misses,
        c.cache.tlb_accesses,
        c.cache.tlb_misses,
        m.peak_bytes(),
    )
    .unwrap();
}

#[test]
fn estimated_counters_match_the_recorded_fixture() {
    let devices = [
        ("cpu", DeviceSpec::snapdragon_865_cpu()),
        ("gpu", DeviceSpec::snapdragon_865_gpu()),
    ];
    let mut actual = String::new();
    for &kind in ModelKind::all() {
        let graph = kind.build(ModelScale::tiny()).unwrap();
        let model = Compiler::new(CompilerOptions::default())
            .compile(&graph)
            .unwrap();
        let name = kind.name().replace(' ', "_");
        for (device, spec) in &devices {
            let executor = Executor::new(spec.clone());
            let (c, m) = executor.estimate_plan(model.graph(), &model.plan);
            line(&mut actual, device, &name, "fused", &c, &m);
            let (c, m) = executor.estimate_unfused(&graph);
            line(&mut actual, device, &name, "unfused", &c, &m);
        }
    }
    let expected = include_str!("fixtures/estimate_counters.txt");
    assert_eq!(actual.lines().count(), 15 * 2 * 2);
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
