//! Which nodes share a block is pinned: for every bundled model at
//! `ModelScale::tiny()` and the decoder prefill/step pair, the partition the
//! default compiler's planner produces equals `fixtures/plan_partitions.txt`,
//! recorded at commit 128bb0b — before the convexity check became a
//! rank-windowed search. Each line holds the node and block counts, an
//! FNV-64 hash of every block's node list in block-id order, and each
//! block's seed (`-` for a leftover singleton). `estimate_counters.txt` pins
//! how many blocks there are; this pins what is in them, and with it the
//! groups `plans.cache` persists.

use std::fmt::Write;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::models::{decoder_prefill, decoder_step, DecoderConfig, ModelKind, ModelScale};

fn fnv64(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn line(out: &mut String, graph: &Graph) {
    let model = Compiler::new(CompilerOptions::default())
        .compile(graph)
        .unwrap();
    let blocks = model.plan.blocks();
    // Each block's node indices, then a separator no index can equal.
    let words = blocks.iter().flat_map(|b| {
        let nodes = b.nodes.iter().map(|n| n.index() as u64);
        nodes.chain([u64::MAX])
    });
    let seeds: Vec<String> = blocks
        .iter()
        .map(|b| b.seed.map_or("-".into(), |s| s.index().to_string()))
        .collect();
    writeln!(
        out,
        "{} nodes={} blocks={} hash={:016x} seeds={}",
        graph.name().replace(' ', "_"),
        model.graph().node_count(),
        blocks.len(),
        fnv64(words),
        seeds.join(","),
    )
    .unwrap();
}

#[test]
fn every_bundled_partition_matches_the_recorded_fixture() {
    let config = DecoderConfig::test_tiny();
    let mut graphs: Vec<Graph> = ModelKind::all()
        .iter()
        .map(|kind| kind.build(ModelScale::tiny()).unwrap())
        .collect();
    graphs.push(decoder_prefill(&config, 4).unwrap());
    graphs.push(decoder_step(&config, 4).unwrap());
    let mut actual = String::new();
    for graph in &graphs {
        line(&mut actual, graph);
    }
    let expected = include_str!("fixtures/plan_partitions.txt");
    assert_eq!(actual.lines().count(), 15 + 2);
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
