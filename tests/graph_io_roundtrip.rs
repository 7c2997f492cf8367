//! Serialization round-trip over the whole model zoo: every bundled model
//! builder (and the decoder prefill/step pair) must survive
//! `.dnnfg` export → strict import with an identical structural
//! fingerprint, an identical canonical re-export, and — after compiling
//! both graphs through the full default pipeline — **bit-identical**
//! outputs (tolerance 0, not an epsilon). Plus: the checked-in fixtures in
//! `tests/fixtures/` must keep parsing to the graphs today's builders
//! produce, which pins the on-disk format against silent drift.

use std::collections::HashMap;
use std::path::Path;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::models::{decoder_prefill, decoder_step, DecoderConfig, ModelKind, ModelScale};
use dnnfusion::runtime::{ExecOptions, Executor};
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::Tensor;

fn inputs_for(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            // Keep NLP token ids at zero so Gather indices stay valid.
            let tensor = if v.name.contains("token") {
                Tensor::zeros(v.shape.clone())
            } else {
                Tensor::random(v.shape.clone(), seed)
            };
            (v.name.clone(), tensor)
        })
        .collect()
}

/// Compiles `graph` with the default pipeline (rewriting on) and executes
/// it serially on seeded inputs.
fn run(graph: &Graph, seed: u64) -> Vec<Tensor> {
    let compiled = Compiler::new(CompilerOptions::default())
        .compile(graph)
        .expect("compile");
    Executor::new(DeviceSpec::snapdragon_865_cpu())
        .with_options(ExecOptions::serial())
        .run_compiled(&compiled, &inputs_for(graph, seed))
        .expect("run")
        .outputs
}

/// The full round-trip contract for one graph: fingerprint identity,
/// canonical-form stability, and tolerance-0 output identity.
fn assert_full_round_trip(label: &str, graph: &Graph) {
    let text = dnnfusion::io::to_text(graph);
    let imported = dnnfusion::io::from_text(&text)
        .unwrap_or_else(|e| panic!("{label}: import rejected own export: {e}"));
    assert_eq!(
        imported.fingerprint(),
        graph.fingerprint(),
        "{label}: fingerprint drift"
    );
    assert_eq!(
        dnnfusion::io::to_text(&imported),
        text,
        "{label}: re-export is not byte-identical"
    );
    let original = run(graph, 0xF1D0);
    let roundtrip = run(&imported, 0xF1D0);
    assert_eq!(original.len(), roundtrip.len(), "{label}: output count");
    for (i, (a, b)) in original.iter().zip(&roundtrip).enumerate() {
        assert_eq!(a.shape(), b.shape(), "{label}: output {i} shape drift");
        if let Some(at) = a.first_disagreement(b, 0.0) {
            panic!(
                "{label}: output {i} not bit-identical at element {at}: {} vs {}",
                a.data()[at],
                b.data()[at]
            );
        }
    }
}

#[test]
fn every_model_builder_round_trips_with_bit_identical_outputs() {
    for &kind in ModelKind::all() {
        let graph = kind.build(ModelScale::tiny()).expect("build");
        assert_full_round_trip(kind.name(), &graph);
    }
}

#[test]
fn decoder_prefill_and_step_round_trip_with_bit_identical_outputs() {
    let config = DecoderConfig::test_tiny();
    let prefill = decoder_prefill(&config, 8).expect("prefill");
    assert_full_round_trip("decoder-prefill", &prefill);
    let step = decoder_step(&config, 8).expect("step");
    assert_full_round_trip("decoder-step", &step);
}

#[test]
fn checked_in_fixtures_still_parse_to_the_current_builders() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let cases: [(&str, Graph); 2] = [
        (
            "vgg-16.dnnfg",
            ModelKind::Vgg16.build(ModelScale::tiny()).expect("build"),
        ),
        (
            "decoder-step.dnnfg",
            decoder_step(&DecoderConfig::test_tiny(), 8).expect("build"),
        ),
    ];
    for (file, fresh) in cases {
        let path = fixtures.join(file);
        let stored = dnnfusion::io::load(&path)
            .unwrap_or_else(|e| panic!("fixture {file} failed strict import: {e}"));
        // The fixture is the canonical export of today's builder: same
        // structural fingerprint, and exporting the fresh builder reproduces
        // the checked-in bytes exactly. If a builder or format change breaks
        // this, regenerate with:
        //   cargo run --release -p dnnf-bench --bin graph_export -- \
        //       --out tests/fixtures --model vgg-16 --model decoder-step --verify
        assert_eq!(
            stored.fingerprint(),
            fresh.fingerprint(),
            "fixture {file}: fingerprint drift against the current builder"
        );
        let on_disk = std::fs::read_to_string(&path).expect("read fixture");
        assert_eq!(
            dnnfusion::io::to_text(&fresh),
            on_disk,
            "fixture {file}: the current builder no longer exports these bytes"
        );
    }
}
