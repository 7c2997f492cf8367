//! Export → import → run: save a model as a `.dnnfg` file (the text format
//! of `docs/graph-format.md`), load it back through the strict importer,
//! and show that the file round-trip is invisible — same structural
//! fingerprint, and bit-identical outputs through the full compile
//! pipeline. Finishes by serving the file directly as a tenant of the
//! multi-tenant server.
//!
//! Run with `cargo run --release --example export_import_run`.

use std::collections::HashMap;
use std::error::Error;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::models::{ModelKind, ModelScale};
use dnnfusion::runtime::{ExecOptions, Executor};
use dnnfusion::serve::{ServeConfig, Server};
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::Tensor;

fn run(graph: &Graph, inputs: &HashMap<String, Tensor>) -> Result<Vec<Tensor>, Box<dyn Error>> {
    let compiled = Compiler::new(CompilerOptions::default()).compile(graph)?;
    Ok(Executor::new(DeviceSpec::snapdragon_865_cpu())
        .with_options(ExecOptions::serial())
        .run_compiled(&compiled, inputs)?
        .outputs)
}

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Build a model and export it. `save` writes the canonical text
    //    form: versioned header, the whole graph (topology, attributes,
    //    weights), and a trailing checksum.
    let graph = ModelKind::MobileNetV1Ssd.build(ModelScale::tiny())?;
    let dir = std::env::temp_dir().join("dnnf-export-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("mobilenet-ssd.dnnfg");
    dnnfusion::io::save(&graph, &path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "exported `{}` ({} ops) to {} ({bytes} bytes)",
        graph.name(),
        graph.node_count(),
        path.display()
    );

    // 2. Load it back. The importer is strict: any damage to the file —
    //    a flipped bit, a truncated line, an unknown operator — rejects the
    //    whole file with a typed error instead of guessing.
    let imported = dnnfusion::io::load(&path)?;
    assert_eq!(imported.fingerprint(), graph.fingerprint());
    println!(
        "imported: fingerprint {} matches the in-memory builder",
        imported.fingerprint()
    );

    // 3. Run both through the full pipeline on the same inputs. The file
    //    round-trip must not perturb a single bit of any output.
    let inputs: HashMap<String, Tensor> = graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), 42))
        })
        .collect();
    let original = run(&graph, &inputs)?;
    let roundtrip = run(&imported, &inputs)?;
    for (a, b) in original.iter().zip(&roundtrip) {
        assert_eq!(a.data(), b.data(), "outputs must be bit-identical");
    }
    println!(
        "executed both: {} outputs bit-identical (tolerance 0)",
        original.len()
    );

    // 4. A `.dnnfg` file can also be served directly: the server imports,
    //    compiles (batch-polymorphic, through the global PlanCache) and
    //    hosts it in one call.
    let server = Server::builder(ServeConfig::default())
        .model_from_dnnfg("ssd", &path)?
        .start();
    let response = server.submit("ssd", inputs)?.wait()?;
    println!(
        "served from file: {} outputs, first shape {:?}",
        response.outputs.len(),
        response.outputs[0].shape().dims()
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
    Ok(())
}
