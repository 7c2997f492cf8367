//! The paper's evaluation (§5) as data: [`EXPERIMENTS`] holds one row per
//! table or figure, and a row renders the text the `paper` binary prints for
//! it. Every latency, traffic, cache and utilization number comes from
//! `Executor::estimate_plan` on a simulated phone; nothing here runs a kernel.

use std::iter::once;

use dnnf_baselines::{taso_optimize, BaselineFramework, PatternFuser};
use dnnf_core::rewrite::RewriteEngine;
use dnnf_core::{
    analyze_pair, fusable_cell_count, Compiler, CompilerOptions, Ecg, FusionPlan, FusionVerdict,
};
use dnnf_graph::{Graph, ValueId};
use dnnf_models::{ModelFamily, ModelKind, ModelScale};
use dnnf_ops::{Attrs, MappingType, OpKind};
use dnnf_runtime::{DeviceLatencyModel, Executor};
use dnnf_simdev::{Counters, DeviceKind, DeviceSpec, Phone};
use dnnf_tensor::Shape;

use Config::{Dnnf, Mnn, OurB, OurBPlus, Pytorch, TfLite, Tvm};

/// One table or figure of the paper's evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// Its name on the `paper` command line and of its pinned text,
    /// `tests/fixtures/<name>.txt`.
    pub name: &'static str,
    /// Renders its text at a model scale.
    pub render: fn(ModelScale) -> String,
}

/// Every experiment, in the paper's order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        render: table1,
    },
    Experiment {
        name: "table2",
        render: table2,
    },
    Experiment {
        name: "table3",
        render: table3,
    },
    Experiment {
        name: "table4",
        render: table4,
    },
    Experiment {
        name: "table5",
        render: table5,
    },
    Experiment {
        name: "table6",
        render: table6,
    },
    Experiment {
        name: "fig6",
        render: fig6,
    },
    Experiment {
        name: "fig7",
        render: fig7,
    },
    Experiment {
        name: "fig8",
        render: fig8,
    },
    Experiment {
        name: "fig9a",
        render: fig9a,
    },
    Experiment {
        name: "fig9b",
        render: fig9b,
    },
    Experiment {
        name: "fig10",
        render: fig10,
    },
];

/// One execution configuration of the paper's comparison.
#[derive(Clone, Copy)]
enum Config {
    Mnn,
    Tvm,
    TfLite,
    Pytorch,
    /// No fusion at all.
    OurB,
    /// Fixed-pattern (TVM-style) fusion on the paper's own runtime.
    OurBPlus,
    Dnnf,
}

/// Every configuration in Table 6's column order, which is also declaration
/// order, so `CONFIGS.map(..)[config as usize]` is that configuration's cell.
const CONFIGS: [Config; 7] = [Mnn, Tvm, TfLite, Pytorch, OurB, OurBPlus, Dnnf];

/// The devices of one phone each experiment compares.
const DEVICE_KINDS: [DeviceKind; 2] = [DeviceKind::MobileCpu, DeviceKind::MobileGpu];

impl Config {
    fn name(self) -> &'static str {
        match self {
            Mnn => "MNN",
            Tvm => "TVM",
            TfLite => "TFLite",
            Pytorch => "PyTorch",
            OurB => "OurB",
            OurBPlus => "OurB+",
            Dnnf => "DNNF",
        }
    }

    /// Whether the paper reports a number rather than a "-" for this
    /// configuration on `model` and `device`: no competitor runs the R-CNNs,
    /// only TFLite runs transformers and only on the CPU.
    fn supports(self, model: ModelKind, device: DeviceKind) -> bool {
        use ModelFamily::{Cnn2d, Cnn3d, Transformer};
        let family = model.family();
        let cpu = device == DeviceKind::MobileCpu;
        match self {
            OurB | OurBPlus | Dnnf => true,
            Mnn | Tvm => family == Cnn2d || (model == ModelKind::C3d && cpu),
            TfLite => family == Cnn2d || (family == Transformer && cpu),
            Pytorch => cpu && matches!(family, Cnn2d | Cnn3d) && model != ModelKind::UNet,
        }
    }
}

/// One (model, configuration, device) cell: the plan's fused layer count and
/// intermediate-result bytes, and the simulated counters of running it.
struct Eval {
    fused_layers: usize,
    fused_irs_bytes: u64,
    counters: Counters,
}

/// A model built once per experiment and evaluated under any configuration.
struct Model {
    kind: ModelKind,
    graph: Graph,
}

impl Model {
    fn build(kind: ModelKind, scale: ModelScale) -> Model {
        let graph = kind.build(scale).expect("model builds");
        Model { kind, graph }
    }

    /// The cell of `config` on `device`; `None` where the paper prints "-".
    fn evaluate(&self, config: Config, device: &DeviceSpec) -> Option<Eval> {
        config
            .supports(self.kind, device.kind)
            .then(|| estimate(&self.graph, config, device))
    }
}

/// Plans `graph` the way `config` would and estimates the plan on `device`.
fn estimate(graph: &Graph, config: Config, device: &DeviceSpec) -> Eval {
    let framework = match config {
        Dnnf => return estimate_compiled(graph, CompilerOptions::default(), device),
        OurB => None,
        Mnn => Some(BaselineFramework::Mnn),
        // TVM and the paper's OurB+ share the TVM-style pattern set.
        Tvm | OurBPlus => Some(BaselineFramework::Tvm),
        TfLite => Some(BaselineFramework::TfLite),
        Pytorch => Some(BaselineFramework::PytorchMobile),
    };
    let ecg = Ecg::new(graph.clone());
    let plan = match framework {
        Some(framework) => PatternFuser::for_framework(framework)
            .plan(&ecg)
            .expect("pattern fusion plan"),
        None => FusionPlan::singletons(&ecg),
    };
    estimate_plan(graph, &plan, device)
}

/// DNNFusion's compiler with `options`, profiling yellow cells on `device`.
fn compiler(options: CompilerOptions, device: &DeviceSpec) -> Compiler<DeviceLatencyModel> {
    Compiler::with_latency_model(options, DeviceLatencyModel::new(device.clone()))
}

fn estimate_compiled(graph: &Graph, options: CompilerOptions, device: &DeviceSpec) -> Eval {
    let compiled = compiler(options, device)
        .compile(graph)
        .expect("DNNFusion compilation");
    estimate_plan(compiled.ecg.graph(), &compiled.plan, device)
}

fn estimate_plan(graph: &Graph, plan: &FusionPlan, device: &DeviceSpec) -> Eval {
    let (counters, _) = Executor::new(device.clone()).estimate_plan(graph, plan);
    Eval {
        fused_layers: plan.fused_layer_count(),
        fused_irs_bytes: plan.fused_irs_bytes(graph),
        counters,
    }
}

fn latency_ms(eval: &Eval) -> f64 {
    eval.counters.latency_us / 1e3
}

/// Right-aligned fixed-width columns under a dashed rule.
fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let mut out = line(headers.to_vec());
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    out.push('\n');
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// `section` on the phone's CPU and then its GPU, each followed by a blank
/// line.
fn on_each_device(phone: Phone, section: impl Fn(&DeviceSpec) -> String) -> String {
    DEVICE_KINDS
        .iter()
        .map(|&kind| section(&phone.device(kind)) + "\n")
        .collect()
}

/// A title, a blank line, the table and a blank line.
fn titled(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!("{title}\n\n{}\n", format_table(headers, rows))
}

/// An optional measurement, "-" for unsupported cells as in the paper.
fn cell(value: Option<f64>, precision: usize) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.precision$}"))
}

/// One row per configuration: its name, then `metric` of `model` on each
/// device.
fn config_rows(
    model: &Model,
    devices: &[DeviceSpec],
    metric: fn(&Eval) -> f64,
    precision: usize,
) -> Vec<Vec<String>> {
    CONFIGS
        .iter()
        .map(|&config| {
            let cells = devices
                .iter()
                .map(|d| cell(model.evaluate(config, d).as_ref().map(metric), precision));
            once(config.name().to_string()).chain(cells).collect()
        })
        .collect()
}

/// Table 1: execution efficiency (FLOPs/s) versus layer count under the
/// fixed-pattern-fusion baseline (`OurB+`) on the mobile GPU.
fn table1(scale: ModelScale) -> String {
    use ModelKind::{DistilBert, Gpt2, MobileBert, Vgg16, YoloV4};
    let device = DeviceSpec::snapdragon_865_gpu();
    let rows = [Vgg16, YoloV4, DistilBert, MobileBert, Gpt2].map(|kind| {
        let graph = kind.build(scale).expect("model builds");
        let stats = graph.stats();
        let result = estimate(&graph, OurBPlus, &device);
        let paper = kind.paper_reference();
        vec![
            kind.name().to_string(),
            stats.total_layers.to_string(),
            paper.total_layers.to_string(),
            format!("{:.1} MiB", stats.intermediate_mib()),
            format!("{:.3}", stats.gflops()),
            format!("{:.1}", paper.flops_b),
            format!("{:.1}", result.counters.achieved_gflops()),
        ]
    });
    let headers = [
        "Model",
        "#Layers",
        "#Layers (paper)",
        "IR size",
        "GFLOPs",
        "GFLOPs (paper)",
        "Speed (GFLOP/s)",
    ];
    titled(
        "Table 1 — computation, layer count and execution efficiency (OurB+, mobile GPU)",
        &headers,
        &rows,
    ) + "Deeper, thinner models achieve lower FLOPs/s — the imbalance motivating DNNFusion.\n"
}

/// Table 2: the operators of each mapping type.
fn table2(_: ModelScale) -> String {
    let rows: Vec<Vec<String>> = MappingType::all()
        .iter()
        .map(|&mapping| {
            let ops: Vec<&str> = OpKind::all()
                .into_iter()
                .filter(|op| op.mapping_type() == mapping)
                .map(OpKind::name)
                .collect();
            let representative = match mapping {
                MappingType::OneToOne => "Add, Relu",
                MappingType::OneToMany => "Expand",
                MappingType::ManyToMany => "Conv, GEMM",
                MappingType::Reorganize => "Reshape",
                MappingType::Shuffle => "Transpose",
            };
            vec![
                mapping.to_string(),
                ops.len().to_string(),
                representative.to_string(),
                ops.join(", "),
            ]
        })
        .collect();
    titled(
        "Table 2 — classification of DNN operators in mapping types",
        &["Mapping type", "#Ops", "Representative", "Operators"],
        &rows,
    )
}

/// Table 3: for every ordered pair of mapping types, the fused mapping type
/// and the green/yellow/red verdict.
fn table3(_: ModelScale) -> String {
    let types = MappingType::all();
    let headers: Vec<&str> = once("First \\ Second")
        .chain(types.iter().map(|m| m.name()))
        .collect();
    let rows: Vec<Vec<String>> = types
        .iter()
        .map(|&first| {
            let cells = types.iter().map(|&second| {
                let decision = analyze_pair(first, second);
                let colour = match decision.verdict {
                    FusionVerdict::Direct => "green",
                    FusionVerdict::Profile => "yellow",
                    FusionVerdict::Break => "RED",
                };
                format!("{} ({colour})", decision.fused_type)
            });
            once(first.to_string()).chain(cells).collect()
        })
        .collect();
    let fusable = fusable_cell_count();
    titled(
        "Table 3 — mapping type analysis (fused type and profitability verdict)",
        &headers,
        &rows,
    ) + &format!(
        "green/yellow cells: {fusable} (one code-generation rule each, as in the paper); red cells: {}\n",
        types.len() * types.len() - fusable
    )
}

/// A small graph for each Table 4 pattern, with its category and equation.
fn pattern_graphs() -> Vec<(&'static str, &'static str, Graph)> {
    let s = || Shape::new(vec![64, 64]);
    let op = |g: &mut Graph, kind, attrs, inputs: &[ValueId], name: &str| -> ValueId {
        g.add_op(kind, attrs, inputs, name).expect("pattern op")[0]
    };
    let mut graphs = Vec::new();

    let mut g = Graph::new("assoc-recip");
    let a = g.add_input("A", s());
    let b = g.add_weight("B", s());
    let ra = op(&mut g, OpKind::Reciprocal, Attrs::new(), &[a], "recip_a");
    let ab = op(&mut g, OpKind::Mul, Attrs::new(), &[a, b], "ab");
    let rab = op(&mut g, OpKind::Reciprocal, Attrs::new(), &[ab], "recip_ab");
    let out = op(&mut g, OpKind::Mul, Attrs::new(), &[ra, rab], "out");
    g.mark_output(out);
    graphs.push((
        "Associative",
        "Recip(A)⊙Recip(A⊙B) → Square(Recip(A))⊙Recip(B)",
        g,
    ));

    let mut g = Graph::new("assoc-sqrt");
    let a = g.add_input("A", s());
    let b = g.add_weight("B", s());
    let c = g.add_weight("C", s());
    let sb = op(&mut g, OpKind::Sqrt, Attrs::new(), &[b], "sqrt");
    let p = op(&mut g, OpKind::Mul, Attrs::new(), &[a, sb], "p");
    let q = op(&mut g, OpKind::Mul, Attrs::new(), &[sb, c], "q");
    let out = op(&mut g, OpKind::Mul, Attrs::new(), &[p, q], "out");
    g.mark_output(out);
    graphs.push(("Associative", "(A⊙√B)⊙(√B⊙C) → A⊙B⊙C", g));

    let mut g = Graph::new("dist-factor");
    let a = g.add_input("A", s());
    let b = g.add_weight("B", s());
    let c = g.add_weight("C", s());
    let ac = op(&mut g, OpKind::Mul, Attrs::new(), &[a, c], "ac");
    let ab = op(&mut g, OpKind::Mul, Attrs::new(), &[a, b], "ab");
    let out = op(&mut g, OpKind::Add, Attrs::new(), &[ac, ab], "sum");
    g.mark_output(out);
    graphs.push(("Distributive", "A⊙C + A⊙B → (C+B)⊙A", g));

    let mut g = Graph::new("dist-gemm");
    let a = g.add_input("A", s());
    let b = g.add_weight("B", s());
    let c = g.add_weight("C", s());
    let ab = op(&mut g, OpKind::MatMul, Attrs::new(), &[a, b], "ab");
    let ac = op(&mut g, OpKind::MatMul, Attrs::new(), &[a, c], "ac");
    let out = op(&mut g, OpKind::Add, Attrs::new(), &[ab, ac], "sum");
    g.mark_output(out);
    graphs.push(("Distributive", "A·B + A·C → A·(B+C)", g));

    let mut g = Graph::new("comm-shift");
    let a = g.add_input("A", s());
    let sft = g.add_weight("S", Shape::new(vec![1]));
    let shifted = op(&mut g, OpKind::BitShift, Attrs::new(), &[a, sft], "shift");
    let axes = Attrs::new().with_ints("axes", vec![1]);
    let out = op(&mut g, OpKind::ReduceSum, axes, &[shifted], "sum");
    g.mark_output(out);
    graphs.push((
        "Commutative",
        "ReduceSum(BitShift(A)) → BitShift(ReduceSum(A))",
        g,
    ));

    let mut g = Graph::new("comm-exp");
    let a = g.add_input("A", s());
    let e = op(&mut g, OpKind::Exp, Attrs::new(), &[a], "exp");
    let axes = Attrs::new().with_ints("axes", vec![1]);
    let out = op(&mut g, OpKind::ReduceProd, axes, &[e], "prod");
    g.mark_output(out);
    graphs.push(("Commutative", "ReduceProd(Exp(A)) → Exp(ReduceSum(A))", g));

    graphs
}

/// Table 4: the graph-rewriting rules with their #FLOPs before and after, on
/// concrete graphs built for each pattern.
fn table4(_: ModelScale) -> String {
    let engine = RewriteEngine::with_default_rules();
    let rows: Vec<Vec<String>> = pattern_graphs()
        .into_iter()
        .map(|(category, equation, graph)| {
            let (rewritten, applied) = engine.run(&graph);
            let rules: Vec<&str> = applied.iter().map(|a| a.rule.as_str()).collect();
            vec![
                category.to_string(),
                equation.to_string(),
                graph.stats().flops.to_string(),
                rewritten.stats().flops.to_string(),
                rules.join(", "),
            ]
        })
        .collect();
    let headers = [
        "Property",
        "Graph structure",
        "#FLOPs before",
        "#FLOPs after",
        "Rules applied",
    ];
    let names: Vec<&str> = engine.rule_names().iter().map(|(n, _)| *n).collect();
    titled(
        "Table 4 — graph rewriting with mathematical properties (64x64 operands)",
        &headers,
        &rows,
    ) + &format!("\nRegistered rules: {names:?}\n")
}

/// Table 5: layer counts and intermediate-result sizes before and after
/// fusion, per framework, for all 15 models.
fn table5(scale: ModelScale) -> String {
    /// Table 5's columns: every configuration but the `OurB` variants, DNNF
    /// last.
    const FRAMEWORKS: [Config; 5] = [Mnn, Tvm, TfLite, Pytorch, Dnnf];
    let device = DeviceSpec::snapdragon_865_cpu();
    let rows: Vec<Vec<String>> = ModelKind::all()
        .iter()
        .map(|&kind| {
            let model = Model::build(kind, scale);
            let stats = model.graph.stats();
            let paper = kind.paper_reference();
            let evals = FRAMEWORKS.map(|config| model.evaluate(config, &device));
            let fused_layers = evals
                .iter()
                .map(|e| cell(e.as_ref().map(|e| e.fused_layers as f64), 0));
            let [.., dnnf] = &evals;
            let dnnf_irs_mib = dnnf
                .as_ref()
                .map(|e| e.fused_irs_bytes as f64 / (1024.0 * 1024.0));
            let mut row = vec![
                kind.name().to_string(),
                kind.family().to_string(),
                stats.compute_intensive_layers.to_string(),
                stats.memory_intensive_layers.to_string(),
                stats.total_layers.to_string(),
                paper.total_layers.to_string(),
                format!("{:.1}", stats.intermediate_mib()),
            ];
            row.extend(fused_layers);
            row.push(paper.dnnf_fused_layers.to_string());
            row.push(cell(dnnf_irs_mib, 2));
            row
        })
        .collect();
    let headers: Vec<&str> = [
        "Model",
        "Type",
        "#CIL",
        "#MIL",
        "#Total",
        "#Total (paper)",
        "IRS MiB",
    ]
    .into_iter()
    .chain(FRAMEWORKS.map(Config::name))
    .chain(["DNNF (paper)", "DNNF IRS MiB"])
    .collect();
    titled(
        "Table 5 — fusion rate: layer counts and IRS size before/after fusion",
        &headers,
        &rows,
    ) + "'-' marks model/framework combinations the paper reports as unsupported.\n"
}

/// Table 6: latency of all 15 models under every configuration on the
/// simulated mobile CPU and GPU.
fn table6(scale: ModelScale) -> String {
    let models: Vec<Model> = ModelKind::all()
        .iter()
        .map(|&kind| Model::build(kind, scale))
        .collect();
    let headers: Vec<&str> = ["Model", "#Params(M)", "GFLOPs"]
        .into_iter()
        .chain(CONFIGS.map(Config::name))
        .chain(["DNNF vs OurB"])
        .collect();
    on_each_device(Phone::GalaxyS20, |device| {
        let rows: Vec<Vec<String>> = models
            .iter()
            .map(|model| {
                let stats = model.graph.stats();
                let latencies =
                    CONFIGS.map(|config| model.evaluate(config, device).as_ref().map(latency_ms));
                let speedup = match (latencies[OurB as usize], latencies[Dnnf as usize]) {
                    (Some(b), Some(d)) if d > 0.0 => Some(b / d),
                    _ => None,
                };
                let mut row = vec![
                    model.kind.name().to_string(),
                    format!("{:.2}", stats.params_millions()),
                    format!("{:.3}", stats.gflops()),
                ];
                row.extend(latencies.iter().map(|&l| cell(l, 2)));
                row.push(cell(speedup, 2));
                row
            })
            .collect();
        let title = format!(
            "Table 6 — inference latency (ms) on the simulated {} ({})",
            device.name, device.kind
        );
        titled(&title, &headers, &rows)
    }) + "'-' marks model/framework/device combinations the paper reports as unsupported.\n"
}

/// Figure 6: speedup of DNNFusion over TASO-optimized execution (TASO graph
/// substitutions + TFLite-style fusion) on the mobile CPU.
fn fig6(scale: ModelScale) -> String {
    let device = DeviceSpec::snapdragon_865_cpu();
    // Figure 6 covers the eleven models TFLite runs on the mobile CPU.
    let rows: Vec<Vec<String>> = ModelKind::all()
        .iter()
        .filter(|&&kind| TfLite.supports(kind, device.kind))
        .map(|&kind| {
            let graph = kind.build(scale).expect("model builds");
            let (taso_graph, _) = taso_optimize(&graph);
            let taso = estimate(&taso_graph, TfLite, &device).counters.latency_us;
            let dnnf = estimate(&graph, Dnnf, &device).counters.latency_us;
            vec![kind.name().to_string(), format!("{:.2}x", taso / dnnf)]
        })
        .collect();
    titled(
        "Figure 6 — DNNFusion speedup over TASO-optimized execution (mobile CPU)",
        &["Model", "Speedup"],
        &rows,
    ) + "Paper reports 1.4x–2.6x over TASO on the mobile CPU.\n"
}

/// Figure 7: speedup over the no-fusion baseline (`OurB`) of each ablation
/// point on EfficientNet-B0, YOLO-V4, S3D and GPT-2.
fn fig7(scale: ModelScale) -> String {
    use ModelKind::{EfficientNetB0, Gpt2, S3d, YoloV4};
    let ablations = [
        ("GR", CompilerOptions::rewriting_only()),
        ("GR + Fuse", CompilerOptions::default()),
        ("Fuse", CompilerOptions::without_rewriting()),
    ];
    let models = [EfficientNetB0, YoloV4, S3d, Gpt2].map(|kind| Model::build(kind, scale));
    let headers: Vec<&str> = once("Model")
        .chain(ablations.iter().map(|(label, _)| *label))
        .collect();
    on_each_device(Phone::GalaxyS20, |device| {
        let rows: Vec<Vec<String>> = models
            .iter()
            .map(|model| {
                let baseline = estimate(&model.graph, OurB, device).counters.latency_us;
                let bars = ablations.iter().map(|&(_, options)| {
                    let eval = estimate_compiled(&model.graph, options, device);
                    format!("{:.2}x", baseline / eval.counters.latency_us)
                });
                once(model.kind.name().to_string()).chain(bars).collect()
            })
            .collect();
        let title = format!(
            "Figure 7 — speedup over OurB on the {} ({})",
            device.name, device.kind
        );
        titled(&title, &headers, &rows)
    }) + "The paper's \"Other\" (§4.4.2) has no modelled cost on the simulated device, so it has no \
          bar; ROADMAP item 3 is where it would be executed.\n"
}

/// Figure 8: YOLO-V4 memory accesses (MA), memory consumption (MC) and
/// cache/TLB misses per framework, normalized to DNNFusion.
fn fig8(scale: ModelScale) -> String {
    const HEADERS: [&str; 8] = [
        "Framework",
        "MA",
        "MC",
        "L1 miss",
        "L2 miss",
        "L3 miss",
        "L1-TLB",
        "L2-TLB",
    ];
    let metrics = |c: &Counters| {
        let miss = |levels: &[u64], level: usize| levels.get(level).copied().unwrap_or(0) as f64;
        let (cache, tlb) = (&c.cache.level_misses, &c.cache.tlb_misses);
        [
            c.memory_access_mib(),
            c.peak_memory_mib(),
            miss(cache, 0),
            miss(cache, 1),
            miss(cache, 2),
            miss(tlb, 0),
            miss(tlb, 1),
        ]
    };
    let model = Model::build(ModelKind::YoloV4, scale);
    on_each_device(Phone::GalaxyS20, |device| {
        // The GPU panel shows MA, MC and two cache levels only.
        let columns = if device.kind == DeviceKind::MobileCpu {
            7
        } else {
            4
        };
        let evals = CONFIGS.map(|config| model.evaluate(config, device));
        let dnnf = evals[Dnnf as usize]
            .as_ref()
            .expect("DNNFusion supports everything");
        let reference = metrics(&dnnf.counters);
        let rows: Vec<Vec<String>> = CONFIGS
            .iter()
            .zip(&evals)
            .filter_map(|(config, eval)| {
                let cells = metrics(&eval.as_ref()?.counters)
                    .into_iter()
                    .zip(reference)
                    .take(columns)
                    .map(|(value, reference)| {
                        cell((reference > 0.0).then(|| value / reference), 2)
                    });
                Some(once(config.name().to_string()).chain(cells).collect())
            })
            .collect();
        let title = format!(
            "Figure 8 — YOLO-V4 memory accesses / consumption / cache misses on the {} ({}), normalized to DNNF",
            device.name, device.kind
        );
        titled(&title, &HEADERS[..=columns], &rows)
    })
}

/// Figure 9a: mobile CPU and GPU utilization on YOLO-V4 per framework.
fn fig9a(scale: ModelScale) -> String {
    let model = Model::build(ModelKind::YoloV4, scale);
    let devices = DEVICE_KINDS.map(|kind| Phone::GalaxyS20.device(kind));
    let rows = config_rows(&model, &devices, |e| e.counters.utilization_percent, 1);
    titled(
        "Figure 9a — processor utilization (%) on YOLO-V4",
        &["Framework", "CPU %", "GPU %"],
        &rows,
    ) + "\nDNNFusion's coarser-grained kernels yield the highest utilization, as in the paper.\n"
}

/// On-device measurement repetitions per profiled candidate.
const PROFILE_REPS: f64 = 50.0;
/// Simulated cost of one measurement of a profiled candidate (microseconds).
const PROFILE_MEASUREMENT_US: f64 = 500.0;
/// Tuning candidates evaluated per fused operator (genetic-algorithm budget).
const TUNING_CANDIDATES_PER_OP: f64 = 30.0;
/// Average simulated cost of one tuning candidate evaluation (microseconds).
const TUNING_CANDIDATE_US: f64 = 2_000.0;

/// Figure 9b: YOLO-V4 compilation time on the mobile CPU — fusion,
/// profiling and tuning, without and with a pre-computed profiling database.
///
/// The paper's profiling and tuning phases run candidate kernels on the
/// phone; here each profiling-database miss is charged a fixed number of
/// simulated measurements, and PatDNN-style parameter tuning a fixed number
/// of candidate evaluations per fused operator. The `Fusion` column is this
/// host's wall-clock compile time.
fn fig9b(scale: ModelScale) -> String {
    let graph = ModelKind::YoloV4.build(scale).expect("model builds");
    let device = DeviceSpec::snapdragon_865_cpu();
    let mut cold = compiler(CompilerOptions::default(), &device);
    let cold_stats = cold.compile(&graph).expect("cold compilation").stats;
    let mut warm =
        compiler(CompilerOptions::default(), &device).with_database(cold.into_database());
    let stats = warm.compile(&graph).expect("warm compilation").stats;
    let (cold_misses, warm_misses) = (cold_stats.profile_db_misses, stats.profile_db_misses);

    let fusion_s = stats.total_time().as_secs_f64();
    let tuning_s = stats.fused_layers as f64 * TUNING_CANDIDATES_PER_OP * TUNING_CANDIDATE_US / 1e6;
    let row = |label: &str, misses: u64| {
        let profiling_s = misses as f64 * PROFILE_REPS * PROFILE_MEASUREMENT_US / 1e6;
        vec![
            label.to_string(),
            format!("{fusion_s:.2}"),
            format!("{profiling_s:.1}"),
            format!("{tuning_s:.1}"),
            format!("{:.1}", fusion_s + profiling_s + tuning_s),
        ]
    };
    let rows = [
        row("DNNF (w/o db)", cold_misses),
        row("DNNF (w/ db)", warm_misses),
    ];
    titled(
        "Figure 9b — YOLO-V4 compilation time breakdown (seconds, simulated device time)",
        &["Configuration", "Fusion", "Profiling", "Tuning", "Total"],
        &rows,
    ) + &format!(
        "\nProfiling-database entries: {}; cold misses: {cold_misses}, warm misses: {warm_misses}, hits: {}\n\
         As in the paper, a pre-computed database removes the profiling cost and leaves tuning dominant.\n",
        stats.profile_db_entries, stats.profile_db_hits
    )
}

/// Figure 10: YOLO-V4 and GPT-2 latency per framework on the two older
/// phones (Samsung Galaxy S10 and Honor Magic 2).
fn fig10(scale: ModelScale) -> String {
    let models = [ModelKind::YoloV4, ModelKind::Gpt2].map(|kind| Model::build(kind, scale));
    let mut out = String::new();
    for phone in [Phone::GalaxyS10, Phone::HonorMagic2] {
        let devices = DEVICE_KINDS.map(|kind| phone.device(kind));
        for model in &models {
            let rows = config_rows(model, &devices, latency_ms, 2);
            let title = format!(
                "Figure 10 — {} latency (ms) on the {}",
                model.kind.name(),
                phone.name()
            );
            out += &titled(&title, &["Framework", "CPU ms", "GPU ms"], &rows);
            out.push('\n');
        }
    }
    out + "Older devices with smaller caches are more sensitive to fusion, as the paper observes.\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_matrix_matches_the_papers_dashes() {
        // No competitor supports the R-CNNs.
        for config in [Mnn, Tvm, TfLite, Pytorch] {
            assert!(!config.supports(ModelKind::FasterRcnn, DeviceKind::MobileCpu));
        }
        // Transformers: TFLite CPU only.
        assert!(TfLite.supports(ModelKind::Gpt2, DeviceKind::MobileCpu));
        assert!(!TfLite.supports(ModelKind::Gpt2, DeviceKind::MobileGpu));
        assert!(!Tvm.supports(ModelKind::Gpt2, DeviceKind::MobileCpu));
        // PyTorch has no mobile-GPU support in the paper's runs.
        assert!(!Pytorch.supports(ModelKind::Vgg16, DeviceKind::MobileGpu));
        // DNNFusion supports everything.
        for &m in ModelKind::all() {
            assert!(Dnnf.supports(m, DeviceKind::MobileGpu));
        }
    }

    #[test]
    fn dnnfusion_wins_fusion_rate_and_latency_on_a_small_model() {
        let device = DeviceSpec::snapdragon_865_cpu();
        let model = Model::build(ModelKind::Vgg16, ModelScale::tiny());
        let [dnnf, ourb, tvm] = [Dnnf, OurB, Tvm].map(|c| model.evaluate(c, &device).unwrap());
        assert!(dnnf.fused_layers < tvm.fused_layers);
        assert!(tvm.fused_layers < ourb.fused_layers);
        assert!(dnnf.counters.latency_us < ourb.counters.latency_us);
        assert!(dnnf.counters.latency_us <= tvm.counters.latency_us);
        assert!(dnnf.fused_irs_bytes < ourb.fused_irs_bytes);
    }

    #[test]
    fn table_formatting_pads_columns() {
        let text = format_table(
            &["Model", "ms"],
            &[
                vec!["VGG-16".into(), "171".into()],
                vec!["GPT-2".into(), "394".into()],
            ],
        );
        assert_eq!(
            text,
            " Model   ms\n-------------\nVGG-16  171\n GPT-2  394\n"
        );
        assert_eq!(cell(None, 1), "-");
        assert_eq!(cell(Some(1.25), 1), "1.2");
    }
}
