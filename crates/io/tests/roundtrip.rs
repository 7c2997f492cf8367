//! Export → import round-trip coverage over hand-built graphs exercising
//! every format feature: seeded and explicit-data weights, non-f32 weight
//! dtypes, multi-output nodes, inputs marked as outputs, multiple output
//! markings in order, seq-axis markings, and awkward names.

use dnnf_graph::{DimBinding, Graph, SymbolicAxes, ValueKind};
use dnnf_io::{from_text, to_text};
use dnnf_ops::{Attrs, OpKind};
use dnnf_tensor::{DataType, Shape, Tensor};

/// Asserts the full round-trip contract: fingerprint identity, canonical
/// re-export byte identity, and preservation of everything the fingerprint
/// does not cover (name, seq axes, weight data bits).
fn assert_round_trips(graph: &Graph) -> Graph {
    let text = to_text(graph);
    let back = from_text(&text).unwrap_or_else(|e| panic!("import failed: {e}\n{text}"));
    assert_eq!(back.fingerprint(), graph.fingerprint(), "fingerprint drift");
    assert_eq!(to_text(&back), text, "canonical form is not stable");
    assert_eq!(back.name(), graph.name());
    assert_eq!(back.value_count(), graph.value_count());
    assert_eq!(back.node_count(), graph.node_count());
    for (v, b) in graph.values().zip(back.values()) {
        assert_eq!(v.name, b.name);
        assert_eq!(v.shape, b.shape);
        assert_eq!(v.dtype, b.dtype);
        assert_eq!(v.kind, b.kind);
        assert_eq!(graph.seq_axis(v.id), back.seq_axis(b.id));
        match (graph.weight_data(v.id), back.weight_data(b.id)) {
            (None, None) => {}
            (Some(a), Some(c)) => {
                assert_eq!(a.shape(), c.shape());
                assert_eq!(a.dtype(), c.dtype());
                let bits_a: Vec<u32> = a.data().iter().map(|x| x.to_bits()).collect();
                let bits_c: Vec<u32> = c.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits_a, bits_c, "weight `{}` data bits drifted", v.name);
            }
            _ => panic!("weight-data presence drifted for `{}`", v.name),
        }
    }
    back
}

#[test]
fn cnn_with_attrs_round_trips() {
    let mut g = Graph::new("toy-cnn");
    let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
    let w = g.add_weight("conv.w", Shape::new(vec![4, 3, 3, 3]));
    let b = g.add_weight("conv.b", Shape::new(vec![4]));
    let conv = g
        .add_op(
            OpKind::Conv,
            Attrs::new()
                .with_ints("pads", vec![1, 1, 1, 1])
                .with_ints("strides", vec![1, 1]),
            &[x, w, b],
            "conv1",
        )
        .unwrap()[0];
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu1")
        .unwrap()[0];
    g.mark_output(relu);
    assert_round_trips(&g);
}

#[test]
fn explicit_weight_data_round_trips_bit_exactly() {
    let mut g = Graph::new("data-weights");
    let x = g.add_input("x", Shape::new(vec![2, 4]));
    // Awkward bit patterns: negative zero, subnormal, infinity.
    let w = g.add_weight_with_data(
        "w",
        Tensor::from_vec(
            Shape::new(vec![4, 4]),
            vec![
                -0.0,
                f32::MIN_POSITIVE / 2.0,
                f32::INFINITY,
                1e-20,
                1.5,
                -2.5,
                0.0,
                3.25,
                -1.0,
                0.125,
                7.0,
                -0.5,
                2.0,
                4.0,
                8.0,
                16.0,
            ],
        )
        .unwrap(),
    );
    let y = g
        .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "fc")
        .unwrap()[0];
    g.mark_output(y);
    let back = assert_round_trips(&g);
    // And the fingerprint actually depends on those bits.
    let mut other = from_text(&to_text(&g)).unwrap();
    let wid = other.values().find(|v| v.name == "w").unwrap().id;
    let mut flipped = other.weight_data(wid).unwrap().data().to_vec();
    flipped[0] = 42.0;
    other
        .set_weight_data(
            wid,
            Tensor::from_vec(Shape::new(vec![4, 4]), flipped).unwrap(),
        )
        .unwrap();
    assert_ne!(other.fingerprint(), back.fingerprint());
}

#[test]
fn non_f32_weight_dtype_round_trips() {
    let mut g = Graph::new("mask-weight");
    let x = g.add_input("x", Shape::new(vec![1, 4]));
    let mask = g.add_weight_with_data(
        "mask",
        Tensor::from_vec(Shape::new(vec![1, 4]), vec![0.0, 1.0, 1.0, 0.0])
            .unwrap()
            .with_dtype(DataType::Bool),
    );
    let y = g
        .add_op(OpKind::Mul, Attrs::new(), &[x, mask], "apply")
        .unwrap()[0];
    g.mark_output(y);
    let back = assert_round_trips(&g);
    let mid = back.values().find(|v| v.name == "mask").unwrap().id;
    assert_eq!(back.value(mid).dtype, DataType::Bool);
}

#[test]
fn multi_output_split_round_trips() {
    let mut g = Graph::new("split");
    let x = g.add_input("x", Shape::new(vec![2, 8]));
    let outs = g
        .add_op(
            OpKind::Split,
            Attrs::new()
                .with_int("axis", 1)
                .with_ints("split", vec![4, 4]),
            &[x],
            "split",
        )
        .unwrap();
    // Mark in reverse order: marking order is structural and must survive.
    g.mark_output(outs[1]);
    g.mark_output(outs[0]);
    let back = assert_round_trips(&g);
    let marked: Vec<usize> = back.outputs().iter().map(|v| v.index()).collect();
    assert_eq!(marked, vec![2, 1]);
}

#[test]
fn input_marked_as_output_round_trips() {
    let mut g = Graph::new("passthrough");
    let x = g.add_input("x", Shape::new(vec![4]));
    let y = g.add_op(OpKind::Relu, Attrs::new(), &[x], "act").unwrap()[0];
    g.mark_output(y);
    g.mark_output(x); // inputs keep ValueKind::Input but join the output list
    let back = assert_round_trips(&g);
    assert_eq!(back.value(back.inputs()[0]).kind, ValueKind::Input);
    assert_eq!(back.outputs().len(), 2);
}

#[test]
fn seq_axis_markings_round_trip_and_rebind() {
    let mut g = Graph::new("kv-frag");
    let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
    let past = g.add_input("past", Shape::new(vec![2, 6, 8]));
    g.mark_seq_axis(past, 1).unwrap();
    let kt = g
        .add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![0, 2, 1]),
            &[past],
            "kt",
        )
        .unwrap()[0];
    let scores = g
        .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
        .unwrap()[0];
    g.mark_output(scores);

    let back = assert_round_trips(&g);
    assert_eq!(back.seq_axis(back.inputs()[1]), Some(1));
    assert_eq!(
        back.symbolic_shape_signature(SymbolicAxes::SEQ),
        g.symbolic_shape_signature(SymbolicAxes::SEQ)
    );
    // The marking is live: the imported graph rebinds like the original.
    let seq3 = DimBinding::seq(3);
    let rebound = back.rebind(seq3).unwrap();
    assert_eq!(rebound.fingerprint(), g.rebind(seq3).unwrap().fingerprint());
}

#[test]
fn awkward_names_round_trip() {
    let mut g = Graph::new("spaces & ünïcode; 100%");
    let x = g.add_input("input with spaces", Shape::new(vec![2, 2]));
    let w = g.add_weight("w=eird;na,me", Shape::new(vec![2, 2]));
    let y = g
        .add_op(
            OpKind::Add,
            Attrs::new().with_str("note", "a;b,c=d e"),
            &[x, w],
            "na me",
        )
        .unwrap()[0];
    g.mark_output(y);
    let back = assert_round_trips(&g);
    assert_eq!(back.name(), "spaces & ünïcode; 100%");
    assert_eq!(back.value(back.inputs()[0]).name, "input with spaces");
}

#[test]
fn scalar_values_round_trip() {
    let mut g = Graph::new("scalars");
    let x = g.add_input("x", Shape::new(vec![4]));
    let s = g.add_weight_with_data(
        "scale",
        Tensor::from_vec(Shape::new(vec![]), vec![0.5]).unwrap(),
    );
    let y = g
        .add_op(OpKind::Mul, Attrs::new(), &[x, s], "scaled")
        .unwrap()[0];
    g.mark_output(y);
    assert_round_trips(&g);
}

#[test]
fn model_builders_round_trip() {
    // The full 15-model + decoder sweep lives in the workspace-root tests;
    // here a representative CNN and transformer plus the decoder pair keep
    // the crate's own suite self-contained.
    use dnnf_models::{decoder_prefill, decoder_step, DecoderConfig, ModelKind, ModelScale};
    let scale = ModelScale::tiny();
    for kind in [ModelKind::MobileNetV1Ssd, ModelKind::TinyBert] {
        let g = kind.build(scale).unwrap();
        assert_round_trips(&g);
    }
    let config = DecoderConfig::test_tiny();
    assert_round_trips(&decoder_prefill(&config, 5).unwrap());
    assert_round_trips(&decoder_step(&config, 7).unwrap());
}

#[test]
fn save_and_load_round_trip_through_disk() {
    let mut g = Graph::new("disk");
    let x = g.add_input("x", Shape::new(vec![2, 2]));
    let y = g.add_op(OpKind::Relu, Attrs::new(), &[x], "act").unwrap()[0];
    g.mark_output(y);
    let dir = std::env::temp_dir().join("dnnf-io-roundtrip-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("disk.dnnfg");
    dnnf_io::save(&g, &path).unwrap();
    let back = dnnf_io::load(&path).unwrap();
    assert_eq!(back.fingerprint(), g.fingerprint());
    std::fs::remove_file(&path).ok();
}
