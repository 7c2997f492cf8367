//! Strict-parser rejection matrix: every class of damage the spec's error
//! table names must map to its distinct typed [`IoError`] variant, and no
//! input may panic the parser.
//!
//! Tests that damage a valid file after its checksum line must *recompute*
//! the checksum, otherwise every case would collapse into `BadChecksum`
//! (which is itself the first test).

use dnnf_graph::{Graph, GraphError};
use dnnf_io::{from_text, to_text, IoError};
use dnnf_ops::{Attrs, OpError, OpKind};
use dnnf_tensor::{Shape, Tensor};

/// A small valid graph exercising inputs, both weight flavors, attrs, an
/// output marking and a seq-axis marking.
fn sample() -> Graph {
    let mut g = Graph::new("sample");
    let x = g.add_input("x", Shape::new(vec![2, 4]));
    g.mark_seq_axis(x, 1).unwrap();
    let w = g.add_weight("w", Shape::new(vec![4, 4]));
    let m = g.add_weight_with_data(
        "m",
        Tensor::from_vec(Shape::new(vec![2, 4]), vec![1.0; 8]).unwrap(),
    );
    let y = g
        .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "fc")
        .unwrap()[0];
    let z = g
        .add_op(
            OpKind::Add,
            Attrs::new().with_int("ignored", 3),
            &[y, m],
            "bias",
        )
        .unwrap()[0];
    g.mark_output(z);
    g
}

/// Replaces the body (everything before the checksum line) and restamps a
/// *valid* checksum, so the parser gets past the envelope and the damage
/// under test is what it actually sees.
fn restamp(body: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{body}checksum {h:016x}\n")
}

/// Applies `edit` to the body of `graph`'s export and restamps the checksum.
fn tamper_graph(graph: &Graph, edit: impl Fn(&str) -> String) -> Result<Graph, IoError> {
    let text = to_text(graph);
    let body_end = text.rfind("checksum ").unwrap();
    let body = edit(&text[..body_end]);
    from_text(&restamp(&body))
}

/// [`tamper_graph`] on [`sample`].
fn tamper(edit: impl Fn(&str) -> String) -> Result<Graph, IoError> {
    tamper_graph(&sample(), edit)
}

#[test]
fn truncated_file_is_a_distinct_error() {
    let text = to_text(&sample());
    // Cut anywhere: the trailing checksum line is lost, which is the
    // truncation signal.
    for cut in [0, 1, text.len() / 2, text.len() - 2] {
        assert_eq!(
            from_text(&text[..cut]),
            Err(IoError::Truncated),
            "cut at {cut}"
        );
    }
    // Losing only the final newline is truncation too.
    assert_eq!(from_text(&text[..text.len() - 1]), Err(IoError::Truncated));
    assert_eq!(from_text(""), Err(IoError::Truncated));
}

#[test]
fn bit_damage_anywhere_is_bad_checksum() {
    let text = to_text(&sample());
    // Flip one character in each line of the body.
    let body_end = text.rfind("checksum ").unwrap();
    let mut offsets = vec![0, 5, body_end / 2, body_end - 2];
    offsets.dedup();
    for offset in offsets {
        let mut damaged = text.clone().into_bytes();
        damaged[offset] = if damaged[offset] == b'Q' { b'R' } else { b'Q' };
        let damaged = String::from_utf8(damaged).unwrap();
        assert!(
            matches!(from_text(&damaged), Err(IoError::BadChecksum { .. })),
            "offset {offset}"
        );
    }
    // A malformed checksum field itself is BadChecksum, not a parse error.
    let stated_garbage = format!("{}checksum zzzz\n", &text[..body_end]);
    assert!(matches!(
        from_text(&stated_garbage),
        Err(IoError::BadChecksum { .. })
    ));
}

#[test]
fn unknown_version_is_rejected_by_number() {
    let err = tamper(|body| body.replacen("dnnfusion-graph/v1", "dnnfusion-graph/v2", 1));
    assert_eq!(err.unwrap_err(), IoError::UnknownVersion { found: 2 });
    let err = tamper(|body| body.replacen("dnnfusion-graph/v1", "dnnfusion-graph/v999", 1));
    assert_eq!(err.unwrap_err(), IoError::UnknownVersion { found: 999 });
}

#[test]
fn foreign_header_is_bad_header() {
    let err = tamper(|body| body.replacen("dnnfusion-graph/v1", "dnnf-profiledb/v1", 1));
    assert_eq!(
        err.unwrap_err(),
        IoError::BadHeader {
            found: "dnnf-profiledb/v1".into()
        }
    );
}

#[test]
fn unknown_op_kind_is_a_distinct_error() {
    let err = tamper(|body| body.replacen(" MatMul ", " MatMulX ", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::UnknownOp { name, .. } if name == "MatMulX"
    ));
}

#[test]
fn unknown_dtype_is_a_distinct_error() {
    let err = tamper(|body| body.replacen(" f32", " f64", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::UnknownDataType { token, .. } if token == "f64"
    ));
}

#[test]
fn declared_shape_lies_are_shape_mismatch() {
    // The MatMul output is declared 2x4; claim 2x5 and the replayed shape
    // inference contradicts it.
    let err = tamper(|body| body.replacen("inter fc:out 2x4", "inter fc:out 2x5", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::ShapeMismatch { value, .. } if value == "fc:out"
    ));
}

#[test]
fn weight_length_lies_are_weight_length_mismatch() {
    // The data row for weight `m` declares 8 elements; halve the payload.
    let err = tamper(|body| {
        let row_start = body.find("weight 2 8 ").unwrap();
        let row_end = body[row_start..].find('\n').unwrap() + row_start;
        let row = &body[row_start..row_end];
        let truncated_row = &row[..row.len() - 32]; // drop 4 f32 words
        format!(
            "{}{}{}",
            &body[..row_start],
            truncated_row,
            &body[row_end..]
        )
    });
    assert!(matches!(
        err.unwrap_err(),
        IoError::WeightLengthMismatch { value, .. } if value == "m"
    ));
    // A count field that disagrees with the declared shape is the same class.
    let err = tamper(|body| body.replacen("weight 2 8 ", "weight 2 9 ", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::WeightLengthMismatch { value, expected: 8, found: 9 } if value == "m"
    ));
}

#[test]
fn count_lies_are_count_mismatch() {
    let err = tamper(|body| body.replacen("values 5", "values 6", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::CountMismatch {
            section: "values",
            declared: 6,
            found: 5
        }
    ));
}

#[test]
fn dangling_references_are_bad_value_refs() {
    let err = tamper(|body| body.replacen("in 0 1 out", "in 0 99 out", 1));
    assert!(matches!(
        err.unwrap_err(),
        IoError::BadValueRef { id: 99, .. }
    ));
}

#[test]
fn grammar_violations_are_malformed() {
    // Out-of-order value ids.
    let err = tamper(|body| body.replacen("value 1 weight", "value 3 weight", 1));
    assert!(matches!(err.unwrap_err(), IoError::Malformed { .. }));
    // Trailing garbage after the last section.
    let err = tamper(|body| format!("{body}surprise\n"));
    assert!(matches!(err.unwrap_err(), IoError::Malformed { .. }));
    // A renamed node whose derived value names went stale.
    let err = tamper(|body| body.replacen(" fc in", " fc2 in", 1));
    assert!(matches!(err.unwrap_err(), IoError::Malformed { .. }));
    // Bad escape in a name.
    let err = tamper(|body| body.replacen("graph sample", "graph sa%2gmple", 1));
    assert!(matches!(err.unwrap_err(), IoError::Malformed { .. }));
}

#[test]
fn shape_inference_rejection_is_a_graph_error() {
    // Rewire the Add to consume two shape-incompatible values: the builder
    // replay itself must refuse.
    let err = tamper(|body| body.replacen("in 3 2 out", "in 3 1 out", 1));
    assert!(matches!(err.unwrap_err(), IoError::Graph { .. }));

    // Window attributes shorter than the spatial rank, and an empty pooling
    // window: inference must refuse both with a typed error rather than
    // index past the attribute or wrap `kernel - 1`.
    let mut g = Graph::new("windows");
    let x = g.add_input("x", Shape::new(vec![1, 2, 8, 8]));
    let w = g.add_weight("w", Shape::new(vec![2, 2, 3, 3]));
    let strided = Attrs::new().with_ints("strides", vec![2, 2]);
    let c = g.add_op(OpKind::Conv, strided, &[x, w], "conv").unwrap()[0];
    let window = Attrs::new().with_ints("kernel_shape", vec![2, 2]);
    let p = g.add_op(OpKind::MaxPool, window, &[c], "pool").unwrap()[0];
    g.mark_output(p);
    for (valid, damaged) in [
        ("strides=is:2,2", "strides=is:2"),
        ("kernel_shape=is:2,2", "kernel_shape=is:0,0"),
    ] {
        let err = tamper_graph(&g, |body| {
            assert!(body.contains(valid));
            body.replacen(valid, damaged, 1)
        });
        assert!(
            matches!(err.unwrap_err(), IoError::Graph { .. }),
            "{damaged}"
        );
    }

    // Surplus inputs that no kernel reads (`Max` of three, `Clip` with its
    // bounds as inputs, ...): the replay refuses them by arity instead of
    // ignoring them.
    let mut g = Graph::new("surplus");
    let x = g.add_input("x", Shape::new(vec![4]));
    g.add_input("y", Shape::new(vec![4]));
    g.add_input("z", Shape::new(vec![7]));
    let r = g.add_op(OpKind::Relu, Attrs::new(), &[x], "r").unwrap()[0];
    g.mark_output(r);
    for (op, inputs) in [
        ("Min", "0 1 2"),
        ("Max", "0 1 2"),
        ("Clip", "0 1 1"),
        ("Slice", "0 1 1 1 1"),
        ("Pad", "0 1 1"),
        ("Resize", "0 1 1 1"),
        ("Upsample", "0 1 1 1"),
    ] {
        let err = tamper_graph(&g, |body| {
            assert!(body.contains("Relu r in 0 out"));
            body.replacen("Relu r in 0 out", &format!("{op} r in {inputs} out"), 1)
        });
        assert!(
            matches!(
                err.unwrap_err(),
                IoError::Graph {
                    source: GraphError::ShapeInference {
                        source: OpError::ArityMismatch { .. },
                        ..
                    }
                }
            ),
            "{op}"
        );
    }
}

#[test]
fn seq_axis_damage_is_rejected() {
    // Axis out of range for the input's rank.
    let err = tamper(|body| body.replacen("seq_axis 0 1", "seq_axis 0 5", 1));
    assert!(matches!(err.unwrap_err(), IoError::Graph { .. }));
    // Marking a non-input.
    let err = tamper(|body| body.replacen("seq_axis 0 1", "seq_axis 1 0", 1));
    assert!(matches!(err.unwrap_err(), IoError::Graph { .. }));
}

#[test]
fn no_malformed_input_panics() {
    // A shotgun pass: single-character corruptions at every position of a
    // small file must all return (any) error or a valid graph — never panic.
    let mut g = Graph::new("t");
    let x = g.add_input("x", Shape::new(vec![2]));
    let y = g.add_op(OpKind::Relu, Attrs::new(), &[x], "r").unwrap()[0];
    g.mark_output(y);
    let text = to_text(&g);
    for i in 0..text.len() {
        for replacement in ['\0', 'Z', '9', ' ', '\n'] {
            let mut damaged: Vec<char> = text.chars().collect();
            damaged[i] = replacement;
            let damaged: String = damaged.into_iter().collect();
            let _ = from_text(&damaged); // must not panic
        }
    }
    // Deleting each line entirely must not panic either.
    let line_count = text.lines().count();
    for skip in 0..line_count {
        let damaged: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = from_text(&damaged);
    }
}

#[test]
fn load_of_missing_file_is_a_read_error() {
    let err = dnnf_io::load("/nonexistent/definitely/not/here.dnnfg");
    assert!(matches!(err.unwrap_err(), IoError::Read { .. }));
}

#[test]
fn shapes_whose_size_overflows_are_malformed() {
    // 2^32 x 2^32 x 2 elements: the element count wraps a 64-bit `usize`.
    let body = "dnnfusion-graph/v1\n\
                graph overflow\n\
                values 2\n\
                value 0 input x 4294967296x4294967296x2 f32\n\
                value 1 output relu:out 4294967296x4294967296x2 f32 from 0\n\
                nodes 1\n\
                node 0 Relu relu in 0 out 1 attrs -\n\
                outputs 1\n\
                output 1\n\
                seq_axes 0\n\
                weights 0\n";
    let err = from_text(&restamp(body)).unwrap_err();
    assert!(matches!(err, IoError::Malformed { line: 4, .. }), "{err}");
    // An element count that fits but whose f32 byte size does not.
    let bytes = body.replace("4294967296x4294967296x2", "4611686018427387904");
    let err = from_text(&restamp(&bytes)).unwrap_err();
    assert!(matches!(err, IoError::Malformed { line: 4, .. }), "{err}");
    // The same graph at a size that fits imports.
    let small = body.replace("4294967296x4294967296x2", "2x2x2");
    assert!(from_text(&restamp(&small)).is_ok());
}
