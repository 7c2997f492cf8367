//! `.dnnfg` text → Graph strict deserialization.
//!
//! Import is a *replay*: the parser first validates the whole file (header,
//! checksum, line grammar, section counts), then reconstructs the graph by
//! replaying the same builder calls the original construction made —
//! `add_input` / `add_weight` / `add_weight_with_data` / `add_op` /
//! `mark_output` / `mark_seq_axis` — and cross-checks every declared id,
//! name, shape and role against what the builder actually produced. Shape
//! inference therefore runs again on import, so a file cannot smuggle in
//! shapes the operators would never derive.

use std::path::Path;

use dnnf_graph::{Graph, GraphError, ValueKind};
use dnnf_ops::{Attrs, OpKind};
use dnnf_tensor::{DataType, Shape, Tensor};

use crate::error::IoError;
use crate::export::FORMAT_HEADER;
use crate::text::{parse_attrs, parse_data, parse_dtype, parse_shape, unescape};

/// One parsed `value` line.
struct ValueRecord {
    line: usize,
    name: String,
    shape: Shape,
    dtype: DataType,
    role: ValueKind,
    /// `Some` for produced (inter/output) values: the producing node id.
    producer: Option<usize>,
    /// `true` for weights flagged `data` (payload arrives in the weights
    /// section).
    has_data: bool,
}

/// One parsed `node` line.
struct NodeRecord {
    line: usize,
    op: OpKind,
    name: String,
    attrs: Attrs,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

/// Line-cursor over the body with 1-based line numbers for error reporting.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    current: usize,
}

impl<'a> Lines<'a> {
    fn new(body: &'a str) -> Self {
        Lines {
            iter: body.lines(),
            current: 0,
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let line = self.iter.next()?;
        self.current += 1;
        Some((self.current, line))
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> IoError {
    IoError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// Parses canonical `.dnnfg` text back into a [`Graph`].
///
/// The parser is strict: the whole file is validated (trailing FNV-1a/64
/// checksum first, then grammar, then a full replay through the graph
/// builder with shape inference re-run) and any deviation rejects the file
/// wholesale with a typed [`IoError`]. On success the returned graph
/// satisfies `import.fingerprint() == original.fingerprint()` and carries
/// the original's seq-axis markings and explicit weight data bit-for-bit.
///
/// # Errors
///
/// See [`IoError`] — every variant except `Read`/`Write` can be produced
/// here; `docs/graph-format.md` documents the triggering conditions.
pub fn from_text(text: &str) -> Result<Graph, IoError> {
    // --- Checksum envelope -------------------------------------------------
    // A complete file ends with `checksum <16 hex>\n`; a file cut off
    // mid-write loses that line first.
    let (body, intact) = dnnf_profiledb::verify_checksum(text).ok_or(IoError::Truncated)?;
    if !intact {
        return Err(IoError::BadChecksum {
            stated: text[body.len() + "checksum ".len()..text.len() - 1].to_string(),
            computed: format!("{:016x}", dnnf_profiledb::fnv64(body.as_bytes())),
        });
    }

    let mut lines = Lines::new(body);

    // --- Header ------------------------------------------------------------
    let (line_no, header) = lines.next().ok_or(IoError::Truncated)?;
    if header != FORMAT_HEADER {
        if let Some(version) = header.strip_prefix("dnnfusion-graph/v") {
            if let Ok(found) = version.parse::<u32>() {
                return Err(IoError::UnknownVersion { found });
            }
        }
        return Err(IoError::BadHeader {
            found: header.to_string(),
        });
    }
    let _ = line_no;

    // --- graph line --------------------------------------------------------
    let (line_no, graph_line) = lines
        .next()
        .ok_or_else(|| malformed(2, "missing `graph` line"))?;
    let name_token = graph_line
        .strip_prefix("graph ")
        .ok_or_else(|| malformed(line_no, "expected `graph <name>`"))?;
    let graph_name = unescape(name_token)
        .ok_or_else(|| malformed(line_no, format!("bad name escape `{name_token}`")))?;

    // --- Sections ----------------------------------------------------------
    let value_records = parse_values(&mut lines)?;
    let node_records = parse_nodes(&mut lines, value_records.len())?;
    let output_ids = parse_simple_section(&mut lines, "outputs", "output", |tokens, line| {
        if tokens.len() != 1 {
            return Err(malformed(line, "expected `output <value-id>`"));
        }
        parse_index(tokens[0], line)
    })?;
    let seq_markings = parse_simple_section(&mut lines, "seq_axes", "seq_axis", |tokens, line| {
        if tokens.len() != 2 {
            return Err(malformed(line, "expected `seq_axis <value-id> <axis>`"));
        }
        Ok((parse_index(tokens[0], line)?, parse_index(tokens[1], line)?))
    })?;
    let weight_rows = parse_simple_section(&mut lines, "weights", "weight", |tokens, line| {
        if tokens.len() != 3 {
            return Err(malformed(
                line,
                "expected `weight <value-id> <numel> <hex>`",
            ));
        }
        Ok((
            parse_index(tokens[0], line)?,
            parse_index(tokens[1], line)?,
            tokens[2].to_string(),
            line,
        ))
    })?;
    if let Some((line, _)) = lines.next() {
        return Err(malformed(line, "unexpected line after `weights` section"));
    }

    // --- Cross-section checks before the replay ----------------------------
    // seq-axis and weight rows must come in strictly increasing value-id
    // order (the canonical order the exporter emits).
    for pair in seq_markings.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(malformed(
                0,
                "`seq_axis` lines not in increasing value-id order",
            ));
        }
    }
    for pair in weight_rows.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(malformed(
                0,
                "`weight` lines not in increasing value-id order",
            ));
        }
    }

    // Decode weight payloads up front, keyed by value id.
    let mut weight_data: std::collections::BTreeMap<usize, (Vec<f32>, usize)> = Default::default();
    for (id, numel, hex, line) in weight_rows {
        let record = value_records
            .get(id)
            .ok_or(IoError::BadValueRef { line, id })?;
        if !record.has_data {
            return Err(malformed(
                line,
                format!("value {id} is not a `data`-flagged weight"),
            ));
        }
        if numel != record.shape.numel() {
            return Err(IoError::WeightLengthMismatch {
                value: record.name.clone(),
                expected: record.shape.numel(),
                found: numel,
            });
        }
        let data = parse_data(&hex, numel).ok_or(IoError::WeightLengthMismatch {
            value: record.name.clone(),
            expected: numel,
            found: hex.len() / 8,
        })?;
        weight_data.insert(id, (data, line));
    }
    for (id, record) in value_records.iter().enumerate() {
        if record.has_data && !weight_data.contains_key(&id) {
            return Err(malformed(
                record.line,
                format!("weight {id} is flagged `data` but the weights section has no row for it"),
            ));
        }
    }

    // --- Replay ------------------------------------------------------------
    let mut graph = Graph::new(graph_name);
    let mut nodes_added = 0usize;
    for (id, record) in value_records.iter().enumerate() {
        match record.role {
            ValueKind::Input => {
                if record.dtype != DataType::F32 {
                    return Err(malformed(
                        record.line,
                        "graph inputs are always f32 in format v1",
                    ));
                }
                let got = graph.add_input(record.name.clone(), record.shape.clone());
                debug_assert_eq!(got.index(), id);
            }
            ValueKind::Weight => {
                if let Some((data, line)) = weight_data.get(&id) {
                    let tensor = Tensor::from_vec(record.shape.clone(), data.clone())
                        .map_err(|e| malformed(*line, format!("bad weight payload: {e}")))?
                        .with_dtype(record.dtype);
                    let got = graph.add_weight_with_data(record.name.clone(), tensor);
                    debug_assert_eq!(got.index(), id);
                } else {
                    if record.dtype != DataType::F32 {
                        return Err(malformed(
                            record.line,
                            "seeded weights are always f32 in format v1",
                        ));
                    }
                    let got = graph.add_weight(record.name.clone(), record.shape.clone());
                    debug_assert_eq!(got.index(), id);
                }
            }
            ValueKind::Intermediate | ValueKind::Output => {
                if record.dtype != DataType::F32 {
                    return Err(malformed(
                        record.line,
                        "produced values are always f32 in format v1",
                    ));
                }
                let producer = record
                    .producer
                    .expect("parser set producer for produced values");
                if producer == nodes_added {
                    add_node(&mut graph, &node_records[producer], &value_records)?;
                    nodes_added += 1;
                } else if producer > nodes_added {
                    return Err(malformed(
                        record.line,
                        format!(
                            "value {id} is produced by node {producer}, but node {nodes_added} \
                             has produced no values yet (node outputs must appear in node order)"
                        ),
                    ));
                }
                // The producing node has been replayed; this value must be
                // one of the ids it just created.
                if id >= graph.value_count() {
                    return Err(malformed(
                        record.line,
                        format!("value {id} is not an output of node {producer}"),
                    ));
                }
                let built = graph.value(value_id(&graph, id));
                if built.producer.map(dnnf_graph::NodeId::index) != Some(producer) {
                    return Err(malformed(
                        record.line,
                        format!("value {id} is not an output of node {producer}"),
                    ));
                }
                if built.shape != record.shape {
                    return Err(IoError::ShapeMismatch {
                        value: record.name.clone(),
                        declared: record.shape.to_string(),
                        inferred: built.shape.to_string(),
                    });
                }
                if built.name != record.name {
                    return Err(malformed(
                        record.line,
                        format!(
                            "produced value {id} must carry its derived name `{}`, found `{}`",
                            built.name, record.name
                        ),
                    ));
                }
            }
        }
    }
    if nodes_added != node_records.len() {
        return Err(malformed(
            node_records[nodes_added].line,
            format!("node {nodes_added} produces no values"),
        ));
    }

    // Output markings, in marking order.
    for &id in &output_ids {
        if id >= graph.value_count() {
            return Err(IoError::BadValueRef { line: 0, id });
        }
        graph.mark_output(value_id(&graph, id));
    }
    let marked: Vec<usize> = graph.outputs().iter().map(|v| v.index()).collect();
    if marked != output_ids {
        return Err(malformed(
            0,
            "duplicate or conflicting `output` entries".to_string(),
        ));
    }

    // Declared roles must agree with the replayed graph (an `inter` value
    // must not have ended up output-marked and vice versa).
    for (id, record) in value_records.iter().enumerate() {
        let built = graph.value(value_id(&graph, id)).kind;
        if built != record.role {
            return Err(malformed(
                record.line,
                format!(
                    "value {id} declared {:?} but replay derives {built:?}",
                    record.role
                ),
            ));
        }
    }

    // Seq-axis markings.
    for (id, axis) in seq_markings {
        if id >= graph.value_count() {
            return Err(IoError::BadValueRef { line: 0, id });
        }
        graph.mark_seq_axis(value_id(&graph, id), axis)?;
    }

    graph
        .validate()
        .map_err(|source| IoError::Graph { source })?;
    Ok(graph)
}

/// Reads and parses a `.dnnfg` file.
///
/// # Errors
///
/// Returns [`IoError::Read`] when the file cannot be read as UTF-8 text,
/// otherwise whatever [`from_text`] returns.
pub fn load(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| IoError::Read {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    from_text(&text)
}

/// Looks up the `ValueId` with raw index `id`. `Graph` exposes no public
/// index→id constructor, so recover it from the value table.
fn value_id(graph: &Graph, id: usize) -> dnnf_graph::ValueId {
    graph
        .values()
        .nth(id)
        .expect("caller bounds-checked the index")
        .id
}

fn parse_index(token: &str, line: usize) -> Result<usize, IoError> {
    if token.is_empty() || (token.len() > 1 && token.starts_with('0')) {
        return Err(malformed(line, format!("bad index `{token}`")));
    }
    token
        .parse::<usize>()
        .map_err(|_| malformed(line, format!("bad index `{token}`")))
}

/// Parses a `<section> <n>` header followed by `n` entry lines, mapping
/// each entry's post-keyword tokens through `parse_entry`.
fn parse_simple_section<T>(
    lines: &mut Lines<'_>,
    section: &'static str,
    keyword: &str,
    parse_entry: impl Fn(&[&str], usize) -> Result<T, IoError>,
) -> Result<Vec<T>, IoError> {
    let declared = parse_section_header(lines, section)?;
    let mut out = Vec::with_capacity(declared.min(1024));
    for found in 0..declared {
        let Some((line, text)) = lines.next() else {
            return Err(IoError::CountMismatch {
                section,
                declared,
                found,
            });
        };
        let tokens: Vec<&str> = text.split(' ').collect();
        if tokens.first() != Some(&keyword) {
            return Err(IoError::CountMismatch {
                section,
                declared,
                found,
            });
        }
        out.push(parse_entry(&tokens[1..], line)?);
    }
    Ok(out)
}

fn parse_section_header(lines: &mut Lines<'_>, section: &'static str) -> Result<usize, IoError> {
    let Some((line, text)) = lines.next() else {
        return Err(malformed(0, format!("missing `{section}` section")));
    };
    let rest = text
        .strip_prefix(section)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| malformed(line, format!("expected `{section} <count>`")))?;
    parse_index(rest, line)
}

fn parse_values(lines: &mut Lines<'_>) -> Result<Vec<ValueRecord>, IoError> {
    let entries = parse_simple_section(lines, "values", "value", |tokens, line| {
        // value <id> <role> <name> <shape> <dtype> [seeded|data | from <node>]
        if tokens.len() < 5 {
            return Err(malformed(line, "short `value` line"));
        }
        let id = parse_index(tokens[0], line)?;
        let name = unescape(tokens[2])
            .ok_or_else(|| malformed(line, format!("bad name escape `{}`", tokens[2])))?;
        let shape = parse_shape(tokens[3])
            .ok_or_else(|| malformed(line, format!("bad shape `{}`", tokens[3])))?;
        let dtype = parse_dtype(tokens[4]).ok_or(IoError::UnknownDataType {
            line,
            token: tokens[4].to_string(),
        })?;
        // Reject sizes `Shape::numel` / `size_bytes` would wrap (or panic on
        // in debug builds): the product is taken in `numel`'s order.
        let numel = shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d));
        if numel
            .and_then(|n| n.checked_mul(dtype.size_bytes()))
            .is_none()
        {
            return Err(malformed(
                line,
                format!("shape `{}` is too large to address", tokens[3]),
            ));
        }
        let (role, producer, has_data) = match (tokens[1], &tokens[5..]) {
            ("input", []) => (ValueKind::Input, None, false),
            ("weight", ["seeded"]) => (ValueKind::Weight, None, false),
            ("weight", ["data"]) => (ValueKind::Weight, None, true),
            ("inter", ["from", node]) => (
                ValueKind::Intermediate,
                Some(parse_index(node, line)?),
                false,
            ),
            ("output", ["from", node]) => {
                (ValueKind::Output, Some(parse_index(node, line)?), false)
            }
            _ => {
                return Err(malformed(
                    line,
                    format!("bad value role/extras for role `{}`", tokens[1]),
                ))
            }
        };
        Ok((
            id,
            ValueRecord {
                line,
                name,
                shape,
                dtype,
                role,
                producer,
                has_data,
            },
        ))
    })?;
    let mut records = Vec::with_capacity(entries.len());
    for (position, (id, record)) in entries.into_iter().enumerate() {
        if id != position {
            return Err(malformed(
                record.line,
                format!("value id {id} out of order (expected {position})"),
            ));
        }
        records.push(record);
    }
    Ok(records)
}

fn parse_nodes(lines: &mut Lines<'_>, value_count: usize) -> Result<Vec<NodeRecord>, IoError> {
    let entries = parse_simple_section(lines, "nodes", "node", |tokens, line| {
        // node <id> <Op> <name> in <ids…> out <ids…> attrs <attrs>
        if tokens.len() < 6 {
            return Err(malformed(line, "short `node` line"));
        }
        let id = parse_index(tokens[0], line)?;
        let op = OpKind::from_name(tokens[1]).ok_or(IoError::UnknownOp {
            line,
            name: tokens[1].to_string(),
        })?;
        let name = unescape(tokens[2])
            .ok_or_else(|| malformed(line, format!("bad name escape `{}`", tokens[2])))?;
        if tokens[3] != "in" {
            return Err(malformed(line, "expected `in` after node name"));
        }
        let mut cursor = 4;
        let mut inputs = Vec::new();
        while cursor < tokens.len() && tokens[cursor] != "out" {
            let vid = parse_index(tokens[cursor], line)?;
            if vid >= value_count {
                return Err(IoError::BadValueRef { line, id: vid });
            }
            inputs.push(vid);
            cursor += 1;
        }
        if tokens.get(cursor) != Some(&"out") {
            return Err(malformed(line, "expected `out` after node inputs"));
        }
        cursor += 1;
        let mut outputs = Vec::new();
        while cursor < tokens.len() && tokens[cursor] != "attrs" {
            let vid = parse_index(tokens[cursor], line)?;
            if vid >= value_count {
                return Err(IoError::BadValueRef { line, id: vid });
            }
            outputs.push(vid);
            cursor += 1;
        }
        if outputs.is_empty() {
            return Err(malformed(line, "node declares no outputs"));
        }
        if tokens.get(cursor) != Some(&"attrs") || cursor + 2 != tokens.len() {
            return Err(malformed(
                line,
                "expected `attrs <attrs>` to end the node line",
            ));
        }
        let attrs = parse_attrs(tokens[cursor + 1])
            .ok_or_else(|| malformed(line, format!("bad attrs `{}`", tokens[cursor + 1])))?;
        Ok((
            id,
            NodeRecord {
                line,
                op,
                name,
                attrs,
                inputs,
                outputs,
            },
        ))
    })?;
    let mut records = Vec::with_capacity(entries.len());
    for (position, (id, record)) in entries.into_iter().enumerate() {
        if id != position {
            return Err(malformed(
                record.line,
                format!("node id {id} out of order (expected {position})"),
            ));
        }
        records.push(record);
    }
    Ok(records)
}

/// Replays one node through `Graph::add_op` and cross-checks the produced
/// value ids against the declared wiring.
fn add_node(
    graph: &mut Graph,
    record: &NodeRecord,
    value_records: &[ValueRecord],
) -> Result<(), IoError> {
    let expected_first = graph.value_count();
    for &vid in &record.inputs {
        // Node inputs must already exist at this point of the replay
        // (values are created in id order, so any reference at or past the
        // node's own first output is a forward reference).
        if vid >= expected_first {
            return Err(IoError::BadValueRef {
                line: record.line,
                id: vid,
            });
        }
    }
    let input_ids: Vec<_> = record.inputs.iter().map(|&v| value_id(graph, v)).collect();
    let produced = graph
        .add_op(
            record.op,
            record.attrs.clone(),
            &input_ids,
            record.name.clone(),
        )
        .map_err(|source| match source {
            GraphError::UnknownValue { id } => IoError::BadValueRef {
                line: record.line,
                id,
            },
            other => IoError::Graph { source: other },
        })?;
    let produced: Vec<usize> = produced.iter().map(|v| v.index()).collect();
    if produced != record.outputs {
        return Err(malformed(
            record.line,
            format!(
                "node `{}` declares outputs {:?} but produces {:?}",
                record.name, record.outputs, produced
            ),
        ));
    }
    // Shapes of the produced values are checked by the caller against each
    // value record; here just make sure the declared records exist.
    for &vid in &record.outputs {
        if vid >= value_records.len() {
            return Err(IoError::BadValueRef {
                line: record.line,
                id: vid,
            });
        }
    }
    Ok(())
}
