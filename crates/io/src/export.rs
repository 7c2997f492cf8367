//! Graph → `.dnnfg` text serialization.

use std::path::Path;

use dnnf_graph::{Graph, ValueKind};

use crate::error::IoError;
use crate::text::{attrs_token, data_token, dtype_token, escape, shape_token};

/// The v1 format header — the first line of every `.dnnfg` file.
pub const FORMAT_HEADER: &str = "dnnfusion-graph/v1";

/// Serializes a graph to canonical `.dnnfg` text (see
/// `docs/graph-format.md`). The output is deterministic: the same graph
/// always produces byte-identical text, and
/// [`from_text`](crate::from_text)`(to_text(g))` reconstructs a graph with
/// the same structural fingerprint, the same seq-axis markings, and the
/// same weight data — strictly enough that re-exporting the import is again
/// byte-identical.
#[must_use]
pub fn to_text(graph: &Graph) -> String {
    let mut body = format!("{FORMAT_HEADER}\n");
    body.push_str(&format!("graph {}\n", escape(graph.name())));

    body.push_str(&format!("values {}\n", graph.value_count()));
    for value in graph.values() {
        let role = match value.kind {
            ValueKind::Input => "input",
            ValueKind::Weight => "weight",
            ValueKind::Intermediate => "inter",
            ValueKind::Output => "output",
        };
        body.push_str(&format!(
            "value {} {role} {} {} {}",
            value.id.index(),
            escape(&value.name),
            shape_token(&value.shape),
            dtype_token(value.dtype),
        ));
        match value.kind {
            ValueKind::Weight => {
                if graph.weight_data(value.id).is_some() {
                    body.push_str(" data");
                } else {
                    body.push_str(" seeded");
                }
            }
            ValueKind::Intermediate | ValueKind::Output => {
                // Every intermediate/output value is produced by exactly one
                // node; `Graph` cannot construct one otherwise.
                let producer = value.producer.expect("produced value has a producer");
                body.push_str(&format!(" from {}", producer.index()));
            }
            ValueKind::Input => {}
        }
        body.push('\n');
    }

    body.push_str(&format!("nodes {}\n", graph.node_count()));
    for node in graph.nodes() {
        body.push_str(&format!(
            "node {} {} {} in",
            node.id.index(),
            node.op.name(),
            escape(&node.name),
        ));
        for &v in &node.inputs {
            body.push_str(&format!(" {}", v.index()));
        }
        body.push_str(" out");
        for &v in &node.outputs {
            body.push_str(&format!(" {}", v.index()));
        }
        body.push_str(&format!(" attrs {}\n", attrs_token(&node.attrs)));
    }

    body.push_str(&format!("outputs {}\n", graph.outputs().len()));
    for &id in graph.outputs() {
        body.push_str(&format!("output {}\n", id.index()));
    }

    let seq_marked: Vec<_> = graph
        .values()
        .filter_map(|v| graph.seq_axis(v.id).map(|axis| (v.id, axis)))
        .collect();
    body.push_str(&format!("seq_axes {}\n", seq_marked.len()));
    for (id, axis) in seq_marked {
        body.push_str(&format!("seq_axis {} {axis}\n", id.index()));
    }

    let data_weights: Vec<_> = graph
        .values()
        .filter_map(|v| graph.weight_data(v.id).map(|t| (v.id, t)))
        .collect();
    body.push_str(&format!("weights {}\n", data_weights.len()));
    for (id, tensor) in data_weights {
        body.push_str(&format!(
            "weight {} {} {}\n",
            id.index(),
            tensor.data().len(),
            data_token(tensor.data()),
        ));
    }

    dnnf_profiledb::append_checksum(&mut body);
    body
}

/// Serializes a graph and writes it to `path`.
///
/// # Errors
///
/// Returns [`IoError::Write`] when the file cannot be written.
pub fn save(graph: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    std::fs::write(path, to_text(graph)).map_err(|e| IoError::Write {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}
