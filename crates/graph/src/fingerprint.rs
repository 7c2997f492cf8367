//! Deterministic structural fingerprints for graphs.
//!
//! A [`Fingerprint`] is a 128-bit FNV-1a hash over a canonical byte
//! serialization of everything that determines what a compiled plan *means*:
//!
//! * **topology** — every node's operator kind and its input/output value
//!   wiring, in insertion order (insertion order is itself structural: it is
//!   how `ValueId`s and `NodeId`s are assigned);
//! * **operator attributes** — each node's [`dnnf_ops::Attrs`] in its
//!   canonical (name-ordered) textual form;
//! * **shapes and dtypes** — every value's inferred shape and element type,
//!   plus its role (input / weight / intermediate / output) and which values
//!   are marked as graph outputs;
//! * **weight identities** — each weight's *name* (the runtime materializes
//!   missing weight data deterministically from the name, so the name is the
//!   data's identity) and, when explicit data is attached, the exact bits of
//!   that data;
//! * **binding names** — input and weight names (inference binds input
//!   tensors by name, so two graphs that differ only in an input name are
//!   *not* interchangeable at run time).
//!
//! The model name and intermediate-value names are deliberately excluded:
//! they are labels, not structure, so two structurally identical models keyed
//! under different names share one compilation.
//!
//! The fingerprint is the cache key of the shape-specialized compilation
//! cache (`dnnf-runtime`'s `PlanCache`): compiled plans are keyed by
//! `(fingerprint, shape signature, compiler options)`, and any structural
//! change — an extra node, a different stride, a reshaped weight, different
//! weight data — changes the fingerprint and therefore invalidates the
//! cached plan. Hashing is fully deterministic across processes and hosts
//! (no pointer values, no `std::hash::Hash` randomization), which is what
//! makes the on-disk cache format trustworthy across restarts.

use std::fmt;

use crate::{Graph, SymbolicAxes};

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A deterministic 128-bit structural hash of a [`Graph`].
///
/// Stable across processes, hosts and compilations of this crate: the hash
/// covers only canonical graph bytes, never addresses or randomized state.
/// Display/parse round-trips through 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    #[must_use]
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher over a canonical byte stream.
#[derive(Debug, Clone)]
pub(crate) struct Hasher {
    state: u128,
}

impl Hasher {
    pub(crate) fn new() -> Self {
        Hasher {
            state: FNV128_OFFSET,
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Writes a length-prefixed byte string, so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Computes the structural fingerprint of a graph. See the module docs for
/// exactly what is (and is not) covered.
#[must_use]
pub(crate) fn graph_fingerprint(graph: &Graph) -> Fingerprint {
    let mut h = Hasher::new();

    // Values: shape, dtype, role, and the binding identity of inputs and
    // weights. Producer/consumer wiring is covered from the node side.
    h.write_usize(graph.value_count());
    for value in graph.values() {
        h.write(b"v");
        h.write_usize(value.shape.dims().len());
        for &d in value.shape.dims() {
            h.write_usize(d);
        }
        h.write_str(&format!("{:?}", value.dtype));
        h.write(match value.kind {
            crate::ValueKind::Input => b"i",
            crate::ValueKind::Weight => b"w",
            crate::ValueKind::Intermediate => b"t",
            crate::ValueKind::Output => b"o",
        });
        match value.kind {
            crate::ValueKind::Input | crate::ValueKind::Weight => h.write_str(&value.name),
            _ => h.write_str(""),
        }
        if value.is_weight() {
            match graph.weight_data(value.id) {
                // Explicit data: the exact bits are the identity.
                Some(data) => {
                    h.write(b"d");
                    h.write_usize(data.data().len());
                    for &x in data.data() {
                        h.write(&x.to_bits().to_le_bytes());
                    }
                }
                // Name-seeded data: the name (hashed above) is the identity.
                None => h.write(b"n"),
            }
        }
    }

    // Nodes: operator, canonical attribute text, and value wiring.
    h.write_usize(graph.node_count());
    for node in graph.nodes() {
        h.write(b"n");
        h.write_str(node.op.name());
        h.write_str(&node.attrs.fingerprint());
        h.write_usize(node.inputs.len());
        for &v in &node.inputs {
            h.write_usize(v.index());
        }
        h.write_usize(node.outputs.len());
        for &v in &node.outputs {
            h.write_usize(v.index());
        }
    }

    // Output marking, in marking order.
    h.write_usize(graph.outputs().len());
    for &o in graph.outputs() {
        h.write_usize(o.index());
    }

    h.finish()
}

/// Builds the human-readable shape signature of a graph: every input's name
/// and shape, in input order (`x=1x3x224x224;mask=1x128`). Part of the plan
/// cache key alongside the [`Fingerprint`] — redundant with it (shapes are
/// hashed too) but kept explicit so cache files and diagnostics stay
/// inspectable.
///
/// The dimensions `axes` names print symbolically — every *marked* sequence
/// axis (see `Graph::mark_seq_axis`) as `S`, every input's leading (batch)
/// dimension as `N` (`x=Nx3x224x224`, `token_ids=1;past_k0=2xSx8`; rank-0
/// inputs have neither and print unchanged). Keying a cache entry by such a
/// signature expresses that one compiled plan serves any value of them.
#[must_use]
pub(crate) fn shape_signature(graph: &Graph, axes: SymbolicAxes) -> String {
    let mut s = String::new();
    for (i, &id) in graph.inputs().iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let v = graph.value(id);
        s.push_str(&v.name);
        s.push('=');
        let seq_axis = graph.seq_axis(id).filter(|_| axes.seq);
        let dims: Vec<String> = v
            .shape
            .dims()
            .iter()
            .enumerate()
            .map(|(axis, d)| {
                if Some(axis) == seq_axis {
                    "S".to_string()
                } else if axes.batch && axis == 0 {
                    "N".to_string()
                } else {
                    d.to_string()
                }
            })
            .collect();
        s.push_str(&dims.join("x"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimBinding;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::{Shape, Tensor};

    fn base_graph() -> Graph {
        let mut g = Graph::new("base");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        g
    }

    #[test]
    fn identical_construction_gives_identical_fingerprints() {
        assert_eq!(base_graph().fingerprint(), base_graph().fingerprint());
    }

    #[test]
    fn model_name_and_node_names_do_not_matter() {
        let mut g = Graph::new("other-name");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "renamed-conv-node",
            )
            .unwrap()[0];
        let r = g
            .add_op(OpKind::Relu, Attrs::new(), &[c], "renamed-relu")
            .unwrap()[0];
        g.mark_output(r);
        assert_eq!(g.fingerprint(), base_graph().fingerprint());
    }

    #[test]
    fn topology_attrs_shapes_and_weights_all_invalidate() {
        let base = base_graph().fingerprint();

        // Extra node.
        let mut g = base_graph();
        let out = g.outputs()[0];
        let s = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[out], "sig")
            .unwrap()[0];
        g.mark_output(s);
        assert_ne!(g.fingerprint(), base, "topology change must invalidate");

        // Different attribute value.
        let mut g = Graph::new("attrs");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(OpKind::Conv, Attrs::new(), &[x, w], "conv")
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        assert_ne!(g.fingerprint(), base, "attr change must invalidate");

        // Different input shape.
        let mut g = Graph::new("shape");
        let x = g.add_input("x", Shape::new(vec![1, 4, 16, 16]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        assert_ne!(g.fingerprint(), base, "shape change must invalidate");

        // Different weight name (name-seeded data would differ).
        let mut g = Graph::new("wname");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w2", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        assert_ne!(g.fingerprint(), base, "weight identity must invalidate");
    }

    #[test]
    fn explicit_weight_data_is_part_of_the_identity() {
        let mut with_data = base_graph();
        let w = with_data
            .values()
            .find(|v| v.is_weight())
            .map(|v| v.id)
            .unwrap();
        let base = with_data.fingerprint();
        with_data
            .set_weight_data(w, Tensor::full(Shape::new(vec![4, 4, 3, 3]), 0.25))
            .unwrap();
        let with_quarter = with_data.fingerprint();
        assert_ne!(with_quarter, base, "attaching data must invalidate");
        with_data
            .set_weight_data(w, Tensor::full(Shape::new(vec![4, 4, 3, 3]), 0.5))
            .unwrap();
        assert_ne!(
            with_data.fingerprint(),
            with_quarter,
            "changing data bits must invalidate"
        );
    }

    #[test]
    fn output_marking_matters() {
        // Same nodes, but the intermediate conv output additionally marked.
        let mut g = Graph::new("marks");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        g.mark_output(c);
        assert_ne!(g.fingerprint(), base_graph().fingerprint());
    }

    #[test]
    fn input_names_bind_and_therefore_matter() {
        let mut g = Graph::new("in-name");
        let x = g.add_input("x2", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        assert_ne!(g.fingerprint(), base_graph().fingerprint());
    }

    #[test]
    fn hex_round_trip_and_shape_signature() {
        let g = base_graph();
        let fp = g.fingerprint();
        let hex = fp.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&"0".repeat(31)), None);
        assert_eq!(g.shape_signature(), "x=1x4x8x8");
    }

    #[test]
    fn batch_signature_symbolizes_leading_dim() {
        let g = base_graph();
        let sig = |g: &Graph| g.symbolic_shape_signature(SymbolicAxes::BATCH);
        assert_eq!(sig(&g), "x=Nx4x8x8");
        // Every batch variant of the same model shares one signature.
        let g8 = g.rebind(DimBinding::batch(8)).unwrap();
        assert_eq!(sig(&g8), sig(&g));
        assert_ne!(g8.shape_signature(), g.shape_signature());
    }

    #[test]
    fn seq_signature_symbolizes_only_marked_axes() {
        let mut g = Graph::new("seq-sig");
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
        let sig = |g: &Graph| g.symbolic_shape_signature(SymbolicAxes::SEQ);
        assert_eq!(sig(&g), "q=2x1x8;past=2xSx8");
        // Every sequence-length variant shares one signature.
        let g3 = g.rebind(DimBinding::seq(3)).unwrap();
        assert_eq!(sig(&g3), sig(&g));
        assert_ne!(g3.shape_signature(), g.shape_signature());
        // Both axes symbolic at once.
        let both = SymbolicAxes {
            batch: true,
            seq: true,
        };
        assert_eq!(g.symbolic_shape_signature(both), "q=Nx1x8;past=NxSx8");
        // Unmarked graphs degrade to the plain static signature.
        let plain = base_graph();
        assert_eq!(sig(&plain), plain.shape_signature());
    }
}
