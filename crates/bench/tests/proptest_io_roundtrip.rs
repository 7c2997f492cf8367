//! Property-based `.dnnfg` round-trip over the random-graph fuzz
//! generators: for any seed, export → strict import must reproduce the
//! structural fingerprint, the canonical bytes, and every marking the
//! fingerprint does not cover.
//!
//! The output-level (tolerance-0) half of the round-trip contract is
//! exercised per-seed by `fuzz::check_seed` (the `random_model` binary) and
//! across all bundled models by the `graph_export --verify` CI gate; these
//! properties keep the cheap structural half running over hundreds of fresh
//! seeds on every test run.

use dnnf_bench::fuzz::random_fuzz_graph;
use dnnf_graph::SymbolicAxes;
use dnnf_io::{from_text, to_text, IoError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn export_import_preserves_fingerprint_and_bytes(seed in any::<u64>()) {
        let graph = random_fuzz_graph(seed, 12);
        let text = to_text(&graph);
        let imported = from_text(&text).expect("strict import of own export");
        prop_assert_eq!(imported.fingerprint(), graph.fingerprint());
        prop_assert_eq!(to_text(&imported), text);
        // Markings outside the fingerprint survive too.
        prop_assert_eq!(imported.name(), graph.name());
        prop_assert_eq!(imported.shape_signature(), graph.shape_signature());
        prop_assert_eq!(
            imported.symbolic_shape_signature(SymbolicAxes::SEQ),
            graph.symbolic_shape_signature(SymbolicAxes::SEQ)
        );
    }

    #[test]
    fn truncation_never_parses_and_never_panics(
        seed in any::<u64>(),
        cut_permille in 0u64..1000,
    ) {
        let text = to_text(&random_fuzz_graph(seed, 8));
        let cut = (text.len() as u64 * cut_permille / 1000) as usize;
        // Cut on a char boundary (names can contain multi-byte chars).
        let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        if cut < text.len() {
            prop_assert_eq!(from_text(&text[..cut]), Err(IoError::Truncated));
        }
    }

    #[test]
    fn single_byte_corruption_is_always_rejected_or_equivalent(
        seed in any::<u64>(),
        position_permille in 0u64..1000,
        replacement in 0u8..128,
    ) {
        let text = to_text(&random_fuzz_graph(seed, 8));
        let graph = from_text(&text).unwrap();
        let body_len = text.rfind("checksum ").unwrap();
        let at = (body_len as u64 * position_permille / 1000) as usize;
        let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        let mut damaged = String::with_capacity(text.len());
        damaged.push_str(&text[..at]);
        damaged.push(replacement as char);
        let rest = &text[at..];
        let mut chars = rest.chars();
        chars.next();
        damaged.push_str(chars.as_str());
        // A typed error is always fine — the point is: no panic, no
        // silently different graph. The replacement may be a no-op (same
        // character): then the parse must agree with the original exactly.
        if let Ok(reparsed) = from_text(&damaged) {
            prop_assert_eq!(reparsed.fingerprint(), graph.fingerprint());
        }
    }
}
