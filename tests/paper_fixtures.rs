//! Every table and figure of the paper's evaluation, pinned: each
//! `EXPERIMENTS` row rendered at tiny scale must equal
//! `tests/fixtures/<name>.txt` byte for byte — the text the `paper` binary
//! prints for it.

use dnnf_bench::paper::EXPERIMENTS;
use dnnf_models::ModelScale;

#[test]
fn the_experiment_table_names_the_twelve_tables_and_figures_in_order() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        [
            "table1", "table2", "table3", "table4", "table5", "table6", "fig6", "fig7", "fig8",
            "fig9a", "fig9b", "fig10",
        ]
    );
}

#[test]
fn every_experiment_renders_its_recorded_fixture() {
    let mut mismatched = Vec::new();
    for experiment in EXPERIMENTS {
        let path = format!(
            "{}/tests/fixtures/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            experiment.name
        );
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let actual = (experiment.render)(ModelScale::tiny());
        let (actual, expected) = if experiment.name == "fig9b" {
            (mask_wall_clock(&actual), mask_wall_clock(&expected))
        } else {
            (actual, expected)
        };
        if actual != expected {
            eprintln!("--- {path}\n{expected}+++ rendered\n{actual}");
            mismatched.push(experiment.name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "differs from its fixture: {mismatched:?}"
    );
}

/// Figure 9b's `Fusion` cells are this host's wall-clock compile time, and
/// its `Total` cells add them in, so those two cells of each configuration
/// row are masked and the row's other cells compared one by one. Every
/// other line — the header and rule (the `Fusion` and `Total` headers stay
/// wider than any value under 100 s), the miss and hit counts — is
/// compared byte for byte.
fn mask_wall_clock(text: &str) -> String {
    text.lines()
        .map(|line| {
            if !line.trim_start().starts_with("DNNF (") {
                return line.to_string();
            }
            let mut cells: Vec<&str> = line.split_whitespace().collect();
            let n = cells.len();
            cells[n - 4] = "<fusion>";
            cells[n - 1] = "<total>";
            cells.join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}
