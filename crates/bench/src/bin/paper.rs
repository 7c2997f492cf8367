//! Prints the paper's tables and figures from the simulated phones.
//!
//! `paper [--reduced] [name ...]`: each name is a row of
//! `dnnf_bench::paper::EXPERIMENTS` (`table1` … `table6`, `fig6` … `fig10`),
//! printed in the order given; no names prints all twelve in the paper's
//! order. Models are built at `ModelScale::tiny()`, or at full structural
//! depth with `--reduced`.

use std::process::ExitCode;

use dnnf_bench::paper::{Experiment, EXPERIMENTS};
use dnnf_models::ModelScale;

fn main() -> ExitCode {
    let mut scale = ModelScale::tiny();
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--reduced" {
            scale = ModelScale::reduced();
        } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == arg) {
            selected.push(experiment);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!(
                "unknown experiment `{arg}`; expected --reduced or one of: {}",
                names.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    for experiment in selected {
        print!("{}", (experiment.render)(scale));
    }
    ExitCode::SUCCESS
}
