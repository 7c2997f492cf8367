//! Regression floors for the wall-clock harnesses, kept in the binary that
//! measures them.
//!
//! `bench_exec` and `serve_load` each hold one table of [`Floor`] rows. A row
//! names one model's measured metric, the absolute floor it may never drop
//! below, the value it was last recorded at, when the row is armed, and the
//! regression it catches. [`report`] judges every row against the run,
//! writes the run's JSON with its `floors` array, and fails the run only
//! after that file is on disk, so a regression leaves its measurements
//! inspectable. To re-baseline a row, copy its printed measured value into
//! its `baseline`.

use std::process::ExitCode;

use dnnf_ops::simd::detected_simd_width;
use dnnf_runtime::WorkPool;

/// An armed metric may not drop below this fraction of its baseline: wide
/// enough to absorb shared-runner wall-clock noise, tight enough to catch a
/// real kernel regression.
const REGRESSION_MARGIN: f64 = 0.6;

/// When a floor is enforced.
#[derive(Clone, Copy, Debug)]
pub enum Arm {
    /// On every host: the ratio is structural.
    Always,
    /// On hosts with at least this many cores.
    Cores(usize),
    /// When the compile target's `f32` vector width is at least this.
    SimdWidth(usize),
}

/// The properties of the measuring host a row can be armed by.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// Worker threads the executor's default options use.
    pub cores: usize,
    /// Widest `f32` vector the build target can issue.
    pub simd_width: usize,
}

impl Host {
    /// This process's host, detected the way the executor detects it.
    #[must_use]
    pub fn detect() -> Self {
        Self {
            cores: WorkPool::host().threads(),
            simd_width: detected_simd_width(),
        }
    }
}

/// One regression gate: a model's metric that must reach
/// `max(floor, 0.6 × baseline)` whenever the row is armed.
#[derive(Clone, Copy, Debug)]
pub struct Floor {
    /// The measured model, as the harness names it.
    pub model: &'static str,
    /// The measured column, as the JSON names it.
    pub metric: &'static str,
    /// The value the metric may never drop below.
    pub floor: f64,
    /// The value last recorded; `None` enforces `floor` alone.
    pub baseline: Option<f64>,
    /// When the row is enforced.
    pub arm: Arm,
    /// The regression this row catches, printed beside any failure.
    pub catches: &'static str,
}

impl Floor {
    /// `max(floor, REGRESSION_MARGIN × baseline)`.
    fn threshold(&self) -> f64 {
        self.baseline
            .map_or(self.floor, |b| self.floor.max(REGRESSION_MARGIN * b))
    }

    /// Why this row is not enforced on `host`; `None` when it is armed.
    fn skip_reason(&self, host: &Host) -> Option<String> {
        match self.arm {
            Arm::Always => None,
            Arm::Cores(n) => (host.cores < n)
                .then(|| format!("host has {} core(s), floor needs {n}", host.cores)),
            Arm::SimdWidth(n) => (host.simd_width < n).then(|| {
                format!(
                    "target SIMD width is {}, floor needs {n} \
                     (build with RUSTFLAGS=\"-C target-cpu=native\" on an AVX2 host)",
                    host.simd_width
                )
            }),
        }
    }

    /// Whether `value` fails this row on `host`: armed and below the
    /// threshold.
    fn fails(&self, value: f64, host: &Host) -> bool {
        self.skip_reason(host).is_none() && value < self.threshold()
    }
}

/// Prints every row of `floors` as armed or skipped beside its measured
/// `value`, closes `json` — the document so far, `{` and its other
/// top-level fields each followed by `,` — with the `floors` array, writes
/// it to `path`, and only then names every armed row below its threshold,
/// returning failure if there is one.
pub fn report(
    floors: &[Floor],
    value: impl Fn(&Floor) -> f64,
    host: &Host,
    mut json: String,
    path: &str,
) -> ExitCode {
    let values: Vec<f64> = floors.iter().map(value).collect();
    println!("\nRegression floors (threshold = max(floor, {REGRESSION_MARGIN} x baseline)):");
    json.push_str("  \"floors\": [\n");
    for (i, (f, v)) in floors.iter().zip(&values).enumerate() {
        let skipped = f.skip_reason(host);
        let armed = skipped.is_none();
        let baseline = f.baseline.map_or("null".to_string(), |b| format!("{b:.2}"));
        let (state, note) = match skipped {
            None => ("armed", String::new()),
            Some(reason) => ("skipped", format!(" — {reason}")),
        };
        println!(
            "  {state:<7} {:<13} {:<27} {v:>7.2}x measured vs {:>6.2}x threshold \
             (floor {:.2}, baseline {baseline}){note}",
            f.model,
            f.metric,
            f.threshold(),
            f.floor,
        );
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"metric\": \"{}\", \"floor\": {:.2}, \
             \"baseline\": {baseline}, \"threshold\": {:.2}, \"armed\": {armed}, \
             \"value\": {v:.2}}}{}\n",
            f.model,
            f.metric,
            f.floor,
            f.threshold(),
            if i + 1 == floors.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");

    let mut status = ExitCode::SUCCESS;
    for (f, &v) in floors.iter().zip(&values) {
        if f.fails(v, host) {
            eprintln!(
                "regression: {} {} is {v:.2}x, below its {:.2}x threshold; this row catches {}",
                f.model,
                f.metric,
                f.threshold(),
                f.catches
            );
            status = ExitCode::FAILURE;
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: Host = Host {
        cores: 2,
        simd_width: 4,
    };

    fn row(floor: f64, baseline: Option<f64>, arm: Arm) -> Floor {
        Floor {
            model: "C3D",
            metric: "simd_speedup",
            floor,
            baseline,
            arm,
            catches: "a test regression",
        }
    }

    #[test]
    fn a_row_below_its_absolute_floor_fails() {
        let f = row(1.30, Some(1.35), Arm::Always);
        assert!(f.fails(1.10, &HOST));
        assert!(!f.fails(1.30, &HOST));
    }

    #[test]
    fn a_row_below_the_margin_under_its_baseline_fails_and_inside_it_passes() {
        // 1.4x clears the 1.3x floor but not 0.6 x the 3.0x baseline.
        let f = row(1.30, Some(3.0), Arm::Always);
        assert!((f.threshold() - 1.8).abs() < 1e-12);
        assert!(f.fails(1.40, &HOST));
        assert!(!row(1.30, Some(1.5), Arm::Always).fails(1.40, &HOST));
    }

    #[test]
    fn a_row_without_a_baseline_enforces_only_its_floor() {
        let f = row(5.0, None, Arm::Always);
        assert_eq!(f.threshold(), 5.0);
        assert!(!f.fails(8.0, &HOST));
        assert!(f.fails(4.0, &HOST));
    }

    #[test]
    fn an_unarmed_row_never_fails() {
        for arm in [Arm::Cores(4), Arm::SimdWidth(8)] {
            let f = row(1.30, Some(3.0), arm);
            assert!(f.skip_reason(&HOST).is_some());
            assert!(!f.fails(0.5, &HOST));
        }
        let wide = Host {
            cores: 4,
            simd_width: 8,
        };
        assert!(row(1.30, None, Arm::Cores(4)).fails(0.5, &wide));
        assert!(row(1.30, None, Arm::SimdWidth(8)).fails(0.5, &wide));
    }
}
