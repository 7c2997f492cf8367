//! `compare A.json B.json`: is B no worse than A? One row per workload and
//! end-to-end metric, judged against the metric's own bound.

use std::path::Path;

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd, Workload};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one side spread wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judges `b` against `a` for `metric`. Returns how much worse `b`'s median
/// is (negative when it is better) and the verdict; both the worsening and
/// the spread are shares of `a`'s median, or distances in the metric's own
/// unit when its bound is absolute. The spread of a side is only known with
/// at least four values on it. A baseline of zero (or none at all) gives no
/// share to judge by: unresolved, never ok.
pub fn judge(a: &[f64], b: &[f64], metric: &EndToEnd) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let scale = if metric.absolute { 1.0 } else { ma.abs() };
    let worsening = match metric.better {
        Better::Lower => (mb - ma) / scale,
        Better::Higher => (ma - mb) / scale,
    };
    let spread = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        let scale = if metric.absolute {
            1.0
        } else {
            stats::median(v).abs()
        };
        (q3 - q1) / scale
    };
    let noisy = [a, b]
        .iter()
        .filter(|v| v.len() >= 4)
        .map(|v| spread(v))
        .any(|s| s.is_nan() || s > metric.bound);
    let verdict = if noisy || !worsening.is_finite() {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the table; `Ok(false)` when any row regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        let meta = doc.get("meta").map_or("{}".to_string(), Json::to_text);
        println!("{label}: {meta}");
    }
    println!(
        "\n{:<18} {:<20} {:>14} {:>14} {:>9} {:>10}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for metric in &spec::END_TO_END {
            let va = values(&a, workload.name(), metric.name);
            let vb = values(&b, workload.name(), metric.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} / {} is missing from one file",
                    workload.name(),
                    metric.name
                ));
            }
            let (worsening, verdict) = judge(&va, &vb, metric);
            regressed |= verdict == Verdict::Regressed;
            let worse_by = if metric.absolute {
                format!("{worsening:+.4}")
            } else {
                format!("{:+.1}%", worsening * 100.0)
            };
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>9} {:>10}  {}",
                workload.name(),
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                worse_by,
                metric.bound_text(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, absolute: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            absolute,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(Better::Lower, false);
        let higher = metric(Better::Higher, false);
        // Lower is better: 8% slower is inside a 10% bound, 12% is not.
        assert_eq!(judge(&[100.0], &[108.0], &lower).1, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[112.0], &lower).1, Verdict::Regressed);
        // Higher is better: a drop is the worsening, a rise never regresses.
        assert_eq!(judge(&[100.0], &[85.0], &higher).1, Verdict::Regressed);
        let (worsening, verdict) = judge(&[100.0], &[150.0], &higher);
        assert_eq!(verdict, Verdict::Ok);
        assert!((worsening + 0.5).abs() < 1e-12);
        // A side whose own runs spread wider than the bound decides nothing.
        let noisy = [80.0, 95.0, 100.0, 105.0, 130.0];
        assert_eq!(judge(&noisy, &[140.0], &lower).1, Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&steady, &[140.0], &lower).1, Verdict::Regressed);
    }

    #[test]
    fn an_absolute_bound_is_a_distance_and_a_zero_baseline_decides_nothing() {
        // 0.5 → 0.42 is a 16% drop but a distance of 0.08, inside 0.10.
        let share = metric(Better::Higher, true);
        assert_eq!(judge(&[0.5], &[0.42], &share).1, Verdict::Ok);
        assert_eq!(judge(&[0.5], &[0.38], &share).1, Verdict::Regressed);
        assert_eq!(
            judge(&[0.5], &[0.42], &metric(Better::Higher, false)).1,
            Verdict::Regressed
        );
        // A metric that read 0 (or was never produced) has no share to
        // worsen by; the comparison must not pass.
        let lower = metric(Better::Lower, false);
        assert_eq!(judge(&[0.0], &[5.0], &lower).1, Verdict::Unresolved);
        assert_eq!(judge(&[0.0; 4], &[0.0; 4], &lower).1, Verdict::Unresolved);
    }
}
