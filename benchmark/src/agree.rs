//! `rsbench agree A.json B.json`: do two result files agree?
//!
//! One row per workload × end-to-end metric, judged under the bounds
//! of the metric table: `same`, `better` or `worse` (B against A),
//! or `unresolved` when either file's own quartile spread exceeds the
//! bound, so the two medians cannot be told apart. Simulated results
//! (`sim_ms`, event counts, per-cell fingerprints, count-type layer
//! metrics) must be identical bit for bit. Exits non-zero on `worse`
//! or on any exact mismatch.

use crate::json::{self, Json};
use crate::metrics::{self, END_TO_END};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(median, quartile spread as a share of the median)` of a metric
/// summary as the driver writes it.
fn median_and_spread(summary: &Json) -> Option<(f64, f64)> {
    let field = |key| summary.get(key).and_then(Json::as_f64);
    let median = field("median")?;
    Some((median, (field("q3")? - field("q1")?) / median.abs()))
}

/// The verdict for one timing: B's median against A's.
fn verdict(a: (f64, f64), b: (f64, f64), higher_is_better: bool, bound: f64) -> &'static str {
    let worsening = if higher_is_better {
        (a.0 - b.0) / a.0
    } else {
        (b.0 - a.0) / a.0
    };
    if a.1 > bound || b.1 > bound {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else if worsening < -bound {
        "better"
    } else {
        "same"
    }
}

/// Compares the two files and prints one row per pairing. Returns
/// the exit code.
///
/// # Errors
///
/// A file is missing, is not JSON, or the two are of different kinds.
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.get("kind") != b.get("kind") {
        return Err("the two files are of different kinds".into());
    }
    let per_layer = a.get("kind").and_then(Json::as_str) == Some("per_layer");
    let mut bad = 0;
    println!(
        "{:<10} {:<36} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let mut row = |workload: &str, metric: &str, va: &Json, vb: &Json, verdict: &str| {
        let change = match (va.as_f64(), vb.as_f64()) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", (y - x) / x * 100.0),
            _ => String::new(),
        };
        println!(
            "{workload:<10} {metric:<36} {:>14} {:>14} {change:>8}  {verdict}",
            va.compact(),
            vb.compact()
        );
        if matches!(verdict, "worse" | "DIFFERENT") {
            bad += 1;
        }
    };
    let exact = |va: &Json, vb: &Json| if va == vb { "same" } else { "DIFFERENT" };

    for (workload, wa) in a.get("workloads").map(Json::members).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            row(
                workload,
                "(workload)",
                &Json::Null,
                &Json::Null,
                "DIFFERENT",
            );
            continue;
        };
        let (ma, mb) = (wa.get("metrics"), wb.get("metrics"));
        let pick = |m: Option<&Json>, name: &str| {
            m.and_then(|m| m.get(name)).cloned().unwrap_or(Json::Null)
        };
        if per_layer {
            for (name, unit) in metrics::per_layer() {
                let (va, vb) = (pick(ma, name), pick(mb, name));
                // Counts repeat exactly; timings are shown, not judged
                // (per-layer metrics carry no bound).
                let verdict = if matches!(unit, "count" | "sim_ms") {
                    exact(&va, &vb)
                } else {
                    ""
                };
                row(workload, name, &va, &vb, verdict);
            }
        } else {
            for m in &END_TO_END {
                let (sa, sb) = (pick(ma, m.name), pick(mb, m.name));
                match (median_and_spread(&sa), median_and_spread(&sb)) {
                    (Some(x), Some(y)) => row(
                        workload,
                        m.name,
                        &Json::Num(x.0),
                        &Json::Num(y.0),
                        verdict(x, y, m.better == "higher", m.bound),
                    ),
                    _ => row(workload, m.name, &Json::Null, &Json::Null, "unresolved"),
                }
            }
            let (ea, eb) = (wa.get("exact"), wb.get("exact"));
            for name in ["sim_ms", "events", "fingerprints"] {
                let (va, vb) = (pick(ea, name), pick(eb, name));
                let verdict = exact(&va, &vb);
                if name == "fingerprints" {
                    row(workload, name, &Json::Null, &Json::Null, verdict);
                } else {
                    row(workload, name, &va, &vb, verdict);
                }
            }
        }
        let failed = |w: &Json| w.get("failed").cloned().unwrap_or(Json::Null);
        let both_clean = failed(wa) == Json::Num(0.0) && failed(wb) == Json::Num(0.0);
        row(
            workload,
            "failed",
            &failed(wa),
            &failed(wb),
            if both_clean { "same" } else { "DIFFERENT" },
        );
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let tight = |m| (m, 0.01);
        assert_eq!(verdict(tight(1.0), tight(1.05), false, 0.10), "same");
        assert_eq!(verdict(tight(1.0), tight(1.2), false, 0.10), "worse");
        assert_eq!(verdict(tight(1.0), tight(0.8), false, 0.10), "better");
        assert_eq!(verdict(tight(1.0), tight(0.8), true, 0.10), "worse");
        assert_eq!(verdict((1.0, 0.2), tight(1.0), false, 0.10), "unresolved");
    }
}
