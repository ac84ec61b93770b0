//! `compare A.json B.json`: applies each end-to-end metric's bound, per
//! metric × workload, to two result files written by `run`. A is the
//! parent (baseline), B the change.

use serde::Value;

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// On one side the samples that decide the value lie further apart
    /// than the bound, so the bound cannot be applied — unless every
    /// sample of B beats every sample of A, which is a pass.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn judge(metric: &EndToEnd, a: f64, b: f64, a_samples: &[f64], b_samples: &[f64]) -> Verdict {
    let widest = [a_samples, b_samples]
        .into_iter()
        .filter_map(|samples| metric.resolution(samples))
        .fold(0.0, f64::max);
    if widest > metric.bound {
        let b_always_better = !a_samples.is_empty()
            && a_samples
                .iter()
                .all(|&x| b_samples.iter().all(|&y| worsening(metric, x, y) < 0.0));
        return if b_always_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric, a, b) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

fn object<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    serde::field(v.as_object()?, key)
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    match v {
        Some(Value::Array(items)) => items.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per metric × workload. `Ok(true)` when nothing
/// regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (path, file) in [(path_a, &a), (path_b, &b)] {
        let env = object(file, "env");
        let comparable = env.and_then(|e| object(e, "comparable"));
        if comparable != Some(&Value::Bool(true)) {
            return Err(format!(
                "{path} is a --quick run: its numbers are not comparable"
            ));
        }
    }
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in &WORKLOADS {
        let side = |file: &'_ Value| {
            object(file, "workloads")
                .and_then(|ws| object(ws, w.name))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{:<14} missing from one file: skipped", w.name);
            continue;
        };
        for metric in &END_TO_END {
            let value = |side: &Value| {
                object(side, "end_to_end")
                    .and_then(|e| object(e, metric.name))
                    .and_then(|m| object(m, "value"))
                    .and_then(Value::as_f64)
            };
            let samples = |side: &Value| {
                numbers(object(side, "samples").and_then(|r| object(r, metric.name)))
            };
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                return Err(format!("{}: {} missing from a result", w.name, metric.name));
            };
            let verdict = judge(metric, va, vb, &samples(&wa), &samples(&wb));
            ok &= verdict != Verdict::Regressed;
            rows += 1;
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                w.name,
                metric.name,
                va,
                vb,
                worsening(metric, va, vb) * 100.0,
                metric.bound * 100.0,
                verdict.as_str()
            );
        }
        let failed = |side: &Value| object(side, "failed").and_then(Value::as_u64).unwrap_or(0);
        if failed(&wb) > failed(&wa) {
            ok = false;
            println!(
                "{:<14} failed windows rose from {} to {}: REGRESSED",
                w.name,
                failed(&wa),
                failed(&wb)
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: EndToEnd = END_TO_END[0];
    const LATENCY: EndToEnd = END_TO_END[1];

    /// Five rounds whose second best is `v`, tightly resolved.
    fn rounds(metric: &EndToEnd, v: f64) -> [f64; 5] {
        let worse = if metric.better == Better::Higher {
            0.8
        } else {
            1.25
        };
        let better = if metric.better == Better::Higher {
            1.004
        } else {
            0.996
        };
        [v * worse, v * better, v, v / better, v * worse]
    }

    fn judge_values(metric: &EndToEnd, a: f64, b: f64) -> Verdict {
        let (sa, sb) = (rounds(metric, a), rounds(metric, b));
        assert_eq!(metric.summarize(&sa), a);
        judge(metric, a, b, &sa, &sb)
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        assert_eq!(THROUGHPUT.better, Better::Higher);
        assert_eq!(LATENCY.better, Better::Lower);
        for metric in [THROUGHPUT, LATENCY] {
            let sign = if metric.better == Better::Higher {
                -1.0
            } else {
                1.0
            };
            let moved = |share: f64| 100.0 * (1.0 + sign * share);
            // Worse by just over the bound, by just under it, and better.
            let cases = [
                (moved(metric.bound + 0.01), Verdict::Regressed),
                (moved(metric.bound - 0.01), Verdict::Pass),
                (moved(-0.4), Verdict::Pass),
            ];
            for (b, want) in cases {
                assert_eq!(
                    judge_values(&metric, 100.0, b),
                    want,
                    "{} at {b}",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn a_value_resolved_worse_than_the_bound_is_unresolved_not_unchanged() {
        // A's best round, 60, lies 40% from its second best, 100.
        let noisy = [60.0, 100.0, 120.0, 150.0, 160.0];
        let steady = rounds(&LATENCY, 100.0);
        assert_eq!(
            judge(&LATENCY, 100.0, 100.0, &noisy, &steady),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LATENCY, 100.0, 150.0, &noisy, &rounds(&LATENCY, 150.0)),
            Verdict::Unresolved
        );
        // Every round of B beats every round of A: resolved, a pass.
        assert_eq!(
            judge(&LATENCY, 100.0, 40.0, &noisy, &rounds(&LATENCY, 40.0)),
            Verdict::Pass
        );
    }
}
