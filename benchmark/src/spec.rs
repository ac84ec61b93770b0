//! The benchmark's fixed definitions: workloads, end-to-end metrics with
//! their bounds, and the latency limit. `BENCHMARK.json` at the repo
//! root mirrors this file; a unit test keeps the two in step.

/// How the normal traffic of a generated stream is structured — the
/// input property the three scoring tiers depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Independent draws (`DatasetSpec::generate_with(_, 16.0)`): ~90% of
    /// windows are new to the pattern library and reach the model tier.
    Iid,
    /// Session-structured runs (`generate_sessions(_, 4.0, 24.0)`): ~97%
    /// of windows are pattern-library hits and the model tier idles.
    Sessions,
}

/// One workload: a traffic mix every run drives through both phases
/// (saturation, then a fresh stream at the fixed paced rate).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub stream: Stream,
    /// `PipelineConfig::wal = Some(WalOptions::at(tmpdir))`.
    pub durable: bool,
    /// Records per second of saturation-phase budget: sizes the stream
    /// so the phase lasts about its share of `--seconds` on the box the
    /// benchmark was sized on (2 cores). Not a target and not a cap.
    pub sat_logs_per_s: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "iid",
        why: "i.i.d. stream, ~90% of windows reach the model tier: core::infer, nn::kernels and batching work shows here",
        stream: Stream::Iid,
        durable: false,
        sat_logs_per_s: 60_000,
    },
    Workload {
        name: "sessions",
        why: "session stream, ~97% pattern-library hits, model tier idle: serve parsing, buffer, Drain/vectorizer and windowing do the work",
        stream: Stream::Sessions,
        durable: false,
        sat_logs_per_s: 320_000,
    },
    Workload {
        name: "sessions_wal",
        why: "sessions with the write-ahead log on: group-commit append on the handler, cursor commits on the worker; a WAL change shows only here",
        stream: Stream::Sessions,
        durable: true,
        sat_logs_per_s: 290_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `PipelineConfig::core_budget` of every measured daemon, and the
/// kernel-thread count of the layer and traced passes: the model tier's
/// GEMMs run on the worker's own thread.
///
/// The default (0 = all hardware threads) hands half of each GEMM to a
/// pool thread. On the 2-core sizing box that is a fourth busy thread
/// beside generator, handler and worker, and it makes the daemon
/// bistable: a run drops into a mode 17% slower (latencies +20%) at a
/// random round and stays there until the process exits — 13–35% of
/// `iid` runs, against none in twelve with one kernel thread, which is
/// also 5% faster and 27% lower in latency. Bounds cannot be held
/// through that, so the bounded metrics are taken with one kernel
/// thread, and the per-layer run reports the shipped default beside
/// them as `sat.default_threads_logs_per_s`.
pub const KERNEL_THREADS: usize = 1;

/// Offered rate of the open-loop phase, logs/s: ~0.3× the i.i.d.
/// capacity of the sizing box. Higher rates (32k, 48k) kept the median
/// steady but swung the tail by 2× run to run on a shared 2-core machine.
pub const PACED_LOGS_PER_S: u32 = 16_000;

/// Set-ups per end-to-end run: `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Measured rounds per end-to-end run, each a saturation phase and a
/// paced phase on fresh daemons. A metric's value is that of its
/// second-best round ([`crate::stats::best_quartile`]).
pub const ROUNDS: usize = 5;

/// Share of `--seconds` the saturation phases get; the paced phases get
/// the rest, because a latency percentile needs the samples more than a
/// rate does.
pub const SAT_SHARE: f64 = 0.4;

/// `--seconds` of the driver and of a plain `run`.
pub const RUN_SECONDS: u64 = 25;

/// Latency limit of the paced phase: a verdict later than this missed
/// it and counts as failed.
pub const VERDICT_LIMIT_MS: f64 = 100.0;
/// A paced phase whose drain after the last send takes longer than this
/// had a growing backlog; all its windows count as failed.
pub const BACKLOG_DRAIN_LIMIT_MS: f64 = 250.0;
/// A paced phase whose generator ran later than this at p99 did not
/// offer the schedule it claims; all its windows count as failed.
pub const GENERATOR_LATE_LIMIT_US: f64 = 5_000.0;

/// Records at the head of each of a run's two streams (50 000 in all)
/// whose reports must equal, bit for bit, an in-process unbatched
/// reference run.
pub const REFERENCE_RECORDS: usize = 25_000;

/// Seed reserved for later claims: never used while sizing or tuning.
pub const HELD_OUT_SEED: u64 = 4242;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a run condenses a metric's samples into the value it reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Summary {
    /// Over the `ROUNDS` rounds: [`crate::stats::best_quartile`].
    BestQuartile,
    /// Over the `SETUPS` set-ups: the median.
    Median,
}

/// An end-to-end metric and the share of the baseline's median by which
/// it may worsen before `compare` calls it a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub summary: Summary,
}

impl EndToEnd {
    /// The reported value of `samples`.
    pub fn summarize(&self, samples: &[f64]) -> f64 {
        match self.summary {
            Summary::BestQuartile => {
                crate::stats::best_quartile(samples, self.better == Better::Higher)
            }
            Summary::Median => crate::stats::median(samples),
        }
    }

    /// How far apart the samples that decide the reported value lie, as
    /// a share of it: past the bound, `compare` cannot apply the bound.
    pub fn resolution(&self, samples: &[f64]) -> Option<f64> {
        match self.summary {
            Summary::BestQuartile => {
                crate::stats::best_quartile_gap(samples, self.better == Better::Higher)
            }
            Summary::Median => crate::stats::spread(samples),
        }
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "logs_per_s",
        unit: "logs/s",
        better: Better::Higher,
        bound: 0.10,
        summary: Summary::BestQuartile,
    },
    EndToEnd {
        name: "verdict_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        summary: Summary::BestQuartile,
    },
    EndToEnd {
        name: "verdict_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        summary: Summary::BestQuartile,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        summary: Summary::Median,
    },
];

/// Windows a detector assembles from `logs` records (length 10, step 5).
pub fn expected_windows(logs: u64) -> u64 {
    if logs < 10 {
        0
    } else {
        (logs - 10) / 5 + 1
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` at the repo root, the driver's view of this file.
    pub fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
    }

    /// The objects of one of its lists, each as (key → string form).
    pub fn entries(file: &Value, list: &str) -> Vec<Vec<(String, String)>> {
        let Some(Value::Array(items)) = serde::field(file.as_object().unwrap(), list) else {
            panic!("BENCHMARK.json lacks the list {list}");
        };
        items
            .iter()
            .map(|item| {
                item.as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| {
                        let v = match v {
                            Value::Str(s) => s.clone(),
                            other => other.as_f64().unwrap().to_string(),
                        };
                        (k.clone(), v)
                    })
                    .collect()
            })
            .collect()
    }

    fn pairs(items: &[(&str, String)]) -> Vec<(String, String)> {
        items
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let file = benchmark_json();
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| pairs(&[("name", w.name.into()), ("why", w.why.into())]))
            .collect();
        assert_eq!(entries(&file, "workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                pairs(&[
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", better.into()),
                    ("bound", m.bound.to_string()),
                ])
            })
            .collect();
        assert_eq!(entries(&file, "end_to_end"), end_to_end);
        let seconds = serde::field(file.as_object().unwrap(), "run_seconds");
        assert_eq!(seconds.and_then(Value::as_u64), Some(RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn window_count_matches_the_detector_geometry() {
        assert_eq!(expected_windows(9), 0);
        assert_eq!(expected_windows(10), 1);
        assert_eq!(expected_windows(14), 1);
        assert_eq!(expected_windows(15), 2);
        assert_eq!(expected_windows(50_000), 9_999);
    }
}
