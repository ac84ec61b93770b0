//! One run of one workload. End to end: `SETUPS` timed set-ups, then
//! `ROUNDS` rounds of (saturation phase → paced phase) on fresh daemons.
//! Per layer: one set-up and one round, then the layer and traced passes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use logsynergy_nn::kernels;
use logsynergy_pipeline::{Report, SequenceScorer};
use logsynergy_telemetry as telemetry;

use crate::e2e::{reference_reports, run_phase, serve_config, Mode, Phase};
use crate::layers::layer_pass;
use crate::metrics::Metrics;
use crate::setup::{generate, render, train_model, Model, Wire};
use crate::spec::{
    Workload, BACKLOG_DRAIN_LIMIT_MS, END_TO_END, GENERATOR_LATE_LIMIT_US, KERNEL_THREADS,
    PACED_LOGS_PER_S, ROUNDS, RUN_SECONDS, SAT_SHARE, SETUPS, VERDICT_LIMIT_MS,
};
use crate::stats::{highest_supported, median, percentile, samples_beyond};
use crate::trace::{dump, inline_pass};

/// The paced phase's stream must differ from the saturation phase's.
const PACED_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Records per phase, from `--seconds`.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    sat: usize,
    paced: usize,
    /// Head of the saturation stream the layer and traced passes use.
    layer: usize,
}

fn sizes(w: &Workload, seconds: u64) -> Sizes {
    let round_s = seconds as f64 / ROUNDS as f64;
    let sat = ((w.sat_logs_per_s as f64 * round_s * SAT_SHARE) as usize).max(2_000);
    let paced = (PACED_LOGS_PER_S as f64 * round_s * (1.0 - SAT_SHARE)) as usize;
    Sizes {
        sat,
        paced: paced.max(2_000),
        layer: sat
            .min((100_000 * seconds / RUN_SECONDS) as usize)
            .max(2_000),
    }
}

/// Everything set-up produces.
struct Prepared {
    model: Model,
    sat_messages: Vec<String>,
    paced_messages: Vec<String>,
    sat_wire: Wire,
    paced_wire: Wire,
}

/// Set-up, timed: train the model, warm the vectorizer, generate and
/// render both streams.
fn prepare(w: &Workload, seed: u64, sizes: Sizes) -> (Prepared, Duration) {
    let t = Instant::now();
    let model = train_model();
    let sat_messages = generate(w.stream, sizes.sat, seed);
    let paced_messages = generate(w.stream, sizes.paced, seed ^ PACED_SEED_SALT);
    let sat_wire = render(&sat_messages);
    let paced_wire = render(&paced_messages);
    let prepared = Prepared {
        model,
        sat_messages,
        paced_messages,
        sat_wire,
        paced_wire,
    };
    (prepared, t.elapsed())
}

/// A directory for one phase's write-ahead log, removed on drop.
struct WalDir(Option<PathBuf>);

impl WalDir {
    fn new(w: &Workload, scratch: &Path, tag: &str) -> Self {
        WalDir(w.durable.then(|| {
            let dir = scratch.join(format!("wal-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }))
    }

    fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One round: both phases, each on a fresh daemon.
struct Round {
    sat: Phase,
    paced: Phase,
}

/// The expected reports of both streams' heads.
struct Reference {
    sat: Vec<Report>,
    paced: Vec<Report>,
}

impl Reference {
    fn of(prepared: &Prepared) -> Self {
        Reference {
            sat: reference_reports(&prepared.model, &prepared.sat_messages),
            paced: reference_reports(&prepared.model, &prepared.paced_messages),
        }
    }
}

fn round(
    w: &Workload,
    prepared: &mut Prepared,
    reference: &Reference,
    scratch: &Path,
) -> Result<Round, String> {
    let dir = WalDir::new(w, scratch, "sat");
    let sat = run_phase(
        Mode::Saturate,
        &prepared.model,
        prepared.model.scorer.clone(),
        &mut prepared.sat_wire,
        serve_config(dir.path(), KERNEL_THREADS),
        &reference.sat,
    )?;
    drop(dir);
    let dir = WalDir::new(w, scratch, "paced");
    let paced = run_phase(
        Mode::Paced,
        &prepared.model,
        prepared.model.scorer.clone(),
        &mut prepared.paced_wire,
        serve_config(dir.path(), KERNEL_THREADS),
        &reference.paced,
    )?;
    Ok(Round { sat, paced })
}

fn ms(us: u32) -> f64 {
    us as f64 / 1e3
}

/// Windows of a round that count as failed: any a tier did not answer,
/// paced verdicts past the latency limit, and the whole paced phase when
/// it was not the open loop it claims (late generator, growing backlog).
fn failed_windows(r: &Round) -> (u64, Vec<String>) {
    let mut why = Vec::new();
    let mut failed = 0;
    for phase in [&r.sat, &r.paced] {
        let unanswered = phase.expected_windows() - phase.answered();
        if unanswered > 0 {
            why.push(format!(
                "{unanswered} windows shed, degraded or quarantined"
            ));
        }
        failed += unanswered;
    }
    let late_p99 = percentile(&r.paced.sent.late_us, 0.99) as f64;
    let drain_ms = r.paced.drain.as_secs_f64() * 1e3;
    if late_p99 > GENERATOR_LATE_LIMIT_US || drain_ms > BACKLOG_DRAIN_LIMIT_MS {
        why.push(format!(
            "paced phase invalid: generator p99 lateness {late_p99} us, drain {drain_ms:.1} ms"
        ));
        return (failed + r.paced.answered(), why);
    }
    let over = r
        .paced
        .latency_us
        .iter()
        .filter(|&&us| ms(us) > VERDICT_LIMIT_MS)
        .count() as u64;
    if over > 0 {
        why.push(format!("{over} verdicts later than {VERDICT_LIMIT_MS} ms"));
    }
    (failed + over, why)
}

/// What a run hands back: the metrics, and the contract's counts.
pub struct Outcome {
    pub metrics: Metrics,
    /// Windows the streams should produce verdicts for.
    pub attempted: u64,
    pub failed: u64,
    /// The samples each end-to-end metric was condensed from (one per
    /// round, or per set-up), for `compare`'s resolution check.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

fn tier_counts(p: &Phase) -> [u64; 4] {
    let s = &p.summary;
    [s.pattern_hits, s.cache_hits, s.model_calls, s.reports]
}

/// The end-to-end run: no wrappers beyond the latency sink.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let sizes = sizes(w, seconds);
    // Set-up is done `SETUPS` times over for its median; each leaves the
    // same products, and the rounds run on the last one's.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let (p, took) = prepare(w, seed, sizes);
        setup_s.push(took.as_secs_f64());
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("SETUPS is at least 1");
    println!("  set-up x{SETUPS}: {setup_s:.3?} s");
    // The reference run is the benchmark's own checking work: not set-up.
    let reference = Reference::of(&prepared);

    let mut rounds: Vec<Round> = Vec::new();
    for k in 0..ROUNDS {
        let r = round(w, &mut prepared, &reference, scratch)?;
        println!(
            "  round {k}: sat {:.0} logs/s over {} records, drain {:.0} ms, tiers {:?} | paced p50 {:.3} ms p95 {:.3} ms over {} reports, drain {:.1} ms, late p99 {} us",
            r.sat.logs_per_s(),
            r.sat.sent.records,
            r.sat.drain.as_secs_f64() * 1e3,
            tier_counts(&r.sat),
            ms(percentile(&r.paced.latency_us, 0.50)),
            ms(percentile(&r.paced.latency_us, 0.95)),
            r.paced.latency_us.len(),
            r.paced.drain.as_secs_f64() * 1e3,
            percentile(&r.paced.sent.late_us, 0.99),
        );
        if let Some(first) = rounds.first() {
            for (what, a, b) in [
                ("saturation", &first.sat, &r.sat),
                ("paced", &first.paced, &r.paced),
            ] {
                if tier_counts(a) != tier_counts(b) {
                    return Err(format!(
                        "{what} tier counts differ between rounds on one stream: {:?} vs {:?}",
                        tier_counts(a),
                        tier_counts(b)
                    ));
                }
            }
        }
        rounds.push(r);
    }

    // Daemon start (bind, WAL open, worker spawn, connect, HELLO) is the
    // last step of set-up; it happens once per phase.
    let start_s = median(
        &rounds
            .iter()
            .map(|r| (r.sat.start + r.paced.start).as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let samples = vec![
        ("logs_per_s", per_round(&|r| r.sat.logs_per_s())),
        (
            "verdict_p50_ms",
            per_round(&|r| ms(percentile(&r.paced.latency_us, 0.50))),
        ),
        (
            "verdict_p95_ms",
            per_round(&|r| ms(percentile(&r.paced.latency_us, 0.95))),
        ),
        ("setup_s", setup_s.iter().map(|s| s + start_s).collect()),
    ];
    let mut metrics = Metrics::default();
    for (metric, (name, values)) in END_TO_END.iter().zip(&samples) {
        assert_eq!(metric.name, *name);
        metrics.put(metric.name, metric.unit, metric.summarize(values));
    }

    let reports = rounds[0].paced.latency_us.len();
    let mut pooled: Vec<u32> = rounds
        .iter()
        .flat_map(|r| r.paced.latency_us.iter().copied())
        .collect();
    pooled.sort_unstable();
    println!(
        "  paced latency: {reports} reports a round, {} beyond p95 (highest supported percentile p{}); all rounds pooled: p50 {:.3} p95 {:.3} p99 {:.3} ms over {} reports",
        samples_beyond(reports, 0.95),
        highest_supported(reports).map_or(0.0, |q| q * 100.0),
        ms(percentile(&pooled, 0.50)),
        ms(percentile(&pooled, 0.95)),
        ms(percentile(&pooled, 0.99)),
        pooled.len(),
    );

    let mut attempted = 0;
    let mut failed = 0;
    for r in &rounds {
        attempted += r.sat.expected_windows() + r.paced.expected_windows();
        let (n, why) = failed_windows(r);
        failed += n;
        for line in why {
            println!("  FAILED: {line}");
        }
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        samples,
    })
}

/// A scorer that answers 0 for everything: with it the daemon's front
/// door (socket, parser, buffer, vectorizer, windowing) runs alone.
#[derive(Clone)]
struct ZeroScorer;

impl SequenceScorer for ZeroScorer {
    fn score(&self, _events: &[u32], _table: &[Vec<f32>]) -> f32 {
        0.0
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer run: one end-to-end round for the counts and the
/// harness-validity numbers, then the layer pass and the traced and
/// untraced inline passes over the head of the same stream.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    results: &Path,
) -> Result<Outcome, String> {
    let sizes = sizes(w, seconds);
    let (mut prepared, _) = prepare(w, seed, sizes);
    let reference = Reference::of(&prepared);

    // The front door alone goes first: a process's first phase also pays
    // for the heap's growth and the lazy one-time set-up of the program,
    // and the round after it is compared with phases that run warm.
    let dir = WalDir::new(w, scratch, "frontdoor");
    let front = run_phase(
        Mode::Saturate,
        &prepared.model,
        ZeroScorer,
        &mut prepared.sat_wire,
        serve_config(dir.path(), KERNEL_THREADS),
        &[],
    )?;
    drop(dir);

    let rss_before = rss_mb();
    // A fresh registry, so the WAL numbers below are this round's alone
    // (each daemon resolves its metric handles when it starts).
    telemetry::global().reset();
    let r = round(w, &mut prepared, &reference, scratch)?;
    let tele = telemetry::global().snapshot();
    let rss_growth = rss_mb() - rss_before;

    let mut m = Metrics::default();
    let (sat, paced) = (&r.sat, &r.paced);

    // serve: counts from both daemons of the round, and the front door alone.
    let total = |f: &dyn Fn(&Phase) -> u64| (f(sat) + f(paced)) as f64;
    m.put("serve.accepted", "count", total(&|p| p.ingest.accepted));
    m.put("serve.rejected", "count", total(&|p| p.ingest.rejected));
    m.put("serve.shed", "count", total(&|p| p.ingest.shed));
    m.put(
        "serve.parse_errors",
        "count",
        total(&|p| p.ingest.parse_errors),
    );
    m.put("serve.frontdoor_logs_per_s", "logs/s", front.logs_per_s());

    // detect: exact tier counts of the saturation stream.
    let windows = sat.summary.windows.max(1) as f64;
    m.put(
        "detect.pattern_share",
        "ratio",
        sat.summary.pattern_hits as f64 / windows,
    );
    m.put(
        "detect.cache_share",
        "ratio",
        sat.summary.cache_hits as f64 / windows,
    );
    m.put(
        "detect.model_share",
        "ratio",
        sat.summary.model_calls as f64 / windows,
    );
    m.put("detect.reports", "count", sat.summary.reports as f64);

    // core::wal, as the telemetry registry saw the durable phases.
    m.put("wal.batches", "count", tele.counter("wal.batches") as f64);
    m.put(
        "wal.flush_coalesced",
        "count",
        tele.counter("wal.flush_coalesced") as f64,
    );
    m.put(
        "wal.append_us_p50",
        "us",
        tele.histograms
            .get("wal.append_us")
            .map_or(0.0, |h| h.p50 as f64),
    );

    // harness: is the paced phase the open loop it claims to be?
    let late = &paced.sent.late_us;
    m.put("gen.late_p99_us", "us", percentile(late, 0.99) as f64);
    m.put(
        "gen.late_max_us",
        "us",
        late.last().copied().unwrap_or(0) as f64,
    );
    m.put("sat.logs_per_s", "logs/s", sat.logs_per_s());
    // The same phase as shipped: `core_budget` 0 splits every GEMM over
    // all hardware threads (see `spec::KERNEL_THREADS`).
    let dir = WalDir::new(w, scratch, "default-threads");
    let shipped = run_phase(
        Mode::Saturate,
        &prepared.model,
        prepared.model.scorer.clone(),
        &mut prepared.sat_wire,
        serve_config(dir.path(), 0),
        &reference.sat,
    )?;
    drop(dir);
    m.put(
        "sat.default_threads_logs_per_s",
        "logs/s",
        shipped.logs_per_s(),
    );
    m.put(
        "sat.verdict_p50_ms",
        "ms",
        ms(percentile(&sat.latency_us, 0.50)),
    );
    m.put("sat.drain_ms", "ms", sat.drain.as_secs_f64() * 1e3);
    m.put(
        "paced.verdict_p50_ms",
        "ms",
        ms(percentile(&paced.latency_us, 0.50)),
    );
    m.put(
        "paced.verdict_p95_ms",
        "ms",
        ms(percentile(&paced.latency_us, 0.95)),
    );
    m.put(
        "paced.verdict_p99_ms",
        "ms",
        ms(percentile(&paced.latency_us, 0.99)),
    );
    m.put(
        "paced.verdict_max_ms",
        "ms",
        ms(paced.latency_us.last().copied().unwrap_or(0)),
    );
    m.put("paced.reports", "count", paced.latency_us.len() as f64);
    m.put("paced.drain_ms", "ms", paced.drain.as_secs_f64() * 1e3);
    m.put("process.rss_growth_mb", "MB", rss_growth);

    let head = &prepared.sat_messages[..sizes.layer];
    layer_pass(&mut m, &prepared.model, &prepared.sat_wire, head, scratch)?;

    // The traced inline pass, and the same pass untraced: their ratio is
    // the tracing overhead, the untraced one the single-threaded baseline.
    let inline = |tag: &str, traced: bool| {
        let dir = WalDir::new(w, scratch, tag);
        // Kernel threads as in the measured daemons' workers.
        kernels::with_threads(KERNEL_THREADS, || {
            inline_pass(
                &prepared.model,
                &prepared.sat_wire,
                sizes.layer,
                dir.path(),
                traced,
            )
        })
    };
    let (budget, spans) = inline("inline-traced", true)?;
    let (untraced, _) = inline("inline-untraced", false)?;
    std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let trace_file = results.join(format!("trace_{}.json", w.name));
    dump(&trace_file, &spans).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "  {} spans written to {}",
        spans.len(),
        trace_file.display()
    );
    if budget.reports.len() != untraced.reports.len() {
        return Err(format!(
            "tracing changed the result: {} reports traced, {} untraced",
            budget.reports.len(),
            untraced.reports.len()
        ));
    }
    m.put(
        "budget.parse_us_per_log",
        "us",
        budget.per_log_us(budget.parse),
    );
    m.put("budget.wal_us_per_log", "us", budget.per_log_us(budget.wal));
    m.put(
        "budget.buffer_us_per_log",
        "us",
        budget.per_log_us(budget.buffer),
    );
    m.put(
        "budget.vectorize_us_per_log",
        "us",
        budget.per_log_us(budget.vectorize),
    );
    m.put(
        "budget.tiers_us_per_log",
        "us",
        budget.per_log_us(budget.tiers),
    );
    m.put(
        "budget.model_us_per_log",
        "us",
        budget.per_log_us(budget.model),
    );
    m.put(
        "budget.report_us_per_log",
        "us",
        budget.per_log_us(budget.report),
    );
    m.put("budget.sum_over_wall", "ratio", budget.sum_over_wall());
    m.put("budget.inline_logs_per_s", "logs/s", budget.logs_per_s());
    m.put(
        "budget.untraced_inline_logs_per_s",
        "logs/s",
        untraced.logs_per_s(),
    );

    let (failed, why) = failed_windows(&r);
    for line in why {
        println!("  FAILED: {line}");
    }
    Ok(Outcome {
        metrics: m,
        attempted: sat.expected_windows() + paced.expected_windows(),
        failed,
        samples: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::{benchmark_json, entries};
    use crate::spec::{workload, Stream};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("logsynergy-benchmark-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A one-second run of the durable workload: the gate passes, nothing
    /// fails, the budget sums to the wall clock, and both modes print
    /// exactly the metrics `BENCHMARK.json` promises the driver.
    #[test]
    fn a_small_run_prints_the_metrics_benchmark_json_lists() {
        let w = workload("sessions_wal").unwrap();
        let dir = scratch("run");
        let names = |o: &Outcome| -> Vec<(String, String)> {
            o.metrics
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        let listed = |list: &str| -> Vec<(String, String)> {
            entries(&benchmark_json(), list)
                .into_iter()
                .map(|e| {
                    let get = |k: &str| e.iter().find(|(key, _)| key == k).unwrap().1.clone();
                    (get("name"), get("unit"))
                })
                .collect()
        };

        let e2e = end_to_end(w, 11, 1, &dir).expect("the gate passes");
        assert_eq!(names(&e2e), listed("end_to_end"));
        assert_eq!(e2e.failed, 0);
        assert!(e2e.attempted > 0);
        assert_eq!(e2e.samples.len(), END_TO_END.len());
        for m in &e2e.metrics.0 {
            assert!(m.value > 0.0, "{} must never read 0", m.name);
        }

        let layers = per_layer(w, 11, 1, &dir, &dir.join("results")).expect("the gate passes");
        assert_eq!(names(&layers), listed("per_layer"));
        assert_eq!(layers.failed, 0);
        let get = |name: &str| layers.metrics.get(name).unwrap();
        let sum = get("budget.sum_over_wall");
        assert!(
            (0.95..=1.05).contains(&sum),
            "budget sums to {sum} of the wall clock"
        );
        assert!(
            get("wal.batches") > 0.0,
            "the durable workload uses the WAL"
        );
        assert!(get("budget.wal_us_per_log") > 0.0);
        assert!(dir.join("results/trace_sessions_wal.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tier shares are a property of the stream kind, not of the seed:
    /// two seeds give different streams whose shares differ by under two
    /// points, while the two kinds sit on opposite sides of the tiers.
    #[test]
    fn seeds_change_the_stream_but_not_its_tier_shares() {
        let model = train_model();
        let shares = |stream: Stream, seed: u64| {
            let messages = generate(stream, 40_000, seed);
            let mut detector = logsynergy_pipeline::OnlineDetector::new(
                model.vectorizer.clone(),
                model.scorer.clone(),
            );
            let mut reports = Vec::new();
            let logs = crate::setup::raw_logs(&messages);
            for (k, batch) in logs.chunks(320).enumerate() {
                let structured = batch
                    .iter()
                    .enumerate()
                    .map(|(i, raw)| logsynergy_pipeline::format_log(raw, (k * 320 + i) as u64));
                detector.ingest_batch(structured, &mut reports);
            }
            let windows =
                (detector.pattern_hits + detector.cache_hits + detector.model_calls) as f64;
            (
                messages,
                detector.pattern_hits as f64 / windows,
                detector.model_calls as f64 / windows,
            )
        };
        for stream in [Stream::Iid, Stream::Sessions] {
            let (a, a_pattern, a_model) = shares(stream, 1);
            let (b, b_pattern, b_model) = shares(stream, 2);
            assert_ne!(a, b, "{stream:?}: two seeds, two streams");
            assert!(
                (a_pattern - b_pattern).abs() < 0.02,
                "{stream:?}: pattern share {a_pattern} vs {b_pattern}"
            );
            assert!(
                (a_model - b_model).abs() < 0.02,
                "{stream:?}: model share {a_model} vs {b_model}"
            );
            match stream {
                Stream::Iid => assert!(a_model > 0.8, "i.i.d. model share {a_model}"),
                Stream::Sessions => assert!(a_model < 0.1, "sessions model share {a_model}"),
            }
        }
    }
}
