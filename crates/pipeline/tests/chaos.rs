//! Deterministic chaos tests for the serving pipeline's robustness layer.
//!
//! Every test installs a seeded `FaultPlan` (so the fault schedule is a
//! pure function of the plan, reproducible run over run) and asserts the
//! recovery contract from `docs/robustness.md`:
//!
//! - **liveness** — the pipeline drains a finite stream to completion no
//!   matter which plan is armed (the CI harness adds a 60 s timeout);
//! - **no lost windows** — processed + quarantined == ingested: the six
//!   resolution buckets exactly partition the window count of a no-fault
//!   run over the same stream;
//! - **telemetry conservation** — the global counters agree with the
//!   summary, under faults included;
//! - **bitwise determinism** — a run whose injected faults are all
//!   transient (retryable errors, latency, corrupt-then-retried scores)
//!   reproduces the no-fault verdict stream bit for bit.
//!
//! Fault plans are process-global, so every test serializes on
//! `faults::test_lock()`.

#![cfg(feature = "fault-injection")]

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use logsynergy::model::LogSynergyModel;
use logsynergy::ModelConfig;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::faults::{points, test_lock, FaultPlan, FaultSpec};
use logsynergy_pipeline::{
    run_pipeline_with, start_pipeline, EventVectorizer, MemorySink, ModelScorer, PipelineConfig,
    PipelineSummary, RawLog, Report, RunningPipeline, SequenceScorer, WalOptions,
};
use logsynergy_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EMBED_DIM: usize = 8;

fn tiny_model(seed: u64) -> Arc<LogSynergyModel> {
    let config = ModelConfig {
        embed_dim: EMBED_DIM,
        d_model: 8,
        heads: 2,
        ff: 16,
        layers: 1,
        max_len: 10,
        dropout: 0.0,
        head_hidden: 8,
        num_systems: 2,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(LogSynergyModel::new(config, &mut rng))
}

fn vectorizer() -> EventVectorizer {
    EventVectorizer::new(SystemId::SystemB, EMBED_DIM, LeiConfig::default())
}

/// A steady stream with a distinct injected fault message every 10 logs,
/// so model-tier misses (and anomalies) occur throughout the run.
fn variant_stream(n: u64) -> Vec<RawLog> {
    const FAULTS: [&str; 16] = [
        "disk", "fan", "nic", "psu", "dimm", "cpu", "raid", "link", "pump", "bmc", "gpu", "ssd",
        "port", "rack", "node", "bus",
    ];
    (0..n)
        .map(|i| {
            let message = if i >= 12 && (i - 12) % 10 == 0 {
                let fault = FAULTS[((i - 12) / 10) as usize % FAULTS.len()];
                format!("{fault} subsystem failure isolated offline")
            } else {
                "session open remote peer lan".to_string()
            };
            RawLog {
                system: "b".into(),
                timestamp: i,
                message,
            }
        })
        .collect()
}

/// Single-shard serving config with a small deterministic batch cadence
/// and fast retry backoff (keeps chaos runs well under the CI timeout).
fn chaos_config() -> PipelineConfig {
    PipelineConfig {
        partitions: 1,
        batch_windows: 4,
        max_retries: 2,
        retry_backoff: Duration::from_micros(200),
        ..PipelineConfig::default()
    }
}

fn run(
    source: &[RawLog],
    model: &Arc<LogSynergyModel>,
    config: PipelineConfig,
) -> (PipelineSummary, Vec<Report>) {
    let sink = MemorySink::new();
    let summary = run_pipeline_with(
        source.to_vec(),
        vectorizer(),
        ModelScorer::shared(model.clone()),
        sink.clone(),
        config,
    );
    let reports = sink.reports();
    (summary, reports)
}

/// Injected panics are expected noise here; silence the default hook's
/// stderr backtraces for the duration of a pipeline run.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn assert_conserved(s: &PipelineSummary, baseline_windows: u64, label: &str) {
    assert_eq!(
        s.pattern_hits + s.cache_hits + s.model_calls + s.degraded + s.shed + s.quarantined,
        s.windows,
        "{label}: resolution buckets must partition the window count: {s:?}"
    );
    assert_eq!(
        s.windows, baseline_windows,
        "{label}: no window may be lost or double counted under faults: {s:?}"
    );
}

fn assert_reports_bitwise_equal(a: &[Report], b: &[Report], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: report count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.probability.to_bits(),
            y.probability.to_bits(),
            "{label}: probability must be bitwise identical"
        );
        assert_eq!(x, y, "{label}: full report");
    }
}

#[test]
fn worker_panic_storm_quarantines_batches_without_losing_windows() {
    let _l = test_lock();
    let model = tiny_model(42);
    let source = variant_stream(200);
    let (baseline, _) = run(&source, &model, chaos_config());
    assert!(baseline.windows > 0 && baseline.reports > 0, "{baseline:?}");

    let tele_before = telemetry::global().snapshot();
    // Every model-tier call panics until 6 fires are spent. With
    // max_retries = 2 (three attempts per batch), exactly the first two
    // model-reaching batches exhaust their budget and are quarantined;
    // everything after runs clean.
    let guard = FaultPlan::seeded(7)
        .arm(points::MODEL_SCORE, FaultSpec::panic().max_fires(6))
        .install();
    let (summary, reports) = with_quiet_panics(|| run(&source, &model, chaos_config()));
    assert_eq!(guard.fires(points::MODEL_SCORE), 6, "panic budget consumed");
    drop(guard);
    let tele_after = telemetry::global().snapshot();

    assert_conserved(&summary, baseline.windows, "panic storm");
    assert!(
        summary.quarantined > 0,
        "twice-faulted batches must quarantine: {summary:?}"
    );
    assert_eq!(
        summary.dead_letters.len() as u64,
        summary.quarantined,
        "one dead letter per quarantined window"
    );
    assert_eq!(
        summary.worker_restarts, 6,
        "each injected panic is one isolated restart: {summary:?}"
    );
    assert!(
        !reports.is_empty(),
        "the pipeline must stay live and keep reporting after the storm"
    );
    for dl in &summary.dead_letters {
        assert_eq!(dl.system, "b");
        assert!(dl.reason.contains("panic-retry budget"), "{dl:?}");
    }

    // Telemetry conservation: the global counters tell the same story.
    if telemetry::enabled() {
        let d = |name: &str| tele_after.counter_delta(&tele_before, name);
        assert_eq!(d("pipeline.logs"), summary.logs);
        assert_eq!(d("pipeline.quarantined"), summary.quarantined);
        assert_eq!(d("pipeline.worker.restarts"), summary.worker_restarts);
        assert_eq!(
            d("pipeline.tier.pattern")
                + d("pipeline.tier.cache")
                + d("pipeline.tier.model")
                + d("pipeline.degraded")
                + d("pipeline.shed")
                + d("pipeline.quarantined"),
            d("pipeline.windows"),
            "telemetry buckets must partition the telemetry window count"
        );
        assert_eq!(d("pipeline.windows"), summary.windows);
    }
}

#[test]
fn model_brownout_retries_to_bitwise_identical_verdicts() {
    let _l = test_lock();
    let model = tiny_model(42);
    let source = variant_stream(200);
    let (baseline, baseline_reports) = run(&source, &model, chaos_config());
    assert!(baseline.reports > 0, "{baseline:?}");

    // Transient-only plan: a model brownout (first two calls fail), a
    // corrupt score the validator must catch and retry, flaky cache
    // lookups (forced misses), a drain hiccup, and producer-side latency.
    // All of it is retryable, so the verdict stream must be bit-identical
    // to the no-fault run.
    let config = PipelineConfig {
        max_retries: 4,
        ..chaos_config()
    };
    let guard = FaultPlan::seeded(11)
        .arm(points::MODEL_SCORE, FaultSpec::transient().max_fires(2))
        .arm(
            points::MODEL_SCORE,
            FaultSpec::corrupt_score().after(2).max_fires(1),
        )
        .arm(
            points::CACHE_LOOKUP,
            FaultSpec::transient().with_probability(0.25),
        )
        .arm(points::BATCH_DRAIN, FaultSpec::transient().max_fires(3))
        .arm(
            points::BUFFER_PUSH,
            FaultSpec::latency(Duration::from_micros(100)).with_probability(0.05),
        )
        .install();
    let (summary, reports) = run(&source, &model, config);
    assert!(guard.fires(points::MODEL_SCORE) >= 3, "brownout must fire");
    drop(guard);

    assert_conserved(&summary, baseline.windows, "brownout");
    assert_eq!(summary.quarantined, 0, "{summary:?}");
    assert_eq!(summary.degraded, 0, "transient faults must not degrade");
    assert_eq!(summary.shed, 0, "{summary:?}");
    assert!(
        summary.retries >= 3,
        "transient failures are retried: {summary:?}"
    );
    assert_eq!(summary.logs, baseline.logs);
    assert_eq!(summary.reports, baseline.reports);
    assert_reports_bitwise_equal(&reports, &baseline_reports, "brownout vs no-fault");
}

#[test]
fn persistent_model_outage_degrades_instead_of_wedging() {
    let _l = test_lock();
    let model = tiny_model(42);
    let source = variant_stream(200);
    let (baseline, _) = run(&source, &model, chaos_config());

    // The model tier never answers: every miss must degrade to the cheap
    // tiers (no verdict, no report) — and the pipeline still drains.
    let guard = FaultPlan::seeded(3)
        .arm(points::MODEL_SCORE, FaultSpec::transient())
        .install();
    let (summary, reports) = run(&source, &model, chaos_config());
    drop(guard);

    assert_conserved(&summary, baseline.windows, "outage");
    assert_eq!(summary.model_calls, 0, "nothing can be model-scored");
    assert_eq!(summary.quarantined, 0, "{summary:?}");
    assert!(
        reports.is_empty(),
        "degraded windows carry no verdict, so no reports"
    );
    // Degraded windows are never memorized (no verdict), so under a
    // total outage every single window falls through to degradation —
    // and each one keeps its fresh chance at the model tier for when
    // the outage ends.
    assert_eq!(
        summary.degraded, summary.windows,
        "every miss must degrade, none may wedge: {summary:?}"
    );
    assert!(summary.retries > 0, "{summary:?}");
}

// ————— durable kill-and-recover storm —————

/// Eight structurally distinct messages (no shared tokens between
/// same-length pairs, identical to the durable continuity suite) so the
/// template space is fixed after warm start and the same in every run.
const WAL_VOCAB: [&str; 8] = [
    "session opened for user root",
    "connection from remote peer closed abruptly after handshake timeout",
    "disk write latency elevated beyond configured threshold on volume data1",
    "packet responder terminating early",
    "cache eviction pass completed",
    "replica placement policy satisfied for block",
    "authentication failure reported by gateway node",
    "heartbeat missed twice across consecutive intervals",
];

/// Key-pure scorer: the verdict depends only on the window's *distinct*
/// event set — the pattern library's key granularity — so verdicts
/// survive a restart's empty library bitwise (see `tests/durable.rs`).
#[derive(Clone)]
struct KeyScorer;
impl SequenceScorer for KeyScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        let mut distinct = events.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut acc = 0.0f32;
        for &e in &distinct {
            for v in &table[e as usize] {
                acc += v.abs();
            }
        }
        (acc - acc.floor()).clamp(0.0, 1.0)
    }
}

/// [`KeyScorer`] behind a gate that starts shut: the first model-tier
/// call parks the worker until [`HeldScorer::open`], and every call
/// after it scores as `KeyScorer` does.
#[derive(Clone, Default)]
struct HeldScorer(Arc<(Mutex<bool>, Condvar)>);

impl HeldScorer {
    fn open(&self) {
        let (open, cv) = &*self.0;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
}

impl SequenceScorer for HeldScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        let (open, cv) = &*self.0;
        drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        KeyScorer.score(events, table)
    }
}

fn warm_vectorizer() -> EventVectorizer {
    let mut v = EventVectorizer::new(SystemId::SystemB, EMBED_DIM, LeiConfig::default());
    v.warm_start(WAL_VOCAB.iter().copied());
    v
}

/// Nine seeded kill-and-recover rounds over the write-ahead log, three
/// per crash site: the record append / cursor commit (a process killed
/// mid-ingest), the segment roll (killed between closing one segment
/// and opening the next), and mid-recovery on the restart itself. Each
/// round feeds until the crash lands, joins what survived, restarts
/// over the same directory, feeds the rest, and asserts the cumulative
/// accounting and verdicts are exactly the unfaulted single run's.
#[test]
fn wal_kill_and_recover_storm_preserves_exactly_once_accounting() {
    let _l = test_lock();
    let n = 200usize;
    let stream: Vec<RawLog> = (0..n)
        .map(|i| RawLog {
            system: "b".into(),
            timestamp: i as u64,
            message: WAL_VOCAB[(i * 7 + i / 4) % WAL_VOCAB.len()].to_string(),
        })
        .collect();

    let baseline_sink = MemorySink::new();
    let baseline = run_pipeline_with(
        stream.clone(),
        warm_vectorizer(),
        KeyScorer,
        baseline_sink.clone(),
        PipelineConfig {
            partitions: 1,
            batch_windows: 4,
            ..PipelineConfig::default()
        },
    );
    assert!(baseline.windows > 0 && baseline.reports > 0, "{baseline:?}");
    let baseline_reports = baseline_sink.reports();

    for seed in 0..9u64 {
        let dir = std::env::temp_dir().join(format!("lswal-storm-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PipelineConfig {
            partitions: 1,
            batch_windows: 4,
            wal: Some(WalOptions {
                // Tiny segments so every round crosses roll boundaries
                // and the roll-crash rounds have rolls to land on.
                segment_max_bytes: 2048,
                ..WalOptions::at(dir.clone())
            }),
            ..PipelineConfig::default()
        };
        let scenario = seed % 3;

        // Phase 1: feed with a seeded one-shot crash armed. The panic
        // lands wherever the schedule puts it — the producer's append
        // (the send below dies) or a worker's cursor commit (the worker
        // dies and the rest of the stream parks durably); both must
        // recover identically.
        let sink1 = MemorySink::new();
        let sent_ok = with_quiet_panics(|| {
            let durable = start_pipeline(warm_vectorizer(), KeyScorer, sink1.clone(), &cfg)
                .expect("a fresh log directory must open");
            let (point, spec) = match scenario {
                0 => (
                    points::WAL_APPEND,
                    FaultSpec::panic().after(5 + seed * 7).max_fires(1),
                ),
                1 => (
                    points::WAL_ROLL,
                    FaultSpec::panic().after(seed % 4).max_fires(1),
                ),
                _ => (
                    points::WAL_APPEND,
                    FaultSpec::panic().after(3 + seed * 5).max_fires(1),
                ),
            };
            let guard = FaultPlan::seeded(seed).arm(point, spec).install();
            let mut sent = 0usize;
            for log in &stream {
                match catch_unwind(AssertUnwindSafe(|| durable.producer.send(log.clone()))) {
                    Ok(Ok(())) => sent += 1,
                    Ok(Err(_)) | Err(_) => break,
                }
            }
            let RunningPipeline { pool, producer, .. } = durable;
            drop(producer);
            let _ = pool.join();
            assert_eq!(
                guard.fires(point),
                1,
                "seed {seed}: the armed crash must fire"
            );
            drop(guard);
            sent
        });

        // Phase 2: restart over the same directory. Rounds 2 mod 3 also
        // crash the restart itself mid-recovery; recovery is read-only,
        // so the retried start must succeed unaided.
        let sink2 = MemorySink::new();
        let second = with_quiet_panics(|| {
            let recover_guard = (scenario == 2).then(|| {
                FaultPlan::seeded(seed)
                    .arm(points::WAL_RECOVER, FaultSpec::panic().max_fires(1))
                    .install()
            });
            let first_try = catch_unwind(AssertUnwindSafe(|| {
                start_pipeline(warm_vectorizer(), KeyScorer, sink2.clone(), &cfg)
            }));
            let durable = match first_try {
                Ok(Ok(d)) => {
                    assert_ne!(scenario, 2, "seed {seed}: the recover crash must fire");
                    d
                }
                Ok(Err(e)) => panic!("seed {seed}: recovery failed typed: {e}"),
                Err(_) => start_pipeline(warm_vectorizer(), KeyScorer, sink2.clone(), &cfg)
                    .expect("retried recovery must succeed"),
            };
            drop(recover_guard);
            for log in &stream[sent_ok..] {
                durable
                    .producer
                    .send(log.clone())
                    .expect("unfaulted send must land");
            }
            let RunningPipeline { pool, producer, .. } = durable;
            drop(producer);
            pool.join()
        });

        // Exactly once, cumulatively: every record of the full stream is
        // accounted for in some bucket, none lost, none double counted.
        assert_eq!(second.logs, n as u64, "seed {seed}: cumulative log count");
        assert_conserved(&second, baseline.windows, &format!("storm seed {seed}"));
        assert_eq!(second.degraded, 0, "seed {seed}: {second:?}");
        assert_eq!(second.shed, 0, "seed {seed}: {second:?}");
        assert_eq!(second.quarantined, 0, "seed {seed}: {second:?}");
        assert_eq!(
            second.reports, baseline.reports,
            "seed {seed}: the cursor-resumed report count is exactly once: {second:?}"
        );

        // Report *delivery* is at-least-once — a crash between a batch's
        // delivery and its cursor commit redelivers that batch — so the
        // combined stream deduplicates by window identity and must then
        // equal the unfaulted run bit for bit.
        let mut seen = HashSet::new();
        let mut deduped: Vec<Report> = Vec::new();
        for r in sink1.reports().into_iter().chain(sink2.reports()) {
            if seen.insert((r.system.clone(), r.first_seq_no)) {
                deduped.push(r);
            }
        }
        assert_reports_bitwise_equal(&deduped, &baseline_reports, &format!("storm seed {seed}"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Group-commit failure semantics at the pipeline layer, both flavors
/// of a fault landing mid-`send_batch`:
///
/// - a *transient append error* hands back exactly the unwritten
///   suffix (the durable prefix is already enqueued — WAL order ==
///   buffer order), and retrying that suffix yields the unfaulted
///   run's verdicts bit for bit;
/// - a *crash* (panic) mid-batch kills the producer with the batch
///   unacked; a restart over the same directory replays the durable
///   records and re-feeding the unacked tail reproduces the baseline
///   accounting and reports exactly once.
#[test]
fn mid_batch_append_faults_keep_exactly_once_accounting() {
    let _l = test_lock();
    const BATCH: usize = 16;
    let n = 200usize;
    let stream: Vec<RawLog> = (0..n)
        .map(|i| RawLog {
            system: "b".into(),
            timestamp: i as u64,
            message: WAL_VOCAB[(i * 7 + i / 4) % WAL_VOCAB.len()].to_string(),
        })
        .collect();

    let baseline_sink = MemorySink::new();
    let baseline = run_pipeline_with(
        stream.clone(),
        warm_vectorizer(),
        KeyScorer,
        baseline_sink.clone(),
        PipelineConfig {
            partitions: 1,
            batch_windows: 4,
            ..PipelineConfig::default()
        },
    );
    let baseline_reports = baseline_sink.reports();

    // Worker cursor commits consult the same WAL_APPEND point as the
    // producer's appends. The worker runs a `HeldScorer`: the first
    // batch it takes holds the stream's first window, whose model call
    // parks it before its first commit until the feed is over — so every
    // consult while the plan is armed is the producer's and the armed
    // fire lands in `send_batch`, however the threads are scheduled.
    // Verdicts are batching-invariant, so the baseline still compares
    // bitwise.
    let wal_config = |dir: &std::path::Path, segment_max_bytes: u64| PipelineConfig {
        partitions: 1,
        wal: Some(WalOptions {
            segment_max_bytes,
            ..WalOptions::at(dir.to_path_buf())
        }),
        ..PipelineConfig::default()
    };

    // Flavor 1: transient append error mid-batch. Tiny segments so the
    // failing batch can straddle a roll — the durably-flushed prefix
    // ahead of the fault must be enqueued, the suffix handed back.
    {
        let dir = std::env::temp_dir().join(format!("lswal-midbatch-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = MemorySink::new();
        let held = HeldScorer::default();
        let durable = start_pipeline(
            warm_vectorizer(),
            held.clone(),
            sink.clone(),
            &wal_config(&dir, 2048),
        )
        .expect("a fresh log directory must open");
        let guard = FaultPlan::seeded(21)
            .arm(
                points::WAL_APPEND,
                // Land inside the sixth batch (after 5*BATCH + 7 append
                // consults), once.
                FaultSpec::transient()
                    .after(5 * BATCH as u64 + 7)
                    .max_fires(1),
            )
            .install();
        let mut retried = 0usize;
        for chunk in stream.chunks(BATCH) {
            let mut batch = chunk.to_vec();
            loop {
                match durable.producer.send_batch(0, batch) {
                    Ok(sent) => {
                        assert!(sent <= BATCH);
                        break;
                    }
                    Err((rest, e)) => {
                        assert!(e.is_transient(), "append failure must be retryable: {e}");
                        assert!(
                            !rest.is_empty() && rest.len() <= BATCH,
                            "exactly the unwritten suffix comes back, got {}",
                            rest.len()
                        );
                        retried += rest.len();
                        batch = rest;
                    }
                }
            }
        }
        assert_eq!(
            guard.fires(points::WAL_APPEND),
            1,
            "the armed fault must fire"
        );
        drop(guard);
        held.open();
        assert!(retried > 0, "the fault must hand back a suffix to retry");
        let RunningPipeline { pool, producer, .. } = durable;
        drop(producer);
        let summary = pool.join();
        assert_eq!(summary.logs, n as u64, "retried suffix lands exactly once");
        assert_conserved(&summary, baseline.windows, "mid-batch transient");
        assert_reports_bitwise_equal(&sink.reports(), &baseline_reports, "mid-batch transient");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Flavor 2: crash (panic) mid-batch, then restart. Large segments
    // so no roll flushes a partial chunk of the dying batch — every
    // record of a completed `send_batch` is durable, nothing of the
    // killed one is, and the restart feed is exactly `stream[sent..]`.
    // (Mid-batch tears across roll boundaries are pinned at the WAL
    // layer by the torn-tail proptests.)
    {
        let dir = std::env::temp_dir().join(format!("lswal-midbatch-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = wal_config(&dir, 1 << 20);

        let sink1 = MemorySink::new();
        let sent = with_quiet_panics(|| {
            let held = HeldScorer::default();
            let durable = start_pipeline(warm_vectorizer(), held.clone(), sink1.clone(), &cfg)
                .expect("a fresh log directory must open");
            let guard = FaultPlan::seeded(23)
                .arm(
                    points::WAL_APPEND,
                    FaultSpec::panic().after(4 * BATCH as u64 + 11).max_fires(1),
                )
                .install();
            let mut sent = 0usize;
            for chunk in stream.chunks(BATCH) {
                match catch_unwind(AssertUnwindSafe(|| {
                    durable.producer.send_batch(0, chunk.to_vec())
                })) {
                    Ok(Ok(k)) => sent += k,
                    Ok(Err(_)) | Err(_) => break,
                }
            }
            assert_eq!(
                guard.fires(points::WAL_APPEND),
                1,
                "the armed crash must fire"
            );
            drop(guard);
            held.open();
            let RunningPipeline { pool, producer, .. } = durable;
            drop(producer);
            let _ = pool.join();
            sent
        });
        assert_eq!(sent % BATCH, 0, "only whole batches ack before the crash");
        assert!(sent > 0 && sent < n, "the crash must land mid-stream");

        let sink2 = MemorySink::new();
        let durable = start_pipeline(warm_vectorizer(), KeyScorer, sink2.clone(), &cfg)
            .expect("restart over the crashed directory must recover");
        for chunk in stream[sent..].chunks(BATCH) {
            durable
                .producer
                .send_batch(0, chunk.to_vec())
                .expect("unfaulted batch must land");
        }
        let RunningPipeline { pool, producer, .. } = durable;
        drop(producer);
        let second = pool.join();

        assert_eq!(second.logs, n as u64, "cumulative log count");
        assert_conserved(&second, baseline.windows, "mid-batch crash");
        // Delivery is at-least-once across the crash; counting is
        // exactly-once after dedupe by window identity.
        let mut seen = HashSet::new();
        let mut deduped: Vec<Report> = Vec::new();
        for r in sink1.reports().into_iter().chain(sink2.reports()) {
            if seen.insert((r.system.clone(), r.first_seq_no)) {
                deduped.push(r);
            }
        }
        assert_reports_bitwise_equal(&deduped, &baseline_reports, "mid-batch crash");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn slow_consumer_backpressure_sheds_to_cheap_tiers() {
    let _l = test_lock();
    let model = tiny_model(42);
    let source = variant_stream(400);
    let config = PipelineConfig {
        partition_capacity: 64,
        shed_watermark: 32,
        ..chaos_config()
    };
    let (baseline, _) = run(&source, &model, config.clone());

    // Every drain stalls 3 ms, so the bounded queue saturates and depth
    // sits above the watermark: the worker must shed to the cheap tiers
    // instead of letting the model tier melt.
    let guard = FaultPlan::seeded(5)
        .arm(
            points::BATCH_DRAIN,
            FaultSpec::latency(Duration::from_millis(3)),
        )
        .install();
    let (summary, _) = run(&source, &model, config);
    drop(guard);

    assert_conserved(&summary, baseline.windows, "backpressure");
    assert!(
        summary.shed > 0,
        "over-watermark batches must shed: {summary:?}"
    );
    assert_eq!(summary.quarantined, 0, "{summary:?}");
    assert_eq!(summary.degraded, 0, "{summary:?}");
    // Shed batches skip the model tier, so model calls can only drop —
    // but *which* batches shed is scheduling-dependent, and a shed batch
    // the pattern/cache tiers would have answered anyway spares nothing,
    // so equality is a legitimate outcome.
    assert!(
        summary.model_calls <= baseline.model_calls,
        "shedding must spare the model tier: {} !<= {}",
        summary.model_calls,
        baseline.model_calls
    );
}
