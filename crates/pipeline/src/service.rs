//! The assembled Fig. 7 service: collection thread → partitioned buffer →
//! per-partition detection workers (micro-batched) → report sinks.
//!
//! Sharding follows the buffer's keyed partitioning: a system's logs all
//! land in one partition, each partition is owned by exactly one worker,
//! and a worker processes its shard in arrival order — so per-system
//! window order, verdicts, and report order are identical to a
//! single-thread run. Each worker drains its shard in bursts
//! ([`crate::buffer::Consumer::recv_batch`]): a burst is whatever is
//! queued when the worker comes for it, up to a window cap — it closes
//! when the shard runs dry, never by waiting to fill. The worker answers
//! pattern-library and score-cache hits inline and ships the remaining
//! windows through one batched model call.
//!
//! Workers publish live telemetry into the global `logsynergy-telemetry`
//! registry: per-tier verdict counters (`pipeline.tier.*`), batch-size and
//! queue-depth histograms, an active-worker gauge, and per-stage span
//! timings (`span.pipeline.batch.{recv,detect,deliver}`). Metric handles
//! are resolved once per worker before the hot loop, so the steady-state
//! cost is a few relaxed atomic adds per *batch*, not per log. See
//! `docs/telemetry.md` for the catalog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

use logsynergy_telemetry as telemetry;

use logsynergy::wal::CursorState;

use crate::buffer::LogBuffer;
use crate::detect::{OnlineDetector, RetryPolicy, SequenceScorer, ServeMode, TierCounts};
use crate::durable::{start_pipeline, DurableWorkerInit, Ingest, RunningPipeline, WalOptions};
use crate::error::DeadLetter;
use crate::faults::{self, points, Fault};
use crate::record::{format_log, RawLog};
use crate::report::ReportSink;
use crate::vectorizer::EventVectorizer;

/// How long an idle worker blocks on its empty shard before polling
/// again. It bounds only an empty wait: a worker holding records never
/// waits for more.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Serving knobs for [`start_pipeline`] and [`run_pipeline_with`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Buffer partitions; one detection worker is spawned per partition.
    pub partitions: usize,
    /// Per-partition buffer capacity (producers block when full).
    pub partition_capacity: usize,
    /// Micro-batch size cap, in completed windows per batch. A batch
    /// never waits to fill: it is whatever is queued when the worker
    /// comes for it, up to this cap.
    pub batch_windows: usize,
    /// Per-worker window-score LRU cache capacity (0 disables).
    pub score_cache: usize,
    /// Retry budget per batch, for both transient model-tier failures
    /// and panicking batch attempts; exhausting it degrades (transient)
    /// or quarantines (panic) the batch.
    pub max_retries: u32,
    /// Base backoff between retries/restarts (doubles per attempt,
    /// capped, with deterministic jitter).
    pub retry_backoff: Duration,
    /// Load-shedding high-watermark in queued logs per partition: while
    /// a worker's queue depth is at or above it, batches are served from
    /// the cheap tiers only. 0 disables shedding.
    pub shed_watermark: usize,
    /// Shared kernel-thread budget split evenly across the detection
    /// workers: each worker's model-tier GEMMs run with at most
    /// `max(1, core_budget / partitions)` kernel threads, so pipeline
    /// parallelism (workers) and kernel parallelism (threads per GEMM)
    /// compose instead of oversubscribing the machine. 0 = auto (the
    /// hardware thread count is the budget).
    pub core_budget: usize,
    /// Per-worker pattern-library capacity with LRU eviction
    /// (0 = unbounded, the paper's formulation).
    pub library_capacity: usize,
    /// Durable transport: when set, every record is appended and flushed
    /// to a per-partition write-ahead log before it is acknowledged, and
    /// workers commit recovery cursors as they account batches (see
    /// [`crate::durable`]). `None` leaves the partition lanes in memory.
    pub wal: Option<WalOptions>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            partitions: 4,
            partition_capacity: 1024,
            batch_windows: 64,
            score_cache: 4096,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            shed_watermark: 0,
            core_budget: 0,
            library_capacity: 0,
            wal: None,
        }
    }
}

impl PipelineConfig {
    /// The pre-batching serving path: one worker, one window at a time,
    /// no score cache. The determinism reference for everything else.
    pub fn unbatched() -> Self {
        PipelineConfig {
            partitions: 1,
            batch_windows: 1,
            score_cache: 0,
            ..Self::default()
        }
    }
}

/// End-of-run summary of a pipeline execution.
#[derive(Clone, Debug)]
pub struct PipelineSummary {
    /// Logs ingested.
    pub logs: u64,
    /// Windows assembled: every one resolves to exactly one of the six
    /// buckets below (pattern + cache + model + degraded + shed +
    /// quarantined == windows — the conservation invariant chaos tests
    /// assert).
    pub windows: u64,
    /// Windows answered by the pattern library.
    pub pattern_hits: u64,
    /// Windows answered by the exact-window score cache.
    pub cache_hits: u64,
    /// Windows scored by the model.
    pub model_calls: u64,
    /// Windows degraded to the cheap tiers by persistent model failure.
    pub degraded: u64,
    /// Windows shed under overload (cheap tiers only).
    pub shed: u64,
    /// Windows quarantined to the dead-letter queue.
    pub quarantined: u64,
    /// Model-tier retry attempts performed.
    pub retries: u64,
    /// Worker batch attempts that panicked and were restarted.
    pub worker_restarts: u64,
    /// Durable-mode workers that died outright (a panic outside every
    /// isolation layer, e.g. an injected cursor-commit crash). Their
    /// partition's accounting is whatever they last committed; the
    /// write-ahead log replays the rest on the next start. In-memory
    /// pools have no log to replay from, so a worker death there
    /// propagates out of [`DetectionPool::join`] instead of being
    /// counted here.
    pub crashed_workers: u64,
    /// The dead-letter queue: one record per quarantined window.
    pub dead_letters: Vec<DeadLetter>,
    /// Reports delivered.
    pub reports: u64,
    /// New templates interpreted online.
    pub new_templates: usize,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Logs per second of end-to-end throughput.
    pub throughput: f64,
}

struct WorkerStats {
    logs: u64,
    counts: TierCounts,
    restarts: u64,
    dead_letters: Vec<DeadLetter>,
    reports: u64,
    new_templates: usize,
}

/// Capped exponential backoff for restart/ship retries (deterministic;
/// jitter comes from the detector's own policy where it matters).
fn restart_backoff(base: Duration, attempt: u64) -> Duration {
    let base = base.max(Duration::from_micros(100));
    base.saturating_mul(1u32 << attempt.min(10) as u32)
        .min(Duration::from_millis(100))
}

/// A running set of per-partition detection workers draining a
/// [`LogBuffer`] — the detection half of a pipeline started by
/// [`start_pipeline`], which hands it back next to the producing
/// [`Ingest`] handle so the in-process shipper and network front doors
/// (the `logsynergy-serve` ingest daemon) drive the same workers.
///
/// Workers run until the producing handle is dropped and the queues
/// drain; [`DetectionPool::join`] then folds the per-worker stats into a
/// [`PipelineSummary`] whose six-bucket accounting invariant holds.
pub struct DetectionPool {
    workers: Vec<thread::JoinHandle<WorkerStats>>,
    start: Instant,
    /// Whether the pool was spawned with a write-ahead log behind it. A
    /// dead durable worker's partition is parked in the log and replayed
    /// on the next start; a dead in-memory worker's partition is gone.
    durable: bool,
}

impl DetectionPool {
    /// Spawns one detection worker per buffer partition. The vectorizer,
    /// scorer, and sink are cloned once per worker; scorers like
    /// [`crate::detect::ModelScorer`] share the trained weights across
    /// clones and take only a private scratch. `inits` carries one entry
    /// per partition: `Some` resumes that worker from its recovered
    /// cursor and has it commit a new one after every accounted batch.
    pub(crate) fn spawn<S, K>(
        buffer: &LogBuffer,
        vectorizer: EventVectorizer,
        scorer: S,
        sink: K,
        config: &PipelineConfig,
        inits: Vec<Option<DurableWorkerInit>>,
    ) -> DetectionPool
    where
        S: SequenceScorer + Clone + 'static,
        K: ReportSink + Clone + 'static,
    {
        assert!(config.partitions > 0 && config.batch_windows > 0);
        assert_eq!(inits.len(), config.partitions);
        let durable = inits.iter().any(|i| i.is_some());
        // Composable parallelism: split the kernel-thread budget evenly over
        // the detection workers, so N workers × M kernel threads never exceeds
        // the budget. The override is per-thread, so it composes with nested
        // `with_threads` calls inside the kernels (small GEMMs below the
        // per-shape work threshold stay serial regardless).
        let budget = if config.core_budget == 0 {
            logsynergy_nn::kernels::hardware_threads()
        } else {
            config.core_budget
        };
        let kernel_threads = (budget / config.partitions).max(1);
        telemetry::global().set_tag("pipeline.scorer_tier", scorer.tier_label());
        let start = Instant::now();
        let workers = inits
            .into_iter()
            .enumerate()
            .map(|(p, init)| {
                spawn_worker(
                    buffer.partition_consumer(p),
                    vectorizer.clone(),
                    scorer.clone(),
                    sink.clone(),
                    config.clone(),
                    kernel_threads,
                    init,
                )
            })
            .collect();
        DetectionPool {
            workers,
            start,
            durable,
        }
    }

    /// Waits for every worker to hit end-of-stream and folds their stats
    /// into a summary. Blocks until the producing handle is gone.
    pub fn join(self) -> PipelineSummary {
        let mut logs = 0u64;
        let mut counts = TierCounts::default();
        let mut worker_restarts = 0u64;
        let mut crashed_workers = 0u64;
        let mut dead_letters = Vec::new();
        let mut reports = 0u64;
        let mut new_templates = 0usize;
        for worker in self.workers {
            // A durable worker that dies outside every isolation layer
            // (an injected cursor-commit crash, a kill test) folds in as
            // zero: its partition's truth is whatever it last committed,
            // and the next start replays the rest from the log. An
            // in-memory worker has no log to replay from — a death there
            // is silent data loss, so it stays a loud panic.
            let s = match worker.join() {
                Ok(s) => s,
                Err(_) if self.durable => {
                    crashed_workers += 1;
                    continue;
                }
                Err(e) => std::panic::resume_unwind(e),
            };
            logs += s.logs;
            counts += s.counts;
            worker_restarts += s.restarts;
            dead_letters.extend(s.dead_letters);
            reports += s.reports;
            new_templates += s.new_templates;
        }
        let elapsed = self.start.elapsed();
        PipelineSummary {
            logs,
            windows: counts.windows(),
            pattern_hits: counts.pattern_hits,
            cache_hits: counts.cache_hits,
            model_calls: counts.model_calls,
            degraded: counts.degraded,
            shed: counts.shed,
            quarantined: counts.quarantined,
            retries: counts.retries,
            worker_restarts,
            crashed_workers,
            dead_letters,
            reports,
            new_templates,
            elapsed,
            throughput: logs as f64 / elapsed.as_secs_f64().max(1e-9),
        }
    }
}

/// Runs the full pipeline over a finite log source with explicit serving
/// knobs: [`start_pipeline`], then a shipper thread (the Filebeat
/// stand-in) feeds the source through the [`Ingest`] handle while one
/// detection worker per partition formats, windows, micro-batches,
/// detects, and reports.
///
/// With [`PipelineConfig::wal`] set the summary's accounting is
/// *cumulative* — it resumes from whatever cursors a previous run of the
/// same WAL directory committed, replaying unacked records first — so
/// `summary.logs` is the all-time record count for the directory, not
/// this call's `source.len()`.
pub fn run_pipeline_with<S, K>(
    source: Vec<RawLog>,
    vectorizer: EventVectorizer,
    scorer: S,
    sink: K,
    config: PipelineConfig,
) -> PipelineSummary
where
    S: SequenceScorer + Clone + 'static,
    K: ReportSink + Clone + 'static,
{
    let RunningPipeline { pool, producer, .. } =
        start_pipeline(vectorizer, scorer, sink, &config).expect("write-ahead log unavailable");
    // The shipper owns the only producing handle: when it finishes, the
    // channels disconnect and workers see a definitive end of stream.
    let shipper = thread::spawn(move || ship(source, producer));
    shipper.join().expect("shipper thread panicked");
    pool.join()
}

/// The shipper body: accumulates per-partition micro-batches so each
/// flush pays one lane-lock acquisition (and, behind a log, one WAL
/// write+flush) for up to `SHIP_BATCH` records instead of one per record.
fn ship(source: Vec<RawLog>, producer: Ingest) {
    const SHIP_BATCH: usize = 64;
    // A panic out of the append (an injected producer crash) kills the
    // shipper like a dead ingest process: records not yet appended are
    // simply never sent — nothing was acked — and the caller's retry
    // layer re-ships them. A closed buffer (every worker gone) stops the
    // shipping too, rather than panicking.
    let flush = |partition: usize, batch: Vec<RawLog>| -> bool {
        let mut slot = Some(batch);
        let mut attempt = 0u64;
        while let Some(batch) = slot.take() {
            match catch_unwind(AssertUnwindSafe(|| producer.send_batch(partition, batch))) {
                Ok(Ok(_)) => {}
                Ok(Err((rest, e))) if e.is_transient() => {
                    attempt += 1;
                    slot = Some(rest);
                    thread::sleep(restart_backoff(Duration::from_micros(200), attempt));
                }
                Ok(Err(_)) | Err(_) => return false,
            }
        }
        true
    };
    let mut pending: Vec<Vec<RawLog>> = (0..producer.partitions()).map(|_| Vec::new()).collect();
    for log in source {
        // `buffer.push` injection point, consulted once per record
        // while this loop still owns it: a simulated producer crash or
        // transient refusal backs off and consults again, so no log is
        // ever lost on the way in.
        let mut attempt = 0u64;
        while !catch_unwind(push_admitted).unwrap_or(false) {
            attempt += 1;
            thread::sleep(restart_backoff(Duration::from_micros(200), attempt));
        }
        let partition = producer.partition_for(&log.system);
        let batch = &mut pending[partition];
        batch.push(log);
        if batch.len() >= SHIP_BATCH && !flush(partition, std::mem::take(batch)) {
            return;
        }
    }
    for (partition, batch) in pending.into_iter().enumerate() {
        if !batch.is_empty() && !flush(partition, batch) {
            return;
        }
    }
}

/// One consult of the `buffer.push` fault point: `false` is an injected
/// transient refusal, an injected crash panics.
fn push_admitted() -> bool {
    match faults::inject(points::BUFFER_PUSH) {
        Some(Fault::Panic) => panic!("{}: buffer.push", faults::PANIC_MARKER),
        Some(Fault::TransientError) => false,
        Some(Fault::Latency(d)) => {
            thread::sleep(d);
            true
        }
        Some(Fault::CorruptScore) | None => true,
    }
}

fn spawn_worker<S, K>(
    mut consumer: crate::buffer::Consumer,
    vectorizer: EventVectorizer,
    scorer: S,
    sink: K,
    cfg: PipelineConfig,
    kernel_threads: usize,
    durable: Option<DurableWorkerInit>,
) -> thread::JoinHandle<WorkerStats>
where
    S: SequenceScorer + 'static,
    K: ReportSink + 'static,
{
    thread::spawn(move || {
        // The whole serving loop runs under this worker's share of
        // the kernel-thread budget; every model-tier GEMM it issues
        // inherits the cap through the per-thread override.
        let serve = move || {
            let mut detector = OnlineDetector::new(vectorizer, scorer)
                .with_cache_capacity(cfg.score_cache)
                .with_library_capacity(cfg.library_capacity)
                .with_retry_policy(RetryPolicy {
                    max_retries: cfg.max_retries,
                    backoff: cfg.retry_backoff,
                    ..RetryPolicy::default()
                });
            // The batch cap counts completed windows; convert to the
            // log burst that yields that many windows.
            let (_, step) = detector.geometry();
            let max_logs = cfg.batch_windows.saturating_mul(step).max(1);
            let mut seq_no = 0u64;
            let mut reports_delivered = 0u64;
            let mut restarts = 0u64;
            let mut reports = Vec::new();
            // Durable mode: resume from the recovered cursor — restore
            // the six-tier counters, re-prime the window assembler with
            // the records it had buffered at the commit point (context,
            // *not* re-counted), and continue the sequence where the
            // cursor left off. Records past the cursor arrive again
            // through the buffer (the replay) and are re-processed with
            // their original sequence numbers.
            let mut committer = durable.map(|init| {
                let c = init.cursor;
                detector.set_counts(TierCounts {
                    pattern_hits: c.pattern_hits,
                    cache_hits: c.cache_hits,
                    model_calls: c.model_calls,
                    degraded: c.degraded,
                    shed: c.shed,
                    quarantined: c.quarantined,
                    retries: c.retries,
                });
                detector.prime_context(init.context, c.since_last_window as usize);
                seq_no = c.next_seq;
                reports_delivered = c.reports;
                (init.committer, init.ack_horizon)
            });
            // Telemetry handles, resolved once before the hot loop.
            let tele = telemetry::global().scoped("pipeline");
            let c_logs = tele.counter("logs");
            let c_windows = tele.counter("windows");
            let c_reports = tele.counter("reports");
            let c_pattern = tele.counter("tier.pattern");
            let c_cache = tele.counter("tier.cache");
            let c_model = tele.counter("tier.model");
            let c_degraded = tele.counter("degraded");
            let c_shed = tele.counter("shed");
            let c_quarantined = tele.counter("quarantined");
            let c_retries = tele.counter("retries");
            let c_restarts = tele.counter("worker.restarts");
            let h_batch_logs = tele.histogram("batch.logs");
            let h_batch_windows = tele.histogram("batch.windows");
            let h_queue_depth = tele.histogram("queue.depth");
            let c_commits = tele.counter("wal_commits");
            let c_commit_errors = tele.counter("wal_commit_errors");
            let g_active = tele.gauge("workers.active");
            g_active.add(1);
            loop {
                let _batch_span = telemetry::span("pipeline.batch");
                let batch = {
                    let _recv = telemetry::span("recv");
                    // `batch.drain` may panic by injection before any
                    // record leaves the queue; restart the drain after
                    // backoff — nothing was lost.
                    match catch_unwind(AssertUnwindSafe(|| {
                        consumer.recv_batch(max_logs, IDLE_POLL)
                    })) {
                        Ok(batch) => batch,
                        Err(_) => {
                            restarts += 1;
                            c_restarts.add(1);
                            thread::sleep(restart_backoff(cfg.retry_backoff, restarts));
                            continue;
                        }
                    }
                };
                let Some(batch) = batch else { break };
                if batch.is_empty() {
                    continue;
                }
                let depth = consumer.depth();
                h_queue_depth.record(depth);
                h_batch_logs.record(batch.len() as u64);
                c_logs.add(batch.len() as u64);
                // Load-shedding decision, once per batch: while the
                // shard's queue is over the watermark, serve the
                // cheap tiers only until depth recovers.
                let mode = if cfg.shed_watermark > 0 && depth >= cfg.shed_watermark as u64 {
                    ServeMode::Shed
                } else {
                    ServeMode::Normal
                };
                let before = detector.counts();
                // Process the batch under panic isolation: a faulted
                // attempt rolls the detector back to its checkpoint
                // and replays the same raw logs with the same
                // sequence numbers; a batch that keeps faulting past
                // the retry budget is quarantined to the dead-letter
                // queue instead of wedging the worker.
                let base_seq = seq_no;
                let mut attempt = 0u32;
                loop {
                    let cp = detector.checkpoint();
                    let reports_mark = reports.len();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _detect = telemetry::span("detect");
                        let structured = batch
                            .iter()
                            .enumerate()
                            .map(|(k, raw)| format_log(raw, base_seq + k as u64));
                        detector.ingest_batch_mode(structured, &mut reports, mode);
                    }));
                    match outcome {
                        Ok(()) => break,
                        Err(_) => {
                            detector.restore(cp);
                            reports.truncate(reports_mark);
                            restarts += 1;
                            c_restarts.add(1);
                            if attempt >= cfg.max_retries {
                                let structured = batch
                                    .iter()
                                    .enumerate()
                                    .map(|(k, raw)| format_log(raw, base_seq + k as u64));
                                detector.quarantine_batch(
                                    structured,
                                    "batch exhausted its panic-retry budget",
                                );
                                break;
                            }
                            attempt += 1;
                            thread::sleep(restart_backoff(cfg.retry_backoff, attempt as u64));
                        }
                    }
                }
                seq_no += batch.len() as u64;
                let after = detector.counts();
                let delta = after - before;
                c_pattern.add(delta.pattern_hits);
                c_cache.add(delta.cache_hits);
                c_model.add(delta.model_calls);
                c_degraded.add(delta.degraded);
                c_shed.add(delta.shed);
                c_quarantined.add(delta.quarantined);
                c_retries.add(delta.retries);
                c_windows.add(delta.windows());
                h_batch_windows.record(delta.windows());
                {
                    let _deliver = telemetry::span("deliver");
                    // Ticked per batch, with this batch's deliveries
                    // only: a live scrape sees reports as they go out,
                    // and a worker resumed from a cursor never re-adds
                    // what an earlier process delivered.
                    let delivered = reports.len() as u64;
                    for report in reports.drain(..) {
                        sink.deliver(&report);
                    }
                    reports_delivered += delivered;
                    c_reports.add(delivered);
                }
                // Durable commit: accounting and delivery for this batch
                // are done, so the cursor may advance. Deliberately
                // *outside* the panic-isolation layer — a crash here
                // (e.g. an injected cursor-commit fault) must kill the
                // worker, not replay the batch inside the same process,
                // because delivery already happened; the next start
                // re-derives everything from the last durable cursor. A
                // transient commit failure is only counted: the next
                // commit is cumulative and covers this one.
                if let Some((cf, horizon)) = committer.as_mut() {
                    let (fill, since) = detector.assembler_state();
                    let state = CursorState {
                        next_seq: seq_no,
                        window_fill: fill as u32,
                        since_last_window: since as u32,
                        pattern_hits: after.pattern_hits,
                        cache_hits: after.cache_hits,
                        model_calls: after.model_calls,
                        degraded: after.degraded,
                        shed: after.shed,
                        quarantined: after.quarantined,
                        retries: after.retries,
                        reports: reports_delivered,
                    };
                    match cf.commit(&state) {
                        Ok(()) => {
                            c_commits.add(1);
                            horizon
                                .store(seq_no - fill as u64, std::sync::atomic::Ordering::Release);
                        }
                        Err(_) => c_commit_errors.add(1),
                    }
                }
            }
            g_active.add(-1);
            WorkerStats {
                logs: seq_no,
                counts: detector.counts(),
                restarts,
                dead_letters: detector.take_dead_letters(),
                reports: reports_delivered,
                new_templates: detector.vectorizer().new_templates(),
            }
        };
        logsynergy_nn::kernels::with_threads(kernel_threads, serve)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::SequenceScorer;
    use crate::report::MemorySink;
    use logsynergy_lei::LeiConfig;
    use logsynergy_loggen::SystemId;

    #[derive(Clone)]
    struct EvenScorer;
    impl SequenceScorer for EvenScorer {
        fn score(&self, events: &[u32], _table: &[Vec<f32>]) -> f32 {
            if events.contains(&1) {
                0.95
            } else {
                0.05
            }
        }
    }

    fn burst_source(system: &str, n: u64, burst: std::ops::Range<u64>) -> Vec<RawLog> {
        (0..n)
            .map(|i| {
                let msg = if burst.contains(&i) {
                    "drive volume dead offline spindle".to_string()
                } else {
                    "session open remote peer lan".to_string()
                };
                RawLog {
                    system: system.into(),
                    timestamp: i,
                    message: msg,
                }
            })
            .collect()
    }

    #[test]
    fn end_to_end_reports_injected_anomaly() {
        let source = burst_source("b", 120, 40..44);
        let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        let sink = MemorySink::new();
        let summary = run_pipeline_with(
            source,
            v,
            EvenScorer,
            sink.clone(),
            PipelineConfig::default(),
        );
        assert_eq!(summary.logs, 120);
        assert!(summary.reports > 0, "burst must be reported");
        assert!(
            summary.pattern_hits > 0,
            "repeating normal windows hit the library"
        );
        assert!(summary.windows >= 20);
        assert_eq!(summary.reports as usize, sink.len());
        assert!(
            summary.throughput > 100.0,
            "throughput {}",
            summary.throughput
        );
    }

    #[test]
    fn batched_sharded_run_matches_unbatched_single_thread() {
        let source = burst_source("b", 200, 60..66);
        let make_v = || EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());

        let baseline_sink = MemorySink::new();
        let baseline = run_pipeline_with(
            source.clone(),
            make_v(),
            EvenScorer,
            baseline_sink.clone(),
            PipelineConfig::unbatched(),
        );

        for config in [
            PipelineConfig::default(),
            PipelineConfig {
                partitions: 4,
                batch_windows: 8,
                ..PipelineConfig::default()
            },
        ] {
            let sink = MemorySink::new();
            let s = run_pipeline_with(source.clone(), make_v(), EvenScorer, sink.clone(), config);
            assert_eq!(s.logs, baseline.logs);
            assert_eq!(s.windows, baseline.windows);
            assert_eq!(s.pattern_hits, baseline.pattern_hits);
            assert_eq!(s.model_calls + s.cache_hits, baseline.model_calls);
            assert_eq!(s.reports, baseline.reports);
            assert_eq!(
                sink.reports(),
                baseline_sink.reports(),
                "reports must be identical, in the same order"
            );
        }
    }

    #[test]
    fn multi_system_run_preserves_per_system_report_order() {
        // Three tenants, each streaming its own burst; partitioning by
        // system key must keep every tenant's reports in arrival order.
        let mut source = Vec::new();
        let tenants = ["tenant-a", "tenant-b", "tenant-c"];
        for i in 0..240u64 {
            let tenant = tenants[(i % 3) as usize];
            let msg = if (90..102).contains(&i) {
                "drive volume dead offline spindle".to_string()
            } else {
                "session open remote peer lan".to_string()
            };
            source.push(RawLog {
                system: tenant.into(),
                timestamp: i,
                message: msg,
            });
        }
        let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        let sink = MemorySink::new();
        let summary = run_pipeline_with(
            source,
            v,
            EvenScorer,
            sink.clone(),
            PipelineConfig::default(),
        );
        assert_eq!(summary.logs, 240);
        assert!(summary.reports > 0, "bursts must be reported");
        let mut last_seen: std::collections::HashMap<String, u64> = Default::default();
        for r in sink.reports() {
            if let Some(&prev) = last_seen.get(&r.system) {
                assert!(
                    r.start_timestamp >= prev,
                    "per-system report order violated for {}",
                    r.system
                );
            }
            last_seen.insert(r.system.clone(), r.start_timestamp);
        }
        assert!(last_seen.len() > 1, "multiple tenants must report");
    }
}
