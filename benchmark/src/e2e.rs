//! One end-to-end phase: start `logsynergy_serve::start` in-process with
//! the real trained scorer, drive it over one loopback connection, drain
//! it, and judge it from outside — the only benchmark code inside the
//! daemon is the report sink that timestamps each verdict.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use logsynergy_loggen::ReplaySchedule;
use logsynergy_pipeline::{
    run_pipeline_with, MemorySink, PipelineConfig, PipelineSummary, Report, ReportSink,
    SequenceScorer, WalOptions,
};
use logsynergy_serve::{parse_tenants, start, IngestStats, ServeConfig};

use crate::loadgen::{self, Sent};
use crate::setup::{raw_logs, Model, Wire, TENANT, TOKEN};
use crate::spec::{expected_windows, PACED_LOGS_PER_S, REFERENCE_RECORDS};

/// Window length of the detector: a report whose window starts at
/// `first_seq_no` covers records up to `first_seq_no + WINDOW_LEN`.
const WINDOW_LEN: u64 = 10;

/// The benchmark's report sink. At `deliver` it computes
/// `now − report.end_timestamp`: creation of the last contributing
/// record to emission of the verdict (window fill excluded — the window
/// is complete the moment that record exists). It keeps the reports of
/// the stream's head for the reference comparison.
#[derive(Clone)]
pub struct LatencySink {
    epoch: Instant,
    keep_below_seq: u64,
    inner: Arc<Mutex<SinkState>>,
}

#[derive(Default)]
struct SinkState {
    latency_us: Vec<u32>,
    head: Vec<Report>,
}

impl LatencySink {
    pub fn new(epoch: Instant, keep_records: usize) -> Self {
        LatencySink {
            epoch,
            keep_below_seq: keep_records as u64,
            inner: Arc::default(),
        }
    }

    fn take(&self) -> SinkState {
        std::mem::take(&mut *self.inner.lock().expect("a sink call panicked"))
    }
}

impl ReportSink for LatencySink {
    fn deliver(&self, report: &Report) {
        let now_us = self.epoch.elapsed().as_micros() as u64;
        let mut state = self.inner.lock().expect("a sink call panicked");
        state.latency_us.push(
            now_us
                .saturating_sub(report.end_timestamp)
                .min(u32::MAX as u64) as u32,
        );
        if report.first_seq_no + WINDOW_LEN <= self.keep_below_seq {
            state.head.push(report.clone());
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Closed by TCP flow control: write as fast as the socket admits.
    Saturate,
    /// Open loop at [`PACED_LOGS_PER_S`].
    Paced,
}

/// Everything one phase measured.
pub struct Phase {
    /// What the generator did; its lateness samples ascending.
    pub sent: Sent,
    pub ingest: IngestStats,
    pub summary: PipelineSummary,
    /// First byte written → `drain_with_stats` returned: every verdict
    /// is out, not merely every record enqueued.
    pub span: Duration,
    /// Last byte written → `drain_with_stats` returned.
    pub drain: Duration,
    /// Ingest→verdict latency of every report, ascending.
    pub latency_us: Vec<u32>,
    /// Daemon start (bind, WAL open, worker spawn, connect, HELLO).
    pub start: Duration,
}

impl Phase {
    pub fn logs_per_s(&self) -> f64 {
        self.sent.records as f64 / self.span.as_secs_f64()
    }

    pub fn expected_windows(&self) -> u64 {
        expected_windows(self.sent.records as u64)
    }

    /// Windows a scoring tier answered.
    pub fn answered(&self) -> u64 {
        self.summary.pattern_hits + self.summary.cache_hits + self.summary.model_calls
    }
}

/// The serving configuration of a phase: one handler thread and one
/// partition (the sizing box has 2 cores: generator + handler + worker
/// already oversubscribe it), `kernel_threads` for the model tier (see
/// [`crate::spec::KERNEL_THREADS`]), everything else the defaults.
pub fn serve_config(wal_dir: Option<&Path>, kernel_threads: usize) -> ServeConfig {
    ServeConfig {
        handler_threads: 1,
        pipeline: PipelineConfig {
            partitions: 1,
            core_budget: kernel_threads,
            wal: wal_dir.map(WalOptions::at),
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Drives `wire` through a fresh daemon configured by `config` and
/// applies the correctness gate. `reference` is the expected reports of
/// the stream's head.
pub fn run_phase<S>(
    mode: Mode,
    model: &Model,
    scorer: S,
    wire: &mut Wire,
    config: ServeConfig,
    reference: &[Report],
) -> Result<Phase, String>
where
    S: SequenceScorer + Clone + 'static,
{
    let t_start = Instant::now();
    let epoch = t_start;
    let sink = LatencySink::new(epoch, REFERENCE_RECORDS.min(wire.len()));
    let specs = parse_tenants(&format!("tenant {TENANT} token={TOKEN}"))?;
    let daemon = start(
        config,
        specs,
        None,
        model.vectorizer.clone(),
        scorer,
        sink.clone(),
    )
    .map_err(|e| format!("daemon failed to start: {e}"))?;
    let io = |e: std::io::Error| format!("load generator: {e}");
    let mut stream = loadgen::connect(daemon.addr()).map_err(io)?;
    let start = t_start.elapsed();

    let generator = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let sent = match mode {
                    Mode::Saturate => loadgen::saturate(&mut stream, wire, epoch),
                    Mode::Paced => {
                        let gap = Duration::from_secs(1) / PACED_LOGS_PER_S;
                        loadgen::paced(&mut stream, wire, epoch, ReplaySchedule::steady(gap))
                    }
                }?;
                Ok((sent, loadgen::finish(stream)?))
            })
            .join()
            .expect("load generator panicked")
    });
    // Drain even when the generator failed: the daemon's threads must
    // be joined before this process moves on.
    let (ingest, summary) = daemon.drain_with_stats();
    let drained = Instant::now();
    let (mut sent, frame) = generator.map_err(io)?;
    sent.late_us.sort_unstable();

    let state = sink.take();
    let mut latency_us = state.latency_us;
    latency_us.sort_unstable();
    let phase = Phase {
        span: drained - sent.first_byte,
        drain: drained - sent.last_byte,
        sent,
        ingest,
        summary,
        latency_us,
        start,
    };
    gate(&phase, &frame, &state.head, reference)?;
    Ok(phase)
}

/// The correctness gate: nothing refused, nothing lost, every window
/// accounted for, and the head of the stream scored exactly as the
/// in-process reference scores it.
fn gate(
    phase: &Phase,
    frame: &loadgen::Frame,
    head: &[Report],
    reference: &[Report],
) -> Result<(), String> {
    let sent = phase.sent.records as u64;
    let (i, s) = (&phase.ingest, &phase.summary);
    let want_frame = loadgen::Frame {
        accepted: sent,
        ..Default::default()
    };
    if *frame != want_frame {
        return Err(format!("sent {sent} records, connection summary {frame:?}"));
    }
    if i.accepted != sent || i.rejected + i.shed + i.parse_errors + i.abusive_disconnects != 0 {
        return Err(format!("sent {sent} records, ingest totals {i:?}"));
    }
    if s.logs != sent {
        return Err(format!("sent {sent} records, workers saw {}", s.logs));
    }
    let buckets =
        s.pattern_hits + s.cache_hits + s.model_calls + s.degraded + s.shed + s.quarantined;
    if buckets != s.windows || s.windows != expected_windows(sent) {
        return Err(format!(
            "six-bucket conservation broken: {buckets} bucketed, {} windows, {} expected",
            s.windows,
            expected_windows(sent)
        ));
    }
    if s.reports != phase.latency_us.len() as u64 {
        return Err(format!(
            "{} reports delivered, sink saw {}",
            s.reports,
            phase.latency_us.len()
        ));
    }
    if head.len() != reference.len() {
        return Err(format!(
            "head of stream: {} reports over the socket, {} in the reference run",
            head.len(),
            reference.len()
        ));
    }
    for (got, want) in head.iter().zip(reference) {
        // Timestamps differ by construction (the wire run carries
        // creation times); everything detection computes must not.
        let same = got.probability.to_bits() == want.probability.to_bits()
            && got.first_seq_no == want.first_seq_no
            && got.system == want.system
            && got.messages == want.messages
            && got.interpretations == want.interpretations
            && got.culprit == want.culprit;
        if !same {
            return Err(format!(
                "report at seq {} differs from the reference: p={} vs p={}",
                got.first_seq_no, got.probability, want.probability
            ));
        }
    }
    Ok(())
}

/// The expected reports of a stream's head: the same records through
/// `run_pipeline_with(PipelineConfig::unbatched())` in-process — one
/// worker, one window at a time, no score cache.
pub fn reference_reports(model: &Model, messages: &[String]) -> Vec<Report> {
    let head = &messages[..REFERENCE_RECORDS.min(messages.len())];
    let sink = MemorySink::new();
    run_pipeline_with(
        raw_logs(head),
        model.vectorizer.clone(),
        model.scorer.clone(),
        sink.clone(),
        PipelineConfig::unbatched(),
    );
    sink.reports()
}
