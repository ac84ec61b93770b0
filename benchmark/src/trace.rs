//! The traced run: the serving stages driven inline, on one thread, in
//! pipeline order, with a span around every call into a layer. Self
//! times become the per-log budget, which must sum to the wall clock.
//!
//! The spans live here, around the calls, not inside the program; they
//! are kept in memory and written out when the pass ends.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use logsynergy::wal::{PartitionWal, WalConfig};
use logsynergy_pipeline::{
    format_log, LogBuffer, MemorySink, OnlineDetector, RawLog, Report, ReportSink, SequenceScorer,
    StructuredLog, DEFAULT_SCORE_CACHE,
};
use logsynergy_serve::proto::{parse_line, ClientLine};

use crate::setup::{Model, Wire};

/// One call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this call was made under.
    pub parent: Option<u32>,
    /// The worker batch the call served: spans of one batch share it.
    pub batch: u32,
}

/// Span recorder. Disabled, every call is a branch and nothing else, so
/// the same inline pass gives the untraced baseline.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    batch: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span name: each span's duration minus what its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, Duration)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
        .into_iter()
        .map(|(name, ns)| (name, Duration::from_nanos(ns)))
        .collect()
}

/// Writes the spans as one JSON array.
pub fn dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.batch
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

type SharedTracer = Arc<Mutex<Tracer>>;

fn with<R>(tracer: &SharedTracer, f: impl FnOnce(&mut Tracer) -> R) -> R {
    f(&mut tracer.lock().expect("a traced call panicked"))
}

/// Runs `f` under a span.
fn spanned<R>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    with(tracer, |t| t.enter(name));
    let out = f();
    with(tracer, |t| t.exit());
    out
}

/// The scorer wrapper: a `model` span around every call the detector
/// makes into the model tier.
struct TracedScorer<S> {
    inner: S,
    tracer: SharedTracer,
}

impl<S: SequenceScorer> SequenceScorer for TracedScorer<S> {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        spanned(&self.tracer, "model", || self.inner.score(events, table))
    }

    fn score_batch(&self, windows: &[&[u32]], table: &[Vec<f32>]) -> Vec<f32> {
        spanned(&self.tracer, "model", || {
            self.inner.score_batch(windows, table)
        })
    }
}

/// Records per handler micro-batch (`ServeConfig::ingest_batch`) and
/// handler batches per worker batch (`batch_windows` 64 × step 5 = 320
/// logs), as the daemon's defaults have them.
const HANDLER_BATCH: usize = 64;
const WORKER_BATCH: usize = 320;

/// The per-log time budget of one inline pass.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    pub records: usize,
    pub wall: Duration,
    pub parse: Duration,
    pub wal: Duration,
    pub buffer: Duration,
    /// `format_log` plus the vectorizer twin (see [`inline_pass`]).
    pub vectorize: Duration,
    /// The detector's own time: windowing, pattern library, score
    /// cache, culprit search and report assembly.
    pub tiers: Duration,
    pub model: Duration,
    pub report: Duration,
    pub reports: Vec<Report>,
}

impl Budget {
    pub fn per_log_us(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.records as f64
    }

    pub fn logs_per_s(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64()
    }

    /// Share of the wall clock the seven stages account for.
    pub fn sum_over_wall(&self) -> f64 {
        let sum = self.parse
            + self.wal
            + self.buffer
            + self.vectorize
            + self.tiers
            + self.model
            + self.report;
        sum.as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// Drives the first `records` records of `wire` through the stages
/// inline: `parse_line` → `append_batch` (durable only) → buffer hop →
/// `format_log` + vectorize → `ingest_batch` → scorer → sink.
///
/// `OnlineDetector` owns its vectorizer, so no span can be put around
/// the vectorizer from outside. When tracing, a twin vectorizer is fed
/// the same messages just before the detector sees them; its time is
/// the `vectorize` stage and is taken out of the detector's self time
/// (and out of the wall clock, since the daemon does that work once).
///
/// Returns the budget and, when tracing, the spans.
pub fn inline_pass(
    model: &Model,
    wire: &Wire,
    records: usize,
    wal_dir: Option<&Path>,
    traced: bool,
) -> Result<(Budget, Vec<Span>), String> {
    let tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(traced)));
    let mut wal = match wal_dir {
        Some(dir) => Some(
            PartitionWal::open(dir, WalConfig::default())
                .map_err(|e| format!("inline WAL: {e}"))?
                .0,
        ),
        None => None,
    };
    let buffer = LogBuffer::new(1, 1024);
    let producer = buffer.producer();
    let mut consumer = buffer.partition_consumer(0);
    let mut twin = model.vectorizer.clone();
    let mut detector = OnlineDetector::new(
        model.vectorizer.clone(),
        TracedScorer {
            inner: model.scorer.clone(),
            tracer: tracer.clone(),
        },
    )
    .with_cache_capacity(DEFAULT_SCORE_CACHE);
    let sink = MemorySink::new();
    let mut reports: Vec<Report> = Vec::new();
    let mut seq_no = 0u64;

    let text = std::str::from_utf8(&wire.bytes[..wire.starts[records]])
        .map_err(|e| format!("wire bytes: {e}"))?;
    let mut lines = text.lines();
    let t0 = Instant::now();
    let mut done = 0;
    while done < records {
        let worker_batch = WORKER_BATCH.min(records - done);
        with(&tracer, |t| {
            t.batch += 1;
            t.enter("batch");
        });
        let mut left = worker_batch;
        while left > 0 {
            let n = HANDLER_BATCH.min(left);
            let parsed: Vec<RawLog> = spanned(&tracer, "parse", || {
                lines
                    .by_ref()
                    .take(n)
                    .map(|line| match parse_line(line, "") {
                        Ok(ClientLine::Record(r)) => Ok(r),
                        other => Err(format!("line parsed as {other:?}")),
                    })
                    .collect::<Result<_, _>>()
            })?;
            if let Some(wal) = wal.as_mut() {
                spanned(&tracer, "wal", || {
                    let entries: Vec<(&str, u64, &str)> = parsed
                        .iter()
                        .map(|r| (r.system.as_str(), r.timestamp, r.message.as_str()))
                        .collect();
                    wal.append_batch(&entries).map(|_| ())
                })
                .map_err(|e| format!("inline WAL append: {e}"))?;
            }
            spanned(&tracer, "buffer", || producer.send_many_to(0, parsed))
                .map_err(|(_, e)| format!("inline buffer: {e}"))?;
            left -= n;
        }
        let batch = spanned(&tracer, "buffer", || {
            consumer.recv_batch(worker_batch, Duration::ZERO)
        })
        .ok_or("inline buffer closed")?;
        if batch.len() != worker_batch {
            return Err(format!(
                "inline buffer returned {} of {worker_batch} records",
                batch.len()
            ));
        }
        let structured: Vec<StructuredLog> = spanned(&tracer, "format", || {
            batch
                .iter()
                .enumerate()
                .map(|(k, raw)| format_log(raw, seq_no + k as u64))
                .collect()
        });
        seq_no += batch.len() as u64;
        if traced {
            spanned(&tracer, "vectorize_twin", || {
                for log in &structured {
                    std::hint::black_box(twin.ingest(&log.message));
                }
            });
        }
        spanned(&tracer, "detect", || {
            detector.ingest_batch(structured, &mut reports)
        });
        spanned(&tracer, "report", || {
            for report in reports.drain(..) {
                sink.deliver(&report);
            }
        });
        with(&tracer, |t| t.exit());
        done += worker_batch;
    }
    let elapsed = t0.elapsed();

    let spans = with(&tracer, |t| std::mem::take(&mut t.spans));
    let mut budget = Budget {
        records,
        reports: sink.reports(),
        ..Budget::default()
    };
    let mut format = Duration::ZERO;
    let mut twin_self = Duration::ZERO;
    let mut detect = Duration::ZERO;
    for (name, d) in self_times(&spans) {
        match name {
            "parse" => budget.parse = d,
            "wal" => budget.wal = d,
            "buffer" => budget.buffer = d,
            "format" => format = d,
            "vectorize_twin" => twin_self = d,
            "detect" => detect = d,
            "model" => budget.model = d,
            "report" => budget.report = d,
            // The `batch` span's self time is harness glue between the
            // stages; it is what `sum_over_wall` leaves out.
            _ => {}
        }
    }
    // The daemon vectorizes once: the twin's time is not wall time.
    budget.wall = elapsed - twin_self;
    budget.vectorize = format + twin_self;
    budget.tiers = detect.saturating_sub(twin_self);
    Ok((budget, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.enter("inner");
        t.exit();
        t.exit();
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let totals = self_times(&spans);
        let get = |n: &str| totals.iter().find(|(name, _)| *name == n).unwrap().1;
        assert_eq!(get("inner"), Duration::from_nanos(inner));
        assert_eq!(get("outer"), Duration::from_nanos(outer - inner));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
