//! The per-layer pass: single-threaded, over the head of the same
//! generated stream the end-to-end run sent, timing calls into each
//! layer's public functions. Each metric names, in the README's
//! interaction table, the end-to-end metric it should move.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use logsynergy::infer::InferencePlan;
use logsynergy::quant::QuantizedModel;
use logsynergy::wal::{recover_partition, PartitionWal, WalConfig};
use logsynergy_embed::HashedEmbedder;
use logsynergy_lei::LlmInterpreter;
use logsynergy_loggen::SystemId;
use logsynergy_logparse::Drain;
use logsynergy_nn::kernels::{self, qgemm};
use logsynergy_pipeline::{
    format_log, EventVectorizer, LogBuffer, MemorySink, OnlineDetector, PatternLibrary, RawLog,
    Report, ReportSink, ScoreCache, SequenceScorer, Verdict, DEFAULT_SCORE_CACHE,
};
use logsynergy_serve::proto::parse_line;

use crate::metrics::Metrics;
use crate::setup::{raw_logs, Model, Wire, TENANT};
use crate::spec::KERNEL_THREADS;

/// Median wall time of three runs of `f`.
fn time3(mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[1]
}

fn per_s(count: usize, d: Duration) -> f64 {
    count as f64 / d.as_secs_f64()
}

fn ns_per(count: usize, d: Duration) -> f64 {
    d.as_secs_f64() * 1e9 / count as f64
}

/// `serve::proto`: the two wire framings through `parse_line`.
fn serve_parsers(out: &mut Metrics, wire: &Wire, messages: &[String]) {
    let n = messages.len();
    let text = std::str::from_utf8(&wire.bytes[..wire.starts[n]]).expect("wire is UTF-8");
    let d = time3(|| {
        for line in text.lines() {
            std::hint::black_box(parse_line(line, "").expect("NDJSON line parses"));
        }
    });
    out.put("serve.parse_ndjson_lines_per_s", "lines/s", per_s(n, d));

    let syslog: Vec<String> = messages
        .iter()
        .map(|m| format!("Jun  9 06:06:20 {TENANT} {m}"))
        .collect();
    let d = time3(|| {
        for line in &syslog {
            std::hint::black_box(parse_line(line, "").expect("syslog line parses"));
        }
    });
    out.put("serve.parse_syslog_lines_per_s", "lines/s", per_s(n, d));
}

/// `pipeline::buffer`: one handler-sized group enqueue and its dequeue.
fn buffer_hop(out: &mut Metrics, logs: &[RawLog]) {
    let mut batches: Vec<Vec<Vec<RawLog>>> = (0..3)
        .map(|_| logs.chunks(64).map(<[RawLog]>::to_vec).collect())
        .collect();
    let buffer = LogBuffer::new(1, 1024);
    let producer = buffer.producer();
    let mut consumer = buffer.partition_consumer(0);
    let d = time3(|| {
        for batch in batches.pop().expect("one set of batches per timing") {
            let n = batch.len();
            producer
                .send_many_to(0, batch)
                .unwrap_or_else(|_| panic!("buffer closed"));
            let got = consumer.recv_batch(n, Duration::ZERO).expect("buffer open");
            assert_eq!(std::hint::black_box(got).len(), n);
        }
    });
    out.put("buffer.batch64_ops_per_s", "logs/s", per_s(logs.len(), d));
}

/// `core::wal`: group-commit appends of 64, the bytes they leave, and a
/// recovery scan over them.
fn wal_layer(out: &mut Metrics, logs: &[RawLog], dir: &Path) -> Result<(), String> {
    let fail = |e| format!("WAL layer pass: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let (mut wal, _) = PartitionWal::open(dir, WalConfig::default()).map_err(fail)?;
    let t = Instant::now();
    for chunk in logs.chunks(64) {
        let entries: Vec<(&str, u64, &str)> = chunk
            .iter()
            .map(|r| (r.system.as_str(), r.timestamp, r.message.as_str()))
            .collect();
        wal.append_batch(&entries).map_err(fail)?;
    }
    let d = t.elapsed();
    drop(wal);
    out.put("wal.append_b64_logs_per_s", "logs/s", per_s(logs.len(), d));

    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("WAL dir: {e}"))? {
        let entry = entry.map_err(|e| format!("WAL dir: {e}"))?;
        bytes += entry.metadata().map_err(|e| format!("WAL dir: {e}"))?.len();
    }
    out.put("wal.segment_bytes", "bytes", bytes as f64);
    out.put(
        "wal.bytes_per_log",
        "bytes",
        bytes as f64 / logs.len() as f64,
    );

    let t = Instant::now();
    let recovered = recover_partition(dir).map_err(fail)?;
    let d = t.elapsed();
    if recovered.replay.len() != logs.len() {
        return Err(format!(
            "WAL recovery found {} of {} records",
            recovered.replay.len(),
            logs.len()
        ));
    }
    out.put("wal.recover_ms", "ms", d.as_secs_f64() * 1e3);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// `logparse` / `lei` / `embed`: a cold Drain over the messages, then
/// the interpreter and embedder over the templates it found.
fn vectorizer_parts(out: &mut Metrics, messages: &[String]) {
    let mut templates = Vec::new();
    let d = time3(|| {
        let mut drain = Drain::with_defaults();
        for m in messages {
            std::hint::black_box(drain.parse(m));
        }
        templates = drain.templates().iter().map(|t| t.text()).collect();
    });
    out.put(
        "logparse.drain_lines_per_s",
        "lines/s",
        per_s(messages.len(), d),
    );
    out.put("logparse.templates", "count", templates.len() as f64);

    // Few templates: cycle them so the timed work is not a handful of calls.
    let rounds = 20_000usize.div_ceil(templates.len().max(1));
    let lei = LlmInterpreter::with_defaults();
    let mut texts = Vec::new();
    let d = time3(|| {
        texts.clear();
        for _ in 0..rounds {
            for t in &templates {
                texts.push(lei.interpret(SystemId::SystemB, t).text);
            }
        }
    });
    out.put("lei.interpret_per_s", "1/s", per_s(texts.len(), d));

    let embedder = HashedEmbedder::new(64, 0xE1B);
    let d = time3(|| {
        for t in &texts {
            std::hint::black_box(embedder.embed(t));
        }
    });
    out.put("embed.texts_per_s", "1/s", per_s(texts.len(), d));
}

/// `pipeline::vectorizer`, warm: returns the event ids it assigned and
/// the vectorizer as the stream left it.
fn vectorizer_layer(
    out: &mut Metrics,
    model: &Model,
    messages: &[String],
) -> (Vec<u32>, EventVectorizer) {
    let mut ids = Vec::new();
    let mut v = model.vectorizer.clone();
    let d = time3(|| {
        v = model.vectorizer.clone();
        ids = messages.iter().map(|m| v.ingest(m)).collect();
    });
    let new_templates = v.new_templates();
    out.put(
        "vectorizer.ingest_logs_per_s",
        "logs/s",
        per_s(messages.len(), d),
    );
    out.put("vectorizer.new_templates", "count", new_templates as f64);
    (ids, v)
}

/// The timing wrapper around the real scorer for the detector pass.
#[derive(Clone)]
struct TimedScorer<S> {
    inner: S,
    calls: Arc<AtomicU64>,
    windows: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
}

impl<S: SequenceScorer> SequenceScorer for TimedScorer<S> {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        self.score_batch(&[events], table)[0]
    }

    fn score_batch(&self, windows: &[&[u32]], table: &[Vec<f32>]) -> Vec<f32> {
        let t = Instant::now();
        let scores = self.inner.score_batch(windows, table);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.windows
            .fetch_add(windows.len() as u64, Ordering::Relaxed);
        scores
    }
}

/// `pipeline::detect`: worker-sized batches through `ingest_batch`.
/// Returns the reports it raised.
fn detect_layer(out: &mut Metrics, model: &Model, logs: &[RawLog]) -> Vec<Report> {
    let scorer = TimedScorer {
        inner: model.scorer.clone(),
        calls: Arc::default(),
        windows: Arc::default(),
        nanos: Arc::default(),
    };
    let mut detector = OnlineDetector::new(model.vectorizer.clone(), scorer.clone())
        .with_cache_capacity(DEFAULT_SCORE_CACHE);
    let mut reports = Vec::new();
    let mut seq_no = 0u64;
    let t = Instant::now();
    for batch in logs.chunks(320) {
        let structured = batch
            .iter()
            .enumerate()
            .map(|(k, raw)| format_log(raw, seq_no + k as u64));
        detector.ingest_batch(structured, &mut reports);
        seq_no += batch.len() as u64;
    }
    let total = t.elapsed();
    let windows = detector.pattern_hits + detector.cache_hits + detector.model_calls;
    let scored = scorer.windows.load(Ordering::Relaxed);
    let calls = scorer.calls.load(Ordering::Relaxed);
    let in_model = Duration::from_nanos(scorer.nanos.load(Ordering::Relaxed));
    out.put(
        "detect.windows_per_s",
        "windows/s",
        per_s(windows as usize, total),
    );
    out.put(
        "detect.self_us_per_window",
        "us",
        (total - in_model).as_secs_f64() * 1e6 / windows.max(1) as f64,
    );
    out.put("detect.score_calls", "count", calls as f64);
    out.put(
        "detect.model_batch_mean",
        "windows",
        scored as f64 / calls.max(1) as f64,
    );
    // Windows the model scored beyond the stream's own: the
    // leave-one-out culprit probes on anomalous windows.
    out.put(
        "detect.loo_probe_windows",
        "count",
        scored.saturating_sub(detector.model_calls) as f64,
    );
    reports
}

/// `pipeline::patterns` / `pipeline::cache` on the run's own windows.
fn tier_lookups(out: &mut Metrics, windows: &[&[u32]]) {
    let mut library = PatternLibrary::new();
    for w in windows {
        library.insert(
            w,
            Verdict {
                probability: 0.0,
                anomalous: false,
                culprit: None,
            },
        );
    }
    let d = time3(|| {
        for w in windows {
            std::hint::black_box(library.lookup(w));
        }
    });
    out.put("patterns.lookup_ns", "ns", ns_per(windows.len(), d));
    out.put("patterns.len", "count", library.len() as f64);

    let mut cache = ScoreCache::new(DEFAULT_SCORE_CACHE);
    for w in windows {
        cache.insert(w, 0.0);
    }
    let d = time3(|| {
        for w in windows {
            std::hint::black_box(cache.get(w));
        }
    });
    out.put("cache.get_ns", "ns", ns_per(windows.len(), d));
}

/// `core::infer` / `core::quant`: bare model-tier scoring of the run's
/// windows, at the serving batch size and one at a time.
fn model_tier(out: &mut Metrics, model: &Model, windows: &[&[u32]], table: &[Vec<f32>]) {
    let windows = &windows[..windows.len().min(2048)];
    let plan = InferencePlan::from_model(&model.model);
    let calibration = plan.calibrate(&windows[..windows.len().min(256)], table);
    let int8 = QuantizedModel::from_plan(&plan, &calibration).with_batch_size(64);
    let b64 = plan.with_batch_size(64);
    let d = time3(|| {
        std::hint::black_box(b64.score_windows(windows, table));
    });
    out.put(
        "infer.f32_windows_per_s_b64",
        "windows/s",
        per_s(windows.len(), d),
    );

    let single = &windows[..windows.len().min(512)];
    let b1 = InferencePlan::from_model(&model.model).with_batch_size(1);
    let d = time3(|| {
        for w in single {
            std::hint::black_box(b1.score_windows(std::slice::from_ref(w), table));
        }
    });
    out.put(
        "infer.f32_windows_per_s_b1",
        "windows/s",
        per_s(single.len(), d),
    );

    let d = time3(|| {
        std::hint::black_box(int8.score_windows(windows, table));
    });
    out.put(
        "quant.int8_windows_per_s_b64",
        "windows/s",
        per_s(windows.len(), d),
    );
}

/// `nn::kernels` at the model's own feed-forward shape: a batch of 64
/// windows × 10 events is 640 rows, `d_model` 64 → `ff` 128. The rates
/// are operation counts computed from the shape (2·m·k·n flops, m·k·n
/// multiply-accumulates) over measured time, not hardware counters.
fn kernel_layer(out: &mut Metrics) {
    const M: usize = 640;
    const K: usize = 64;
    const N: usize = 128;
    const CALLS: usize = 2_000;
    let fill = |len: usize, seed: u32| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32 ^ seed).wrapping_mul(2_654_435_761);
                (h >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0
            })
            .collect()
    };
    let a = fill(M * K, 1);
    let b = fill(K * N, 2);
    let mut c = vec![0.0f32; M * N];
    let d = time3(|| {
        for _ in 0..CALLS {
            c.fill(0.0);
            kernels::mm(&a, &b, &mut c, M, K, N);
            std::hint::black_box(&c);
        }
    });
    let flops = (2 * M * K * N * CALLS) as f64;
    out.put(
        "kernels.mm_gflops",
        "GFLOP/s",
        flops / d.as_secs_f64() / 1e9,
    );

    let scale = qgemm::scale_for(qgemm::absmax(&b));
    let mut rows = vec![0i8; N * K];
    // `b` is [K, N]; the packed layout wants [N, K] rows.
    let bt: Vec<f32> = (0..N * K).map(|i| b[(i % K) * N + i / K]).collect();
    qgemm::quantize(&bt, scale, &mut rows);
    let packed = qgemm::PackedWeights::pack(rows, K, N);
    let mut qa = vec![0i16; M * packed.kp()];
    qgemm::quantize_rows_i16(
        &a,
        qgemm::scale_for(qgemm::absmax(&a)),
        &mut qa,
        K,
        packed.kp(),
    );
    let mut acc = vec![0i32; M * N];
    let d = time3(|| {
        for _ in 0..CALLS {
            qgemm::qgemm_nt_packed(&qa, &packed, &mut acc, M);
            std::hint::black_box(&acc);
        }
    });
    let macs = (M * K * N * CALLS) as f64;
    out.put(
        "kernels.qgemm_gmacs",
        "Gmac/s",
        macs / d.as_secs_f64() / 1e9,
    );
}

/// `pipeline::report`: the in-memory sink the CLI pipeline delivers to.
fn report_layer(out: &mut Metrics, reports: &[Report]) {
    if reports.is_empty() {
        out.put("report.deliver_ns", "ns", 0.0);
        return;
    }
    let rounds = 20_000usize.div_ceil(reports.len());
    let d = time3(|| {
        let sink = MemorySink::new();
        for _ in 0..rounds {
            for r in reports {
                sink.deliver(r);
            }
        }
        std::hint::black_box(sink.len());
    });
    out.put("report.deliver_ns", "ns", ns_per(rounds * reports.len(), d));
}

/// Every layer microbenchmark over `messages` (the head of the run's
/// saturation stream) and their rendering in `wire`.
pub fn layer_pass(
    out: &mut Metrics,
    model: &Model,
    wire: &Wire,
    messages: &[String],
    scratch: &Path,
) -> Result<(), String> {
    let logs = raw_logs(messages);
    serve_parsers(out, wire, messages);
    buffer_hop(out, &logs);
    wal_layer(out, &logs, &scratch.join("wal-layer"))?;
    vectorizer_parts(out, messages);
    let (ids, vectorizer) = vectorizer_layer(out, model, messages);
    // The measured daemons' workers run their GEMMs on `KERNEL_THREADS`
    // threads; so do the layer passes.
    kernels::with_threads(KERNEL_THREADS, || {
        let reports = detect_layer(out, model, &logs);
        report_layer(out, &reports);

        let mut windows: Vec<&[u32]> = ids.windows(10).step_by(5).collect();
        tier_lookups(out, &windows);
        // Bare scoring is timed on distinct windows, as the model tier
        // only ever sees what the library and cache missed.
        windows.sort_unstable();
        windows.dedup();
        model_tier(out, model, &windows, vectorizer.table());
        kernel_layer(out);
    });
    Ok(())
}
