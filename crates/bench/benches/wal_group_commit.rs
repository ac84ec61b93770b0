//! Group-commit benchmark for the durable ingest path: durable vs
//! in-memory throughput and p50/p95/p99 ingest-ack latency across a
//! batch-size sweep {1, 16, 64, 256}.
//!
//! Two sections:
//!
//! - **max_rate** — feed as fast as the producer accepts. Batch 1 is
//!   the per-record-flush baseline (one `write(2)`+flush and one
//!   lane-lock acquisition per record — `Ingest::send_batch` of one);
//!   larger batches amortize both. The acceptance gate is durable@64 ≥
//!   3× durable@1 on the bare ack path.
//! - **fig7_operating_point** — the replay harness's steady schedule at
//!   speed 16 (the Fig. 7 offered load, ~100k logs/s): both paths must
//!   sustain it, putting durable-mode throughput within 1.5× of
//!   in-memory.
//!
//! Results land in `results/wal_group_commit.json`.

use std::time::{Duration, Instant};

use logsynergy::wal::{PartitionWal, WalConfig};
use logsynergy_bench::{quick_mode, write_result};
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{ReplaySchedule, ReplayShape, SystemId};
use logsynergy_pipeline::{
    start_pipeline, EventVectorizer, MemorySink, PipelineConfig, RawLog, RunningPipeline,
    SequenceScorer, WalOptions,
};
use serde::Serialize;

const VOCAB: [&str; 8] = [
    "session opened for user root",
    "connection from remote peer closed abruptly after handshake timeout",
    "disk write latency elevated beyond configured threshold on volume data1",
    "packet responder terminating early",
    "cache eviction pass completed",
    "replica placement policy satisfied for block",
    "authentication failure reported by gateway node",
    "heartbeat missed twice across consecutive intervals",
];

/// Cheap deterministic scorer — the measurement is the ingest path, not
/// the model tier; the workers only need to keep the queue draining.
#[derive(Clone)]
struct TableScorer;
impl SequenceScorer for TableScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        let mut acc = 0.0f32;
        for &e in events {
            for v in &table[e as usize] {
                acc += v.abs();
            }
        }
        (acc - acc.floor()).clamp(0.0, 1.0)
    }
}

fn vectorizer() -> EventVectorizer {
    let mut v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
    v.warm_start(VOCAB.iter().copied());
    v
}

fn stream(n: usize) -> Vec<RawLog> {
    (0..n)
        .map(|i| RawLog {
            system: "bench".into(),
            timestamp: i as u64,
            message: VOCAB[(i * 7 + i / 4) % VOCAB.len()].to_string(),
        })
        .collect()
}

/// One partition and a queue deep enough to hold the whole stream: the
/// measurement is the producer-side ack path (lock + encode + flush +
/// enqueue), never worker-drain backpressure.
fn config(n: usize, dir: Option<std::path::PathBuf>) -> PipelineConfig {
    PipelineConfig {
        partitions: 1,
        partition_capacity: n,
        wal: dir.map(WalOptions::at),
        ..PipelineConfig::default()
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lswal-gc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Serialize)]
struct Row {
    section: String,
    mode: String,
    batch: usize,
    logs: u64,
    throughput_logs_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Spin-sleeps until `due` past `started` — the replay harness's pacing.
fn pace(started: Instant, due: Duration) {
    loop {
        let elapsed = started.elapsed();
        if elapsed >= due {
            return;
        }
        let left = due - elapsed;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One run through `start_pipeline` at a given group-commit size — in
/// memory when `durable` is false, behind a fresh write-ahead log
/// otherwise. Every chunk goes through `send_batch`; batch 1 is the
/// per-record-flush path (one lock + one `write(2)`+flush + per-record
/// accounting per line). A record's ack latency is its batch's flush
/// time — the client is acknowledged only after the whole batch is on
/// disk. The feed (and its chunking) is built *before* the clock starts
/// — the measurement is the ack path, not the allocator.
fn run_ingest(
    source: &[RawLog],
    durable: bool,
    batch: usize,
    section: &str,
    schedule: Option<(ReplaySchedule, u32)>,
) -> Row {
    let dir = durable.then(|| scratch(&format!("{section}-{batch}")));
    let RunningPipeline { pool, producer, .. } = start_pipeline(
        vectorizer(),
        TableScorer,
        MemorySink::new(),
        &config(source.len(), dir.clone()),
    )
    .expect("fresh log directory must open");

    let chunks: Vec<Vec<RawLog>> = source.chunks(batch).map(|c| c.to_vec()).collect();
    let mut lat: Vec<u64> = Vec::with_capacity(source.len());
    let mut arrived = 0usize;
    let started = Instant::now();
    for chunk in chunks {
        arrived += chunk.len();
        if let Some((schedule, speed)) = schedule {
            // The batch can flush once its last record has arrived.
            pace(started, schedule.offset(arrived - 1, speed));
        }
        let n = chunk.len();
        let t0 = Instant::now();
        let sent = producer
            .send_batch(0, chunk)
            .expect("unfaulted batch must land");
        assert_eq!(sent, n);
        let us = t0.elapsed().as_micros() as u64;
        for _ in 0..n {
            lat.push(us);
        }
    }
    let fed = started.elapsed();
    drop(producer);
    let summary = pool.join();
    assert_eq!(summary.logs, source.len() as u64, "lost records");
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    lat.sort_unstable();
    Row {
        section: section.into(),
        mode: if durable { "durable" } else { "in_memory" }.into(),
        batch,
        logs: summary.logs,
        throughput_logs_per_sec: source.len() as f64 / fed.as_secs_f64(),
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
    }
}

/// The durability ack path in isolation: a bare partition WAL, no
/// detection workers competing for the CPU (this box may be a single
/// core, where the pipeline runs above time-share the feed with the
/// drain). Batch 1 is one `write(2)`+flush per record — the seed's
/// per-record-flush ack; larger batches encode the chunk into one
/// contiguous buffer and pay one write+flush for all of it. This is the
/// measurement behind the "group commit buys ≥ 3× over per-record
/// flush" gate.
fn run_wal_ack(source: &[RawLog], batch: usize, n: usize) -> Row {
    let dir = scratch(&format!("ack-{batch}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).expect("fresh WAL opens");
    let entries: Vec<(&str, u64, &str)> = source
        .iter()
        .map(|l| (l.system.as_str(), l.timestamp, l.message.as_str()))
        .collect();
    let mut lat: Vec<u64> = Vec::with_capacity(n);
    let started = Instant::now();
    if batch == 1 {
        for &(system, ts, msg) in &entries {
            let t0 = Instant::now();
            wal.append(system, ts, msg).expect("append lands");
            lat.push(t0.elapsed().as_micros() as u64);
        }
    } else {
        for chunk in entries.chunks(batch) {
            let t0 = Instant::now();
            let range = wal.append_batch(chunk).expect("batch lands");
            assert_eq!((range.end - range.start) as usize, chunk.len());
            let us = t0.elapsed().as_micros() as u64;
            for _ in 0..chunk.len() {
                lat.push(us);
            }
        }
    }
    let fed = started.elapsed();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    lat.sort_unstable();
    Row {
        section: "wal_ack_path".into(),
        mode: "durable_wal".into(),
        batch,
        logs: n as u64,
        throughput_logs_per_sec: n as f64 / fed.as_secs_f64(),
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<22} {:<10} {:>5} {:>14.0} {:>8} {:>8} {:>8}",
        r.section, r.mode, r.batch, r.throughput_logs_per_sec, r.p50_us, r.p95_us, r.p99_us
    );
}

fn main() {
    let n = if quick_mode() { 20_000 } else { 120_000 };
    let source = stream(n);
    let mut rows: Vec<Row> = Vec::new();

    println!("== group-commit WAL: durable vs in-memory ingest ==");
    println!(
        "{:<22} {:<10} {:>5} {:>14} {:>8} {:>8} {:>8}",
        "section", "mode", "batch", "logs/s", "p50 µs", "p95 µs", "p99 µs"
    );

    // The ack path in isolation: how much does group commit shave off
    // the per-record durability flush?
    for batch in [1usize, 16, 64, 256] {
        let r = run_wal_ack(&source, batch, n);
        print_row(&r);
        rows.push(r);
    }

    // Max-rate pipeline sweep: end-to-end ingest with detection workers
    // live. (On a single-core host the workers time-share the feed, so
    // these rows under-state the producer-side gain the wal_ack_path
    // section isolates.)
    let mem = run_ingest(&source, false, 1, "max_rate", None);
    print_row(&mem);
    rows.push(mem);
    for batch in [1usize, 16, 64, 256] {
        let r = run_ingest(&source, true, batch, "max_rate", None);
        print_row(&r);
        rows.push(r);
    }

    // The Fig. 7 operating point: the replay harness's steady schedule
    // at 16× (~100k logs/s offered).
    let schedule = ReplaySchedule {
        shape: ReplayShape::Steady,
        mean_interarrival: Duration::from_micros(150),
    };
    let mem_paced = run_ingest(
        &source,
        false,
        1,
        "fig7_operating_point",
        Some((schedule, 16)),
    );
    print_row(&mem_paced);
    rows.push(mem_paced);
    let dur_paced = run_ingest(
        &source,
        true,
        64,
        "fig7_operating_point",
        Some((schedule, 16)),
    );
    print_row(&dur_paced);
    rows.push(dur_paced);

    // The gates. Indexing: rows[0..4] = wal_ack batches {1,16,64,256},
    // rows[4] = in-memory max-rate, rows[5..9] = durable pipeline
    // batches, rows[9] = in-memory paced, rows[10] = durable@64 paced.
    let speedup = rows[2].throughput_logs_per_sec / rows[0].throughput_logs_per_sec;
    println!("durable ack path, batch 64 over per-record flush: {speedup:.1}x");
    assert!(
        speedup >= 3.0,
        "group commit must buy >= 3x over per-record flush at batch 64, got {speedup:.2}x"
    );
    let paced_ratio = rows[9].throughput_logs_per_sec / rows[10].throughput_logs_per_sec;
    println!("in-memory / durable throughput at the Fig. 7 operating point: {paced_ratio:.2}x");
    assert!(
        paced_ratio <= 1.5,
        "durable mode must hold within 1.5x of in-memory at the Fig. 7 operating point, \
         got {paced_ratio:.2}x"
    );
    let vs_mem = rows[10].throughput_logs_per_sec / rows[9].throughput_logs_per_sec;
    if quick_mode() {
        // The CI smoke gate: at the operating point, durable-mode
        // throughput holds at least half of in-memory.
        println!("quick smoke: durable/in-memory at the operating point: {vs_mem:.2}x");
        assert!(
            vs_mem >= 0.5,
            "quick smoke: durable must reach >= 0.5x in-memory throughput, got {vs_mem:.2}x"
        );
    }

    write_result("wal_group_commit", &rows);
}
