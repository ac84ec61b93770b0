//! `pipeline.reports` must tell the truth while the daemon is alive and
//! after a recovery: a `/metrics` scrape of a *running* daemon sees the
//! reports delivered so far, and a daemon restarted on the same WAL
//! directory counts only what it delivered itself — not the cumulative
//! total its recovered cursors carry.
//!
//! One test, alone in its binary: it reads the process-global telemetry
//! registry, which any concurrently running pipeline would also move.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MemorySink, PipelineConfig, RawLog, SequenceScorer,
    WalOptions,
};
use logsynergy_serve::{parse_tenants, start, Daemon, ServeConfig};
use logsynergy_telemetry as telemetry;

const VOCAB: [&str; 4] = [
    "session opened for user root",
    "packet responder terminating early",
    "cache eviction pass completed",
    "heartbeat missed twice across consecutive intervals",
];

/// Key-pure scorer (a function of the window's distinct events), so the
/// restarted daemon's empty pattern library changes no verdict.
#[derive(Clone)]
struct TableScorer;
impl SequenceScorer for TableScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        let mut distinct = events.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let acc: f32 = distinct
            .iter()
            .flat_map(|&e| &table[e as usize])
            .map(|v| v.abs())
            .sum();
        (acc - acc.floor()).clamp(0.0, 1.0)
    }
}

fn source(range: std::ops::Range<usize>) -> Vec<RawLog> {
    range
        .map(|i| RawLog {
            system: "web".into(),
            timestamp: i as u64,
            // A drifting phase, so windows differ and some are anomalous.
            message: VOCAB[(i + i / 7) % VOCAB.len()].to_string(),
        })
        .collect()
}

fn vectorizer() -> EventVectorizer {
    let mut v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
    v.warm_start(VOCAB.iter().copied());
    v
}

fn start_daemon(wal_dir: &std::path::Path, sink: MemorySink) -> Daemon {
    start(
        ServeConfig {
            pipeline: PipelineConfig {
                partitions: 1,
                wal: Some(WalOptions::at(wal_dir)),
                ..PipelineConfig::default()
            },
            ..ServeConfig::default()
        },
        parse_tenants("tenant acme token=s3").unwrap(),
        None,
        vectorizer(),
        TableScorer,
        sink,
    )
    .expect("daemon starts")
}

/// Streams `logs` over one connection and waits for the summary frame,
/// i.e. until every record is acknowledged.
fn stream(addr: SocketAddr, logs: &[RawLog]) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut payload = String::from("HELLO s3\n");
    for log in logs {
        payload.push_str(&format!(
            "{{\"system\":\"{}\",\"timestamp\":{},\"message\":\"{}\"}}\n",
            log.system, log.timestamp, log.message
        ));
    }
    conn.write_all(payload.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut responses = String::new();
    conn.read_to_string(&mut responses).expect("read responses");
    let accepted = format!("\"accepted\":{}", logs.len());
    assert!(responses.contains(&accepted), "{responses}");
}

/// Polls the registry until `name` has moved by `want` since `before`
/// (the workers run behind the acknowledgement), or five seconds pass.
fn wait_for_delta(before: &telemetry::Snapshot, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let delta = telemetry::global().snapshot().counter_delta(before, name);
        if delta >= want || Instant::now() >= deadline {
            return delta;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn reports_counter_is_live_and_counts_only_this_process() {
    if !telemetry::enabled() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("lswal-live-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // What the first 600 records must raise, from an in-process run
    // (verdicts are invariant under batching and transport).
    let expected = run_pipeline_with(
        source(0..600),
        vectorizer(),
        TableScorer,
        MemorySink::new(),
        PipelineConfig::unbatched(),
    )
    .reports;
    assert!(expected > 0, "the stream must raise reports");

    // First life: the counter moves while the daemon is still up. (A
    // worker delivers a batch's reports, then counts them — so once the
    // counter reads `expected`, the sink holds them all.)
    let sink1 = MemorySink::new();
    let before = telemetry::global().snapshot();
    let daemon = start_daemon(&dir, sink1.clone());
    stream(daemon.addr(), &source(0..600));
    assert_eq!(
        wait_for_delta(&before, "pipeline.reports", expected),
        expected,
        "a scrape of the running daemon sees every report delivered so far"
    );
    assert_eq!(sink1.len() as u64, expected);
    let first = daemon.drain();
    assert_eq!(first.reports, sink1.len() as u64);
    let after_first = telemetry::global().snapshot();
    assert_eq!(
        after_first.counter_delta(&before, "pipeline.reports"),
        first.reports,
        "draining adds nothing on top of the per-batch ticks"
    );

    // Second life on the same log: the cursor restores the cumulative
    // count into the summary, but the registry counts this process only.
    let sink2 = MemorySink::new();
    let daemon = start_daemon(&dir, sink2.clone());
    stream(daemon.addr(), &source(600..1000));
    let second = daemon.drain();
    assert_eq!(
        second.logs, 1000,
        "accounting is cumulative across the restart"
    );
    assert!(
        !sink2.is_empty(),
        "the second stream must raise reports too"
    );
    assert_eq!(second.reports, (sink1.len() + sink2.len()) as u64);
    assert_eq!(
        telemetry::global()
            .snapshot()
            .counter_delta(&after_first, "pipeline.reports"),
        sink2.len() as u64,
        "a restarted worker must not re-add what the first life delivered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
