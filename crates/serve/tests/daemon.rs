//! End-to-end daemon tests over real sockets.
//!
//! The centerpiece is network/in-process parity: two tenants stream
//! 100k mixed NDJSON + syslog lines through the daemon, and every
//! verdict must be bitwise identical (`f32` probabilities included) to
//! an in-process `run_pipeline_with` run over the same records. For the
//! comparison to be meaningful the workload pins one system per
//! partition (windows are assembled per *worker* stream, so the
//! per-partition arrival order must match between the runs — a single
//! system per partition makes that order exactly the per-system send
//! order in both).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MemorySink, PipelineConfig, RawLog, Report, SequenceScorer,
    WalOptions,
};
use logsynergy_serve::{parse_tenants, start, ServeConfig};

const EMBED_DIM: usize = 8;

/// Eight structurally distinct messages (no shared tokens between
/// same-length pairs) so Drain never merges them: the template space is
/// fixed after warm start and identical in every run.
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

/// Content-pure scorer: the verdict is a function of the embedding
/// vectors behind the window (never the event-id numbering), so runs
/// that assign ids in different orders still agree bitwise.
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
        let frac = acc - acc.floor();
        frac.clamp(0.0, 1.0)
    }
}

fn vectorizer() -> EventVectorizer {
    let mut v = EventVectorizer::new(SystemId::SystemB, EMBED_DIM, LeiConfig::default());
    v.warm_start(VOCAB.iter().copied());
    v
}

/// Per-system source: timestamps count up from 0 so both wire framings
/// can carry them exactly, messages cycle through the vocabulary with a
/// per-system phase.
fn system_source(system: &str, phase: usize, n: usize) -> Vec<RawLog> {
    (0..n)
        .map(|i| RawLog {
            system: system.to_string(),
            timestamp: i as u64,
            message: VOCAB[(i + phase) % VOCAB.len()].to_string(),
        })
        .collect()
}

/// Renders a record in the syslog framing ("Jan dd HH:MM:SS host msg")
/// whose parsed timestamp round-trips to `log.timestamp` (valid for
/// timestamps below 27 days).
fn syslog_line(log: &RawLog) -> String {
    let t = log.timestamp;
    let (day, rem) = (t / 86_400 + 1, t % 86_400);
    assert!(day <= 28);
    format!(
        "Jan {day} {:02}:{:02}:{:02} {} {}",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60,
        log.system,
        log.message
    )
}

fn ndjson_line(log: &RawLog) -> String {
    format!(
        "{{\"system\":\"{}\",\"timestamp\":{},\"message\":\"{}\"}}",
        log.system, log.timestamp, log.message
    )
}

/// Streams `logs` (alternating framings) over one authenticated
/// connection, half-closes, and returns the server's final summary
/// frame (the last response line).
fn stream_tenant(addr: SocketAddr, token: &str, logs: &[RawLog]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("HELLO {token}\n").as_bytes())
        .unwrap();
    let mut payload = String::new();
    for (i, log) in logs.iter().enumerate() {
        if i % 2 == 0 {
            payload.push_str(&ndjson_line(log));
        } else {
            payload.push_str(&syslog_line(log));
        }
        payload.push('\n');
        if payload.len() > 1 << 16 {
            stream.write_all(payload.as_bytes()).unwrap();
            payload.clear();
        }
    }
    stream.write_all(payload.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut responses = String::new();
    stream
        .read_to_string(&mut responses)
        .expect("read responses");
    responses
        .lines()
        .last()
        .expect("server must answer with a summary frame")
        .to_string()
}

fn summary_field(frame: &str, field: &str) -> u64 {
    let value = serde_json::parse_value(frame).expect("summary frame is JSON");
    let entries = value.as_object().expect("summary frame is an object");
    serde::field(entries, field)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("summary frame missing {field}: {frame}"))
}

fn by_system(reports: Vec<Report>, system: &str) -> Vec<Report> {
    reports.into_iter().filter(|r| r.system == system).collect()
}

#[test]
fn hundred_k_lines_match_the_in_process_run_bitwise() {
    // One system per partition (FNV % 4): web-0 → 0, web-3 → 1,
    // web-2 → 2, web-1 → 3. Tenant A owns the even partitions' systems,
    // tenant B the odd ones.
    let systems = ["web-0", "web-3", "web-2", "web-1"];
    let per_system = 25_000usize;
    let sources: Vec<Vec<RawLog>> = systems
        .iter()
        .enumerate()
        .map(|(phase, s)| system_source(s, phase, per_system))
        .collect();
    for (i, s) in systems.iter().enumerate() {
        let probe = LogsProbe::partition_of(s);
        assert_eq!(probe, i, "workload precondition: one system per partition");
    }

    let config = ServeConfig {
        pipeline: PipelineConfig {
            partitions: 4,
            partition_capacity: 4096,
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let specs = parse_tenants("tenant tenant-a token=ta\ntenant tenant-b token=tb").unwrap();
    let sink = MemorySink::new();
    let daemon = start(
        config.clone(),
        specs,
        None,
        vectorizer(),
        TableScorer,
        sink.clone(),
    )
    .expect("daemon starts");
    let addr = daemon.addr();

    // Tenant A streams web-0 + web-2 interleaved, tenant B web-3 + web-1,
    // concurrently over two real sockets.
    let (a0, a2) = (sources[0].clone(), sources[2].clone());
    let (b3, b1) = (sources[1].clone(), sources[3].clone());
    let interleave = |x: Vec<RawLog>, y: Vec<RawLog>| -> Vec<RawLog> {
        x.into_iter()
            .zip(y)
            .flat_map(|(a, b)| [a, b])
            .collect::<Vec<_>>()
    };
    let client_a = std::thread::spawn(move || stream_tenant(addr, "ta", &interleave(a0, a2)));
    let interleave = |x: Vec<RawLog>, y: Vec<RawLog>| -> Vec<RawLog> {
        x.into_iter()
            .zip(y)
            .flat_map(|(a, b)| [a, b])
            .collect::<Vec<_>>()
    };
    let client_b = std::thread::spawn(move || stream_tenant(addr, "tb", &interleave(b3, b1)));
    let summary_a = client_a.join().unwrap();
    let summary_b = client_b.join().unwrap();
    for (tenant, frame) in [("a", &summary_a), ("b", &summary_b)] {
        assert_eq!(
            summary_field(frame, "accepted"),
            (2 * per_system) as u64,
            "tenant {tenant} summary: {frame}"
        );
        assert_eq!(summary_field(frame, "rejected"), 0, "{frame}");
        assert_eq!(summary_field(frame, "shed"), 0, "{frame}");
        assert_eq!(summary_field(frame, "parse_errors"), 0, "{frame}");
    }

    let stats = daemon.ingest_stats();
    assert_eq!(stats.accepted, (4 * per_system) as u64);
    assert_eq!(stats.parse_errors + stats.rejected + stats.shed, 0);

    // SIGTERM-equivalent: graceful drain must lose zero accepted records
    // and account for every window exactly once.
    let net = daemon.drain();
    assert_eq!(net.logs, (4 * per_system) as u64, "drain lost records");
    assert_eq!(
        net.pattern_hits
            + net.cache_hits
            + net.model_calls
            + net.degraded
            + net.shed
            + net.quarantined,
        net.windows,
        "six-bucket accounting must be exact"
    );
    assert_eq!(net.quarantined, 0);
    assert_eq!(net.shed, 0);

    // The same records in-process, same partitioning.
    let source: Vec<RawLog> = {
        let mut merged = Vec::with_capacity(4 * per_system);
        for i in 0..per_system {
            for s in &sources {
                merged.push(s[i].clone());
            }
        }
        merged
    };
    let local_sink = MemorySink::new();
    let local = run_pipeline_with(
        source,
        vectorizer(),
        TableScorer,
        local_sink.clone(),
        config.pipeline,
    );

    assert_eq!(net.logs, local.logs);
    assert_eq!(net.windows, local.windows);
    assert_eq!(net.reports, local.reports);
    assert_eq!(net.pattern_hits, local.pattern_hits);
    assert_eq!(net.cache_hits, local.cache_hits);
    assert_eq!(net.model_calls, local.model_calls);
    assert_eq!((net.degraded, net.shed), (local.degraded, local.shed));

    assert!(
        local.reports > 0,
        "workload must produce anomalies to compare"
    );
    for system in systems {
        let got = by_system(sink.reports(), system);
        let want = by_system(local_sink.reports(), system);
        assert_eq!(
            got.len(),
            want.len(),
            "{system}: report count over the wire differs"
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{system}: wire verdict differs from in-process");
            assert_eq!(
                g.probability.to_bits(),
                w.probability.to_bits(),
                "{system}: probability must be bitwise identical"
            );
        }
    }
}

/// Mirror of the buffer's FNV-1a routing, for workload preconditions.
struct LogsProbe;
impl LogsProbe {
    fn partition_of(system: &str) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in system.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % 4) as usize
    }
}

#[test]
fn drain_flushes_in_flight_connections() {
    let config = ServeConfig {
        drain_timeout: Duration::from_secs(10),
        pipeline: PipelineConfig {
            partitions: 2,
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let specs = parse_tenants("tenant acme token=s3").unwrap();
    let sink = MemorySink::new();
    let daemon = start(config, specs, None, vectorizer(), TableScorer, sink).unwrap();
    let addr = daemon.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"HELLO s3\n").unwrap();
    let logs = system_source("inflight", 0, 600);
    for log in &logs[..300] {
        stream
            .write_all((ndjson_line(log) + "\n").as_bytes())
            .unwrap();
    }
    // Drain begins while the connection is open and mid-stream...
    daemon.initiate_drain();
    // ...and the remaining records, sent *after* drain started but
    // before the flush budget elapses, must still be ingested.
    for log in &logs[300..] {
        stream
            .write_all((ndjson_line(log) + "\n").as_bytes())
            .unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut responses = String::new();
    stream.read_to_string(&mut responses).unwrap();
    let last = responses.lines().last().expect("summary frame");
    assert_eq!(summary_field(last, "accepted"), 600, "{last}");
    assert!(last.contains("\"draining\":true"), "{last}");

    let summary = daemon.drain();
    assert_eq!(summary.logs, 600, "flush-then-drain must lose nothing");
}

#[test]
fn auth_is_required_and_bad_tokens_are_rejected() {
    let specs = parse_tenants("tenant acme token=good").unwrap();
    let sink = MemorySink::new();
    let daemon = start(
        ServeConfig::default(),
        specs,
        None,
        vectorizer(),
        TableScorer,
        sink,
    )
    .unwrap();
    let addr = daemon.addr();

    // Wrong token: 401 and the connection closes.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"HELLO wrong\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"code\":401"), "{resp}");

    // Records before HELLO: 401 and the connection closes.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"{\"message\":\"sneaky\"}\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"code\":401"), "{resp}");

    // Good token: records flow, malformed lines are counted and answered
    // with 400 frames without killing the connection.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"HELLO good\n").unwrap();
    s.write_all(b"not json and not syslog\n").unwrap();
    s.write_all(b"{\"message\":\"fine\"}\nQUIT\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"code\":400"), "{resp}");
    let last = resp.lines().last().unwrap();
    assert_eq!(summary_field(last, "accepted"), 1, "{last}");
    assert_eq!(summary_field(last, "parse_errors"), 1, "{last}");

    let stats = daemon.ingest_stats();
    assert_eq!((stats.accepted, stats.parse_errors), (1, 1));
    let summary = daemon.drain();
    assert_eq!(summary.logs, 1);
}

#[test]
fn blank_line_keepalives_cannot_dodge_the_auth_deadline() {
    // Regression: the deadline used to be checked only on idle read
    // timeouts, so a client that kept bytes flowing without ever
    // authenticating camped on a handler slot forever. Now it is
    // enforced on every pass.
    let config = ServeConfig {
        auth_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let specs = parse_tenants("tenant acme token=t").unwrap();
    let daemon = start(
        config,
        specs,
        None,
        vectorizer(),
        TableScorer,
        MemorySink::new(),
    )
    .unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    let start_t = Instant::now();
    let mut closed = false;
    while start_t.elapsed() < Duration::from_secs(5) {
        if s.write_all(b"\n").is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        closed,
        "a never-authenticating connection streaming blank lines must be closed"
    );
    assert!(
        start_t.elapsed() >= Duration::from_millis(300),
        "closed before the auth deadline: {:?}",
        start_t.elapsed()
    );
    // The handler slot is free again: a well-behaved client still works.
    let mut ok = TcpStream::connect(daemon.addr()).unwrap();
    ok.write_all(b"HELLO t\n{\"message\":\"fine\"}\nQUIT\n")
        .unwrap();
    let mut resp = String::new();
    ok.read_to_string(&mut resp).unwrap();
    assert_eq!(summary_field(resp.lines().last().unwrap(), "accepted"), 1);
    let summary = daemon.drain();
    assert_eq!(summary.logs, 1);
}

#[test]
fn a_newline_free_flood_is_cut_off_at_the_line_cap() {
    // Regression: `read_line` used to append into an uncapped buffer, so
    // a single socket streaming bytes with no newline could grow memory
    // without bound. The daemon now rejects the line at 64 KiB and
    // disconnects.
    let specs = parse_tenants("tenant acme token=t").unwrap();
    let daemon = start(
        ServeConfig::default(),
        specs,
        None,
        vectorizer(),
        TableScorer,
        MemorySink::new(),
    )
    .unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    s.write_all(b"HELLO t\n").unwrap();
    let chunk = [b'a'; 8192];
    let mut sent = 0usize;
    let mut cut_off = false;
    while sent < 64 << 20 {
        match s.write_all(&chunk) {
            Ok(()) => sent += chunk.len(),
            Err(_) => {
                cut_off = true;
                break;
            }
        }
    }
    assert!(
        cut_off,
        "server swallowed {sent} newline-free bytes without disconnecting"
    );
    drop(s);
    let (stats, summary) = daemon.drain_with_stats();
    assert_eq!(stats.accepted, 0);
    assert_eq!(summary.logs, 0, "no complete record was ever framed");
}

#[test]
fn deeply_nested_json_costs_an_error_frame_not_the_daemon() {
    // Regression: the JSON parser recursed once per `[` with no limit, and
    // a line is parsed before the HELLO check — so one anonymous 60 KB
    // line (legal under the 64 KiB cap) overflowed the handler's stack,
    // which is a process abort, not a panic the handler's isolation layer
    // can catch. Nesting is now capped: the line is an ordinary parse
    // error, 401 before HELLO and 400 after.
    let specs = parse_tenants("tenant acme token=t").unwrap();
    let daemon = start(
        ServeConfig::default(),
        specs,
        None,
        vectorizer(),
        TableScorer,
        MemorySink::new(),
    )
    .unwrap();
    let addr = daemon.addr();
    let hostile = format!("{{\"a\":{}\n", "[".repeat(60_000));
    let exchange = |lines: &[&str]| {
        let mut s = TcpStream::connect(addr).unwrap();
        for line in lines {
            s.write_all(line.as_bytes()).unwrap();
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    };

    let resp = exchange(&[&hostile]);
    assert!(resp.contains("\"code\":401"), "{resp}");

    let resp = exchange(&["HELLO t\n", &hostile, "{\"message\":\"still here\"}\n"]);
    assert!(resp.contains("\"code\":400"), "{resp}");
    assert!(resp.contains("nesting too deep"), "{resp}");
    let last = resp.lines().last().unwrap();
    assert_eq!(summary_field(last, "accepted"), 1, "{last}");
    assert_eq!(summary_field(last, "parse_errors"), 1, "{last}");

    // The daemon still answers a fresh connection.
    let resp = exchange(&["HELLO t\n", "{\"message\":\"next client\"}\n"]);
    assert_eq!(
        summary_field(resp.lines().last().unwrap(), "accepted"),
        1,
        "{resp}"
    );
    let (stats, summary) = daemon.drain_with_stats();
    assert_eq!((stats.accepted, stats.parse_errors), (2, 1));
    assert_eq!(summary.logs, 2);
}

#[test]
fn parse_error_frames_are_sampled_not_per_line() {
    // Same cadence as the quota/shed paths: the first malformed line is
    // answered, then one frame per 1024 — never a frame per line, never
    // permanent silence.
    let specs = parse_tenants("tenant acme token=t").unwrap();
    let daemon = start(
        ServeConfig::default(),
        specs,
        None,
        vectorizer(),
        TableScorer,
        MemorySink::new(),
    )
    .unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    s.write_all(b"HELLO t\n").unwrap();
    for _ in 0..5 {
        s.write_all(b"definitely not parseable\n").unwrap();
    }
    s.write_all(b"QUIT\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let malformed_frames = resp.lines().filter(|l| l.contains("\"code\":400")).count();
    assert_eq!(
        malformed_frames, 1,
        "five malformed lines must buy exactly one 400 frame: {resp}"
    );
    let last = resp.lines().last().unwrap();
    assert_eq!(summary_field(last, "parse_errors"), 5, "{last}");
    daemon.drain();
}

#[test]
fn tenants_file_hot_reloads_without_dropping_connections() {
    let dir = std::env::temp_dir().join(format!("logsynergy-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenants.conf");
    std::fs::write(
        &path,
        "tenant alpha token=alpha-t\ntenant beta token=beta-t\n",
    )
    .unwrap();

    let config = ServeConfig {
        reload_poll: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let specs = parse_tenants(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let sink = MemorySink::new();
    let daemon = start(
        config,
        specs,
        Some(path.clone()),
        vectorizer(),
        TableScorer,
        sink,
    )
    .unwrap();
    let addr = daemon.addr();

    // alpha connects and starts streaming before the reload.
    let mut alpha = TcpStream::connect(addr).unwrap();
    alpha.write_all(b"HELLO alpha-t\n").unwrap();
    alpha
        .write_all(b"{\"system\":\"a1\",\"message\":\"before reload\"}\n")
        .unwrap();

    // Rewrite the file: beta is gone, gamma appears.
    std::fs::write(
        &path,
        "tenant alpha token=alpha-t\ntenant gamma token=gamma-t\n",
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Poll by trying the new tenant; the daemon reloads on mtime.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"HELLO gamma-t\nQUIT\n").unwrap();
        let mut resp = String::new();
        probe.read_to_string(&mut resp).unwrap();
        if resp.contains("\"tenant\":\"gamma\"") {
            break;
        }
        assert!(Instant::now() < deadline, "reload never observed: {resp}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // beta's token no longer authenticates.
    let mut beta = TcpStream::connect(addr).unwrap();
    beta.write_all(b"HELLO beta-t\n").unwrap();
    let mut resp = String::new();
    beta.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("\"code\":401"), "{resp}");

    // alpha's pre-reload connection kept working the whole time.
    alpha
        .write_all(b"{\"system\":\"a1\",\"message\":\"after reload\"}\nQUIT\n")
        .unwrap();
    let mut resp = String::new();
    alpha.read_to_string(&mut resp).unwrap();
    let last = resp.lines().last().unwrap();
    assert_eq!(
        summary_field(last, "accepted"),
        2,
        "live connection must survive the reload: {last}"
    );

    let summary = daemon.drain();
    assert!(summary.logs >= 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Key-pure scorer: the verdict depends only on the window's *distinct*
/// event set — the pattern library's key granularity. The library is an
/// in-memory tier that starts empty after a daemon restart (exactly like
/// an LRU eviction), so cross-restart bitwise verdict parity requires
/// the model score to agree with any library-stored verdict, i.e. to be
/// a function of the pattern key (see `crates/pipeline/tests/durable.rs`).
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

/// Aperiodic per-system source (enough distinct window event-sets that
/// the key-pure scorer reports on some of them).
fn wal_source(system: &str, phase: usize, n: usize) -> Vec<RawLog> {
    (0..n)
        .map(|i| RawLog {
            system: system.to_string(),
            timestamp: i as u64,
            message: VOCAB[(i * 7 + i / 4 + phase) % VOCAB.len()].to_string(),
        })
        .collect()
}

/// Writes `logs` (alternating framings) onto an open connection.
fn write_lines(conn: &mut TcpStream, logs: &[RawLog]) {
    let mut payload = String::new();
    for (i, log) in logs.iter().enumerate() {
        if i % 2 == 0 {
            payload.push_str(&ndjson_line(log));
        } else {
            payload.push_str(&syslog_line(log));
        }
        payload.push('\n');
        if payload.len() > 1 << 16 {
            conn.write_all(payload.as_bytes()).unwrap();
            payload.clear();
        }
    }
    conn.write_all(payload.as_bytes()).unwrap();
}

/// Wire-to-disk parity: the PR 8 two-tenant socket workload rerun in
/// `--wal-dir` mode, with a SIGTERM-equivalent drain landing mid-stream
/// and a second daemon restarted over the same log directory to finish
/// the job. Cumulative accounting and per-system verdicts must be
/// bitwise identical to one uninterrupted in-process run.
#[test]
fn wal_mode_matches_the_in_process_run_bitwise_across_a_restart() {
    let systems = ["web-0", "web-3", "web-2", "web-1"];
    let per_system = 2_000usize;
    // Mid-window, mid-step: the restart boundary must be re-primed from
    // the recovered cursor context, not rounded to a window edge.
    let split = 1_013usize;
    let sources: Vec<Vec<RawLog>> = systems
        .iter()
        .enumerate()
        .map(|(phase, s)| wal_source(s, phase, per_system))
        .collect();
    for (i, s) in systems.iter().enumerate() {
        assert_eq!(LogsProbe::partition_of(s), i, "one system per partition");
    }

    let dir = std::env::temp_dir().join(format!("lswal-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        drain_timeout: Duration::from_secs(10),
        pipeline: PipelineConfig {
            partitions: 4,
            partition_capacity: 4096,
            wal: Some(WalOptions {
                // Small segments so both daemon lifetimes roll segments.
                segment_max_bytes: 4096,
                ..WalOptions::at(dir.clone())
            }),
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let tenants = || parse_tenants("tenant tenant-a token=ta\ntenant tenant-b token=tb").unwrap();
    let interleave = |x: &[RawLog], y: &[RawLog]| -> Vec<RawLog> {
        x.iter()
            .cloned()
            .zip(y.iter().cloned())
            .flat_map(|(a, b)| [a, b])
            .collect()
    };

    // First daemon lifetime: each system's prefix, with the drain
    // (SIGTERM) initiated while both tenants are still mid-stream.
    let sink1 = MemorySink::new();
    let daemon = start(
        config.clone(),
        tenants(),
        None,
        vectorizer(),
        KeyScorer,
        sink1.clone(),
    )
    .expect("daemon starts in wal mode");
    let addr = daemon.addr();

    let logs_a = interleave(&sources[0][..split], &sources[2][..split]);
    let logs_b = interleave(&sources[1][..split], &sources[3][..split]);
    let mut conn_a = TcpStream::connect(addr).unwrap();
    let mut conn_b = TcpStream::connect(addr).unwrap();
    conn_a.write_all(b"HELLO ta\n").unwrap();
    conn_b.write_all(b"HELLO tb\n").unwrap();
    let head = 200usize;
    write_lines(&mut conn_a, &logs_a[..head]);
    write_lines(&mut conn_b, &logs_b[..head]);
    // SIGTERM arrives mid-stream; everything already in flight (and
    // everything both clients flush within the drain budget) must land.
    daemon.initiate_drain();
    write_lines(&mut conn_a, &logs_a[head..]);
    write_lines(&mut conn_b, &logs_b[head..]);
    for (tenant, mut conn) in [("a", conn_a), ("b", conn_b)] {
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        let last = resp.lines().last().expect("summary frame");
        assert_eq!(
            summary_field(last, "accepted"),
            (2 * split) as u64,
            "tenant {tenant}: {last}"
        );
        assert_eq!(summary_field(last, "shed"), 0, "tenant {tenant}: {last}");
        assert!(
            last.contains("\"draining\":true"),
            "tenant {tenant}: {last}"
        );
    }
    let first = daemon.drain();
    assert_eq!(first.logs, (4 * split) as u64, "drain lost records");
    assert_eq!(first.crashed_workers, 0);

    // Second daemon lifetime over the same directory: the detection
    // workers resume from the per-partition cursors and the tenants
    // finish their streams.
    let sink2 = MemorySink::new();
    let daemon = start(
        config.clone(),
        tenants(),
        None,
        vectorizer(),
        KeyScorer,
        sink2.clone(),
    )
    .expect("daemon restarts over the log directory");
    let addr = daemon.addr();
    let rest = per_system - split;
    let tail_a = interleave(&sources[0][split..], &sources[2][split..]);
    let tail_b = interleave(&sources[1][split..], &sources[3][split..]);
    for (tenant, token, tail) in [("a", "ta", tail_a), ("b", "tb", tail_b)] {
        let last = stream_tenant(addr, token, &tail);
        assert_eq!(
            summary_field(&last, "accepted"),
            (2 * rest) as u64,
            "tenant {tenant}: {last}"
        );
    }
    let second = daemon.drain();

    // Cumulative exactly-once accounting across the restart.
    assert_eq!(second.logs, (4 * per_system) as u64, "cumulative log count");
    assert_eq!(second.crashed_workers, 0);
    assert_eq!(
        second.pattern_hits
            + second.cache_hits
            + second.model_calls
            + second.degraded
            + second.shed
            + second.quarantined,
        second.windows,
        "six-bucket accounting must be exact: {second:?}"
    );

    // One uninterrupted in-process run is the reference.
    let source: Vec<RawLog> = {
        let mut merged = Vec::with_capacity(4 * per_system);
        for i in 0..per_system {
            for s in &sources {
                merged.push(s[i].clone());
            }
        }
        merged
    };
    let local_sink = MemorySink::new();
    let local = run_pipeline_with(
        source,
        vectorizer(),
        KeyScorer,
        local_sink.clone(),
        PipelineConfig {
            partitions: 4,
            partition_capacity: 4096,
            ..PipelineConfig::default()
        },
    );
    assert!(local.reports > 0, "workload must report: {local:?}");
    assert_eq!(second.windows, local.windows, "no window lost or doubled");
    assert_eq!(second.reports, local.reports, "cumulative report count");
    assert_eq!(
        second.pattern_hits + second.cache_hits + second.model_calls,
        local.pattern_hits + local.cache_hits + local.model_calls,
        "every window verdicts through some tier"
    );

    // Per-system verdict streams stitch bitwise across the restart.
    let mut stitched = sink1.reports();
    stitched.extend(sink2.reports());
    for system in systems {
        let got = by_system(stitched.clone(), system);
        let want = by_system(local_sink.reports(), system);
        assert_eq!(got.len(), want.len(), "{system}: report count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{system}: wire-to-disk verdict differs");
            assert_eq!(
                g.probability.to_bits(),
                w.probability.to_bits(),
                "{system}: probability must be bitwise identical"
            );
        }
    }

    // Both lifetimes drained clean: every partition's cursor covers its
    // whole stream and nothing waits for replay.
    for p in 0..4usize {
        let r = logsynergy::wal::recover_partition(&dir.join(format!("p{p}"))).unwrap();
        assert_eq!(r.cursor.next_seq, per_system as u64, "partition {p}");
        assert!(r.replay.is_empty(), "partition {p} left unacked records");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scorer slow enough to build queue depth, for shed-path coverage.
#[derive(Clone)]
struct SlowScorer;
impl SequenceScorer for SlowScorer {
    fn score(&self, _events: &[u32], _table: &[Vec<f32>]) -> f32 {
        std::thread::sleep(Duration::from_millis(2));
        0.1
    }
}

#[test]
fn watermark_sheds_with_429_style_frames_and_exact_accounting() {
    let config = ServeConfig {
        pipeline: PipelineConfig {
            partitions: 1,
            partition_capacity: 8,
            shed_watermark: 4,
            score_cache: 0,
            batch_windows: 1,
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let specs = parse_tenants("tenant flood token=f").unwrap();
    let sink = MemorySink::new();
    let daemon = start(config, specs, None, vectorizer(), SlowScorer, sink).unwrap();
    let addr = daemon.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"HELLO f\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    let logs = system_source("burst", 0, 3000);
    for log in &logs {
        stream
            .write_all((ndjson_line(log) + "\n").as_bytes())
            .unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut responses = String::new();
    reader.read_to_string(&mut responses).unwrap();
    assert!(
        responses.contains("\"code\":503"),
        "over-watermark records must be answered with shed frames: {}",
        &responses[..responses.len().min(400)]
    );
    // Regression: every 503 backpressure frame names the rejecting
    // partition (here the only one, 0) so multi-shard clients can tell
    // which route is saturated.
    assert!(
        responses.contains("\"partition\":0"),
        "503 frames must carry the rejecting partition: {}",
        &responses[..responses.len().min(400)]
    );
    let last = responses.lines().last().unwrap();
    let (accepted, shed) = (summary_field(last, "accepted"), summary_field(last, "shed"));
    assert!(shed > 0, "{last}");
    assert_eq!(accepted + shed, 3000, "every record accounted: {last}");

    let stats = daemon.ingest_stats();
    assert_eq!((stats.accepted, stats.shed), (accepted, shed));
    let summary = daemon.drain();
    assert_eq!(
        summary.logs, accepted,
        "exactly the acknowledged records reach detection"
    );
    assert_eq!(
        summary.pattern_hits
            + summary.cache_hits
            + summary.model_calls
            + summary.degraded
            + summary.shed
            + summary.quarantined,
        summary.windows
    );
}
