//! The ingest daemon: a TCP front door feeding the partitioned log
//! buffer and its detection workers.
//!
//! ```text
//!             ┌───────────────┐   bounded    ┌────────────────────┐
//!  clients ──▶│ accept thread │──────────────▶ handler thread pool │
//!             └───────────────┘  conn queue  └─────────┬──────────┘
//!                                   auth · quota · shed │ offer_batch
//!                                             ┌─────────▼─────────┐
//!                                             │ LogBuffer (shards)│
//!                                             └─────────┬─────────┘
//!                                             ┌─────────▼─────────┐
//!                                             │  DetectionPool    │
//!                                             └───────────────────┘
//! ```
//!
//! One accept thread hands sockets to a small fixed pool of connection
//! handlers (a handler owns a connection for its lifetime, so the pool
//! size bounds concurrent streaming clients; further connections queue).
//! Handlers parse NDJSON / syslog lines (see [`crate::proto`]), enforce
//! per-tenant token-bucket quotas and fair-share shard routing (see
//! [`crate::tenants`]), apply the shed watermark, and push accepted
//! records through the pipeline's [`Ingest`] handle in per-partition
//! micro-batches. Each connection is a small state machine ([`Conn`]:
//! unauthenticated → streaming → finished) that the socket loop feeds
//! lines and idle ticks. On drain the daemon stops
//! accepting, lets in-flight connections flush (bounded by the drain
//! timeout), drops every producer handle, and joins the detection pool
//! into a final [`PipelineSummary`] whose six-bucket accounting is
//! exact.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use logsynergy::faults::{self, points, Fault, PANIC_MARKER};
use logsynergy_pipeline::detect::SequenceScorer;
use logsynergy_pipeline::report::ReportSink;
use logsynergy_pipeline::service::{DetectionPool, PipelineConfig, PipelineSummary};
use logsynergy_pipeline::{
    start_pipeline, EventVectorizer, Ingest, PipelineError, RawLog, RunningPipeline,
};
use logsynergy_telemetry as telemetry;
use parking_lot::Mutex;

use crate::proto::{self, ClientLine};
use crate::tenants::{TenantHandle, TenantSpec, TenantTable};

/// Write an over-quota / shed / malformed frame on the first rejection
/// and then once per this many — a flooding client must not buy a
/// response per offending line.
const ERROR_FRAME_EVERY: u64 = 1024;

/// Longest client line the daemon will buffer while waiting for the
/// terminating newline. A newline-free byte stream would otherwise grow
/// the line buffer without bound; past this the connection is answered
/// with a 400 frame and closed.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Accepted-but-unhandled connection queue depth; the accept thread
/// blocks (TCP backlog backpressure) when it is full.
const PENDING_CONNECTIONS: usize = 64;

/// Per-read socket timeout: the granularity at which an idle
/// connection's handler notices the stop flag. It is also the accept
/// thread's back-off when nothing is pending; that wait is a park, which
/// [`Daemon::initiate_drain`] cuts short.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Tuning knobs for the ingest daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// Connection-handler pool size — the bound on concurrently
    /// *streaming* clients; excess accepted connections wait queued.
    pub handler_threads: usize,
    /// Budget for in-flight connections to flush after drain starts;
    /// past it handlers close connections mid-stream.
    pub drain_timeout: Duration,
    /// How often the tenants file is polled for changes (mtime-based
    /// hot reload); also the shutdown-latency bound of that thread.
    pub reload_poll: Duration,
    /// A connection must authenticate within this budget or be closed —
    /// an unauthenticated socket may not camp on a handler slot.
    pub auth_deadline: Duration,
    /// Consecutive over-quota lines before the handler starts penalty
    /// sleeps (slow-read: the client's TCP window fills and its flood
    /// slows to the daemon's chosen pace).
    pub quota_slow_after: u64,
    /// The per-line penalty sleep once slow-read engages.
    pub quota_penalty: Duration,
    /// Consecutive over-quota lines before the connection is dropped
    /// outright as abusive.
    pub quota_disconnect_after: u64,
    /// Most records a handler accumulates per partition before flushing
    /// them through the ingest handle as one group commit (one lane-lock
    /// acquisition and, behind a log, one WAL write+flush for the whole
    /// batch). A batch never waits to fill: everything pending is
    /// flushed as soon as the bytes read from the socket hold no further
    /// complete line. `1` flushes every record immediately.
    pub ingest_batch: usize,
    /// Detection-side configuration (partitions, capacity, shedding,
    /// retries — see the pipeline crate).
    pub pipeline: PipelineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            handler_threads: 4,
            drain_timeout: Duration::from_secs(5),
            reload_poll: Duration::from_millis(500),
            auth_deadline: Duration::from_secs(5),
            quota_slow_after: 64,
            quota_penalty: Duration::from_millis(2),
            quota_disconnect_after: 100_000,
            ingest_batch: 64,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Monotone ingest-side totals, across all tenants and connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records enqueued into the buffer.
    pub accepted: u64,
    /// Records refused over quota (429).
    pub rejected: u64,
    /// Records shed at the watermark or a full shard (503).
    pub shed: u64,
    /// Lines that failed to parse (400).
    pub parse_errors: u64,
    /// Connections force-closed for sustained quota abuse.
    pub abusive_disconnects: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// One monotone ingest total and its mirror in the telemetry registry.
/// The atomic is the per-daemon source of truth behind [`IngestStats`]
/// (the registry is process-wide and can be switched off); both move
/// together, here.
struct Meter {
    total: AtomicU64,
    mirror: Arc<telemetry::Counter>,
}

impl Meter {
    fn new(scope: &telemetry::Scope, name: &str) -> Self {
        Meter {
            total: AtomicU64::new(0),
            mirror: scope.counter(name),
        }
    }

    fn add(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
        self.mirror.add(n);
    }

    fn get(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

struct Totals {
    accepted: Meter,
    rejected: Meter,
    shed: Meter,
    parse_errors: Meter,
    abusive_disconnects: Meter,
    connections: Meter,
}

/// Everything a connection handler needs, shared across threads. The
/// pipeline's only [`Ingest`] handle lives here: when the last
/// `Arc<Shared>` drops (after every daemon thread is joined), the buffer
/// disconnects and the detection workers run to end-of-stream.
struct Shared {
    stop: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    drain_timeout: Duration,
    started: Instant,
    producer: Ingest,
    tenants: TenantTable,
    shed_watermark: usize,
    ingest_batch: usize,
    auth_deadline: Duration,
    quota_slow_after: u64,
    quota_penalty: Duration,
    quota_disconnect_after: u64,
    totals: Totals,
    m_active: Arc<telemetry::Gauge>,
    m_accept_faults: Arc<telemetry::Counter>,
    m_handler_restarts: Arc<telemetry::Counter>,
    m_reload_errors: Arc<telemetry::Counter>,
    m_latency: Arc<telemetry::Histogram>,
}

impl Shared {
    fn new(config: &ServeConfig, specs: Vec<TenantSpec>, producer: Ingest) -> Self {
        let scope = telemetry::global().scoped("ingest");
        Shared {
            stop: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            drain_timeout: config.drain_timeout,
            started: Instant::now(),
            tenants: TenantTable::new(specs, config.pipeline.partitions),
            shed_watermark: config.pipeline.shed_watermark,
            ingest_batch: config.ingest_batch.max(1),
            auth_deadline: config.auth_deadline,
            quota_slow_after: config.quota_slow_after.max(1),
            quota_penalty: config.quota_penalty,
            quota_disconnect_after: config.quota_disconnect_after.max(1),
            totals: Totals {
                accepted: Meter::new(&scope, "accepted"),
                rejected: Meter::new(&scope, "rejected"),
                shed: Meter::new(&scope, "shed"),
                parse_errors: Meter::new(&scope, "parse_errors"),
                abusive_disconnects: Meter::new(&scope, "abusive_disconnects"),
                connections: Meter::new(&scope, "connections"),
            },
            m_active: scope.gauge("connections.active"),
            m_accept_faults: scope.counter("accept.faults"),
            m_handler_restarts: scope.counter("handler.restarts"),
            m_reload_errors: scope.counter("config.reload_errors"),
            m_latency: scope.histogram("latency_us"),
            producer,
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn ingest_stats(&self) -> IngestStats {
        let t = &self.totals;
        IngestStats {
            accepted: t.accepted.get(),
            rejected: t.rejected.get(),
            shed: t.shed.get(),
            parse_errors: t.parse_errors.get(),
            abusive_disconnects: t.abusive_disconnects.get(),
            connections: t.connections.get(),
        }
    }

    fn past_drain_deadline(&self) -> bool {
        match *self.drain_deadline.lock() {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

/// A running ingest daemon. Must be shut down with [`Daemon::drain`],
/// which yields the final detection summary; there is no implicit
/// drain-on-drop (dropping a live daemon leaks its threads).
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: thread::JoinHandle<()>,
    handlers: Vec<thread::JoinHandle<()>>,
    reloader: Option<thread::JoinHandle<()>>,
    pool: DetectionPool,
}

/// Starts the pipeline and begins listening.
///
/// `tenants_path`, when given, is polled every
/// [`ServeConfig::reload_poll`] and hot-reloaded on mtime change (see
/// [`TenantTable::reload`]); `specs` is the initial tenant set (callers
/// normally pass `load_tenants(&path)?` output).
///
/// With a WAL directory in `config.pipeline.wal` (`--wal-dir`) the
/// detection pool resumes from the per-partition cursors, parked unacked
/// records are replayed into the buffer before the first client
/// connects, and every accepted record is logged before it is
/// acknowledged — all of it inside [`start_pipeline`].
pub fn start<S, K>(
    config: ServeConfig,
    specs: Vec<TenantSpec>,
    tenants_path: Option<PathBuf>,
    vectorizer: EventVectorizer,
    scorer: S,
    sink: K,
) -> io::Result<Daemon>
where
    S: SequenceScorer + Clone + 'static,
    K: ReportSink + Clone + 'static,
{
    assert!(config.handler_threads > 0);
    let listener = TcpListener::bind(&config.listen)?;
    // Non-blocking accept, polled against the stop flag: shutdown must
    // never depend on a wake-up connection reaching the socket (which
    // can fail on an unroutable bind address or a flooded backlog and
    // would leave `drain()` joining a forever-blocked accept thread).
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let RunningPipeline { pool, producer, .. } =
        start_pipeline(vectorizer, scorer, sink, &config.pipeline)
            .map_err(|e| io::Error::other(format!("write-ahead log unavailable: {e}")))?;
    let shared = Arc::new(Shared::new(&config, specs, producer));

    let (conn_tx, conn_rx) = bounded::<TcpStream>(PENDING_CONNECTIONS);
    let accept = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("logsynergy-ingest-accept".into())
            .spawn(move || accept_loop(listener, conn_tx, shared))?
    };
    let handlers = (0..config.handler_threads)
        .map(|i| {
            let shared = shared.clone();
            let rx = conn_rx.clone();
            thread::Builder::new()
                .name(format!("logsynergy-ingest-{i}"))
                .spawn(move || handler_loop(rx, shared))
        })
        .collect::<io::Result<Vec<_>>>()?;
    drop(conn_rx);
    let reloader = match tenants_path {
        Some(path) => Some({
            let shared = shared.clone();
            let poll = config.reload_poll.max(Duration::from_millis(10));
            thread::Builder::new()
                .name("logsynergy-ingest-reload".into())
                .spawn(move || reload_loop(path, poll, shared))?
        }),
        None => None,
    };

    Ok(Daemon {
        addr,
        shared,
        accept,
        handlers,
        reloader,
        pool,
    })
}

impl Daemon {
    /// The bound address (useful with a `:0` listen request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the ingest-side totals. A snapshot taken on a live
    /// daemon can lag in-flight connections; for final accounting use
    /// [`Daemon::drain_with_stats`], whose snapshot is post-flush.
    pub fn ingest_stats(&self) -> IngestStats {
        self.shared.ingest_stats()
    }

    /// Live (non-revoked) tenant count — observes hot reloads.
    pub fn tenant_count(&self) -> usize {
        self.shared.tenants.len()
    }

    /// Asks the daemon to stop accepting and begin flushing; returns
    /// immediately. [`Daemon::drain`] calls this itself — use it only
    /// to begin shutdown early (e.g. from a signal-watcher thread).
    pub fn initiate_drain(&self) {
        {
            let mut deadline = self.shared.drain_deadline.lock();
            deadline.get_or_insert(Instant::now() + self.shared.drain_timeout);
        }
        self.shared.stop.store(true, Ordering::Relaxed);
        // The accept and reload threads wait in `park_timeout` between
        // polls: unpark them so they see the flag now, not at the end of
        // their wait — no wake-up connection needed.
        self.accept.thread().unpark();
        if let Some(r) = &self.reloader {
            r.thread().unpark();
        }
    }

    /// Graceful drain: stop accepting, give in-flight connections up to
    /// the configured drain timeout to flush, drop every producer, and
    /// join the detection workers. The returned summary's six-bucket
    /// accounting (`pattern + cache + model + degraded + shed +
    /// quarantined == windows`) covers exactly the records that were
    /// acknowledged as accepted.
    pub fn drain(self) -> PipelineSummary {
        self.drain_with_stats().1
    }

    /// [`Daemon::drain`], plus the final ingest totals. The snapshot is
    /// taken *after* every handler thread is joined, so records that
    /// in-flight connections flushed during the drain window are
    /// counted — a pre-drain [`Daemon::ingest_stats`] snapshot can show
    /// `accepted` short of the summary's `logs`.
    pub fn drain_with_stats(self) -> (IngestStats, PipelineSummary) {
        self.initiate_drain();
        let Daemon {
            shared,
            accept,
            handlers,
            reloader,
            pool,
            ..
        } = self;
        let _ = accept.join(); // drops the connection queue sender
        for h in handlers {
            let _ = h.join();
        }
        if let Some(r) = reloader {
            let _ = r.join();
        }
        let stats = shared.ingest_stats();
        // Every thread holding an Arc<Shared> is joined: this drop is the
        // last one, the producer disconnects, and the workers run to
        // end-of-stream.
        drop(shared);
        (stats, pool.join())
    }
}

fn accept_loop(listener: TcpListener, conn_tx: Sender<TcpStream>, shared: Arc<Shared>) {
    // The listener is non-blocking (see `start`): every WouldBlock pass
    // re-checks the stop flag, so drain never depends on a wake-up
    // connection reaching the socket.
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                if !dispatch(stream, &conn_tx, &shared) {
                    return;
                }
            }
            // Nothing pending — or a transient accept failure (EMFILE, a
            // reset mid-handshake): back off a beat instead of spinning
            // hot. A park, so `initiate_drain` can end the wait early.
            Err(_) => thread::park_timeout(IDLE_POLL),
        }
    }
    // Sweep what raced drain initiation: a connection already in the
    // backlog when the flag flipped was sent before "stop accepting"
    // took effect, so it is still served — dropping it here would RST a
    // legitimate client mid-stream. The sweep is bounded so a flood
    // cannot extend the drain; anything past it gets the RST when the
    // listener drops.
    for _ in 0..PENDING_CONNECTIONS {
        match listener.accept() {
            Ok((stream, _)) => {
                if !dispatch(stream, &conn_tx, &shared) {
                    return;
                }
            }
            Err(_) => break,
        }
    }
}

/// Admits one accepted connection into the handler queue. Returns
/// `false` only when the queue is gone (handlers exited) and the accept
/// loop should too.
fn dispatch(stream: TcpStream, conn_tx: &Sender<TcpStream>, shared: &Shared) -> bool {
    // Handlers rely on read timeouts, which need a blocking socket;
    // whether an accepted stream inherits the listener's non-blocking
    // mode is platform-dependent, so set it explicitly.
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    // `ingest.accept` fault point: an injected panic exercises the
    // isolation seam (the connection is lost, the daemon is not), a
    // transient error models an accept-path failure.
    let admitted = catch_unwind(AssertUnwindSafe(|| {
        match faults::inject(points::INGEST_ACCEPT) {
            Some(Fault::Panic) => panic!("{PANIC_MARKER}: ingest.accept"),
            Some(Fault::TransientError) => false,
            Some(Fault::Latency(d)) => {
                thread::sleep(d);
                true
            }
            Some(Fault::CorruptScore) | None => true,
        }
    }));
    match admitted {
        Ok(true) => {
            shared.totals.connections.add(1);
            // Blocking send: a full queue backpressures onto the TCP
            // backlog rather than accepting unboundedly.
            conn_tx.send(stream).is_ok()
        }
        Ok(false) | Err(_) => {
            shared.m_accept_faults.inc();
            true
        }
    }
}

fn handler_loop(conn_rx: Receiver<TcpStream>, shared: Arc<Shared>) {
    while let Ok(stream) = conn_rx.recv() {
        shared.m_active.add(1);
        // Panic isolation: a handler panic (e.g. an armed `ingest.parse`
        // fault) costs one connection, never the daemon.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &shared)));
        shared.m_active.add(-1);
        if outcome.is_err() {
            shared.m_handler_restarts.inc();
        }
    }
}

/// Per-connection accounting, echoed back in the summary frame.
#[derive(Default)]
struct ConnCounts {
    accepted: u64,
    rejected: u64,
    shed: u64,
    parse_errors: u64,
}

/// The verdict a client line can be settled with; one [`Conn::tally`]
/// moves every counter that tracks it.
#[derive(Clone, Copy)]
enum Outcome {
    Accepted,
    Rejected,
    Shed,
    ParseError,
}

/// What the socket loop does after feeding the connection an event.
#[derive(Debug, PartialEq, Eq)]
enum Flow {
    /// Keep reading.
    Continue,
    /// The stream is over (QUIT, or the buffer closed underneath it):
    /// [`Conn::finish`] and close.
    Finish,
    /// A terminal error frame has been written: close without a summary.
    Close,
}

/// True on the first event of a run and then once per
/// [`ERROR_FRAME_EVERY`]: a flood neither buys a response per line nor
/// goes permanently unanswered.
fn frame_due(count: u64) -> bool {
    count == 1 || count.is_multiple_of(ERROR_FRAME_EVERY)
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut conn = Conn::new(shared, stream.try_clone()?);
    // A read takes up to a full line budget off the socket, so the
    // buffer running out of complete lines means the socket had nothing
    // more when it was last read: the input ran dry.
    let mut reader = BufReader::with_capacity(MAX_LINE_BYTES, stream);
    // One line buffer for the whole connection, pre-sized to the line
    // budget: `read_line` appends into it and `clear()` keeps the
    // allocation, so a streaming client costs zero per-line allocations
    // here.
    let mut line = String::with_capacity(MAX_LINE_BYTES + 1);
    // While draining, the connection is left open until the drain
    // deadline: records still in flight from the client must land.
    while !(shared.stopping() && shared.past_drain_deadline()) {
        // On a read timeout the partial line (if any) stays in `line`
        // and the next pass keeps appending — no torn records. The
        // `take` bounds what a newline-free stream can accumulate: past
        // MAX_LINE_BYTES the read returns and `on_line` rejects it.
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        let flow = match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => break, // EOF: client is done, summarize and close
            Ok(_) => {
                let flow = conn.on_line(&line);
                line.clear();
                // Close the micro-batches when the input runs dry: the
                // records pending are everything the client has sent so
                // far, and their acks must not wait on records that may
                // never come. Under load the next line is already here
                // and the batches keep filling to `ingest_batch`.
                if flow == Flow::Continue && !reader.buffer().contains(&b'\n') {
                    conn.on_idle()
                } else {
                    flow
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                conn.on_idle()
            }
            Err(_) => break,
        };
        match flow {
            Flow::Continue => {}
            Flow::Finish => break,
            Flow::Close => return Ok(()),
        }
    }
    conn.finish();
    Ok(())
}

/// One client connection as a state machine, independent of the socket:
/// it is fed whole lines ([`Conn::on_line`]) and read timeouts
/// ([`Conn::on_idle`]), writes protocol frames to `writer`, and ends
/// with [`Conn::finish`]. *Unauthenticated* until a `HELLO` names a
/// tenant, then *streaming* — admitted records park in per-partition
/// micro-batches and are settled (accepted / shed / refused) when a
/// batch flushes.
struct Conn<'a, W: Write> {
    shared: &'a Shared,
    writer: W,
    opened: Instant,
    tenant: Option<Arc<TenantHandle>>,
    default_system: String,
    counts: ConnCounts,
    consecutive_rejected: u64,
    consecutive_shed: u64,
    /// Per-partition micro-batches awaiting group commit (same shape as
    /// `Consumer::recv_batch` on the worker side: capped in size, closed
    /// when the input runs dry). A record sits here *un-acknowledged* —
    /// nothing is counted accepted, shed, or refused until its batch
    /// flushes — so flush-before-ack durability is unchanged; the batch
    /// just amortizes the lane lock and the WAL write+flush across up to
    /// `ingest_batch` records.
    pending: Vec<Vec<RawLog>>,
}

impl<'a, W: Write> Conn<'a, W> {
    fn new(shared: &'a Shared, writer: W) -> Self {
        Conn {
            shared,
            writer,
            opened: Instant::now(),
            tenant: None,
            default_system: String::new(),
            counts: ConnCounts::default(),
            consecutive_rejected: 0,
            consecutive_shed: 0,
            pending: vec![Vec::new(); shared.producer.partitions()],
        }
    }

    fn reply(&mut self, frame: String) {
        let _ = self.writer.write_all(frame.as_bytes());
    }

    /// Moves every counter that tracks `kind` by `n`: this connection's
    /// (echoed in the summary frame), the daemon's (with its telemetry
    /// mirror), and the authenticated tenant's.
    fn tally(&mut self, kind: Outcome, n: u64) {
        let totals = &self.shared.totals;
        let tenant = self.tenant.as_deref();
        let (mine, total, theirs) = match kind {
            Outcome::Accepted => (
                &mut self.counts.accepted,
                &totals.accepted,
                tenant.map(|t| &t.accepted),
            ),
            Outcome::Rejected => (
                &mut self.counts.rejected,
                &totals.rejected,
                tenant.map(|t| &t.rejected),
            ),
            Outcome::Shed => (&mut self.counts.shed, &totals.shed, tenant.map(|t| &t.shed)),
            Outcome::ParseError => (
                &mut self.counts.parse_errors,
                &totals.parse_errors,
                tenant.map(|t| &t.parse_errors),
            ),
        };
        *mine += n;
        total.add(n);
        if let Some(counter) = theirs {
            counter.add(n);
        }
    }

    /// A connection must authenticate within the budget or be closed —
    /// checked on every event, not only on idle timeouts, so a client
    /// that keeps bytes flowing (blank-line keep-alives, a steady drip)
    /// cannot dodge the deadline and camp on a handler slot.
    fn auth_expired(&mut self) -> bool {
        let expired = self.tenant.is_none() && self.opened.elapsed() >= self.shared.auth_deadline;
        if expired {
            self.reply(proto::frame_error(401, "unauthorized", "auth deadline"));
        }
        expired
    }

    /// The client's input ran dry (no further complete line is buffered,
    /// or a read timed out): flush whatever it has pending rather than
    /// holding its acks for a batch that may never fill.
    fn on_idle(&mut self) -> Flow {
        if self.auth_expired() {
            Flow::Close
        } else if self.flush_all() {
            Flow::Continue
        } else {
            Flow::Finish
        }
    }

    /// One line off the wire (terminator included; a line cut short by
    /// the 64 KiB budget or by EOF has none).
    fn on_line(&mut self, line: &str) -> Flow {
        if self.auth_expired() {
            return Flow::Close;
        }
        if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') {
            self.flush_all();
            self.reply(proto::frame_error(400, "overlong", "line exceeds 64 KiB"));
            return Flow::Close;
        }
        // `ingest.parse` fault point: panics escape to the handler's
        // isolation layer; transient errors surface as parse failures.
        let parsed = match faults::inject(points::INGEST_PARSE) {
            Some(Fault::Panic) => panic!("{PANIC_MARKER}: ingest.parse"),
            Some(Fault::TransientError) => Err("injected parse fault".to_string()),
            Some(Fault::Latency(d)) => {
                thread::sleep(d);
                proto::parse_line(line, &self.default_system)
            }
            Some(Fault::CorruptScore) | None => proto::parse_line(line, &self.default_system),
        };
        match parsed {
            Err(_) if self.tenant.is_none() => {
                // Unauthenticated garbage is an auth failure, not a
                // parse statistic: close without letting anonymous input
                // inflate the counters.
                self.reply(proto::frame_error(401, "unauthorized", "HELLO first"));
                Flow::Close
            }
            Err(detail) => {
                self.tally(Outcome::ParseError, 1);
                if frame_due(self.counts.parse_errors) {
                    self.reply(proto::frame_error(400, "malformed", &detail));
                }
                Flow::Continue
            }
            Ok(ClientLine::Empty) => Flow::Continue,
            Ok(ClientLine::Quit) => Flow::Finish,
            Ok(ClientLine::Hello { token }) => {
                // Pending records belong to the tenant that admitted
                // them: land them before the handle can change (or the
                // connection closes on a bad re-HELLO).
                if !self.flush_all() {
                    return Flow::Finish;
                }
                let Some(handle) = self.shared.tenants.authenticate(&token) else {
                    self.reply(proto::frame_error(401, "unauthorized", "unknown token"));
                    return Flow::Close;
                };
                self.default_system = handle.name();
                self.reply(proto::frame_hello_ok(&self.default_system));
                self.tenant = Some(handle);
                Flow::Continue
            }
            Ok(ClientLine::Record(record)) => self.on_record(record),
        }
    }

    fn on_record(&mut self, record: RawLog) -> Flow {
        enum Admission {
            Revoked,
            OverQuota,
            Routed(usize),
        }
        let shared = self.shared;
        let now = shared.started.elapsed();
        let admission = match self.tenant.as_deref() {
            None => {
                self.reply(proto::frame_error(401, "unauthorized", "HELLO first"));
                return Flow::Close;
            }
            Some(t) if t.is_revoked() => Admission::Revoked,
            Some(t) if !t.admit(now) => Admission::OverQuota,
            Some(t) => Admission::Routed(t.route(&record.system)),
        };
        match admission {
            Admission::Revoked => {
                self.flush_all();
                self.reply(proto::frame_error(401, "revoked", "tenant removed"));
                Flow::Close
            }
            Admission::OverQuota => {
                self.tally(Outcome::Rejected, 1);
                self.consecutive_rejected += 1;
                if frame_due(self.consecutive_rejected) {
                    let retry = self
                        .tenant
                        .as_deref()
                        .map_or(0, |t| t.retry_after(now).as_millis());
                    self.reply(proto::frame_over_quota(retry as u64));
                }
                if self.consecutive_rejected >= shared.quota_disconnect_after {
                    shared.totals.abusive_disconnects.add(1);
                    self.flush_all();
                    self.reply(proto::frame_error(429, "quota abuse", "disconnecting"));
                    return Flow::Close;
                }
                if self.consecutive_rejected >= shared.quota_slow_after {
                    // Slow-read: stop draining the flood at line rate;
                    // the client's send window fills and it is paced
                    // down to the daemon's terms.
                    thread::sleep(shared.quota_penalty);
                }
                Flow::Continue
            }
            Admission::Routed(partition) => {
                self.consecutive_rejected = 0;
                // Admitted: park the record in its partition's
                // micro-batch. Nothing is acknowledged yet — the
                // accept/shed/refuse verdict lands when the batch
                // flushes (size cap here; input running dry, HELLO or
                // connection exit elsewhere).
                self.pending[partition].push(record);
                if self.pending[partition].len() >= shared.ingest_batch
                    && !self.flush_partition(partition)
                {
                    return Flow::Finish;
                }
                Flow::Continue
            }
        }
    }

    /// EOF, QUIT, a read error, a closed buffer, or the drain deadline:
    /// land whatever is still pending so the summary frame counts every
    /// line the client sent (best-effort when the buffer is already
    /// closed), then write the summary.
    fn finish(&mut self) {
        self.flush_all();
        self.reply(proto::frame_summary(
            self.counts.accepted,
            self.counts.rejected,
            self.counts.shed,
            self.counts.parse_errors,
            self.shared.stopping(),
        ));
        let _ = self.writer.flush();
    }

    /// Flushes every non-empty partition batch of the connection. Returns
    /// `false` when the buffer is gone and the connection must close.
    fn flush_all(&mut self) -> bool {
        (0..self.pending.len()).all(|p| self.flush_partition(p))
    }

    /// Group-commits one partition's pending micro-batch through the
    /// ingest handle and settles every record's verdict: accepted
    /// (durable and enqueued), shed (watermark or full shard), or
    /// WAL-refused (retryable 503). The ingest-ack latency recorded per
    /// record is the flush's own elapsed time — the cost of the
    /// durability ack, which is what the batch amortizes. Returns
    /// `false` when the buffer is closed and the connection must end.
    fn flush_partition(&mut self, partition: usize) -> bool {
        let batch = std::mem::take(&mut self.pending[partition]);
        if batch.is_empty() {
            return true;
        }
        let shared = self.shared;
        let total = batch.len();
        let t0 = Instant::now();
        let result = if shared.shed_watermark == 0 {
            // Shedding disabled: exert backpressure by blocking — the
            // client's stream stalls instead of losing records.
            shared.producer.send_batch(partition, batch)
        } else if shared.producer.depth(partition) >= shared.shed_watermark as u64 {
            // The watermark is re-checked at flush time — the depth read
            // at parse time would be stale by now, and shedding must
            // still be decided *before* any append so a shed record is
            // never persisted.
            Err((batch, PipelineError::BufferFull { partition }))
        } else {
            shared.producer.offer_batch(partition, batch)
        };
        // One settle step: the head landed, the rest did not, for `why`.
        let (landed, refused) = match result {
            Ok(n) => (n, None),
            Err((rest, why)) => (total - rest.len(), Some((rest.len() as u64, why))),
        };
        if landed > 0 {
            self.tally(Outcome::Accepted, landed as u64);
            self.consecutive_shed = 0;
            // Every landed record waited the same flush: one histogram
            // update per flush records all of them.
            let us = t0.elapsed().as_micros() as u64;
            shared.m_latency.record_n(us, landed as u64);
            if let Some(t) = &self.tenant {
                t.latency_us.record_n(us, landed as u64);
            }
        }
        match refused {
            None => true,
            Some((n, PipelineError::BufferFull { .. })) => {
                let before = self.consecutive_shed;
                self.consecutive_shed += n;
                self.tally(Outcome::Shed, n);
                // Same cadence as the per-line paths: the first shed in
                // a run is answered, then one frame per ERROR_FRAME_EVERY
                // — a batch emits at most one frame per flush either way.
                if before == 0
                    || self.consecutive_shed / ERROR_FRAME_EVERY > before / ERROR_FRAME_EVERY
                {
                    self.reply(proto::frame_shed(partition));
                }
                true
            }
            Some((n, PipelineError::WalAppend { .. })) => {
                // Transient durable-append failure: the durable prefix
                // is accepted, the unwritten suffix was refused *before*
                // anything was logged — one retryable 503 naming the
                // shard, and the connection survives. Counted with the
                // shed bucket: like a shed record, these were
                // acknowledged as *not* ingested and the client owns
                // the retry.
                self.tally(Outcome::Shed, n);
                self.reply(proto::frame_log_append(partition));
                true
            }
            Some(_) => {
                self.reply(proto::frame_closed(partition));
                false
            }
        }
    }
}

fn reload_loop(path: PathBuf, poll: Duration, shared: Arc<Shared>) {
    // Content-compare polling rather than bare mtime: filesystems with
    // second-granularity timestamps would miss a rewrite that lands in
    // the same tick as the original. The file is operator-sized (a few
    // KB); re-reading it every poll is noise. The baseline starts empty
    // — not a snapshot taken here — because the file may legitimately
    // change between `start()` parsing it and this thread's first read;
    // the resulting first-poll reload is a no-op when nothing changed
    // (reload preserves bucket fill and revokes nothing that survived).
    let mut last_text: Option<String> = None;
    loop {
        // A park, so `initiate_drain` can end the wait early.
        thread::park_timeout(poll);
        if shared.stopping() {
            return;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            // A transiently missing file (atomic-rename writers) keeps
            // the previous tenant set.
            Err(_) => continue,
        };
        if last_text.as_ref() == Some(&text) {
            continue;
        }
        match crate::tenants::parse_tenants(&text) {
            Ok(specs) => {
                shared.tenants.reload(specs);
            }
            Err(_) => {
                // A torn or invalid file keeps the previous tenant set;
                // the error is counted (once per distinct bad content),
                // not fatal.
                shared.m_reload_errors.inc();
            }
        }
        last_text = Some(text);
    }
}

#[cfg(test)]
mod tests {
    //! The connection state machine, driven without sockets: a
    //! `Conn<Vec<u8>>` over a real in-memory `start_pipeline`.

    use super::*;
    use crate::tenants::parse_tenants;
    use logsynergy_lei::LeiConfig;
    use logsynergy_loggen::SystemId;
    use logsynergy_pipeline::MemorySink;
    use std::sync::{Condvar, Mutex as StdMutex};

    const VOCAB: [&str; 4] = [
        "session opened for user root",
        "packet responder terminating early",
        "cache eviction pass completed",
        "heartbeat missed twice across consecutive intervals",
    ];

    /// A table scorer behind a gate: open (the default) it scores and
    /// returns; shut, the first model-tier call parks the worker until
    /// the gate opens — which is how a test holds a shard's queue full.
    #[derive(Clone, Default)]
    struct GateScorer(Arc<(StdMutex<Gate>, Condvar)>);

    #[derive(Default)]
    struct Gate {
        shut: bool,
        parked: bool,
    }

    impl GateScorer {
        fn set_shut(&self, shut: bool) {
            self.0 .0.lock().unwrap().shut = shut;
            self.0 .1.notify_all();
        }

        fn wait_until_parked(&self) {
            let (gate, cv) = &*self.0;
            let _parked = cv.wait_while(gate.lock().unwrap(), |g| !g.parked).unwrap();
        }
    }

    impl SequenceScorer for GateScorer {
        fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
            let (gate, cv) = &*self.0;
            let mut g = gate.lock().unwrap();
            g.parked = g.shut;
            cv.notify_all();
            drop(cv.wait_while(g, |g| g.shut).unwrap());
            let acc: f32 = events.iter().flat_map(|&e| &table[e as usize]).sum();
            (acc - acc.floor()).clamp(0.0, 1.0)
        }
    }

    /// A daemon's shared state over a running pipeline, minus the
    /// sockets and threads.
    struct Rig {
        shared: Shared,
        pool: DetectionPool,
        scorer: GateScorer,
    }

    impl Rig {
        fn new(config: ServeConfig, tenants: &str) -> Rig {
            let mut vectorizer = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
            vectorizer.warm_start(VOCAB.iter().copied());
            let scorer = GateScorer::default();
            let RunningPipeline { pool, producer, .. } = start_pipeline(
                vectorizer,
                scorer.clone(),
                MemorySink::new(),
                &config.pipeline,
            )
            .expect("pipeline starts");
            let specs = parse_tenants(tenants).expect("tenants parse");
            Rig {
                shared: Shared::new(&config, specs, producer),
                pool,
                scorer,
            }
        }

        fn conn(&self) -> Conn<'_, Vec<u8>> {
            Conn::new(&self.shared, Vec::new())
        }

        /// Drops the ingest handle and joins the workers.
        fn done(self) -> PipelineSummary {
            drop(self.shared);
            self.pool.join()
        }
    }

    fn one_partition() -> PipelineConfig {
        PipelineConfig {
            partitions: 1,
            ..PipelineConfig::default()
        }
    }

    fn record(i: usize) -> String {
        format!(
            "{{\"system\":\"web\",\"timestamp\":{i},\"message\":\"{}\"}}\n",
            VOCAB[i % VOCAB.len()]
        )
    }

    /// Feeds `n` records and asserts the connection keeps streaming.
    fn feed(conn: &mut Conn<'_, Vec<u8>>, range: std::ops::Range<usize>) {
        for i in range {
            assert_eq!(conn.on_line(&record(i)), Flow::Continue, "record {i}");
        }
    }

    /// How many of the frames written so far carry `"error":"<error>"`.
    fn frames(conn: &Conn<'_, Vec<u8>>, error: &str) -> usize {
        let needle = format!("\"error\":\"{error}\"");
        let text = std::str::from_utf8(&conn.writer).unwrap();
        text.lines().filter(|l| l.contains(&needle)).count()
    }

    /// The last frame written, newline included (as `proto` builds it).
    fn last_frame<'c>(conn: &'c Conn<'_, Vec<u8>>) -> &'c str {
        let text = std::str::from_utf8(&conn.writer).unwrap();
        text.split_inclusive('\n').next_back().expect("a frame")
    }

    #[test]
    fn rehello_flushes_pending_under_the_tenant_that_admitted_them() {
        let rig = Rig::new(
            ServeConfig {
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant rehello-a token=a\ntenant rehello-b token=b",
        );
        let (a, b) = (
            rig.shared.tenants.authenticate("a").unwrap(),
            rig.shared.tenants.authenticate("b").unwrap(),
        );
        let (a0, b0) = (a.accepted.get(), b.accepted.get());
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO a\n"), Flow::Continue);
        feed(&mut conn, 0..3);
        assert_eq!(rig.shared.ingest_stats().accepted, 0, "parked, not acked");
        assert_eq!(conn.on_line("HELLO b\n"), Flow::Continue);
        assert_eq!(
            rig.shared.ingest_stats().accepted,
            3,
            "landed at the switch"
        );
        feed(&mut conn, 3..5);
        conn.finish();
        if telemetry::enabled() {
            assert_eq!(a.accepted.get() - a0, 3, "the first three are tenant a's");
            assert_eq!(b.accepted.get() - b0, 2);
        }
        assert_eq!(last_frame(&conn), proto::frame_summary(5, 0, 0, 0, false));
        drop(conn);
        assert_eq!(rig.done().logs, 5);
    }

    #[test]
    fn revoked_tenant_lands_its_pending_batch_then_gets_401() {
        let rig = Rig::new(
            ServeConfig {
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant revoked-a token=a\ntenant revoked-keep token=k",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO a\n"), Flow::Continue);
        feed(&mut conn, 0..2);
        rig.shared
            .tenants
            .reload(parse_tenants("tenant revoked-keep token=k").unwrap());
        assert_eq!(conn.on_line(&record(2)), Flow::Close);
        assert_eq!(
            rig.shared.ingest_stats().accepted,
            2,
            "what was admitted before the revocation still lands"
        );
        assert_eq!(
            last_frame(&conn),
            proto::frame_error(401, "revoked", "tenant removed")
        );
        drop(conn);
        assert_eq!(rig.done().logs, 2);
    }

    #[test]
    fn over_quota_frames_come_on_the_1st_and_every_1024th_refusal() {
        let rig = Rig::new(
            ServeConfig {
                // No slow-read sleeps, no abuse disconnect: only the
                // frame cadence is under test.
                quota_slow_after: u64::MAX,
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant cadence-q token=q rate=0.000001 burst=1",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO q\n"), Flow::Continue);
        feed(&mut conn, 0..1); // takes the bucket's only token
        for (refusals, expected) in [(1, 1), (1022, 1), (1, 2), (1023, 2), (1, 3)] {
            feed(&mut conn, 0..refusals);
            assert_eq!(frames(&conn, "over quota"), expected);
        }
        conn.finish();
        assert_eq!(
            last_frame(&conn),
            proto::frame_summary(1, 2048, 0, 0, false)
        );
        drop(conn);
        assert_eq!(rig.done().logs, 1);
    }

    #[test]
    fn shed_frames_come_on_the_1st_and_every_1024th_refusal() {
        let rig = Rig::new(
            ServeConfig {
                ingest_batch: 1,
                pipeline: PipelineConfig {
                    partition_capacity: 4,
                    shed_watermark: 4,
                    ..one_partition()
                },
                ..ServeConfig::default()
            },
            "tenant cadence-s token=s",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO s\n"), Flow::Continue);
        // Park the worker inside its first model call (ten records make
        // the first window), then fill the four-deep shard behind it.
        rig.scorer.set_shut(true);
        for i in 0..10 {
            while rig.shared.producer.depth(0) > 0 {
                thread::yield_now(); // the worker is still pulling
            }
            feed(&mut conn, i..i + 1);
        }
        rig.scorer.wait_until_parked();
        feed(&mut conn, 10..14);
        assert_eq!(rig.shared.ingest_stats().accepted, 14);
        assert_eq!(frames(&conn, "shedding"), 0);
        for (refusals, expected) in [(1, 1), (1022, 1), (1, 2), (1023, 2), (1, 3)] {
            feed(&mut conn, 0..refusals);
            assert_eq!(frames(&conn, "shedding"), expected);
        }
        assert_eq!(rig.shared.ingest_stats().shed, 2048);
        rig.scorer.set_shut(false);
        conn.finish();
        drop(conn);
        assert_eq!(rig.done().logs, 14, "a shed record never reaches a worker");
    }

    #[test]
    fn quota_abuse_disconnect_flushes_what_was_pending() {
        let rig = Rig::new(
            ServeConfig {
                quota_slow_after: u64::MAX,
                quota_disconnect_after: 3,
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant abuse-q token=q rate=0.000001 burst=2",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO q\n"), Flow::Continue);
        feed(&mut conn, 0..4); // two admitted and parked, two refused
        assert_eq!(rig.shared.ingest_stats().accepted, 0);
        assert_eq!(
            conn.on_line(&record(4)),
            Flow::Close,
            "third refusal in a row"
        );
        let stats = rig.shared.ingest_stats();
        assert_eq!((stats.accepted, stats.rejected), (2, 3));
        assert_eq!(stats.abusive_disconnects, 1);
        assert_eq!(
            last_frame(&conn),
            proto::frame_error(429, "quota abuse", "disconnecting")
        );
        drop(conn);
        assert_eq!(rig.done().logs, 2);
    }

    #[test]
    fn idle_flushes_a_batch_that_never_filled() {
        let rig = Rig::new(
            ServeConfig {
                // Short of the size cap: only the idle path may flush.
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant idle-t token=t",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO t\n"), Flow::Continue);
        feed(&mut conn, 0..3);
        assert_eq!(rig.shared.ingest_stats().accepted, 0);
        assert_eq!(conn.on_idle(), Flow::Continue);
        assert_eq!(rig.shared.ingest_stats().accepted, 3);
        drop(conn);
        assert_eq!(rig.done().logs, 3);
    }

    #[test]
    fn summary_counts_add_up_to_the_lines_fed() {
        let rig = Rig::new(
            ServeConfig {
                quota_slow_after: u64::MAX,
                pipeline: one_partition(),
                ..ServeConfig::default()
            },
            "tenant summary-t token=t rate=0.000001 burst=7",
        );
        let mut conn = rig.conn();
        // Anonymous input is answered and closed without being counted.
        assert_eq!(conn.on_line("not a hello\n"), Flow::Close);
        assert_eq!(rig.shared.ingest_stats(), IngestStats::default());
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO t\n"), Flow::Continue);
        feed(&mut conn, 0..10); // 7 admitted, 3 over quota
        for garbage in ["{\"message\":", "\u{1}\u{2}\n", "{}\n"] {
            assert_eq!(conn.on_line(garbage), Flow::Continue);
        }
        assert_eq!(
            conn.on_line("\n"),
            Flow::Continue,
            "blank lines are not records"
        );
        assert_eq!(conn.on_line("QUIT\n"), Flow::Finish);
        conn.finish();
        // 7 + 3 + 0 + 3 == the 13 record-or-garbage lines fed: each
        // lands in exactly one count.
        assert_eq!(last_frame(&conn), proto::frame_summary(7, 3, 0, 3, false));
        drop(conn);
        assert_eq!(rig.done().logs, 7);
    }

    /// A transient log-append failure mid-batch: the prefix the log had
    /// already flushed is accepted, the rest is refused with one
    /// retryable 503, and the connection keeps streaming.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn wal_append_failure_mid_batch_accepts_the_prefix_and_survives() {
        use logsynergy::faults::{test_lock, FaultPlan, FaultSpec};
        use logsynergy_pipeline::WalOptions;

        let _serial = test_lock();
        let dir = std::env::temp_dir().join(format!("lswal-conn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rig = Rig::new(
            ServeConfig {
                // The sixteen records land in one flush, and nothing
                // reaches the worker before that flush returns — so its
                // cursor commits (which consult `wal.append` too) come
                // after the armed fire, whatever the scheduling.
                ingest_batch: 16,
                pipeline: PipelineConfig {
                    // Tiny segments: the batch straddles rolls, so part
                    // of it is flushed before the fault lands.
                    wal: Some(WalOptions {
                        segment_max_bytes: 256,
                        ..WalOptions::at(dir.clone())
                    }),
                    ..one_partition()
                },
                ..ServeConfig::default()
            },
            "tenant walfault-t token=t",
        );
        let mut conn = rig.conn();
        assert_eq!(conn.on_line("HELLO t\n"), Flow::Continue);
        let guard = FaultPlan::seeded(5)
            .arm(
                points::WAL_APPEND,
                FaultSpec::transient().after(10).max_fires(1),
            )
            .install();
        feed(&mut conn, 0..16);
        assert_eq!(
            guard.fires(points::WAL_APPEND),
            1,
            "the armed fault must fire"
        );
        drop(guard);
        let stats = rig.shared.ingest_stats();
        assert!(stats.accepted > 0 && stats.accepted <= 10, "{stats:?}");
        assert_eq!(stats.accepted + stats.shed, 16, "{stats:?}");
        assert_eq!(frames(&conn, "log append"), 1);
        feed(&mut conn, 16..32);
        assert_eq!(rig.shared.ingest_stats().accepted, stats.accepted + 16);
        conn.finish();
        drop(conn);
        assert_eq!(rig.done().logs, stats.accepted + 16);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
