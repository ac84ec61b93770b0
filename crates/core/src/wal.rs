//! Segmented write-ahead log for durable log transport.
//!
//! A [`PartitionWal`] sits between ingest and one partition of the
//! in-memory `LogBuffer`: every accepted record is appended to a
//! CRC32-framed, append-only segment file and flushed *before* the
//! producer acknowledges it, so a process kill can never lose an acked
//! record. Detection workers periodically commit a [`CursorState`] — the
//! durable ack: the next unprocessed sequence number plus the window
//! assembler state and the six-bucket counters at that point. Recovery
//! ([`recover_partition`]) reads the last valid cursor, re-reads the
//! segments, and splits the surviving records into *context* (the tail
//! the window assembler had buffered but not yet emitted — re-primed, not
//! re-counted) and *replay* (records at or past the cursor — re-processed
//! exactly once).
//!
//! On-disk layout, one directory per partition:
//!
//! ```text
//! <dir>/
//!   seg-0000000000000000.wal     8-byte magic, then frames
//!   seg-00000000000004c8.wal     segment base = first seq it holds
//!   cursor.log                   8-byte magic, then cursor frames
//! ```
//!
//! Every frame is `[len: u32 LE][crc32: u32 LE][payload]` with the CRC
//! taken over the payload; the payload's first byte is a kind tag
//! (record or cursor). Decoding stops cleanly at the first torn or
//! corrupt frame and reports a typed [`WalError`] — it never panics on
//! hostile bytes (pinned by `tests/wal_proptests.rs`).
//!
//! Durability contract: appends are flushed with `write(2)` before the
//! ack, which survives a process kill (SIGKILL); surviving an OS crash
//! or power loss would additionally need `fsync`, which this module
//! deliberately does not issue on the hot path (sequential buffered I/O,
//! no mmap). Segment roll is size- or age-based; fully-acked segments
//! behind the commit horizon are retired, keeping
//! [`WalConfig::retain_segments`] of history for replay tooling.
//!
//! Fault points: `wal.append` (record and cursor-log appends),
//! `wal.roll` (segment close/open), `wal.recover` (recovery scan), and
//! the existing `persist.io` (cursor-log compaction rewrite) — all
//! compiled out with the `fault-injection` feature off.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::{self, points, Fault};
use logsynergy_telemetry as telemetry;

/// 8-byte magic opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"LSWALSG1";
/// 8-byte magic opening the cursor log.
pub const CURSOR_MAGIC: &[u8; 8] = b"LSWALCR1";
/// Payload kind tag for a log record frame.
pub const KIND_RECORD: u8 = 1;
/// Payload kind tag for a cursor-commit frame.
pub const KIND_CURSOR: u8 = 2;
/// Sanity cap on a single frame payload; anything larger is corruption.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Cursor log size that triggers a compacting rewrite.
const CURSOR_COMPACT_AT: u64 = 64 * 1024;

/// Errors from WAL encode/decode, append, and recovery.
///
/// Decode-side variants ([`WalError::BadLength`], [`WalError::BadCrc`],
/// [`WalError::Truncated`], [`WalError::BadKind`], [`WalError::BadMagic`],
/// [`WalError::SeqGap`]) describe *where a scan stopped*; recovery treats
/// them as a clean end-of-log, surfacing them as
/// [`Recovered::tail_error`] rather than failing.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// File does not start with the expected magic bytes.
    BadMagic,
    /// Frame length field is zero or exceeds [`MAX_PAYLOAD`].
    BadLength(u32),
    /// Frame CRC32 mismatch (bit flip or torn write).
    BadCrc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the payload bytes.
        computed: u32,
    },
    /// Buffer ends mid-frame (torn tail).
    Truncated {
        /// Bytes the frame header promised.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Unknown payload kind tag.
    BadKind(u8),
    /// Payload too short for its declared kind.
    ShortPayload,
    /// Record sequence numbers are not contiguous.
    SeqGap {
        /// Sequence number the scan expected next.
        expected: u64,
        /// Sequence number actually found.
        got: u64,
    },
    /// Injected transient fault (chaos testing only).
    Injected(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "WAL file has bad magic"),
            WalError::BadLength(n) => write!(f, "WAL frame length {n} out of range"),
            WalError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "WAL frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WalError::Truncated { needed, got } => {
                write!(f, "WAL frame truncated: needed {needed} bytes, got {got}")
            }
            WalError::BadKind(k) => write!(f, "WAL frame has unknown kind tag {k}"),
            WalError::ShortPayload => write!(f, "WAL frame payload too short for its kind"),
            WalError::SeqGap { expected, got } => {
                write!(f, "WAL sequence gap: expected {expected}, got {got}")
            }
            WalError::Injected(what) => write!(f, "injected transient WAL fault: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl WalError {
    /// True for decode-side errors that recovery treats as a clean stop
    /// (torn tail / corruption), as opposed to environmental failures.
    pub fn is_decode(&self) -> bool {
        matches!(
            self,
            WalError::BadMagic
                | WalError::BadLength(_)
                | WalError::BadCrc { .. }
                | WalError::Truncated { .. }
                | WalError::BadKind(_)
                | WalError::ShortPayload
                | WalError::SeqGap { .. }
        )
    }
}

/// Consults the fault plan at a WAL injection point. Latency sleeps;
/// transient/corrupt faults surface as retryable [`WalError::Injected`];
/// panics propagate to the caller's isolation layer. A no-op unless the
/// `fault-injection` feature is on and a plan is installed.
fn wal_fault(point: &'static str, what: &'static str) -> Result<(), WalError> {
    match faults::inject(point) {
        Some(Fault::Panic) => panic!("{}: {what}", faults::PANIC_MARKER),
        Some(Fault::Latency(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Fault::TransientError) | Some(Fault::CorruptScore) => Err(WalError::Injected(what)),
        None => Ok(()),
    }
}

/// One durable log record: the raw ingest triple plus the partition-local
/// sequence number assigned at append time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Partition-local sequence number (contiguous from 0).
    pub seq: u64,
    /// Originating system name.
    pub system: String,
    /// Record timestamp (caller-defined units).
    pub timestamp: u64,
    /// Raw log message.
    pub message: String,
}

/// The durable ack a detection worker commits after finishing a batch:
/// everything below `next_seq` is fully accounted, and the window
/// assembler held `window_fill` trailing records with
/// `since_last_window` arrivals since the last emitted window. The
/// six-bucket counters snapshot the accounting at the commit point so a
/// restart resumes with exact totals (no window double-counted or lost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CursorState {
    /// First sequence number not yet accounted.
    pub next_seq: u64,
    /// Records buffered in the window assembler at commit time.
    pub window_fill: u32,
    /// Records seen since the last emitted window.
    pub since_last_window: u32,
    /// Pattern-library tier verdicts so far.
    pub pattern_hits: u64,
    /// Score-cache tier verdicts so far.
    pub cache_hits: u64,
    /// Model tier verdicts so far.
    pub model_calls: u64,
    /// Windows resolved by degraded cheap-tier scoring.
    pub degraded: u64,
    /// Windows shed under backpressure.
    pub shed: u64,
    /// Windows quarantined to the dead-letter queue.
    pub quarantined: u64,
    /// Transient retries performed.
    pub retries: u64,
    /// Anomaly reports delivered to the sink.
    pub reports: u64,
}

/// A decoded frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A log record frame (segment files).
    Record(WalRecord),
    /// A cursor-commit frame (cursor log).
    Cursor(CursorState),
}

// ---------------------------------------------------------------------------
// CRC32 + frame codec
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3 polynomial, reflected) lookup tables, built at
/// compile time. Table 0 is the classic byte-at-a-time table; tables
/// 1–7 extend it for the slicing-by-8 kernel, which breaks the
/// per-byte dependency chain and processes eight input bytes per
/// iteration — the CRC is the hottest per-record cost of a batched
/// append once the flush syscall is amortized away.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`, slicing-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.buf.len() - self.pos < n {
            return Err(WalError::ShortPayload);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WalError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WalError::ShortPayload)
    }
}

/// Encodes a record payload and wraps it in a CRC frame.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 1 + 8 + 8 + 8 + rec.system.len() + rec.message.len());
    encode_record_into(&mut out, rec.seq, &rec.system, rec.timestamp, &rec.message);
    out
}

/// Appends one framed record to `out` without intermediate allocations:
/// the payload is written in place behind an 8-byte placeholder, then
/// the length/CRC header is patched over it. Byte-for-byte identical to
/// [`encode_record`] — group commit concatenates these, so the on-disk
/// layout of a batch must be indistinguishable from N single appends.
fn encode_record_into(out: &mut Vec<u8>, seq: u64, system: &str, timestamp: u64, message: &str) {
    let head = out.len();
    out.extend_from_slice(&[0u8; 8]);
    out.push(KIND_RECORD);
    put_u64(out, seq);
    put_u64(out, timestamp);
    put_u32(out, system.len() as u32);
    out.extend_from_slice(system.as_bytes());
    put_u32(out, message.len() as u32);
    out.extend_from_slice(message.as_bytes());
    let payload_len = (out.len() - head - 8) as u32;
    let crc = crc32(&out[head + 8..]);
    out[head..head + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes a cursor payload and wraps it in a CRC frame.
pub fn encode_cursor(c: &CursorState) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + 8 + 4 + 4 + 8 * 8);
    payload.push(KIND_CURSOR);
    put_u64(&mut payload, c.next_seq);
    put_u32(&mut payload, c.window_fill);
    put_u32(&mut payload, c.since_last_window);
    for v in [
        c.pattern_hits,
        c.cache_hits,
        c.model_calls,
        c.degraded,
        c.shed,
        c.quarantined,
        c.retries,
        c.reports,
    ] {
        put_u64(&mut payload, v);
    }
    frame(payload)
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame payload (the bytes *after* the 8-byte frame
/// header) into a [`Payload`].
pub fn decode_payload(payload: &[u8]) -> Result<Payload, WalError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        KIND_RECORD => {
            let seq = r.u64()?;
            let timestamp = r.u64()?;
            let system = r.str()?;
            let message = r.str()?;
            Ok(Payload::Record(WalRecord {
                seq,
                system,
                timestamp,
                message,
            }))
        }
        KIND_CURSOR => {
            let next_seq = r.u64()?;
            let window_fill = r.u32()?;
            let since_last_window = r.u32()?;
            let mut vals = [0u64; 8];
            for v in vals.iter_mut() {
                *v = r.u64()?;
            }
            Ok(Payload::Cursor(CursorState {
                next_seq,
                window_fill,
                since_last_window,
                pattern_hits: vals[0],
                cache_hits: vals[1],
                model_calls: vals[2],
                degraded: vals[3],
                shed: vals[4],
                quarantined: vals[5],
                retries: vals[6],
                reports: vals[7],
            }))
        }
        k => Err(WalError::BadKind(k)),
    }
}

/// Reads the next frame from `buf`. Returns `Ok(None)` at a clean end
/// (empty buffer), `Ok(Some((payload, consumed)))` for a valid frame,
/// and a typed [`WalError`] for a torn or corrupt one. Never panics.
pub fn next_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WalError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 8 {
        return Err(WalError::Truncated {
            needed: 8,
            got: buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len == 0 || len > MAX_PAYLOAD {
        return Err(WalError::BadLength(len));
    }
    let total = 8 + len as usize;
    if buf.len() < total {
        return Err(WalError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = &buf[8..total];
    let computed = crc32(payload);
    if stored != computed {
        return Err(WalError::BadCrc { stored, computed });
    }
    Ok(Some((payload, total)))
}

// ---------------------------------------------------------------------------
// Segment + cursor file scanning
// ---------------------------------------------------------------------------

/// Result of scanning one file's frames: everything decoded up to the
/// first invalid frame, the byte length of the valid prefix (magic
/// included), and the typed error that stopped the scan, if any.
struct FileScan {
    payloads: Vec<Payload>,
    valid_len: u64,
    tail_error: Option<WalError>,
}

/// Scans `bytes` (a whole file) expecting `magic` then frames. Stops
/// cleanly at the first invalid frame. A kind tag other than `want_kind`
/// is treated as corruption.
fn scan_file(bytes: &[u8], magic: &[u8; 8], want_kind: u8) -> FileScan {
    if bytes.len() < 8 || &bytes[..8] != magic {
        return FileScan {
            payloads: Vec::new(),
            valid_len: 0,
            tail_error: Some(WalError::BadMagic),
        };
    }
    let mut payloads = Vec::new();
    let mut pos = 8usize;
    let tail_error = loop {
        match next_frame(&bytes[pos..]) {
            Ok(None) => break None,
            Ok(Some((payload, consumed))) => {
                if payload.first() != Some(&want_kind) {
                    break Some(WalError::BadKind(payload.first().copied().unwrap_or(0)));
                }
                match decode_payload(payload) {
                    Ok(p) => {
                        payloads.push(p);
                        pos += consumed;
                    }
                    Err(e) => break Some(e),
                }
            }
            Err(e) => break Some(e),
        }
    };
    FileScan {
        payloads,
        valid_len: pos as u64,
        tail_error,
    }
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:016x}.wal"))
}

fn cursor_path(dir: &Path) -> PathBuf {
    dir.join("cursor.log")
}

/// Lists segment bases in `dir`, sorted ascending. Non-segment files are
/// ignored.
fn list_segments(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut bases = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(bases),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
        {
            if let Ok(base) = u64::from_str_radix(hex, 16) {
                bases.push(base);
            }
        }
    }
    bases.sort_unstable();
    Ok(bases)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Everything recovery learned about one partition's WAL.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Last durably committed cursor (zeroed if none was ever written).
    pub cursor: CursorState,
    /// Records the window assembler had buffered at the commit point
    /// (`[next_seq - window_fill, next_seq)`) — re-prime, don't re-count.
    pub context: Vec<WalRecord>,
    /// Unaccounted records (`[next_seq, ..)`) — re-process exactly once.
    pub replay: Vec<WalRecord>,
    /// Next sequence number a fresh append would be assigned.
    pub next_seq: u64,
    /// Where and why the segment scan stopped early, if it did. `None`
    /// means every frame on disk was valid.
    pub tail_error: Option<WalError>,
}

/// Read-only recovery scan of one partition directory. Safe to call any
/// number of times (idempotent): it never writes, so a crash mid-recovery
/// is retried by simply calling it again.
///
/// Corruption anywhere stops the scan at the last valid frame — the
/// typed error lands in [`Recovered::tail_error`], records past it are
/// dropped, and the function still succeeds. Only environmental failures
/// (I/O errors) and injected transients return `Err`.
pub fn recover_partition(dir: &Path) -> Result<Recovered, WalError> {
    wal_fault(points::WAL_RECOVER, "WAL recovery scan")?;

    // Cursor log: last valid cursor frame wins; a torn tail just means
    // the previous commit is the durable one.
    let mut cursor = CursorState::default();
    match fs::read(cursor_path(dir)) {
        Ok(bytes) => {
            let scan = scan_file(&bytes, CURSOR_MAGIC, KIND_CURSOR);
            if let Some(Payload::Cursor(c)) = scan.payloads.last() {
                cursor = *c;
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    let ctx_start = cursor.next_seq.saturating_sub(cursor.window_fill as u64);
    let bases = list_segments(dir)?;
    let mut records: VecDeque<WalRecord> = VecDeque::new();
    let mut expected: Option<u64> = None;
    let mut tail_error = None;
    for (i, &base) in bases.iter().enumerate() {
        // Skip segments that end before the replay horizon entirely.
        if let Some(&next_base) = bases.get(i + 1) {
            if next_base <= ctx_start {
                expected = Some(next_base);
                continue;
            }
        }
        if let Some(exp) = expected {
            // A base gap is corruption — except the *reseat* a reopen
            // writes when acked records were destroyed: a fresh segment
            // based exactly at the committed cursor, jumping over a
            // fully-acked hole.
            let reseat = exp <= cursor.next_seq && base == cursor.next_seq;
            if base != exp && !reseat {
                tail_error = Some(WalError::SeqGap {
                    expected: exp,
                    got: base,
                });
                break;
            }
        }
        wal_fault(points::WAL_RECOVER, "WAL segment scan")?;
        let bytes = fs::read(segment_path(dir, base))?;
        let scan = scan_file(&bytes, SEGMENT_MAGIC, KIND_RECORD);
        let mut seq_cursor = base;
        let mut stop = scan.tail_error;
        for p in scan.payloads {
            let Payload::Record(rec) = p else {
                unreachable!()
            };
            if rec.seq != seq_cursor {
                stop = Some(WalError::SeqGap {
                    expected: seq_cursor,
                    got: rec.seq,
                });
                break;
            }
            seq_cursor += 1;
            if rec.seq >= ctx_start {
                records.push_back(rec);
            }
        }
        expected = Some(seq_cursor);
        // Any stop inside a segment orphans everything after it: later
        // frames (and segments) can't be trusted to be contiguous.
        if let Some(e) = stop {
            tail_error = Some(e);
            break;
        }
    }

    let next_seq = expected.unwrap_or(0).max(cursor.next_seq);
    let mut context = Vec::new();
    let mut replay = Vec::new();
    for rec in records {
        if rec.seq < cursor.next_seq {
            context.push(rec);
        } else {
            replay.push(rec);
        }
    }
    Ok(Recovered {
        cursor,
        context,
        replay,
        next_seq,
        tail_error,
    })
}

// ---------------------------------------------------------------------------
// Appender
// ---------------------------------------------------------------------------

/// Tuning knobs for one partition's WAL.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Roll to a new segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// Roll to a new segment once the current one is this old (checked
    /// on append).
    pub segment_max_age: Duration,
    /// Fully-acked segments to keep behind the commit horizon before
    /// retiring them (history for replay tooling).
    pub retain_segments: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 8 * 1024 * 1024,
            segment_max_age: Duration::from_secs(60),
            retain_segments: 2,
        }
    }
}

struct WalStats {
    records: Arc<telemetry::Counter>,
    bytes: Arc<telemetry::Counter>,
    rolls: Arc<telemetry::Counter>,
    retired: Arc<telemetry::Counter>,
    batches: Arc<telemetry::Counter>,
    flush_coalesced: Arc<telemetry::Counter>,
    batch_size: Arc<telemetry::Histogram>,
    append_us: Arc<telemetry::Histogram>,
}

impl WalStats {
    fn resolve() -> Self {
        let tele = telemetry::global().scoped("wal");
        WalStats {
            records: tele.counter("records"),
            bytes: tele.counter("bytes"),
            rolls: tele.counter("segment_rolls"),
            retired: tele.counter("segments_retired"),
            batches: tele.counter("batches"),
            flush_coalesced: tele.counter("flush_coalesced"),
            batch_size: tele.histogram("batch_size"),
            append_us: tele.histogram("append_us"),
        }
    }
}

/// Append handle for one partition's segmented WAL.
///
/// [`PartitionWal::open`] runs recovery first, truncates any torn tail,
/// deletes orphaned segments past a corruption point, and positions the
/// writer for append. Each [`PartitionWal::append`] assigns the next
/// sequence number, rolls the segment if needed, writes one frame, and
/// flushes before returning — the returned seq is durably on disk
/// (process-kill durable; see the module docs for the fsync caveat).
/// [`PartitionWal::append_batch`] group-commits N records with one
/// write+flush per segment touched, byte-identical to N single appends.
pub struct PartitionWal {
    dir: PathBuf,
    config: WalConfig,
    writer: BufWriter<File>,
    /// True after a failed write/flush: the segment may hold a partial
    /// frame past `seg_bytes` (or the `BufWriter` retained bytes), so
    /// the writer must be reseated before the next append.
    writer_torn: bool,
    seg_bytes: u64,
    seg_records: u64,
    seg_opened: Instant,
    next_seq: u64,
    segments: Vec<u64>,
    ack_horizon: Arc<AtomicU64>,
    stats: WalStats,
    /// Reusable group-commit encode buffer (frames are coalesced here
    /// before the single `write_all`); cleared between appends, so its
    /// capacity amortizes across the WAL's lifetime.
    scratch: Vec<u8>,
}

impl PartitionWal {
    /// Recovers `dir` (creating it if absent) and opens it for append.
    pub fn open(dir: &Path, config: WalConfig) -> Result<(Self, Recovered), WalError> {
        fs::create_dir_all(dir)?;
        let recovered = recover_partition(dir)?;
        let ctx_start = recovered
            .cursor
            .next_seq
            .saturating_sub(recovered.cursor.window_fill as u64);

        // Walk segments with the same acceptance rules as recovery,
        // truncating the segment the scan stopped in and deleting every
        // segment past the stop point — they are unreachable once
        // appends resume at `recovered.next_seq`.
        let all = list_segments(dir)?;
        let mut keep: Vec<u64> = Vec::new();
        let mut expected: Option<u64> = None;
        let mut stopped = false;
        for (i, &base) in all.iter().enumerate() {
            if stopped {
                fs::remove_file(segment_path(dir, base))?;
                continue;
            }
            if let Some(&next_base) = all.get(i + 1) {
                if next_base <= ctx_start {
                    keep.push(base);
                    expected = Some(next_base);
                    continue;
                }
            }
            if let Some(exp) = expected {
                let reseat = exp <= recovered.cursor.next_seq && base == recovered.cursor.next_seq;
                if base != exp && !reseat {
                    stopped = true;
                    fs::remove_file(segment_path(dir, base))?;
                    continue;
                }
            }
            let path = segment_path(dir, base);
            let bytes = fs::read(&path)?;
            if bytes.len() < 8 || &bytes[..8] != SEGMENT_MAGIC {
                stopped = true;
                fs::remove_file(&path)?;
                continue;
            }
            // Valid prefix = contiguous well-formed record frames.
            let mut pos = 8usize;
            let mut seq = base;
            while let Ok(Some((payload, consumed))) = next_frame(&bytes[pos..]) {
                match decode_payload(payload) {
                    Ok(Payload::Record(r)) if r.seq == seq => {
                        seq += 1;
                        pos += consumed;
                    }
                    _ => break,
                }
            }
            if (pos as u64) < bytes.len() as u64 {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(pos as u64)?;
                stopped = true;
            }
            keep.push(base);
            expected = Some(seq);
        }

        let ack_horizon = Arc::new(AtomicU64::new(ctx_start));
        let stats = WalStats::resolve();
        let mut bases = keep;

        // Append in place only when the last kept segment ends exactly
        // at the resume point; otherwise (no segments, or acked records
        // destroyed with the cursor ahead of disk) reseat a fresh
        // segment based at `next_seq`.
        let (writer, seg_bytes, seg_records) = match bases.last() {
            Some(&base) if expected == Some(recovered.next_seq) => {
                let path = segment_path(dir, base);
                let mut f = OpenOptions::new().write(true).open(&path)?;
                let len = f.seek(SeekFrom::End(0))?;
                (BufWriter::new(f), len, recovered.next_seq - base)
            }
            _ => {
                let base = recovered.next_seq;
                let path = segment_path(dir, base);
                let mut f = File::create(&path)?;
                f.write_all(SEGMENT_MAGIC)?;
                f.flush()?;
                bases.push(base);
                (BufWriter::new(f), 8, 0)
            }
        };

        Ok((
            PartitionWal {
                dir: dir.to_path_buf(),
                config,
                writer,
                writer_torn: false,
                seg_bytes,
                seg_records,
                seg_opened: Instant::now(),
                next_seq: recovered.next_seq,
                segments: bases,
                ack_horizon,
                stats,
                scratch: Vec::new(),
            },
            recovered,
        ))
    }

    /// Next sequence number an append would be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Shared commit horizon: the committer stores
    /// `next_seq - window_fill` here after each durable ack; segment
    /// retirement reads it.
    pub fn ack_horizon(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.ack_horizon)
    }

    /// Appends one record, flushing before return. The returned sequence
    /// number is durably on disk when this returns `Ok`.
    ///
    /// A failed append (I/O error from the write or flush, e.g. ENOSPC)
    /// is retryable: the segment is reseated — reopened and truncated to
    /// the last known-good offset — before the error returns (or, if
    /// that too fails, on the next append), so a retried append with the
    /// same sequence number can never land behind a torn partial frame.
    pub fn append(&mut self, system: &str, timestamp: u64, message: &str) -> Result<u64, WalError> {
        let seq = self.next_seq;
        self.append_batch(&[(system, timestamp, message)])?;
        Ok(seq)
    }

    /// Group commit: appends a batch of `(system, timestamp, message)`
    /// records, reserving the contiguous sequence range
    /// `next_seq .. next_seq + records.len()`. The frames are encoded
    /// into one contiguous buffer and issued with a single
    /// `write_all`+flush — splitting only where a segment roll lands
    /// mid-batch — so the on-disk layout is frame-for-frame identical to N single
    /// [`PartitionWal::append`] calls, at one syscall pair per segment
    /// instead of one per record. On `Ok` every record in the range is
    /// durably on disk.
    ///
    /// Failure semantics extend the reseat-before-retry contract to
    /// batch granularity. Chunks flushed before the failure point are
    /// durable and `next_seq` has advanced past them; the failing chunk
    /// never lands partially — the writer is reseated to the last
    /// durably-flushed offset before (or, if the reseat itself fails,
    /// after) the error surfaces. `next_seq() - start` therefore tells
    /// the caller exactly which prefix of the batch is durable: those
    /// records must still be enqueued downstream (WAL order == buffer
    /// order), while the suffix was never written and is free to retry
    /// with the sequence numbers it will be re-assigned.
    pub fn append_batch(
        &mut self,
        records: &[(&str, u64, &str)],
    ) -> Result<std::ops::Range<u64>, WalError> {
        let start = self.next_seq;
        if records.is_empty() {
            return Ok(start..start);
        }
        let t0 = Instant::now();
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let mut flushes = 0u64;
        let result = self.append_batch_chunks(records, &mut buf, &mut flushes);
        buf.clear();
        self.scratch = buf;
        let appended = self.next_seq - start;
        if appended > 0 {
            self.stats.batches.inc();
            self.stats.batch_size.record(appended);
            // Flushes this batch avoided relative to one per record.
            self.stats.flush_coalesced.add(appended - flushes);
            self.stats.append_us.record(t0.elapsed().as_micros() as u64);
        }
        result?;
        Ok(start..self.next_seq)
    }

    /// The body of [`PartitionWal::append_batch`]: encodes frames into
    /// `buf`, flushing the accumulated chunk wherever a segment roll
    /// falls (the size decision per frame is exactly a single append's,
    /// with the unwritten chunk counted toward the live segment's size;
    /// the age decision is taken once for the batch) and once at the
    /// end. `flushes` counts the
    /// write+flush syscall pairs actually issued.
    fn append_batch_chunks(
        &mut self,
        records: &[(&str, u64, &str)],
        buf: &mut Vec<u8>,
        flushes: &mut u64,
    ) -> Result<(), WalError> {
        // Records encoded into `buf` but not yet written.
        let mut chunk = 0u64;
        // The segment's age is read once per batch, not per frame: a
        // batch found over age rolls once, at its head, and a roll
        // resets it. Size rolls stay per frame.
        let mut over_age = self.seg_opened.elapsed() >= self.config.segment_max_age;
        for &(system, timestamp, message) in records {
            // One fault consult per record — the same cadence as N
            // single appends, so a seeded plan cannot tell a batched
            // producer from a per-record one. A panic here is a crash
            // landing mid-batch: flushed chunks are durable, the
            // encoded-but-unwritten tail never reaches disk.
            wal_fault(points::WAL_APPEND, "WAL append")?;
            if self.writer_torn {
                self.reseat_writer()?;
            }
            let frame_start = buf.len();
            encode_record_into(buf, self.next_seq + chunk, system, timestamp, message);
            let frame_len = (buf.len() - frame_start) as u64;
            if self.seg_records + chunk > 0 {
                let over_size =
                    self.seg_bytes + frame_start as u64 + frame_len > self.config.segment_max_bytes;
                if over_size || over_age {
                    // The roll lands before this frame: group-commit
                    // the chunk into the closing segment, roll, and
                    // restart the chunk with this frame at its front.
                    self.flush_chunk(&buf[..frame_start], chunk, flushes)?;
                    chunk = 0;
                    self.roll()?;
                    over_age = false;
                    buf.copy_within(frame_start.., 0);
                    buf.truncate(frame_len as usize);
                }
            }
            chunk += 1;
        }
        self.flush_chunk(buf, chunk, flushes)
    }

    /// One group-commit write: the chunk's frames land with a single
    /// `write_all` + flush. On `Ok` every record in the chunk is
    /// durable and the sequence/segment counters advance past it; on
    /// `Err` the writer is reseated and nothing in the chunk survives.
    fn flush_chunk(
        &mut self,
        bytes: &[u8],
        records: u64,
        flushes: &mut u64,
    ) -> Result<(), WalError> {
        if records == 0 {
            return Ok(());
        }
        if let Err(e) = self.write_frame(bytes) {
            self.fail_writer();
            return Err(e.into());
        }
        *flushes += 1;
        self.seg_bytes += bytes.len() as u64;
        self.seg_records += records;
        self.next_seq += records;
        self.stats.records.add(records);
        self.stats.bytes.add(bytes.len() as u64);
        Ok(())
    }

    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)?;
        self.writer.flush()
    }

    /// Marks the writer torn and tries to reseat it immediately; if the
    /// reseat itself fails the flag stays set and the next append
    /// retries it before writing anything.
    fn fail_writer(&mut self) {
        self.writer_torn = true;
        let _ = self.reseat_writer();
    }

    /// Reopens the live segment and truncates it to the last known-good
    /// offset (`seg_bytes`), discarding any partial frame a failed
    /// append left on disk and any bytes the old `BufWriter` retained.
    fn reseat_writer(&mut self) -> Result<(), WalError> {
        let base = *self.segments.last().expect("an open segment always exists");
        let mut f = OpenOptions::new()
            .write(true)
            .open(segment_path(&self.dir, base))?;
        f.set_len(self.seg_bytes)?;
        f.seek(SeekFrom::Start(self.seg_bytes))?;
        // `into_parts` discards the old writer's retained bytes without
        // the flush-on-drop a plain replacement would trigger — that
        // flush could re-write the torn bytes behind the truncation.
        let old = std::mem::replace(&mut self.writer, BufWriter::new(f));
        let _ = old.into_parts();
        self.writer_torn = false;
        Ok(())
    }

    /// Test-only: a failed append's aftermath — junk bytes past the
    /// last good frame and a torn writer, as a short write under
    /// ENOSPC/EIO would leave them.
    #[cfg(test)]
    fn simulate_torn_append(&mut self, junk: &[u8]) {
        self.writer.write_all(junk).unwrap();
        self.writer.flush().unwrap();
        self.writer_torn = true;
    }

    /// Closes the current segment and opens a fresh one based at the
    /// next sequence number, then retires fully-acked history.
    fn roll(&mut self) -> Result<(), WalError> {
        wal_fault(points::WAL_ROLL, "WAL segment roll")?;
        if let Err(e) = self.writer.flush() {
            self.fail_writer();
            return Err(e.into());
        }
        let base = self.next_seq;
        let path = segment_path(&self.dir, base);
        let mut f = File::create(&path)?;
        f.write_all(SEGMENT_MAGIC)?;
        f.flush()?;
        self.writer = BufWriter::new(f);
        self.seg_bytes = 8;
        self.seg_records = 0;
        self.seg_opened = Instant::now();
        self.segments.push(base);
        self.stats.rolls.inc();
        self.retire_segments()?;
        Ok(())
    }

    /// Deletes segments wholly behind the commit horizon, keeping
    /// [`WalConfig::retain_segments`] of acked history.
    fn retire_segments(&mut self) -> Result<(), WalError> {
        let horizon = self.ack_horizon.load(Ordering::Relaxed);
        // A segment is fully acked iff the *next* segment's base is at
        // or below the horizon (its records all have seq < horizon).
        let mut acked = 0usize;
        for i in 0..self.segments.len().saturating_sub(1) {
            if self.segments[i + 1] <= horizon {
                acked = i + 1;
            } else {
                break;
            }
        }
        let retire = acked.saturating_sub(self.config.retain_segments);
        if retire == 0 {
            return Ok(());
        }
        for &base in &self.segments[..retire] {
            fs::remove_file(segment_path(&self.dir, base))?;
            self.stats.retired.inc();
        }
        self.segments.drain(..retire);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cursor file (durable acks)
// ---------------------------------------------------------------------------

/// Append handle for one partition's cursor log — the durable ack
/// stream. Owned by the detection worker; one [`CursorFile::commit`] per
/// finished batch. Compacts itself (rewrite + rename, consulting the
/// `persist.io` fault point) once the log grows past a threshold, since
/// only the last valid frame matters.
pub struct CursorFile {
    path: PathBuf,
    writer: BufWriter<File>,
    bytes: u64,
    commits: Arc<telemetry::Counter>,
}

impl CursorFile {
    /// Opens (creating if absent) the cursor log in `dir`, truncating
    /// any torn tail so appends extend a valid prefix. A file whose
    /// header never made it to disk intact is recreated from scratch.
    pub fn open(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir)?;
        let path = cursor_path(dir);
        let valid_len = match fs::read(&path) {
            Ok(bytes) => {
                let scan = scan_file(&bytes, CURSOR_MAGIC, KIND_CURSOR);
                if scan.valid_len < 8 {
                    // Empty, short, or garbage header (a kill between
                    // `File::create` and the magic write, or corrupted
                    // first bytes): recreate the file with a fresh magic.
                    // Appending behind invalid header bytes would make
                    // every future recovery see `BadMagic` and ignore
                    // all committed cursors forever.
                    None
                } else {
                    if scan.tail_error.is_some() && scan.valid_len < bytes.len() as u64 {
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(scan.valid_len)?;
                    }
                    Some(scan.valid_len)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let (file, bytes) = match valid_len {
            Some(len) => {
                let mut f = OpenOptions::new().write(true).open(&path)?;
                f.seek(SeekFrom::Start(len))?;
                (f, len)
            }
            None => {
                let mut f = File::create(&path)?;
                f.write_all(CURSOR_MAGIC)?;
                f.flush()?;
                (f, 8)
            }
        };
        Ok(CursorFile {
            path,
            writer: BufWriter::new(file),
            bytes,
            commits: telemetry::global().scoped("wal").counter("commits"),
        })
    }

    /// Durably commits a cursor: one frame appended and flushed. On `Ok`,
    /// the ack survives a process kill.
    pub fn commit(&mut self, c: &CursorState) -> Result<(), WalError> {
        wal_fault(points::WAL_APPEND, "WAL cursor-log append")?;
        let frame = encode_cursor(c);
        if self.bytes + frame.len() as u64 > CURSOR_COMPACT_AT {
            self.compact(&frame)?;
        } else {
            self.writer.write_all(&frame)?;
            self.writer.flush()?;
            self.bytes += frame.len() as u64;
        }
        self.commits.inc();
        Ok(())
    }

    /// Rewrites the log as magic + one frame via tmp-file + rename.
    fn compact(&mut self, frame: &[u8]) -> Result<(), WalError> {
        if let Some(Fault::Panic) = faults::inject(points::PERSIST_IO) {
            panic!("{}: WAL cursor-log compaction", faults::PANIC_MARKER);
        }
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(CURSOR_MAGIC)?;
            f.write_all(frame)?;
            f.flush()?;
        }
        fs::rename(&tmp, &self.path)?;
        let mut f = OpenOptions::new().write(true).open(&self.path)?;
        let len = f.seek(SeekFrom::End(0))?;
        self.writer = BufWriter::new(f);
        self.bytes = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lswal-unit-{}-{}-{tag}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(seq: u64, msg: &str) -> WalRecord {
        WalRecord {
            seq,
            system: "sys-a".into(),
            timestamp: 1000 + seq,
            message: msg.into(),
        }
    }

    #[test]
    fn frame_round_trip_record_and_cursor() {
        let r = rec(42, "disk full on /var");
        let bytes = encode_record(&r);
        let (payload, consumed) = next_frame(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decode_payload(payload).unwrap(), Payload::Record(r));

        let c = CursorState {
            next_seq: 7,
            window_fill: 10,
            since_last_window: 3,
            pattern_hits: 1,
            cache_hits: 2,
            model_calls: 3,
            degraded: 4,
            shed: 5,
            quarantined: 6,
            retries: 7,
            reports: 8,
        };
        let bytes = encode_cursor(&c);
        let (payload, _) = next_frame(&bytes).unwrap().unwrap();
        assert_eq!(decode_payload(payload).unwrap(), Payload::Cursor(c));
    }

    #[test]
    fn bit_flip_is_a_typed_crc_error() {
        let mut bytes = encode_record(&rec(0, "hello"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match next_frame(&bytes) {
            Err(WalError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn append_recover_round_trip_across_rolls() {
        let dir = tmp_dir("roundtrip");
        let cfg = WalConfig {
            segment_max_bytes: 160,
            ..WalConfig::default()
        };
        {
            let (mut wal, recovered) = PartitionWal::open(&dir, cfg.clone()).unwrap();
            assert_eq!(recovered.next_seq, 0);
            for i in 0..20 {
                let seq = wal
                    .append("sys-a", 1000 + i, &format!("event {i}"))
                    .unwrap();
                assert_eq!(seq, i);
            }
        }
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "160-byte segments must have rolled"
        );
        let recovered = recover_partition(&dir).unwrap();
        assert!(recovered.tail_error.is_none());
        assert_eq!(recovered.next_seq, 20);
        assert_eq!(recovered.replay.len(), 20);
        for (i, r) in recovered.replay.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.message, format!("event {i}"));
        }
    }

    #[test]
    fn cursor_commits_split_context_and_replay() {
        let dir = tmp_dir("cursor");
        let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..30 {
            wal.append("sys-a", i, &format!("m{i}")).unwrap();
        }
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 12,
            window_fill: 10,
            since_last_window: 2,
            model_calls: 1,
            reports: 1,
            ..CursorState::default()
        })
        .unwrap();
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.cursor.next_seq, 12);
        assert_eq!(r.context.len(), 10, "window_fill records re-primed");
        assert_eq!(r.context[0].seq, 2);
        assert_eq!(r.replay.len(), 18, "unacked tail replayed");
        assert_eq!(r.replay[0].seq, 12);
        assert_eq!(r.next_seq, 30);
    }

    #[test]
    fn last_valid_cursor_wins_and_torn_cursor_tail_is_ignored() {
        let dir = tmp_dir("cursor-tail");
        let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..5 {
            wal.append("s", i, "m").unwrap();
        }
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 2,
            ..CursorState::default()
        })
        .unwrap();
        cf.commit(&CursorState {
            next_seq: 4,
            ..CursorState::default()
        })
        .unwrap();
        drop(cf);
        // Torn tail: half a frame of garbage.
        let mut bytes = fs::read(cursor_path(&dir)).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        fs::write(cursor_path(&dir), &bytes).unwrap();
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.cursor.next_seq, 4, "last valid cursor frame wins");
        // Reopening for commit truncates the torn tail.
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 5,
            ..CursorState::default()
        })
        .unwrap();
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.cursor.next_seq, 5);
    }

    #[test]
    fn torn_segment_tail_stops_cleanly_and_open_truncates() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
            for i in 0..10 {
                wal.append("s", i, &format!("msg {i}")).unwrap();
            }
        }
        let base = list_segments(&dir).unwrap()[0];
        let path = segment_path(&dir, base);
        let full = fs::read(&path).unwrap();
        // Chop mid-frame: keep all but the last 5 bytes.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full.len() as u64 - 5).unwrap();
        drop(f);

        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.replay.len(), 9, "last record torn off");
        assert!(matches!(r.tail_error, Some(WalError::Truncated { .. })));

        // Reopen for append: tail truncated, appends continue seamlessly.
        let (mut wal, r) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(r.next_seq, 9);
        wal.append("s", 99, "after recovery").unwrap();
        drop(wal);
        let r = recover_partition(&dir).unwrap();
        assert!(r.tail_error.is_none());
        assert_eq!(r.replay.len(), 10);
        assert_eq!(r.replay[9].message, "after recovery");
    }

    #[test]
    fn failed_append_reseats_the_segment_before_retry() {
        let dir = tmp_dir("reseat");
        let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..3 {
            wal.append("s", i, &format!("m{i}")).unwrap();
        }
        // A failed append leaves half a frame on disk and the writer
        // torn; the retried append (same seq) must land behind the last
        // good frame, not behind the junk.
        wal.simulate_torn_append(&[7, 0, 0, 0, 0xde, 0xad]);
        let seq = wal.append("s", 3, "after failure").unwrap();
        assert_eq!(seq, 3);
        drop(wal);
        let r = recover_partition(&dir).unwrap();
        assert!(
            r.tail_error.is_none(),
            "torn bytes must not survive the reseat: {:?}",
            r.tail_error
        );
        assert_eq!(r.replay.len(), 4);
        assert_eq!(r.replay[3].seq, 3);
        assert_eq!(r.replay[3].message, "after failure");
    }

    #[test]
    fn append_batch_round_trips_across_rolls() {
        let dir = tmp_dir("batch-roundtrip");
        let cfg = WalConfig {
            segment_max_bytes: 160,
            ..WalConfig::default()
        };
        let messages: Vec<String> = (0..25).map(|i| format!("batched event {i}")).collect();
        {
            let (mut wal, _) = PartitionWal::open(&dir, cfg).unwrap();
            let entries: Vec<(&str, u64, &str)> = messages
                .iter()
                .enumerate()
                .map(|(i, m)| ("sys-a", 1000 + i as u64, m.as_str()))
                .collect();
            let range = wal.append_batch(&entries).unwrap();
            assert_eq!(range, 0..25);
            assert_eq!(wal.next_seq(), 25);
        }
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "160-byte segments must have rolled mid-batch"
        );
        let r = recover_partition(&dir).unwrap();
        assert!(r.tail_error.is_none());
        assert_eq!(r.replay.len(), 25);
        for (i, rec) in r.replay.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.message, messages[i]);
        }
    }

    #[test]
    fn append_batch_is_byte_identical_to_single_appends() {
        let cfg = WalConfig {
            segment_max_bytes: 200,
            ..WalConfig::default()
        };
        let entries: Vec<(String, u64, String)> = (0..18)
            .map(|i| (format!("sys-{}", i % 3), i, format!("event payload {i}")))
            .collect();
        let refs: Vec<(&str, u64, &str)> = entries
            .iter()
            .map(|(s, t, m)| (s.as_str(), *t, m.as_str()))
            .collect();

        let singles = tmp_dir("parity-singles");
        {
            let (mut wal, _) = PartitionWal::open(&singles, cfg.clone()).unwrap();
            for &(system, ts, msg) in &refs {
                wal.append(system, ts, msg).unwrap();
            }
        }
        let batched = tmp_dir("parity-batched");
        {
            let (mut wal, _) = PartitionWal::open(&batched, cfg).unwrap();
            wal.append_batch(&refs).unwrap();
        }

        let a = list_segments(&singles).unwrap();
        let b = list_segments(&batched).unwrap();
        assert_eq!(a, b, "same segment bases, same roll points");
        for base in a {
            assert_eq!(
                fs::read(segment_path(&singles, base)).unwrap(),
                fs::read(segment_path(&batched, base)).unwrap(),
                "segment {base:#x} must be byte-identical"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dir = tmp_dir("batch-empty");
        let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.append_batch(&[]).unwrap(), 0..0);
        assert_eq!(wal.next_seq(), 0);
    }

    #[test]
    fn failed_batch_reseats_and_the_retry_lands_clean() {
        let dir = tmp_dir("batch-reseat");
        let (mut wal, _) = PartitionWal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch(&[("s", 0, "m0"), ("s", 1, "m1")]).unwrap();
        // A failed group commit leaves junk past the last good frame and
        // a torn writer; the retried batch (same starting seq) must land
        // behind the flushed prefix, not behind the junk.
        wal.simulate_torn_append(&[13, 0, 0, 0, 0xbe, 0xef, 0x01]);
        let range = wal
            .append_batch(&[("s", 2, "after failure"), ("s", 3, "and another")])
            .unwrap();
        assert_eq!(range, 2..4);
        drop(wal);
        let r = recover_partition(&dir).unwrap();
        assert!(
            r.tail_error.is_none(),
            "torn bytes must not survive the reseat: {:?}",
            r.tail_error
        );
        assert_eq!(r.replay.len(), 4);
        assert_eq!(r.replay[2].message, "after failure");
        assert_eq!(r.replay[3].message, "and another");
    }

    #[test]
    fn cursor_open_recreates_empty_short_or_garbage_header() {
        // SIGKILL between File::create and the magic write: empty file.
        let dir = tmp_dir("cursor-empty");
        fs::create_dir_all(&dir).unwrap();
        fs::write(cursor_path(&dir), b"").unwrap();
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 3,
            ..CursorState::default()
        })
        .unwrap();
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.cursor.next_seq, 3, "commit readable behind fresh magic");

        // Short header: fewer than 8 bytes ever hit disk.
        let dir = tmp_dir("cursor-short");
        fs::create_dir_all(&dir).unwrap();
        fs::write(cursor_path(&dir), b"LSW").unwrap();
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 5,
            ..CursorState::default()
        })
        .unwrap();
        assert_eq!(recover_partition(&dir).unwrap().cursor.next_seq, 5);

        // Corrupted magic with well-formed frames behind it: nothing
        // after a bad header is trustworthy — recreate, don't append.
        let dir = tmp_dir("cursor-badmagic");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"XXXXXXXX".to_vec();
        bytes.extend_from_slice(&encode_cursor(&CursorState {
            next_seq: 9,
            ..CursorState::default()
        }));
        fs::write(cursor_path(&dir), &bytes).unwrap();
        let mut cf = CursorFile::open(&dir).unwrap();
        cf.commit(&CursorState {
            next_seq: 4,
            ..CursorState::default()
        })
        .unwrap();
        let r = recover_partition(&dir).unwrap();
        assert_eq!(
            r.cursor.next_seq, 4,
            "stale frames behind bad magic dropped"
        );
    }

    #[test]
    fn retention_retires_fully_acked_segments() {
        let dir = tmp_dir("retention");
        let cfg = WalConfig {
            segment_max_bytes: 160,
            retain_segments: 1,
            ..WalConfig::default()
        };
        let (mut wal, _) = PartitionWal::open(&dir, cfg).unwrap();
        let horizon = wal.ack_horizon();
        for i in 0..40 {
            wal.append("s", i, &format!("event {i}")).unwrap();
            horizon.store(i, Ordering::Relaxed);
        }
        let n_live = list_segments(&dir).unwrap().len();
        assert!(n_live < 8, "acked segments must be retired, kept {n_live}");
        // Everything at/after the horizon must still be recoverable.
        let r = recover_partition(&dir).unwrap();
        assert!(r.replay.iter().any(|rec| rec.seq == 39));
    }

    #[test]
    fn age_based_roll() {
        let dir = tmp_dir("age");
        let cfg = WalConfig {
            segment_max_age: Duration::from_millis(5),
            ..WalConfig::default()
        };
        let (mut wal, _) = PartitionWal::open(&dir, cfg).unwrap();
        wal.append("s", 0, "first").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        wal.append("s", 1, "second").unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.replay.len(), 2);
    }

    #[test]
    fn a_batch_into_an_over_age_segment_rolls_once_at_its_head() {
        let dir = tmp_dir("age-batch");
        let cfg = WalConfig {
            segment_max_age: Duration::from_millis(5),
            ..WalConfig::default()
        };
        let (mut wal, _) = PartitionWal::open(&dir, cfg).unwrap();
        wal.append("s", 0, "first").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let batch: Vec<(&str, u64, &str)> = (1..6).map(|i| ("s", i, "later")).collect();
        assert_eq!(wal.append_batch(&batch).unwrap(), 1..6);
        // One roll, before the batch's first frame: the old segment keeps
        // seq 0, the new one (based at 1) holds the whole batch.
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1]);
        drop(wal);
        let r = recover_partition(&dir).unwrap();
        let seqs: Vec<u64> = r.replay.iter().map(|rec| rec.seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cursor_log_compacts_past_threshold() {
        let dir = tmp_dir("compact");
        fs::create_dir_all(&dir).unwrap();
        let mut cf = CursorFile::open(&dir).unwrap();
        // Each cursor frame is ~89 bytes; force well past the 64 KiB cap.
        for i in 0..1000 {
            cf.commit(&CursorState {
                next_seq: i,
                ..CursorState::default()
            })
            .unwrap();
        }
        let len = fs::metadata(cursor_path(&dir)).unwrap().len();
        assert!(
            len < CURSOR_COMPACT_AT,
            "cursor log must compact, got {len}"
        );
        let r = recover_partition(&dir).unwrap();
        assert_eq!(r.cursor.next_seq, 999);
    }
}
