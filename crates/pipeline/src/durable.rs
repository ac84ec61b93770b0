//! The way into the pipeline: [`start_pipeline`] and the [`Ingest`] handle
//! it returns, with an optional segmented write-ahead log between ingest
//! and the partitioned buffer for exactly-once crash recovery.
//!
//! There is one start and one producing handle. What
//! [`PipelineConfig::wal`] switches is whether a log sits behind each
//! partition lane: with `None`, a record acknowledged to the producer
//! lives only in a channel, and a process kill loses everything queued
//! and every half-filled window. With `Some`, one [`PartitionWal`] per
//! buffer partition is interposed:
//!
//! ```text
//!   producer ──▶ WAL append + flush ──▶ buffer partition ──▶ worker
//!                      │                                       │
//!                      └── seg-XXXX.wal          cursor.log ◀──┘ commit
//! ```
//!
//! - **Append before ack**: [`Ingest`] appends and flushes the batch to
//!   the partition's segment file *before* enqueuing it, under one
//!   per-partition lock — so WAL order is exactly buffer order, and an
//!   acknowledged record survives a process kill.
//! - **Commit after account**: each detection worker commits a
//!   [`CursorState`] to its partition's cursor log after every batch —
//!   the next sequence number, the window assembler's fill, the six-tier
//!   verdict counters, and the reports delivered so far.
//! - **Replay on restart**: [`start_pipeline`] recovers each partition,
//!   re-primes the window assembler with the records the cursor says
//!   were buffered (context — *not* re-counted), and replays every
//!   unacked record through the buffer before any live traffic, with the
//!   counters restored from the cursor. The six-bucket accounting
//!   invariant (`pattern + cache + model + degraded + shed + quarantined
//!   == windows`) therefore holds *across* the crash, and re-delivered
//!   reports are exactly the suffix after the last committed cursor —
//!   deduplicating on `(system, first_seq_no)` yields exactly-once
//!   delivery end to end.
//!
//! Durability is against process death (`SIGKILL` mid-stream): appends
//! are flushed to the OS before the ack, not `fsync`ed per record — an
//! OS crash can lose the tail the page cache still held. See
//! `docs/wal.md` for the format, the recovery state machine, and the
//! retention knobs.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use logsynergy::wal::{CursorFile, CursorState, PartitionWal, WalConfig, WalError};
use logsynergy_telemetry as telemetry;
use parking_lot::Mutex;

use crate::buffer::{LogBuffer, Producer};
use crate::detect::SequenceScorer;
use crate::error::PipelineError;
use crate::record::{format_log, RawLog, StructuredLog};
use crate::report::ReportSink;
use crate::service::{DetectionPool, PipelineConfig};
use crate::vectorizer::EventVectorizer;

/// Where and how the pipeline keeps its write-ahead log. Stored in
/// [`PipelineConfig::wal`]; `None` leaves the partition lanes in memory.
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Root directory; each partition owns the subdirectory `p{index}`.
    pub dir: PathBuf,
    /// Roll to a new segment file past this size.
    pub segment_max_bytes: u64,
    /// Roll to a new segment file past this age (checked on append).
    pub segment_max_age: Duration,
    /// Fully-acked segments kept behind the commit horizon before
    /// retirement (history for replay tooling).
    pub retain_segments: usize,
}

impl WalOptions {
    /// Durable mode rooted at `dir`, with the default segment knobs.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let defaults = WalConfig::default();
        WalOptions {
            dir: dir.into(),
            segment_max_bytes: defaults.segment_max_bytes,
            segment_max_age: defaults.segment_max_age,
            retain_segments: defaults.retain_segments,
        }
    }

    /// The per-partition appender configuration these options describe.
    pub fn wal_config(&self) -> WalConfig {
        WalConfig {
            segment_max_bytes: self.segment_max_bytes,
            segment_max_age: self.segment_max_age,
            retain_segments: self.retain_segments,
        }
    }

    /// The directory holding partition `p`'s segments and cursor log.
    pub fn partition_dir(&self, partition: usize) -> PathBuf {
        self.dir.join(format!("p{partition}"))
    }
}

/// Everything a detection worker needs to run durably: the recovered
/// cursor, the window-assembler context to re-prime, the cursor-log
/// committer, and the shared ack horizon retention reads.
pub(crate) struct DurableWorkerInit {
    pub(crate) cursor: CursorState,
    pub(crate) context: Vec<StructuredLog>,
    pub(crate) committer: CursorFile,
    pub(crate) ack_horizon: Arc<AtomicU64>,
}

/// The pipeline's one producing handle. Each buffer partition has a
/// *lane*: a lock, and behind it either a [`PartitionWal`] or nothing
/// (in-memory). Every enqueue is one algorithm — lock the lane, work
/// out what fits, append the batch to the log if there is one, enqueue —
/// and a single record is a batch of one.
pub struct Ingest {
    inner: Producer,
    lanes: Vec<Mutex<Option<PartitionWal>>>,
    capacity: usize,
}

/// What did not land, in order, and why.
type Refusal = (Vec<RawLog>, PipelineError);

impl Ingest {
    /// Number of partitions behind this handle.
    pub fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    /// The partition a system key routes to.
    pub fn partition_for(&self, system: &str) -> usize {
        self.inner.partition_for(system)
    }

    /// Logs currently queued in `partition` (telemetry-grade).
    pub fn depth(&self, partition: usize) -> u64 {
        self.inner.depth(partition)
    }

    /// Blocking send of one record, partition chosen by the system key:
    /// [`Ingest::send_batch`] of one.
    pub fn send(&self, log: RawLog) -> Result<(), (RawLog, PipelineError)> {
        let partition = self.inner.partition_for(&log.system);
        match self.send_batch(partition, vec![log]) {
            Ok(_) => Ok(()),
            Err((mut rest, e)) => Err((rest.pop().expect("a refused batch of one"), e)),
        }
    }

    /// Blocking group commit to a caller-chosen partition: the whole
    /// batch is appended with one [`PartitionWal::append_batch`] (one
    /// write+flush per segment touched, not one per record) when the
    /// lane has a log, and enqueued, all under a single lane-lock
    /// acquisition; a full shard blocks (backpressure). Returns the
    /// number of records that landed — the full batch on `Ok`.
    ///
    /// On a mid-batch append failure the durably-flushed prefix is
    /// *still enqueued* (WAL order must equal buffer order — workers
    /// assign sequence numbers by arrival, so skipping a durable record
    /// would desynchronize every seq after it) and the unwritten suffix
    /// is handed back with a retryable [`PipelineError::WalAppend`] —
    /// retrying it re-assigns the same sequence numbers. A closed buffer
    /// after a successful append is `Ok`: the records are parked in the
    /// log and replayed on the next start. With no log behind the lane a
    /// closed buffer hands the unsent suffix back as
    /// [`PipelineError::BufferClosed`].
    pub fn send_batch(&self, partition: usize, logs: Vec<RawLog>) -> Result<usize, Refusal> {
        self.land(partition, logs, true)
    }

    /// [`Ingest::send_batch`] that never blocks on a full shard: the
    /// queue depth is read while holding the lane lock (every enqueue
    /// holds it, so concurrent offers serialize on the check and cannot
    /// all pass it and then stack up blocking on a full shard — workers
    /// draining concurrently only free space), and only the records that
    /// fit under `partition_capacity` are appended — a refused record
    /// was never made durable and is free to shed. `Err` hands back the
    /// untouched suffix: on [`PipelineError::BufferFull`] the accepted
    /// prefix (`batch_len - suffix_len`) is durable and enqueued; on
    /// [`PipelineError::WalAppend`] likewise, with the suffix free to
    /// retry.
    pub fn offer_batch(&self, partition: usize, logs: Vec<RawLog>) -> Result<usize, Refusal> {
        self.land(partition, logs, false)
    }

    fn land(
        &self,
        partition: usize,
        mut logs: Vec<RawLog>,
        may_block: bool,
    ) -> Result<usize, Refusal> {
        let mut lane = self.lanes[partition].lock();
        let mut refusal: Option<Refusal> = None;
        // Refuse *before* any append: once appended a record is
        // acked-durable and can no longer be refused.
        if !may_block {
            let room = (self.capacity as u64).saturating_sub(self.inner.depth(partition)) as usize;
            if room < logs.len() {
                let overflow = logs.split_off(room);
                refusal = Some((overflow, PipelineError::BufferFull { partition }));
            }
        }
        if let Some(wal) = lane.as_mut().filter(|_| !logs.is_empty()) {
            let entries: Vec<(&str, u64, &str)> = logs
                .iter()
                .map(|l| (l.system.as_str(), l.timestamp, l.message.as_str()))
                .collect();
            let start = wal.next_seq();
            let failed = wal.append_batch(&entries).is_err();
            // On failure the WAL advanced `next_seq` only past the chunks
            // it durably flushed; that prefix must be enqueued regardless.
            let durable = (wal.next_seq() - start) as usize;
            drop(entries);
            if failed {
                let unappended = logs.split_off(durable);
                refuse(
                    &mut refusal,
                    unappended,
                    PipelineError::WalAppend { partition },
                );
            }
        }
        // The enqueue stays under the lane lock, so records reach the
        // buffer in append order (worker sequence numbers follow arrival).
        let mut landed = logs.len();
        if let Err((unsent, e)) = self.inner.send_many_to(partition, logs) {
            // A closed buffer behind a log is fine: the records are
            // durable — parked for replay on the next start — and the
            // ack is the WAL. With no log they are simply not ingested.
            if lane.is_none() {
                landed -= unsent.len();
                refuse(&mut refusal, unsent, e);
            }
        }
        match refusal {
            Some(refusal) => Err(refusal),
            None => Ok(landed),
        }
    }
}

/// Puts `head` (refused for `why`) in front of whatever was already
/// refused, keeping the handed-back records in batch order.
fn refuse(refusal: &mut Option<Refusal>, mut head: Vec<RawLog>, why: PipelineError) {
    if let Some((tail, _)) = refusal.take() {
        head.extend(tail);
    }
    *refusal = Some((head, why));
}

/// A started pipeline: the detection pool (join it for the summary), the
/// producing handle, and how many unacked records the start replayed
/// from the log before accepting live traffic.
pub struct RunningPipeline {
    /// The per-partition detection workers.
    pub pool: DetectionPool,
    /// The pipeline's only producing handle. Dropping it ends the
    /// stream.
    pub producer: Ingest,
    /// Unacked records replayed from the log at start (0 in memory).
    pub replayed: u64,
}

/// Starts the pipeline: builds the partitioned buffer, spawns one
/// detection worker per partition, and returns the producing handle.
/// When [`PipelineConfig::wal`] is set it first opens (or recovers) the
/// write-ahead log under it, resumes the workers from their committed
/// cursors, and replays every unacked record in order.
///
/// Recovery is exactly-once with respect to window accounting: records
/// the last committed cursor covered are either skipped (fully
/// accounted) or re-primed as assembler context (buffered, not yet
/// windowed — not re-counted); records past the cursor are re-processed
/// with their original sequence numbers.
pub fn start_pipeline<S, K>(
    vectorizer: EventVectorizer,
    scorer: S,
    sink: K,
    config: &PipelineConfig,
) -> Result<RunningPipeline, WalError>
where
    S: SequenceScorer + Clone + 'static,
    K: ReportSink + Clone + 'static,
{
    let mut lanes = Vec::with_capacity(config.partitions);
    let mut inits = Vec::with_capacity(config.partitions);
    let mut replays = Vec::with_capacity(config.partitions);
    for p in 0..config.partitions {
        let Some(opts) = &config.wal else {
            lanes.push(Mutex::new(None));
            inits.push(None);
            continue;
        };
        let dir = opts.partition_dir(p);
        std::fs::create_dir_all(&dir).map_err(WalError::from)?;
        let (wal, recovered) = PartitionWal::open(&dir, opts.wal_config())?;
        let committer = CursorFile::open(&dir)?;
        let context = recovered
            .context
            .iter()
            .map(|rec| structured(&rec.system, rec.timestamp, &rec.message, rec.seq))
            .collect();
        inits.push(Some(DurableWorkerInit {
            cursor: recovered.cursor,
            context,
            committer,
            ack_horizon: wal.ack_horizon(),
        }));
        replays.push((p, recovered.replay));
        lanes.push(Mutex::new(Some(wal)));
    }

    let buffer = LogBuffer::new(config.partitions, config.partition_capacity);
    let pool = DetectionPool::spawn(&buffer, vectorizer, scorer, sink, config, inits);
    let inner = buffer.producer();
    drop(buffer); // `inner` is now the only sender

    // Replay unacked records into the buffer *before* handing out the
    // producer: the workers are live and draining, so blocking sends
    // make progress even past the partition capacity, and every replayed
    // record precedes any live one — preserving WAL order end to end.
    let mut replayed = 0u64;
    for (p, records) in replays {
        let n = records.len();
        let logs = records
            .into_iter()
            .map(|rec| RawLog {
                system: rec.system,
                timestamp: rec.timestamp,
                message: rec.message,
            })
            .collect();
        // A worker that dies mid-replay closes the shard; the rest of
        // the records stay parked in the log for the next start.
        let unsent = inner
            .send_many_to(p, logs)
            .err()
            .map_or(0, |(rest, _)| rest.len());
        replayed += (n - unsent) as u64;
    }
    if config.wal.is_some() {
        telemetry::global()
            .scoped("wal")
            .counter("replayed")
            .add(replayed);
    }

    Ok(RunningPipeline {
        pool,
        producer: Ingest {
            inner,
            lanes,
            capacity: config.partition_capacity,
        },
        replayed,
    })
}

/// Rebuilds the [`StructuredLog`] a WAL record was (or will be) assigned
/// by its worker: same normalization, same sequence number.
fn structured(system: &str, timestamp: u64, message: &str, seq: u64) -> StructuredLog {
    let raw = RawLog {
        system: system.to_string(),
        timestamp,
        message: message.to_string(),
    };
    format_log(&raw, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Consumer;
    use logsynergy::wal::recover_partition;
    use proptest::prelude::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lswal-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An ingest handle over a fresh one-partition buffer `capacity`
    /// deep — with a log at `dir/p0` behind the lane when `dir` is given,
    /// in memory otherwise — and the partition's consumer.
    fn lane(dir: Option<&Path>, capacity: usize) -> (Ingest, Consumer) {
        let wal = dir.map(|dir| {
            std::fs::create_dir_all(dir.join("p0")).unwrap();
            PartitionWal::open(&dir.join("p0"), WalConfig::default())
                .unwrap()
                .0
        });
        let buffer = LogBuffer::new(1, capacity);
        let producer = Ingest {
            inner: buffer.producer(),
            lanes: vec![Mutex::new(wal)],
            capacity,
        };
        (producer, buffer.partition_consumer(0))
    }

    /// Runs `check` against both lanes: in memory (`None`) and behind a
    /// log rooted at a scratch directory.
    fn for_both_lanes(tag: &str, check: impl Fn(Option<&Path>)) {
        check(None);
        let dir = scratch(tag);
        check(Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn logs(range: std::ops::Range<u64>) -> Vec<RawLog> {
        range
            .map(|i| RawLog {
                system: "web".into(),
                timestamp: i,
                message: format!("m{i}"),
            })
            .collect()
    }

    fn timestamps(logs: &[RawLog]) -> Vec<u64> {
        logs.iter().map(|l| l.timestamp).collect()
    }

    /// Sequence numbers of what the log at `dir/p0` holds.
    fn durable_seqs(dir: &Path) -> Vec<u64> {
        let r = recover_partition(&dir.join("p0")).unwrap();
        r.replay.iter().map(|rec| rec.seq).collect()
    }

    #[test]
    fn options_round_trip_the_wal_config() {
        let opts = WalOptions {
            segment_max_bytes: 512,
            segment_max_age: Duration::from_secs(7),
            retain_segments: 5,
            ..WalOptions::at("/tmp/x")
        };
        let cfg = opts.wal_config();
        assert_eq!(cfg.segment_max_bytes, 512);
        assert_eq!(cfg.segment_max_age, Duration::from_secs(7));
        assert_eq!(cfg.retain_segments, 5);
        assert_eq!(opts.partition_dir(3), Path::new("/tmp/x/p3"));
    }

    #[test]
    fn producer_appends_before_enqueue_and_parks_on_closed_buffer() {
        for_both_lanes("park", |dir| {
            let (producer, mut consumer) = lane(dir, 4);
            let log = logs(1..2).pop().unwrap();
            producer.send(log.clone()).unwrap();
            let got = consumer
                .recv_batch(8, Duration::from_millis(50))
                .expect("record must be enqueued");
            assert_eq!(got.len(), 1);
            // Close the buffer. Behind a log the append still succeeds
            // (the ack is the WAL) and the record is parked for replay;
            // in memory there is nowhere to park it, so it comes back.
            drop(consumer);
            let sent = producer.send(log);
            drop(producer);
            match dir {
                Some(dir) => {
                    sent.unwrap();
                    assert_eq!(durable_seqs(dir), vec![0, 1], "both records are durable");
                }
                None => {
                    let (returned, err) = sent.unwrap_err();
                    assert_eq!(err, PipelineError::BufferClosed { partition: 0 });
                    assert_eq!(returned.timestamp, 1, "the record comes back intact");
                }
            }
        });
    }

    #[test]
    fn offer_refuses_before_appending_when_the_shard_is_full() {
        for_both_lanes("offer", |dir| {
            let (producer, _consumer) = lane(dir, 2);
            assert_eq!(producer.offer_batch(0, logs(0..1)).unwrap(), 1);
            assert_eq!(producer.offer_batch(0, logs(1..2)).unwrap(), 1);
            let (rejected, err) = producer.offer_batch(0, logs(2..3)).unwrap_err();
            assert_eq!(err, PipelineError::BufferFull { partition: 0 });
            assert_eq!(timestamps(&rejected), vec![2]);
            assert_eq!(producer.depth(0), 2);
            drop(producer);
            if let Some(dir) = dir {
                assert_eq!(
                    durable_seqs(dir),
                    vec![0, 1],
                    "the refused record was never appended"
                );
            }
        });
    }

    #[test]
    fn send_batch_preserves_buffer_order_and_durability() {
        for_both_lanes("sendbatch", |dir| {
            let (producer, mut consumer) = lane(dir, 64);
            assert_eq!(producer.send_batch(0, logs(0..10)).unwrap(), 10);
            assert_eq!(producer.send_batch(0, Vec::new()).unwrap(), 0);
            let got = consumer
                .recv_batch(32, Duration::from_millis(50))
                .expect("batch must be enqueued");
            assert_eq!(
                timestamps(&got),
                (0..10).collect::<Vec<_>>(),
                "buffer order == batch order"
            );
            drop(consumer);
            drop(producer);
            if let Some(dir) = dir {
                assert_eq!(
                    durable_seqs(dir),
                    (0..10).collect::<Vec<_>>(),
                    "every record in the batch is durable, WAL order == batch order"
                );
            }
        });
    }

    #[test]
    fn offer_batch_accepts_the_fitting_prefix_and_returns_the_rest() {
        for_both_lanes("offerbatch", |dir| {
            let (producer, _consumer) = lane(dir, 4);
            // 6 offered into a 4-deep shard: 4 land, 2 come back untouched.
            let (rest, err) = producer.offer_batch(0, logs(0..6)).unwrap_err();
            assert_eq!(err, PipelineError::BufferFull { partition: 0 });
            assert_eq!(
                timestamps(&rest),
                vec![4, 5],
                "the suffix is handed back in order"
            );
            // Shard now full: the whole batch bounces, nothing is appended.
            let (rest, err) = producer.offer_batch(0, logs(6..8)).unwrap_err();
            assert_eq!(err, PipelineError::BufferFull { partition: 0 });
            assert_eq!(rest.len(), 2);
            drop(producer);
            if let Some(dir) = dir {
                assert_eq!(
                    durable_seqs(dir),
                    vec![0, 1, 2, 3],
                    "only the accepted prefix is durable"
                );
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For any batch and any queue fill, on either lane: `offer_batch`
        /// returns without anyone draining the shard, every record either
        /// landed or came back (`landed + rest == batch`), both halves
        /// keep batch order, and a log advanced by exactly `landed`.
        #[test]
        fn offer_batch_never_blocks_and_conserves_the_batch(
            fill in 0u64..=8,
            batch in 0u64..20,
            wal in any::<bool>(),
        ) {
            let dir = wal.then(|| scratch("prop"));
            let (producer, mut consumer) = lane(dir.as_deref(), 8);
            prop_assert_eq!(producer.send_batch(0, logs(0..fill)).unwrap(), fill as usize);

            // Nothing drains the shard while the offer runs: an offer
            // that blocked on the full channel would never report back.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let offered = std::thread::spawn(move || {
                let result = producer.offer_batch(0, logs(fill..fill + batch));
                done_tx.send(()).unwrap();
                result
            });
            prop_assert!(
                done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
                "offer_batch blocked on a shard holding {} of 8", fill
            );
            let (landed, rest) = match offered.join().unwrap() {
                Ok(n) => (n as u64, Vec::new()),
                Err((rest, err)) => {
                    prop_assert_eq!(err, PipelineError::BufferFull { partition: 0 });
                    (batch - rest.len() as u64, rest)
                }
            };
            prop_assert_eq!(landed, batch.min(8 - fill), "exactly what fits lands");
            prop_assert_eq!(timestamps(&rest), (fill + landed..fill + batch).collect::<Vec<_>>());
            let queued = consumer.recv_batch(64, Duration::ZERO).unwrap_or_default();
            prop_assert_eq!(timestamps(&queued), (0..fill + landed).collect::<Vec<_>>());
            if let Some(dir) = dir {
                prop_assert_eq!(durable_seqs(&dir), (0..fill + landed).collect::<Vec<_>>());
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
