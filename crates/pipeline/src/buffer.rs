//! The Kafka-stage buffer: bounded, partitioned, backpressuring.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::PipelineError;
use crate::faults::{self, points, Fault};
use crate::record::RawLog;

/// The FNV-1a hash behind keyed partition routing, shared by the buffer
/// and every producer handle so routing decisions agree everywhere.
fn system_hash(system: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in system.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Buffer throughput counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Messages accepted.
    pub enqueued: u64,
    /// Messages handed to consumers.
    pub dequeued: u64,
}

/// A bounded, partitioned log buffer. Producers block when a partition is
/// full (backpressure, like a Kafka producer with acks); each partition is
/// drained by exactly one consumer.
pub struct LogBuffer {
    senders: Vec<Sender<RawLog>>,
    receivers: Vec<Receiver<RawLog>>,
    stats: Arc<Mutex<BufferStats>>,
    /// Per-partition occupancy, maintained on both sides of the channel
    /// (the vendored channel has no `len()`); feeds queue-depth telemetry.
    depths: Arc<Vec<AtomicI64>>,
}

impl LogBuffer {
    /// Creates a buffer with `partitions` queues of `capacity` each.
    pub fn new(partitions: usize, capacity: usize) -> Self {
        assert!(partitions > 0 && capacity > 0);
        let mut senders = Vec::with_capacity(partitions);
        let mut receivers = Vec::with_capacity(partitions);
        for _ in 0..partitions {
            let (s, r) = bounded(capacity);
            senders.push(s);
            receivers.push(r);
        }
        LogBuffer {
            senders,
            receivers,
            stats: Arc::new(Mutex::new(BufferStats::default())),
            depths: Arc::new((0..partitions).map(|_| AtomicI64::new(0)).collect()),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.senders.len()
    }

    /// Producer handle (cheap to clone).
    pub fn producer(&self) -> Producer {
        Producer {
            senders: self.senders.clone(),
            stats: self.stats.clone(),
            depths: self.depths.clone(),
        }
    }

    /// Consumer handle bound to a single partition — one per detection
    /// worker, so each worker drains exactly its shard and per-system
    /// order is a single-queue property.
    pub fn partition_consumer(&self, partition: usize) -> Consumer {
        Consumer {
            receiver: self.receivers[partition].clone(),
            stats: self.stats.clone(),
            depths: self.depths.clone(),
            partition,
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BufferStats {
        self.stats.lock().clone()
    }

    /// Keyed partition index for a system (exposed for tests).
    pub fn partition_for(&self, system: &str) -> usize {
        (system_hash(system) % self.senders.len() as u64) as usize
    }
}

/// Sending side of the buffer: the raw channel mechanism. Everything
/// that decides *whether* a record may enter (backpressure, shedding,
/// the write-ahead log) lives in [`crate::durable::Ingest`], which owns
/// the pipeline's only `Producer`.
pub struct Producer {
    senders: Vec<Sender<RawLog>>,
    stats: Arc<Mutex<BufferStats>>,
    depths: Arc<Vec<AtomicI64>>,
}

impl Producer {
    /// Number of partitions behind this producer.
    pub fn partitions(&self) -> usize {
        self.senders.len()
    }

    /// The partition a system key routes to (same system → same
    /// partition → per-system ordering, as Kafka gives).
    pub fn partition_for(&self, system: &str) -> usize {
        (system_hash(system) % self.senders.len() as u64) as usize
    }

    /// Logs currently queued in `partition` (telemetry-grade: relaxed
    /// counters, clamped at 0; see [`Consumer::depth`]).
    pub fn depth(&self, partition: usize) -> u64 {
        self.depths[partition].load(Ordering::Relaxed).max(0) as u64
    }

    /// Blocking enqueue of a whole batch into a caller-chosen partition;
    /// blocks while the shard is full (backpressure). The batch goes in
    /// with one [`Sender::send_all`]: one channel lock and one wake-up per
    /// run that fits, and the depth counter and the stats lock are touched
    /// once per batch. On a closed shard the unsent suffix is handed back
    /// with [`PipelineError::BufferClosed`] naming the partition (records
    /// already enqueued are accounted). Panics if `partition` is out of
    /// range.
    pub fn send_many_to(
        &self,
        partition: usize,
        logs: Vec<RawLog>,
    ) -> Result<(), (Vec<RawLog>, PipelineError)> {
        let total = logs.len();
        let closed = self.senders[partition].send_all(logs).err().map(|e| e.0);
        let sent = (total - closed.as_ref().map_or(0, Vec::len)) as i64;
        if sent > 0 {
            self.depths[partition].fetch_add(sent, Ordering::Relaxed);
            self.stats.lock().enqueued += sent as u64;
        }
        match closed {
            Some(rest) => Err((rest, PipelineError::BufferClosed { partition })),
            None => Ok(()),
        }
    }
}

/// Receiving side of the buffer: one partition, one owner.
pub struct Consumer {
    receiver: Receiver<RawLog>,
    stats: Arc<Mutex<BufferStats>>,
    depths: Arc<Vec<AtomicI64>>,
    partition: usize,
}

impl Consumer {
    /// Drains up to `max` logs as one burst: whatever is queued when the
    /// consumer comes for it.
    ///
    /// Returns as soon as `max` logs are in hand, or as soon as the
    /// shard runs dry with at least one log in hand — a batch closes when
    /// its input does, never by waiting for more. With nothing in hand it
    /// blocks up to `deadline` for the first log and returns an empty
    /// batch if none comes (keep polling); `Duration::ZERO` never blocks.
    /// Returns `None` only when the partition is drained *and* all
    /// producers are gone: the definitive end of stream. Queued records
    /// leave the channel in one [`Receiver::try_recv_into`] drain per
    /// lock acquisition, and the dequeue counter is updated once per
    /// batch — one stats-lock round-trip per burst instead of one per
    /// log.
    pub fn recv_batch(&mut self, max: usize, deadline: Duration) -> Option<Vec<RawLog>> {
        // `batch.drain` injection point, consulted before any record is
        // pulled off the channel so an injected panic can never lose logs
        // (the worker's isolation layer re-enters and drains normally).
        match faults::inject(points::BATCH_DRAIN) {
            Some(Fault::Panic) => panic!("{}: batch.drain", faults::PANIC_MARKER),
            Some(Fault::Latency(d)) => std::thread::sleep(d),
            Some(Fault::TransientError) => return Some(Vec::new()),
            Some(Fault::CorruptScore) | None => {}
        }
        let mut out = Vec::with_capacity(max.min(1024));
        let mut closed = false;
        while out.len() < max {
            // Take what is queued in one drain. Once the shard is empty
            // the batch closes if it holds anything; only an empty hand
            // blocks, up to the deadline, for the first record. The depth
            // falls with every drain, before any wait, so a producer's
            // room check never counts records already in hand here.
            let want = max - out.len();
            let moved = match self.receiver.try_recv_into(&mut out, want) {
                Ok(n) => Ok(n),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) if !out.is_empty() => break,
                Err(TryRecvError::Empty) => self.receiver.recv_timeout(deadline).map(|log| {
                    out.push(log);
                    1
                }),
            };
            match moved {
                Ok(n) => {
                    self.depths[self.partition].fetch_sub(n as i64, Ordering::Relaxed);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        if out.is_empty() && closed {
            return None;
        }
        self.stats.lock().dequeued += out.len() as u64;
        Some(out)
    }

    /// Logs currently queued in this consumer's partition. Producer and
    /// consumer update the underlying counter independently with relaxed
    /// atomics, so a reading can be momentarily stale (a transient negative
    /// is clamped to 0) — fine for a telemetry gauge, not a sync primitive.
    pub fn depth(&self) -> u64 {
        self.depths[self.partition].load(Ordering::Relaxed).max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn raw(system: &str, i: u64) -> RawLog {
        RawLog {
            system: system.into(),
            timestamp: i,
            message: format!("m{i}"),
        }
    }

    /// Enqueues `logs` the way a keyed shipper does: each record into
    /// the partition its system hashes to, in stream order.
    fn send_keyed(p: &Producer, logs: impl IntoIterator<Item = RawLog>) {
        for log in logs {
            let part = p.partition_for(&log.system);
            p.send_many_to(part, vec![log]).expect("buffer open");
        }
    }

    fn timestamps(batch: &[RawLog]) -> Vec<u64> {
        batch.iter().map(|l| l.timestamp).collect()
    }

    #[test]
    fn same_system_preserves_order() {
        let buf = LogBuffer::new(4, 64);
        let p = buf.producer();
        send_keyed(&p, (0..20).map(|i| raw("alpha", i)));
        let mut c = buf.partition_consumer(buf.partition_for("alpha"));
        let seen = c.recv_batch(64, Duration::from_millis(10)).unwrap();
        assert_eq!(timestamps(&seen), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_both_sides() {
        let buf = LogBuffer::new(2, 16);
        let p = buf.producer();
        // One batch: the enqueue side is accounted once, for all five.
        p.send_many_to(1, (0..5).map(|i| raw("x", i)).collect())
            .unwrap();
        assert_eq!(p.depth(1), 5);
        assert_eq!(p.depth(0), 0);
        let mut c = buf.partition_consumer(1);
        assert_eq!(c.recv_batch(16, Duration::ZERO).unwrap().len(), 5);
        let s = buf.stats();
        assert_eq!(s.enqueued, 5);
        assert_eq!(s.dequeued, 5);
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn different_systems_route_to_stable_partitions() {
        let buf = LogBuffer::new(3, 8);
        assert_eq!(buf.partition_for("web"), buf.partition_for("web"));
        assert_eq!(
            buf.producer().partition_for("web"),
            buf.partition_for("web")
        );
    }

    #[test]
    fn recv_batch_returns_partial_batch_on_timeout() {
        let buf = LogBuffer::new(1, 64);
        let p = buf.producer();
        send_keyed(&p, (0..3).map(|i| raw("x", i)));
        let mut c = buf.partition_consumer(0);
        // Producer still connected and the batch short of its cap: the
        // shard running dry closes it, whole and in order, long before
        // the deadline.
        let start = Instant::now();
        let batch = c.recv_batch(10, Duration::from_secs(10)).unwrap();
        assert_eq!(
            timestamps(&batch),
            vec![0, 1, 2],
            "a short batch holds everything that was queued"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a short batch closes when the shard runs dry, not at the deadline"
        );
        // Nothing queued: the wait runs to the deadline and comes back
        // empty — an idle poll, not end-of-stream.
        let start = Instant::now();
        assert_eq!(
            c.recv_batch(10, Duration::from_millis(30)).unwrap().len(),
            0
        );
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "an empty hand waits out the deadline"
        );
        // Every sender gone (the buffer holds one per partition) and the
        // queue drained: definitive end of stream.
        drop(p);
        drop(buf);
        assert!(c.recv_batch(10, Duration::from_millis(5)).is_none());
    }

    #[test]
    fn recv_batch_fills_to_cap_without_waiting() {
        let buf = LogBuffer::new(1, 64);
        let p = buf.producer();
        p.send_many_to(0, (0..20).map(|i| raw("x", i)).collect())
            .unwrap();
        let mut c = buf.partition_consumer(0);
        let start = Instant::now();
        let batch = c.recv_batch(8, Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 8, "a full queue fills the cap immediately");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a full batch must not wait for the deadline"
        );
        // Batch accounting hits the stats lock once per burst.
        assert_eq!(buf.stats().dequeued, 8);
    }

    #[test]
    fn partition_consumer_sees_only_its_shard() {
        let buf = LogBuffer::new(4, 64);
        let p = buf.producer();
        send_keyed(&p, (0..12).map(|i| raw("alpha", i)));
        let home = buf.partition_for("alpha");
        let mut consumers: Vec<Consumer> = (0..4).map(|p| buf.partition_consumer(p)).collect();
        // Drop every sender (producer handle and the buffer's own copies)
        // so exhausted shards report end-of-stream.
        drop(p);
        drop(buf);
        for (part, c) in consumers.iter_mut().enumerate() {
            let batch = c.recv_batch(64, Duration::from_millis(5));
            if part == home {
                let got = batch.expect("home partition holds the stream");
                assert_eq!(
                    timestamps(&got),
                    (0..12).collect::<Vec<_>>(),
                    "per-system order within the shard"
                );
                assert!(
                    c.recv_batch(64, Duration::from_millis(5)).is_none(),
                    "drained shard ends the stream"
                );
            } else {
                assert!(batch.is_none(), "foreign shards are empty and disconnected");
            }
        }
    }

    #[test]
    fn closed_shard_hands_back_the_unsent_suffix() {
        let buf = LogBuffer::new(2, 8);
        let p = buf.producer();
        let c = buf.partition_consumer(1);
        drop(c);
        drop(buf);
        let (rest, err) = p
            .send_many_to(1, (0..3).map(|i| raw("x", i)).collect())
            .unwrap_err();
        assert_eq!(err, PipelineError::BufferClosed { partition: 1 });
        assert_eq!(timestamps(&rest), vec![0, 1, 2]);
        assert_eq!(p.depth(1), 0, "nothing was enqueued, nothing is accounted");

        // A closed shard never blocks, even for more than it has room for.
        let (rest, _) = p
            .send_many_to(1, (0..20).map(|i| raw("x", i)).collect())
            .unwrap_err();
        assert_eq!(timestamps(&rest), (0..20).collect::<Vec<_>>());

        // Closed while a batch larger than the free room is half in: the
        // records that went in are accounted, the rest come back in order.
        let buf = LogBuffer::new(1, 4);
        let p = buf.producer();
        let mut c = buf.partition_consumer(0);
        let sender = std::thread::spawn(move || {
            let out = p.send_many_to(0, (0..10).map(|i| raw("x", i)).collect());
            (out, p.depth(0))
        });
        let first = c.recv_batch(4, Duration::from_secs(10)).unwrap();
        assert_eq!(timestamps(&first), vec![0, 1, 2, 3]);
        std::thread::sleep(Duration::from_millis(20));
        drop(c);
        let stats = buf.stats();
        drop(buf);
        let (out, depth) = sender.join().unwrap();
        let (rest, err) = out.unwrap_err();
        assert_eq!(err, PipelineError::BufferClosed { partition: 0 });
        let sent = 10 - rest.len() as u64;
        assert!(sent >= 4, "the drained records were sent");
        assert_eq!(timestamps(&rest), (sent..10).collect::<Vec<_>>());
        assert_eq!(depth, sent - 4, "sent minus the four dequeued");
        assert_eq!(stats.dequeued, 4);
    }

    #[test]
    fn a_batch_three_times_the_capacity_reaches_a_slow_consumer_whole_and_in_order() {
        let buf = LogBuffer::new(1, 8);
        let p = buf.producer();
        let mut c = buf.partition_consumer(0);
        let sender = std::thread::spawn(move || {
            p.send_many_to(0, (0..24).map(|i| raw("x", i)).collect())
                .unwrap()
        });
        let mut got = Vec::new();
        while got.len() < 24 {
            std::thread::sleep(Duration::from_millis(2));
            got.extend(c.recv_batch(5, Duration::from_millis(20)).unwrap());
        }
        sender.join().unwrap();
        assert_eq!(timestamps(&got), (0..24).collect::<Vec<_>>());
        let s = buf.stats();
        assert_eq!((s.enqueued, s.dequeued), (24, 24));
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn depth_falls_while_a_short_batch_waits_out_its_deadline() {
        let buf = LogBuffer::new(1, 64);
        let p = buf.producer();
        let mut c = buf.partition_consumer(0);
        // A consumer blocked with an empty hand takes the first record
        // off the wait and the rest off the queue (the three went in
        // under one lock): they come back as one batch, before the
        // deadline, and none is still counted as queued.
        let start = Instant::now();
        let consumer = std::thread::spawn(move || {
            let batch = c.recv_batch(10, Duration::from_secs(10));
            (c, batch)
        });
        p.send_many_to(0, (0..3).map(|i| raw("x", i)).collect())
            .unwrap();
        let (mut c, batch) = consumer.join().unwrap();
        assert_eq!(timestamps(&batch.unwrap()), vec![0, 1, 2]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a short batch returns before the deadline"
        );
        assert_eq!(p.depth(0), 0, "records in hand still counted as queued");
        // A batch capped short of the queue: exactly what is left behind
        // is counted, nothing in hand is.
        p.send_many_to(0, (3..13).map(|i| raw("x", i)).collect())
            .unwrap();
        let batch = c.recv_batch(4, Duration::from_secs(10)).unwrap();
        assert_eq!(timestamps(&batch), (3..7).collect::<Vec<_>>());
        assert_eq!(p.depth(0), 6, "records in hand still counted as queued");
        let batch = c.recv_batch(64, Duration::from_secs(10)).unwrap();
        assert_eq!(timestamps(&batch), (7..13).collect::<Vec<_>>());
        assert_eq!(p.depth(0), 0);
    }

    #[test]
    fn producer_blocks_until_consumed() {
        // Capacity-1 buffer: a second send must wait for the consumer.
        let buf = LogBuffer::new(1, 1);
        let p = buf.producer();
        let mut c = buf.partition_consumer(0);
        p.send_many_to(0, vec![raw("x", 0)]).unwrap();
        let handle = std::thread::spawn(move || {
            // Blocks until the consumer drains one.
            p.send_many_to(0, vec![raw("x", 1)]).unwrap();
            "sent"
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            c.recv_batch(1, Duration::from_millis(100)).unwrap().len(),
            1
        );
        assert_eq!(handle.join().unwrap(), "sent");
        assert_eq!(
            c.recv_batch(1, Duration::from_millis(100)).unwrap().len(),
            1
        );
    }
}
