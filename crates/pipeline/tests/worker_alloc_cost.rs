//! The worker side's allocations per log, pinned under a counting global
//! allocator (its own test binary — a `#[global_allocator]` is
//! process-wide). The streams, the model recipe and the one-partition
//! configuration are the ones `benchmark/` serves, so a ceiling here moves
//! only when the record path's allocations do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use logsynergy::api::Pipeline;
use logsynergy::LogSynergyModel;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, DatasetSpec, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, LogBuffer, MemorySink, ModelScorer, PipelineConfig, RawLog,
};

/// Allocations (incl. reallocations) made by every thread of the process:
/// the pipeline runs on a shipper thread and one worker per partition.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The same count for the calling thread alone, for single-threaded
    /// measurements the test harness's own threads must not disturb.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// One measurement at a time: the counter is process-wide and the test
/// harness runs tests concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAllocator;

fn count_one() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a plain atomic and
// a `Cell<u64>` with a const initialiser and no destructor, so touching
// them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the process makes while `f` runs (its result is dropped
/// after the count is read).
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    drop(out);
    after - before
}

/// Allocations the calling thread makes while `f` runs.
fn thread_allocations_in(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Records per stream: large enough that per-run set-up (threads, the
/// first batch's buffers) is a small share of the per-log figure.
const LOGS: usize = 40_000;

/// The benchmark's model: System-B target, `Pipeline::scaled()`, 4 epochs
/// on 800 source / 200 target sequences, and a vectorizer warm-started on
/// the training slice of the target's history.
fn benchmark_model() -> (Arc<LogSynergyModel>, EventVectorizer) {
    const SCALE: f64 = 0.02;
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 4;
    p.train_config.n_source = 800;
    p.train_config.n_target = 200;
    let src_a = p.prepare(&datasets::system_a().generate_with(SCALE / 2.5, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(SCALE, 4.0));
    let history = datasets::system_b().generate_with(SCALE, 4.0);
    let target = p.prepare(&history);
    let (model, _) = p.fit(&[&src_a, &src_c], &target);
    let warm = p.train_config.n_target * 5 + 10;
    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        p.model_config.embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(history.records[..warm].iter().map(|r| r.message.as_str()));
    (Arc::new(model), vectorizer)
}

/// `n` fresh System-B records shaped like the benchmark's live streams:
/// session traffic (mostly pattern-library hits) or i.i.d. traffic
/// (mostly model-tier windows), all from one system, so one partition.
fn stream(sessions: bool, n: usize) -> Vec<RawLog> {
    let base = datasets::system_b();
    let grow = n as f64 / base.n_logs as f64;
    let spec = DatasetSpec {
        n_logs: n,
        target_anomalous_sequences: (base.target_anomalous_sequences as f64 * grow).ceil() as usize,
        seed: base.seed ^ 1,
        ..base
    };
    let dataset = if sessions {
        spec.generate_sessions(1.0, 4.0, 24.0)
    } else {
        spec.generate_with(1.0, 16.0)
    };
    let mut logs: Vec<RawLog> = dataset
        .records
        .into_iter()
        .map(|r| RawLog {
            system: "b".into(),
            timestamp: 0,
            message: r.message,
        })
        .collect();
    logs.truncate(n);
    assert_eq!(logs.len(), n, "generator produced a short stream");
    logs
}

/// Allocations per log of one in-process run over `logs`.
fn pipeline_allocations_per_log(
    model: &Arc<LogSynergyModel>,
    vectorizer: &EventVectorizer,
    logs: Vec<RawLog>,
) -> f64 {
    let n = logs.len() as f64;
    let vectorizer = vectorizer.clone();
    let scorer = ModelScorer::shared(model.clone());
    let sink = MemorySink::new();
    let config = PipelineConfig {
        partitions: 1,
        core_budget: 1,
        ..PipelineConfig::default()
    };
    let mut summary = None;
    let allocations = allocations_in(|| {
        summary = Some(run_pipeline_with(logs, vectorizer, scorer, sink, config));
    });
    let summary = summary.unwrap();
    assert_eq!(summary.logs as f64, n);
    assert_eq!(summary.shed + summary.degraded + summary.quarantined, 0);
    allocations as f64 / n
}

/// Measured when these ceilings were set (40 000 logs, x86-64 Linux):
/// 4.433 on `sessions` and 7.331 on `iid`, the same on every run. The
/// ceilings leave about 4% for the batch sizes a worker happens to drain,
/// which follow thread timing (each drained batch costs its own `Vec`s
/// and maps).
const SESSIONS_CEILING: f64 = 4.6;
const IID_CEILING: f64 = 7.6;

#[test]
fn pipeline_allocations_per_log_stay_under_their_ceilings() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (model, vectorizer) = benchmark_model();
    let sessions = pipeline_allocations_per_log(&model, &vectorizer, stream(true, LOGS));
    let iid = pipeline_allocations_per_log(&model, &vectorizer, stream(false, LOGS));
    println!("allocations per log: sessions {sessions:.3}, iid {iid:.3}");
    assert!(
        sessions <= SESSIONS_CEILING,
        "sessions: {sessions:.3} allocations per log > {SESSIONS_CEILING}"
    );
    assert!(
        iid <= IID_CEILING,
        "iid: {iid:.3} allocations per log > {IID_CEILING}"
    );
}

#[test]
fn the_buffer_hop_allocates_nothing_per_record() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BATCHES: usize = 200;
    let buffer = LogBuffer::new(1, 1024);
    let producer = buffer.producer();
    let mut consumer = buffer.partition_consumer(0);
    let batch = |b: usize| -> Vec<RawLog> {
        (0..64)
            .map(|i| RawLog {
                system: "b".into(),
                timestamp: (b * 64 + i) as u64,
                message: "session opened".into(),
            })
            .collect()
    };
    // One round trip first, so the channel's queue has grown to a batch.
    producer.send_many_to(0, batch(0)).unwrap();
    consumer.recv_batch(64, Duration::ZERO).unwrap();
    let batches: Vec<Vec<RawLog>> = (1..=BATCHES).map(batch).collect();
    let mut received = 0;
    let allocations = thread_allocations_in(|| {
        for b in batches {
            producer.send_many_to(0, b).unwrap();
            received += consumer.recv_batch(64, Duration::ZERO).unwrap().len();
        }
    });
    assert_eq!(received, BATCHES * 64);
    // The one allocation per batch is the `Vec` the batch is handed out in.
    assert!(
        allocations <= BATCHES as u64,
        "{allocations} allocations for {BATCHES} batches of 64"
    );
}
