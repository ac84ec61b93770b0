//! The per-record path's cost, pinned without a stopwatch: allocation
//! counts under a counting global allocator (its own test binary — a
//! `#[global_allocator]` is process-wide), and the *ratio* of two parse
//! times for the linear-in-line-length contract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::EventVectorizer;
use logsynergy_serve::proto::{parse_line, ClientLine};

thread_local! {
    /// Allocations (incl. reallocations) made by this thread; per thread
    /// because the test harness runs the tests below concurrently.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `Cell<u64>` with a
// const initialiser and no destructor, so touching it never allocates.
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

/// Allocations `f` makes on this thread (its result is dropped after the
/// count is read, so frees are not part of it either way).
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// A record as `benchmark/` renders it: blank-padded timestamp slot,
/// one-letter system, an escape-free System-B message.
const BENCH_RECORD: &str = "{\"timestamp\":      1234567,\"system\":\"b\",\"message\":\"[b-iod] info content success volume flushed segment /data/b/spool/2318.dat /data/b/data/8366.dat\"}";

#[test]
fn parse_line_allocation_count_is_pinned() {
    let parse = || parse_line(BENCH_RECORD, "edge").unwrap();
    assert!(matches!(parse(), ClientLine::Record(_)));
    // The `Value` tree: the entry list (grown once, to 4 slots), three
    // keys and two string values — each escape-free string is exactly one
    // allocation — then the record's own `system` and `message`.
    assert_eq!(allocations_in(parse), 1 + 3 + 2 + 2);

    // An escape makes the string grow by doubling from its first run, not
    // once per char: 200 escapes must stay within a handful of regrowths.
    let escaped = format!("{{\"message\":\"start{}\"}}", "\\n".repeat(200));
    let plain = format!("{{\"message\":\"start{}\"}}", "n".repeat(200));
    let parse = |line: &str| allocations_in(|| parse_line(line, "edge").unwrap());
    assert!(parse(&escaped) <= parse(&plain) + 8);
}

#[test]
fn warm_template_ingest_allocates_at_most_once() {
    let mut v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
    let messages = [
        "[b-iod] info content success volume flushed segment /data/b/spool/2318.dat /data/b/data/8366.dat",
        "[b-netd] info session established remote lan 10.0.0.1",
        "  [b-netd]   info session\testablished remote lan 10.0.0.2 ",
        "heartbeat",
    ];
    v.warm_start(messages);
    let templates = v.num_templates();
    for m in messages {
        // The token list is the one allocation; routing, matching and the
        // (no-op) merge borrow from the message.
        let n = allocations_in(|| v.ingest(m));
        assert!(n <= 1, "{n} allocations to ingest warm message {m:?}");
    }
    assert_eq!(v.num_templates(), templates, "the messages were warm");
}

/// Fastest of several timings of `parse_line` on a record whose message
/// is `len` bytes long.
fn parse_time(len: usize) -> Duration {
    // Mostly ordinary bytes, with multi-byte chars and escapes sprinkled
    // in so both arms of the string scan run.
    let unit = "ordinary log text é — \\\"q\\\" \\n ";
    let mut message = unit.repeat(len / unit.len() + 1);
    message.truncate(len - len % unit.len());
    let line = format!("{{\"system\":\"s\",\"message\":\"{message}\"}}");
    assert!(line.len() <= 64 << 10, "must be a legal line");
    (0..15)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(parse_line(std::hint::black_box(&line), "d").unwrap());
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn parse_cost_is_linear_in_line_length() {
    // 8× the bytes may cost 16× the time, not 64×: the quadratic string
    // scan this guards against measured 62× on this line (9 ms → 560 ms).
    let (short, long) = (parse_time(8 << 10), parse_time(63 << 10));
    assert!(
        long <= short * 16,
        "8 KiB message parses in {short:?}, 63 KiB in {long:?}"
    );
}
