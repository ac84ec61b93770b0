//! Kernel-level telemetry: matmul FLOP accounting and worker-pool
//! utilization, recorded into the global `logsynergy-telemetry` registry.
//!
//! Handles are resolved once through a `OnceLock` so the per-call cost is
//! a couple of relaxed atomic adds — negligible next to even the smallest
//! blocked matmul. The SIMD tier the dispatcher selected is published as
//! the `nn.simd_tier` tag the first time any instrumented kernel runs.
//!
//! Metric catalog (see `docs/telemetry.md`):
//!
//! - `nn.matmul.calls` / `nn.matmul.flops` — counters; one call is
//!   `2·m·k·n` FLOPs (multiply + add per inner-product step).
//! - `nn.pool.jobs` — `parallel_for` dispatches that actually enlisted
//!   pool workers (serial-path calls are not jobs).
//! - `nn.pool.chunks.worker` / `nn.pool.chunks.caller` — chunks claimed by
//!   pool workers vs. the dispatching thread; their ratio is the pool's
//!   effective utilization.
//! - `nn.pool.workers` — gauge, pool size (set once at pool spawn).
//! - `nn.fused.attention` / `nn.fused.mlp` — counters; fused inference
//!   sweeps (one per attention block / MLP block per micro-batch).
//! - `nn.qgemm.calls` / `nn.qgemm.ops` — counters (`quant` feature only);
//!   one call is `2·m·k·n` int ops. The int8 kernel tier is published as
//!   the `nn.qgemm_tier` tag on first use.

use std::sync::{Arc, OnceLock};

use logsynergy_telemetry::{global, Counter, Gauge};

struct Handles {
    matmul_calls: Arc<Counter>,
    matmul_flops: Arc<Counter>,
    pool_jobs: Arc<Counter>,
    chunks_worker: Arc<Counter>,
    chunks_caller: Arc<Counter>,
    pool_workers: Arc<Gauge>,
    fused_attention: Arc<Counter>,
    fused_mlp: Arc<Counter>,
    #[cfg(feature = "quant")]
    qgemm_calls: Arc<Counter>,
    #[cfg(feature = "quant")]
    qgemm_ops: Arc<Counter>,
}

fn handles() -> &'static Handles {
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let nn = global().scoped("nn");
        nn.set_tag("simd_tier", super::matmul::simd_tier_name());
        Handles {
            matmul_calls: nn.counter("matmul.calls"),
            matmul_flops: nn.counter("matmul.flops"),
            pool_jobs: nn.counter("pool.jobs"),
            chunks_worker: nn.counter("pool.chunks.worker"),
            chunks_caller: nn.counter("pool.chunks.caller"),
            pool_workers: nn.gauge("pool.workers"),
            fused_attention: nn.counter("fused.attention"),
            fused_mlp: nn.counter("fused.mlp"),
            #[cfg(feature = "quant")]
            qgemm_calls: nn.counter("qgemm.calls"),
            #[cfg(feature = "quant")]
            qgemm_ops: nn.counter("qgemm.ops"),
        }
    })
}

/// Accounts one blocked-matmul entry (`mm`, `mm_nt`, or `mm_tn`) of shape
/// `m×k · k×n`.
#[inline]
pub(crate) fn record_matmul(m: usize, k: usize, n: usize) {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    let h = handles();
    h.matmul_calls.inc();
    h.matmul_flops.add(2 * (m as u64) * (k as u64) * (n as u64));
}

/// Accounts one encoder block of the graph-free inference engine: one
/// fused attention sweep and one fused MLP (GELU applied in place between
/// its two GEMMs, no intermediate tape nodes) over one micro-batch.
#[inline]
pub(crate) fn record_fused_block() {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    let h = handles();
    h.fused_attention.inc();
    h.fused_mlp.inc();
}

/// Accounts one int8 GEMM of shape `m×k · k×n` and publishes the int8
/// kernel tier tag on first use.
#[cfg(feature = "quant")]
#[inline]
pub(crate) fn record_qgemm(m: usize, k: usize, n: usize) {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    static TAG: OnceLock<()> = OnceLock::new();
    TAG.get_or_init(|| {
        global()
            .scoped("nn")
            .set_tag("qgemm_tier", super::qgemm::qgemm_tier_name());
    });
    let h = handles();
    h.qgemm_calls.inc();
    h.qgemm_ops.add(2 * (m as u64) * (k as u64) * (n as u64));
}

/// Accounts one pooled `parallel_for` dispatch.
#[inline]
pub(crate) fn record_pool_job() {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    handles().pool_jobs.inc();
}

/// Accounts chunks claimed during one job, split by who claimed them.
#[inline]
pub(crate) fn record_pool_chunks(claimed: u64, by_worker: bool) {
    if claimed == 0 || !logsynergy_telemetry::enabled() {
        return;
    }
    let h = handles();
    if by_worker {
        h.chunks_worker.add(claimed);
    } else {
        h.chunks_caller.add(claimed);
    }
}

/// Publishes the pool size (called once when the pool spawns).
pub(crate) fn record_pool_size(workers: usize) {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    handles().pool_workers.set(workers as i64);
}
