//! Graph-free f32 inference primitives.
//!
//! The tape ([`crate::graph::Graph`]) exists for training; at serving time
//! the model is frozen and the tape's per-op buffer allocation, node
//! bookkeeping, and backward-closure construction are pure overhead. This
//! module provides the forward math as plain slice-in/slice-out functions
//! so an inference engine can run the whole network over a micro-batch
//! with a handful of reused scratch buffers.
//!
//! **Bitwise contract:** every function here reproduces the corresponding
//! tape op *exactly* — same kernels ([`crate::kernels::mm`] /
//! [`crate::kernels::mm_nt`]), same per-row accumulation order, same
//! scalar functions ([`crate::ops::gelu_scalar`]). A fused sweep produces
//! the same bits as the unfused tape forward at every thread count; the
//! test suite asserts this end-to-end against a trained model.
//!
//! Fusion here means *not materializing tape intermediates*: QKV can be
//! projected as one GEMM (each output element of a GEMM depends only on
//! its A-row and B-column, so horizontally concatenating the three weight
//! matrices is bit-neutral), attention runs per `(batch, head)` against a
//! single `[T, T]` score scratch instead of tape-wide `[B, T, T]` tensors,
//! and the MLP applies the GELU fast path in place between its two GEMMs
//! ([`linear_into`] → [`gelu_inplace`] → [`linear_into`] over one reused
//! hidden buffer).
//!
//! Width: the crate is built for baseline x86-64, so a plain loop
//! autovectorizes to 4-lane SSE2. Two sweeps cost as much as a GEMM at
//! that width and are restructured without reordering any element's
//! operations: [`gelu_inplace`] is compiled per SIMD tier, and
//! [`layer_norm_into`] interleaves the reduction chains of eight rows
//! (see `docs/kernels.md`).

use crate::kernels::{self, mm, mm_nt};
use crate::ops::gelu_scalar;

/// `out[m, n] = x[m, k] · w[k, n] (+ bias)` — the tape's `Linear::forward`
/// on a flattened input (the tape folds `[B, T, k]` to `[B·T, k]` for 2-D
/// weights, so callers pass `m = B·T`). `out` is overwritten (the blocked
/// kernels accumulate, so it is zeroed first — reuse scratch freely).
pub fn linear_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(x.len(), m * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    mm(x, w, out, m, k, n);
    if let Some(b) = bias {
        debug_assert_eq!(b.len(), n);
        for row in out.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
}

/// Elementwise `x[i] += y[i]` — the tape's same-shape `ops::add`.
pub fn add_inplace(x: &mut [f32], y: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (o, &v) in x.iter_mut().zip(y) {
        *o += v;
    }
}

/// `h[b, t, :] += pos[t, :]` — the tape's broadcast `ops::add` of a
/// `[T, D]` positional table over the batch axis.
pub fn add_pos_inplace(h: &mut [f32], pos: &[f32], batch: usize, t: usize, d: usize) {
    debug_assert_eq!(h.len(), batch * t * d);
    debug_assert!(pos.len() >= t * d);
    for bt in h.chunks_exact_mut(t * d) {
        for (o, &p) in bt.iter_mut().zip(&pos[..t * d]) {
            *o += p;
        }
    }
}

/// Rows whose layer-norm statistics advance together: each row's two sums
/// are strictly sequential f32 chains, so one row at a time is bound by
/// add latency; eight independent chains fill the pipeline instead.
const LN_ROWS: usize = 8;

/// Row-wise layer norm `dst = (src - mean) / sqrt(var + eps) * gamma + beta`
/// — per row, the exact operation sequence of the fused `ops::layer_norm`
/// kernel; across rows, statistics are computed [`LN_ROWS`] at a time.
pub fn layer_norm_into(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, dst: &mut [f32]) {
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(src.len(), dst.len());
    debug_assert_eq!(src.len() % d.max(1), 0);
    let block = (LN_ROWS * d).max(1);
    for (rows, orows) in src.chunks(block).zip(dst.chunks_mut(block)) {
        if rows.len() == block {
            ln_rows::<LN_ROWS>(rows, gamma, beta, eps, orows);
        } else {
            for (row, orow) in rows.chunks_exact(d).zip(orows.chunks_exact_mut(d)) {
                ln_rows::<1>(row, gamma, beta, eps, orow);
            }
        }
    }
}

/// Layer norm of `R` rows with their reduction chains interleaved. Each
/// row still sums ascending `j` from `Iterator::sum`'s own starting value
/// (which is what makes a row of `-0.0` sum to `-0.0`), so its bits are
/// those of the one-row loop.
///
/// Deliberately *not* tier-dispatched, and kept out of line so it is never
/// inlined into a wide caller: under `avx512f` LLVM turns the interleaved
/// reductions into gathers and runs them 2–4× slower than this
/// baseline-ISA code, and the apply pass is too short to repay a dispatch
/// of its own.
#[inline(never)]
fn ln_rows<const R: usize>(rows: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    debug_assert_eq!(rows.len(), R * d);
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut acc = [start; R];
    for j in 0..d {
        for r in 0..R {
            acc[r] += rows[r * d + j];
        }
    }
    let mu = acc.map(|s| s / d as f32);
    acc = [start; R];
    for j in 0..d {
        for r in 0..R {
            let c = rows[r * d + j] - mu[r];
            acc[r] += c * c;
        }
    }
    let stats = mu.iter().zip(&acc);
    for ((row, orow), (&mu, &sq)) in rows.chunks_exact(d).zip(out.chunks_exact_mut(d)).zip(stats) {
        let rst = 1.0 / (sq / d as f32 + eps).sqrt();
        for ((o, &x), (&g, &b)) in orow.iter_mut().zip(row).zip(gamma.iter().zip(beta)) {
            *o = (x - mu) * rst * g + b;
        }
    }
}

/// In-place row-wise softmax over the last axis — the exact per-row loop
/// of the tape's `ops::softmax` (max-shift, exp with interleaved sum,
/// multiply by the reciprocal).
fn softmax_rows(buf: &mut [f32], d: usize) {
    debug_assert_eq!(buf.len() % d.max(1), 0);
    for row in buf.chunks_exact_mut(d) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut s = 0.0;
        for o in row.iter_mut() {
            *o = (*o - m).exp();
            s += *o;
        }
        let inv = 1.0 / s;
        for o in row.iter_mut() {
            *o *= inv;
        }
    }
}

/// In-place GELU (tanh fast path) — the tape's `ops::gelu` forward.
///
/// The one sweep that is compute-bound (a clamp, two polynomials and a
/// divide per element), so the one that is tier-dispatched: the same loop
/// body compiled for AVX2 and AVX-512 and picked by the matmul tier. The
/// wrappers enable no `fma`, and Rust never contracts `a * b + c`, so every
/// lane runs the same IEEE operations in the same order at any width — all
/// tiers give the same bits.
pub fn gelu_inplace(buf: &mut [f32]) {
    #[inline(always)]
    fn body(buf: &mut [f32]) {
        for o in buf.iter_mut() {
            *o = gelu_scalar(*o);
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        use kernels::matmul::{tier, Tier};
        #[target_feature(enable = "avx2")]
        unsafe fn wide256(buf: &mut [f32]) {
            body(buf)
        }
        #[target_feature(enable = "avx512f,avx512vl")]
        unsafe fn wide512(buf: &mut [f32]) {
            body(buf)
        }
        // SAFETY: a tier is only reported when the CPU has the features
        // its wrapper enables.
        match tier() {
            Tier::Fma512 => return unsafe { wide512(buf) },
            Tier::Fma256 => return unsafe { wide256(buf) },
            Tier::Scalar => {}
        }
    }
    body(buf)
}

/// In-place ReLU — the tape's `ops::relu` forward.
pub fn relu_inplace(buf: &mut [f32]) {
    for o in buf.iter_mut() {
        *o = o.max(0.0);
    }
}

/// In-place `buf[i] = s * buf[i]` — the tape's `ops::scale`.
fn scale_inplace(buf: &mut [f32], s: f32) {
    for o in buf.iter_mut() {
        *o *= s;
    }
}

/// Mean pooling over time: `out[b, :] = mean_t h[b, t, :]` — the tape's
/// `ops::mean_axis(h, 1)`: ascending-`t` accumulation, then one multiply
/// by `1 / T`.
pub fn mean_pool_into(h: &[f32], batch: usize, t: usize, d: usize, out: &mut [f32]) {
    debug_assert_eq!(h.len(), batch * t * d);
    debug_assert_eq!(out.len(), batch * d);
    let s = 1.0 / t as f32;
    for (b, orow) in out.chunks_exact_mut(d).enumerate() {
        for j in 0..d {
            let mut acc = 0.0f32;
            for tt in 0..t {
                acc += h[(b * t + tt) * d + j];
            }
            orow[j] = s * acc;
        }
    }
}

/// Reusable scratch for [`attention_sweep_strided`]: per-`(batch, head)`
/// Q/K/V gathers, the `[T, T]` score matrix, and the head output.
pub struct AttnScratch {
    qh: Vec<f32>,
    kh: Vec<f32>,
    vh: Vec<f32>,
    /// The only buffer the AVX-512 attention of `infer_fast` uses (it reads
    /// Q/K/V in place).
    pub(crate) scores: Vec<f32>,
    outh: Vec<f32>,
}

impl AttnScratch {
    /// Allocates scratch for sequence length `t` and head width `head_dim`.
    pub fn new(t: usize, head_dim: usize) -> Self {
        AttnScratch {
            qh: vec![0.0; t * head_dim],
            kh: vec![0.0; t * head_dim],
            vh: vec![0.0; t * head_dim],
            scores: vec![0.0; t * t],
            outh: vec![0.0; t * head_dim],
        }
    }
}

/// Fused multi-head attention core: from projected `q`/`k`/`v` (rows
/// `stride` floats apart, heads interleaved along the feature axis) to the
/// pre-output-projection concat `[B·T, D]`, without materializing any
/// batch-wide intermediate. Per `(batch, head)`: gather the head slices,
/// `scores = scale · (qh · khᵀ)`, row softmax, `outh = scores · vh`,
/// scatter into `concat` — the exact math of `MultiHeadAttention::forward`
/// after its Q/K/V projections.
///
/// The stride lets the heads be gathered straight out of a fused
/// `[B·T, 3D]` QKV projection (`q = &qkv[..]`, `k = &qkv[D..]`,
/// `v = &qkv[2 * D..]`, `stride = 3 * D`) without splitting it first;
/// separate `[B·T, D]` operands pass `stride = D`.
#[allow(clippy::too_many_arguments)]
pub fn attention_sweep_strided(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    stride: usize,
    batch: usize,
    t: usize,
    heads: usize,
    head_dim: usize,
    scale: f32,
    concat: &mut [f32],
    scratch: &mut AttnScratch,
) {
    let d = heads * head_dim;
    debug_assert_eq!(concat.len(), batch * t * d);
    for b in 0..batch {
        for h in 0..heads {
            let off = h * head_dim;
            for tt in 0..t {
                let row = (b * t + tt) * stride + off;
                let dst = tt * head_dim;
                scratch.qh[dst..dst + head_dim].copy_from_slice(&q[row..row + head_dim]);
                scratch.kh[dst..dst + head_dim].copy_from_slice(&k[row..row + head_dim]);
                scratch.vh[dst..dst + head_dim].copy_from_slice(&v[row..row + head_dim]);
            }
            // The blocked kernels accumulate into C; zero the reused scratch.
            scratch.scores.fill(0.0);
            mm_nt(
                &scratch.qh,
                &scratch.kh,
                &mut scratch.scores,
                t,
                head_dim,
                t,
            );
            scale_inplace(&mut scratch.scores, scale);
            softmax_rows(&mut scratch.scores, t);
            scratch.outh.fill(0.0);
            mm(
                &scratch.scores,
                &scratch.vh,
                &mut scratch.outh,
                t,
                t,
                head_dim,
            );
            for tt in 0..t {
                let row = (b * t + tt) * d + off;
                let src = tt * head_dim;
                concat[row..row + head_dim].copy_from_slice(&scratch.outh[src..src + head_dim]);
            }
        }
    }
}

/// Accounts one encoder block of a graph-free forward: ticks
/// `nn.fused.attention` and `nn.fused.mlp` together. The serving forward
/// calls it once per block whatever numerics run the block, so both read
/// `layers × forwards`.
pub fn record_fused_block() {
    kernels::stats::record_fused_block();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, ParamStore};
    use crate::layers::MultiHeadAttention;
    use crate::ops;
    use crate::tensor::Tensor;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::SeedableRng;

    // The pre-rewrite loop bodies, verbatim: the oracles the restructured
    // sweeps must reproduce bit for bit on every SIMD tier.

    fn layer_norm_oracle(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, dst: &mut [f32]) {
        let d = gamma.len();
        for (row, orow) in src.chunks_exact(d).zip(dst.chunks_exact_mut(d)) {
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let rst = 1.0 / (var + eps).sqrt();
            for j in 0..d {
                orow[j] = (row[j] - mu) * rst * gamma[j] + beta[j];
            }
        }
    }

    fn gelu_oracle(buf: &mut [f32]) {
        for o in buf.iter_mut() {
            *o = gelu_scalar(*o);
        }
    }

    /// Same bits — except that any NaN matches any NaN: when two NaN
    /// operands meet, which payload survives depends on operand order,
    /// which neither IEEE 754 nor LLVM pins.
    fn assert_same_bits(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "element {i}: {g:e} ({:#010x}) vs {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
        Ok(())
    }

    fn special() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(-0.0f32),
            Just(0.0),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::NAN),
            Just(1.0e-40),  // subnormal
            Just(-3.0e-42), // subnormal
            Just(f32::MIN_POSITIVE),
            Just(f32::MAX),
            Just(-2.5e37),
        ]
    }

    /// `rows × d` values: mostly ordinary, with up to four single special
    /// values spliced in and up to two whole rows overwritten by one
    /// special (all `-0.0`, all `inf`, …). `rows` covers `rows % 8 ≠ 0`
    /// and `d` widths that are no multiple of 4, 8 or 16 lanes.
    fn matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
        let spikes = proptest::collection::vec((any::<usize>(), special()), 0..5);
        let fills = proptest::collection::vec((any::<usize>(), special()), 0..3);
        let body = proptest::collection::vec(-6.0f32..6.0, 19 * 70);
        ((0usize..20, 1usize..71), (spikes, fills), body).prop_map(
            |((rows, d), (spikes, fills), mut body)| {
                body.truncate(rows * d);
                if rows > 0 {
                    for (at, v) in spikes {
                        body[at % (rows * d)] = v;
                    }
                    for (row, v) in fills {
                        let r = row % rows;
                        body[r * d..(r + 1) * d].fill(v);
                    }
                }
                (rows, d, body)
            },
        )
    }

    /// A deterministic parameter vector; every fifth entry is `-0.0`, the
    /// one addend/factor that lets a wrong zero sign upstream show.
    fn ramp(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n)
            .map(|i| match i % 5 {
                4 => -0.0,
                _ => (i % 13) as f32 * scale + shift,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn layer_norm_equals_scalar_loop_bitwise(
            m in matrix(),
            eps in prop_oneof![Just(1e-5f32), Just(0.0)],
        ) {
            let (rows, d, src) = m;
            let (gamma, beta) = (ramp(d, 0.11, 0.4), ramp(d, -0.07, 0.3));
            let mut want = vec![f32::NAN; rows * d];
            layer_norm_oracle(&src, &gamma, &beta, eps, &mut want);
            let mut got = vec![f32::NAN; rows * d];
            layer_norm_into(&src, &gamma, &beta, eps, &mut got);
            assert_same_bits(&got, &want)?;
        }

        #[test]
        fn gelu_equals_scalar_loop_bitwise(m in matrix()) {
            let (mut got, mut want) = (m.2.clone(), m.2);
            gelu_oracle(&mut want);
            gelu_inplace(&mut got);
            assert_same_bits(&got, &want)?;
        }
    }

    #[test]
    fn strided_attention_reads_fused_qkv_and_ignores_stale_scratch() {
        let (b, t, heads, dh) = (3, 5, 2, 3);
        let d = heads * dh;
        let qkv: Vec<f32> = (0..b * t * 3 * d)
            .map(|i| ((i * 31) % 47) as f32 * 0.05 - 1.1)
            .collect();
        // The split the plan used to make before sweeping.
        let split = |s: usize| -> Vec<f32> {
            qkv.chunks_exact(3 * d)
                .flat_map(|row| row[s * d..(s + 1) * d].iter().copied())
                .collect()
        };
        let mut want = vec![0.0; b * t * d];
        let mut scratch = AttnScratch::new(t, dh);
        attention_sweep_strided(
            &split(0),
            &split(1),
            &split(2),
            d,
            b,
            t,
            heads,
            dh,
            0.5,
            &mut want,
            &mut scratch,
        );
        // Same sweep straight off the fused buffer, through a scratch (and
        // an output) full of NaN: nothing stale may be read.
        for buf in [
            &mut scratch.qh,
            &mut scratch.kh,
            &mut scratch.vh,
            &mut scratch.scores,
            &mut scratch.outh,
        ] {
            buf.fill(f32::NAN);
        }
        let mut got = vec![f32::NAN; b * t * d];
        attention_sweep_strided(
            &qkv,
            &qkv[d..],
            &qkv[2 * d..],
            3 * d,
            b,
            t,
            heads,
            dh,
            0.5,
            &mut got,
            &mut scratch,
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn softmax_rows_matches_tape_bitwise() {
        let data: Vec<f32> = (0..24).map(|i| ((i * 7) % 11) as f32 * 0.3 - 1.5).collect();
        let g = Graph::inference();
        let x = g.input(Tensor::new(data.clone(), &[4, 6]));
        let want = g.value(ops::softmax(&g, x));
        let mut got = data;
        softmax_rows(&mut got, 6);
        for (a, b) in got.iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn layer_norm_matches_tape_bitwise() {
        let data: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.21).collect();
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + i as f32 * 0.1).collect();
        let beta: Vec<f32> = (0..8).map(|i| i as f32 * -0.05).collect();
        let g = Graph::inference();
        let x = g.input(Tensor::new(data.clone(), &[4, 8]));
        let gm = g.input(Tensor::new(gamma.clone(), &[8]));
        let bt = g.input(Tensor::new(beta.clone(), &[8]));
        let want = g.value(ops::layer_norm(&g, x, gm, bt, 1e-5));
        let mut got = vec![0.0; 32];
        layer_norm_into(&data, &gamma, &beta, 1e-5, &mut got);
        for (a, b) in got.iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_qkv_gemm_matches_separate_projections_bitwise() {
        // One [k, 3n] GEMM vs three [k, n] GEMMs: each output element of mm
        // depends only on its A-row and B-column, so the concat is
        // bit-neutral. This is the property the fused QKV projection needs.
        let (m, k, n) = (6, 16, 8);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13) % 29) as f32 * 0.07 - 1.0)
            .collect();
        let ws: Vec<Vec<f32>> = (0..3)
            .map(|s| {
                (0..k * n)
                    .map(|i| ((i * 5 + s * 11) % 23) as f32 * 0.09 - 1.0)
                    .collect()
            })
            .collect();
        let mut wcat = vec![0.0f32; k * 3 * n];
        for r in 0..k {
            for (s, w) in ws.iter().enumerate() {
                wcat[r * 3 * n + s * n..r * 3 * n + (s + 1) * n]
                    .copy_from_slice(&w[r * n..(r + 1) * n]);
            }
        }
        let mut fused = vec![0.0f32; m * 3 * n];
        mm(&a, &wcat, &mut fused, m, k, 3 * n);
        for (s, w) in ws.iter().enumerate() {
            let mut sep = vec![0.0f32; m * n];
            mm(&a, w, &mut sep, m, k, n);
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(
                        sep[r * n + c].to_bits(),
                        fused[r * 3 * n + s * n + c].to_bits(),
                        "slot {s} ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn attention_sweep_matches_tape_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut store = ParamStore::new();
        let (b, t, d, heads) = (3, 5, 8, 2);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", d, heads);
        let x = Tensor::randn(&mut rng, &[b, t, d], 1.0);

        let g = Graph::inference();
        let want = g.value(mha.forward(&g, &store, g.input(x.clone())));

        // Graph-free: project q/k/v, sweep, output-project.
        let m = b * t;
        let dh = d / heads;
        let proj = |lin: &crate::layers::Linear| {
            let w = store.value(lin.w_id());
            let bias = lin.b_id().map(|id| store.value(id));
            let mut out = vec![0.0; m * d];
            linear_into(
                x.data(),
                w.data(),
                bias.map(|bt| bt.data()),
                &mut out,
                m,
                d,
                d,
            );
            out
        };
        let (q, k, v) = (proj(mha.wq()), proj(mha.wk()), proj(mha.wv()));
        let mut concat = vec![0.0; m * d];
        let mut scratch = AttnScratch::new(t, dh);
        let scale = 1.0 / (dh as f32).sqrt();
        attention_sweep_strided(
            &q,
            &k,
            &v,
            d,
            b,
            t,
            heads,
            dh,
            scale,
            &mut concat,
            &mut scratch,
        );
        let mut got = vec![0.0; m * d];
        let wo_w = store.value(mha.wo().w_id());
        let wo_b = mha.wo().b_id().map(|id| store.value(id));
        linear_into(
            &concat,
            wo_w.data(),
            wo_b.map(|bt| bt.data()),
            &mut got,
            m,
            d,
            d,
        );

        for (a, w) in got.iter().zip(want.data()) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn mlp_sweep_matches_tape_gelu_chain_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let (m, d, ff) = (7, 8, 16);
        let l1 = crate::layers::Linear::new(&mut store, &mut rng, "ff1", d, ff);
        let l2 = crate::layers::Linear::new(&mut store, &mut rng, "ff2", ff, d);
        let x = Tensor::randn(&mut rng, &[m, d], 1.0);

        let g = Graph::inference();
        let xv = g.input(x.clone());
        let h = l1.forward(&g, &store, xv);
        let h = ops::gelu(&g, h);
        let want = g.value(l2.forward(&g, &store, h));

        let mut got = vec![0.0; m * d];
        let mut hidden = vec![0.0; m * ff];
        // The serving forward's feed-forward block: GELU in place between
        // the two GEMMs, over one hidden buffer.
        linear_into(
            x.data(),
            store.value(l1.w_id()).data(),
            l1.b_id().map(|id| store.value(id).data()),
            &mut hidden,
            m,
            d,
            ff,
        );
        gelu_inplace(&mut hidden);
        linear_into(
            &hidden,
            store.value(l2.w_id()).data(),
            l2.b_id().map(|id| store.value(id).data()),
            &mut got,
            m,
            ff,
            d,
        );
        for (a, w) in got.iter().zip(want.data()) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
    }
}
