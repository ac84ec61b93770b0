//! The AVX-512 f32 interludes of the int8 scoring path (`quant` feature).
//!
//! [`crate::infer`] is **bitwise-pinned** to the tape: its loops keep the
//! tape's accumulation order and libm's scalar `expf` in softmax. Between
//! the int8 GEMMs those f32 interludes — layer norm, attention, GELU — end
//! up dominating the quantized forward, so this module trades the pin for
//! width where that was measured to pay (`docs/kernels.md` has the table):
//!
//! - **layer norm**, AVX-512, `d % 16 == 0`: [`ln_512_x16`], three
//!   register-resident passes per row (worth 12% of the int8 forward on
//!   the trained model);
//! - **attention**, AVX-512, `head_dim % 16 == 0`: [`attn_512_hd16`], Q/K/V
//!   read in place from the packed QKV rows, polynomial `exp` over the flat
//!   score buffer (worth 25%).
//!
//! Every other tier and shape (AVX2, scalar, non-x86, widths off a multiple
//! of 16) and GELU on every tier call the pinned [`crate::infer`] function:
//! wider re-compilations of the same loops measured inside run-to-run noise
//! of the pinned sweeps on AVX2, and a hand-written AVX-512 GELU 2–3%. Values of the two kernels differ from the
//! pinned primitives in the last ulps; the quantized path is gated
//! *statistically* (verdict agreement ≥ 99.5%, |ΔF1| ≤ 0.005 vs f32), for
//! which ulp-level drift is noise against the int8 rounding it already
//! absorbs. The f32 serving default never calls these.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_imports))]

use crate::infer::AttnScratch;
use crate::kernels::matmul::{tier, Tier};

/// Lanes of the split softmax-sum reduction: one AVX-512 register of f32.
const LANES: usize = 16;

/// Collapses a lane accumulator by pairwise halving — a shuffle/add tree
/// the vectorizer keeps in registers, instead of the serial 16-add chain
/// `iter().sum()` compiles to.
#[inline(always)]
fn halve(mut acc: [f32; LANES]) -> f32 {
    let mut w = LANES;
    while w > 1 {
        w /= 2;
        for i in 0..w {
            acc[i] += acc[i + w];
        }
    }
    acc[0]
}

#[inline(always)]
fn lane_sum(row: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut it = row.chunks_exact(LANES);
    for ch in &mut it {
        for i in 0..LANES {
            acc[i] += ch[i];
        }
    }
    let mut s = halve(acc);
    for &v in it.remainder() {
        s += v;
    }
    s
}

/// Row-wise layer norm: [`ln_512_x16`] on the AVX-512 tier for rows whose
/// width is a multiple of 16 (the model's `d_model` always is), the pinned
/// [`crate::infer::layer_norm_into`] everywhere else.
pub fn layer_norm_into(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Fma512 && !gamma.is_empty() && gamma.len().is_multiple_of(16) {
        assert_eq!(beta.len(), gamma.len(), "layer norm parameter shape");
        assert_eq!(src.len(), dst.len(), "layer norm output shape");
        assert_eq!(src.len() % gamma.len(), 0, "layer norm row width");
        // SAFETY: the tier is only reported when the CPU has the features,
        // and the asserts above bound every row the kernel loads and stores.
        return unsafe { ln_512_x16(src, gamma, beta, eps, dst) };
    }
    crate::infer::layer_norm_into(src, gamma, beta, eps, dst)
}

/// AVX-512 layer norm for `d % 16 == 0`: three register-resident passes
/// per row (sum, centered square-sum, normalize), no lane spills.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,fma")]
unsafe fn ln_512_x16(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(src.len(), dst.len());
    debug_assert_eq!(src.len() % d, 0);
    let nb = d / 16;
    let rows = src.len() / d;
    for r in 0..rows {
        let row = src.as_ptr().add(r * d);
        let orow = dst.as_mut_ptr().add(r * d);
        let mut acc = _mm512_setzero_ps();
        for c in 0..nb {
            acc = _mm512_add_ps(acc, _mm512_loadu_ps(row.add(c * 16)));
        }
        let mu = _mm512_reduce_add_ps(acc) / d as f32;
        let muv = _mm512_set1_ps(mu);
        let mut accsq = _mm512_setzero_ps();
        for c in 0..nb {
            let e = _mm512_sub_ps(_mm512_loadu_ps(row.add(c * 16)), muv);
            accsq = _mm512_fmadd_ps(e, e, accsq);
        }
        let var = _mm512_reduce_add_ps(accsq) / d as f32;
        let rst = _mm512_set1_ps(1.0 / (var + eps).sqrt());
        for c in 0..nb {
            let e = _mm512_sub_ps(_mm512_loadu_ps(row.add(c * 16)), muv);
            let g = _mm512_loadu_ps(gamma.as_ptr().add(c * 16));
            let b = _mm512_loadu_ps(beta.as_ptr().add(c * 16));
            let out = _mm512_fmadd_ps(_mm512_mul_ps(e, rst), g, b);
            _mm512_storeu_ps(orow.add(c * 16), out);
        }
    }
}

/// Polynomial `e^x`: `2^k · e^r` with `k = round(x / ln 2)` and a
/// degree-6 Taylor horner for `e^r`, `r ∈ [-ln2/2, ln2/2]`. Branch-free
/// and autovectorizable (libm's `expf` is a scalar call); relative error
/// ≲ 2e-7, far below the int8 quantization noise this path tolerates.
#[inline(always)]
fn fast_exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // Exactly 355/512 — the top bits of ln 2 with a zero low mantissa,
    // so `k · LN2_HI` is exact for the k range here (Cody–Waite split).
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0; // 1.5 × 2²³: round-to-nearest-even
    let x = x.clamp(-87.0, 88.0);
    let biased = x * LOG2_E + MAGIC;
    // The rounded k as an integer, read straight out of the mantissa bits
    // (same trick as the int8 quantizer) — a `k as i32` cast here is a
    // saturating fptosi that stops the loop from vectorizing.
    let ki = biased.to_bits().wrapping_sub(MAGIC.to_bits()) as i32;
    let k = biased - MAGIC;
    let r = x - k * LN2_HI - k * LN2_LO;
    let mut p = 1.0 / 720.0f32;
    p = r * p + 1.0 / 120.0;
    p = r * p + 1.0 / 24.0;
    p = r * p + 1.0 / 6.0;
    p = r * p + 0.5;
    p = r * p + 1.0;
    p = r * p + 1.0;
    f32::from_bits((p.to_bits() as i32).wrapping_add(ki << 23) as u32)
}

/// In-place row softmax over rows of length `d`. The max shift and the
/// normalizing sum run per row, but the exponentials run over the *flat*
/// buffer in one pass — at attention's `d = T` (10 here) per-row loops
/// sit below vector width, while the flat pass keeps the polynomial exp
/// full-width.
#[inline(always)]
fn softmax_rows_body(buf: &mut [f32], d: usize) {
    debug_assert_eq!(buf.len() % d.max(1), 0);
    for row in buf.chunks_exact_mut(d) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for o in row.iter_mut() {
            *o -= m;
        }
    }
    for o in buf.iter_mut() {
        *o = fast_exp(*o);
    }
    for row in buf.chunks_exact_mut(d) {
        let inv = 1.0 / lane_sum(row);
        for o in row.iter_mut() {
            *o *= inv;
        }
    }
}

/// Fused multi-head attention over the packed `[B·T, 3D]` output of the
/// fused QKV projection (`Q | K | V` per row): [`attn_512_hd16`] on the
/// AVX-512 tier for head widths that are a multiple of 16 (the model's 16),
/// the pinned [`crate::infer::attention_sweep_strided`] everywhere else.
#[allow(clippy::too_many_arguments)]
pub fn attention_sweep_packed(
    qkv: &[f32],
    batch: usize,
    t: usize,
    heads: usize,
    head_dim: usize,
    scale: f32,
    concat: &mut [f32],
    scratch: &mut AttnScratch,
) {
    let d = heads * head_dim;
    assert_eq!(qkv.len(), batch * t * 3 * d, "packed qkv shape");
    assert_eq!(concat.len(), batch * t * d, "attention output shape");
    let (q, k, v) = (qkv, &qkv[d..], &qkv[2 * d..]);
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Fma512 && head_dim > 0 && head_dim.is_multiple_of(16) {
        let scores = &mut scratch.scores[..t * t];
        // SAFETY: the tier is only reported when the CPU has the features,
        // and the asserts above bound every row the kernel loads and stores.
        return unsafe {
            attn_512_hd16(
                q,
                k,
                v,
                3 * d,
                batch,
                t,
                heads,
                head_dim,
                scale,
                concat,
                scores,
            )
        };
    }
    crate::infer::attention_sweep_strided(
        q,
        k,
        v,
        3 * d,
        batch,
        t,
        heads,
        head_dim,
        scale,
        concat,
        scratch,
    );
}

/// AVX-512 attention for `head_dim % 16 == 0` (the model's 16): Q/K rows
/// load as whole zmm registers straight from the interleaved `[B·T, D]`
/// layout, each score is one `mul` + lane reduce, and the value pass is a
/// broadcast-FMA chain that stores the head's output row directly into
/// `concat` — no gathers, no spills, no per-head kernel dispatch.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx512vl,fma")]
unsafe fn attn_512_hd16(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    batch: usize,
    t: usize,
    heads: usize,
    head_dim: usize,
    scale: f32,
    concat: &mut [f32],
    scores: &mut [f32],
) {
    use std::arch::x86_64::*;
    let d = heads * head_dim;
    debug_assert!(q.len() >= batch * t * rs - (rs - d));
    debug_assert_eq!(concat.len(), batch * t * d);
    debug_assert_eq!(scores.len(), t * t);
    let nb = head_dim / 16;
    for b in 0..batch {
        for h in 0..heads {
            let ioff = b * t * rs + h * head_dim;
            let ooff = b * t * d + h * head_dim;
            for ti in 0..t {
                let qp = q.as_ptr().add(ioff + ti * rs);
                let srow = &mut scores[ti * t..(ti + 1) * t];
                for (tj, sv) in srow.iter_mut().enumerate() {
                    let kp = k.as_ptr().add(ioff + tj * rs);
                    let mut prod = _mm512_mul_ps(_mm512_loadu_ps(qp), _mm512_loadu_ps(kp));
                    for c in 1..nb {
                        prod = _mm512_fmadd_ps(
                            _mm512_loadu_ps(qp.add(c * 16)),
                            _mm512_loadu_ps(kp.add(c * 16)),
                            prod,
                        );
                    }
                    *sv = _mm512_reduce_add_ps(prod) * scale;
                }
            }
            softmax_rows_body(scores, t);
            for ti in 0..t {
                let srow = &scores[ti * t..(ti + 1) * t];
                let op = concat.as_mut_ptr().add(ooff + ti * d);
                for c in 0..nb {
                    let mut acc = _mm512_setzero_ps();
                    for (tj, &sv) in srow.iter().enumerate() {
                        let vv = _mm512_loadu_ps(v.as_ptr().add(ioff + tj * rs + c * 16));
                        acc = _mm512_fmadd_ps(_mm512_set1_ps(sv), vv, acc);
                    }
                    _mm512_storeu_ps(op.add(c * 16), acc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exp_tracks_libm() {
        for i in -800..=800 {
            let x = i as f32 * 0.1;
            let got = fast_exp(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-5, "x={x}: {got} vs {want} (rel {rel})");
        }
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(-200.0) < 1e-37);
    }

    /// `[pinned, fast]` layer norm of a `[batch·t, heads·head_dim]` matrix,
    /// then `[pinned, fast]` attention over a packed QKV of the same shape.
    fn both(batch: usize, t: usize, heads: usize, head_dim: usize) -> [Vec<f32>; 4] {
        let d = heads * head_dim;
        let rows = batch * t;
        let src: Vec<f32> = (0..rows * d)
            .map(|i| ((i * 13) % 29) as f32 * 0.17 - 2.0)
            .collect();
        let gamma: Vec<f32> = (0..d).map(|i| 1.0 + 0.01 * i as f32).collect();
        let beta: Vec<f32> = (0..d).map(|i| -0.2 + 0.005 * i as f32).collect();
        let mut ln = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
        crate::infer::layer_norm_into(&src, &gamma, &beta, 1e-5, &mut ln.0);
        layer_norm_into(&src, &gamma, &beta, 1e-5, &mut ln.1);

        let qkv: Vec<f32> = (0..rows * 3 * d)
            .map(|i| (((i * 29 + 5) % 31) as f32 - 15.0) * 0.11)
            .collect();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut attn = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
        let mut scratch = AttnScratch::new(t, head_dim);
        crate::infer::attention_sweep_strided(
            &qkv,
            &qkv[d..],
            &qkv[2 * d..],
            3 * d,
            batch,
            t,
            heads,
            head_dim,
            scale,
            &mut attn.0,
            &mut scratch,
        );
        // The AVX-512 kernel works in the score buffer only and must not
        // read what the pinned sweep (or an unwound forward) left there.
        scratch.scores.fill(f32::NAN);
        attention_sweep_packed(
            &qkv,
            batch,
            t,
            heads,
            head_dim,
            scale,
            &mut attn.1,
            &mut scratch,
        );
        [ln.0, ln.1, attn.0, attn.1]
    }

    #[test]
    fn avx512_kernels_track_the_pinned_sweeps() {
        // The model's shape: `d_model` 64, four heads of 16, T = 10.
        let [ln_pinned, ln_fast, attn_pinned, attn_fast] = both(3, 10, 4, 16);
        for (a, b) in ln_pinned.iter().zip(&ln_fast) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        for (a, b) in attn_pinned.iter().zip(&attn_fast) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn what_the_avx512_kernels_do_not_cover_is_the_pinned_sweep_bit_for_bit() {
        // Off the AVX-512 tier (CI pins `LOGSYNERGY_NN_SIMD=avx2` and
        // `=scalar`) every shape, the model's included, must run the pinned
        // functions; on it, widths off a multiple of 16 must.
        let avx512 = tier() == Tier::Fma512;
        for (batch, t, heads, head_dim) in [(3, 10, 4, 16), (2, 5, 2, 8), (2, 7, 3, 5)] {
            let [ln_pinned, ln_fast, attn_pinned, attn_fast] = both(batch, t, heads, head_dim);
            if !(avx512 && (heads * head_dim).is_multiple_of(16)) {
                assert!(ln_pinned
                    .iter()
                    .zip(&ln_fast)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            if !(avx512 && head_dim.is_multiple_of(16)) {
                assert!(attn_pinned
                    .iter()
                    .zip(&attn_fast)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }
}
