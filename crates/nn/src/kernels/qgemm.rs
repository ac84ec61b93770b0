//! Symmetric int8 quantization and the `i8×i8 → i32` GEMM behind the
//! `quant` feature — the kernel tier of the quantized scoring path.
//!
//! Quantization is symmetric (no zero point): `q = round(x / scale)`
//! clamped to `[-127, 127]`, with `scale = absmax / 127` chosen per weight
//! output channel at plan build and per activation tensor by calibration.
//! The GEMM accumulates exactly in `i32` (every product is ≤ 127², and
//! `k ≤ 65536` keeps even the paired `madd` terms far from overflow), so —
//! unlike the f32 kernels — results are *exact*: the scalar tier, the SIMD
//! tiers, and every thread count produce identical integers by arithmetic,
//! not by chunk-order discipline.
//!
//! `B` is stored `[n, k]` row-major (each output channel's weights
//! contiguous), so one output element is one contiguous dot product — the
//! natural layout for per-output-channel scales and for the widening
//! `madd` SIMD kernels. Tier selection follows the f32 dispatcher
//! ([`super::matmul::simd_tier_name`], `LOGSYNERGY_NN_SIMD` override),
//! with the AVX-512 kernel additionally requiring `avx512bw` for the
//! byte-widening converts.

use super::matmul::{matmul_threads, tier, Tier};
use super::parallel_for;

/// `SharedMut` for `i32` output rows: a `&mut [i32]` smuggled across the
/// `parallel_for` closure boundary, handed back as disjoint sub-slices.
struct SharedI32<'a> {
    ptr: *mut i32,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [i32]>,
}

// SAFETY: access is only through `range`, whose caller guarantees that
// concurrently handed-out ranges are disjoint.
unsafe impl Send for SharedI32<'_> {}
unsafe impl Sync for SharedI32<'_> {}

impl<'a> SharedI32<'a> {
    fn new(slice: &'a mut [i32]) -> Self {
        SharedI32 {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// # Safety
    /// Ranges handed out to concurrently running chunks must not overlap.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range(&self, start: usize, end: usize) -> &'a mut [i32] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// Marker string embedded in any binary that links the int8 kernels.
/// `scripts/ci.sh` greps the default release CLI for its *absence* to
/// prove the `quant` feature compiles out completely (and a feature-on
/// build for its presence, proving the gate can fail).
pub const QGEMM_MARKER: &str = "logsynergy-int8-qgemm";

/// Largest magnitude in `xs` (0.0 for an empty or all-zero slice).
pub fn absmax(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Symmetric quantization scale for a tensor with the given `absmax`:
/// `absmax / 127`, or 0.0 when the tensor is all zeros (then every
/// quantized value is 0 and dequantization is exact).
pub fn scale_for(absmax: f32) -> f32 {
    if absmax > 0.0 {
        absmax / 127.0
    } else {
        0.0
    }
}

/// Rounds a clamped `x / scale` to the nearest integer (ties to even) via
/// the float magic-number trick: adding and subtracting `1.5·2²³` forces
/// the mantissa to drop every fractional bit under the current
/// round-to-nearest mode. Branch-free and autovectorizable — `f32::round`
/// (ties away from zero) has no x86 instruction and compiles to a libm
/// call, which at ~7k quantized elements per scored window dominated the
/// entire int8 path before this.
///
/// The rounding is fused with the int extraction: after adding the
/// magic constant the rounded integer sits in the low mantissa bits, so
/// `to_bits() - to_bits(MAGIC)` *is* the two's-complement result — no
/// float→int conversion instruction at all. The saturating `as i16` cast
/// in the plain path compiles to a compare/blend chain that blocks
/// vectorization; this is pure int subtract. (A NaN input yields an
/// unspecified in-range value rather than 0 — quantizing NaN activations
/// is meaningless either way, and this stays safe code.)
#[inline(always)]
pub(crate) fn round_clamped_i32(x: f32, inv: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 × 2²³
    let v = (x * inv).clamp(-127.0, 127.0);
    (v + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i32
}

/// Quantizes `src` into `dst` with `q = clamp(round(x / scale), ±127)`
/// (ties to even). A zero `scale` maps everything to 0.
pub fn quantize(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize length mismatch");
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = round_clamped_i32(x, inv) as i8;
    }
}

/// Quantizes `[m, k]` f32 rows into `[m, kp]` i16 rows (`kp ≥ k`, the
/// extra tail zeroed) — the activation-side layout of
/// [`qgemm_nt_packed`]. Values are the same `±127` integers `quantize`
/// produces, pre-widened so the `madd` kernels skip the byte-widening
/// converts on the hot path.
pub fn quantize_rows_i16(src: &[f32], scale: f32, dst: &mut [i16], k: usize, kp: usize) {
    assert!(kp >= k && k > 0, "quantize_rows_i16 padding");
    assert_eq!(src.len() % k, 0, "quantize_rows_i16 source shape");
    let m = src.len() / k;
    assert_eq!(dst.len(), m * kp, "quantize_rows_i16 destination shape");
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    match tier() {
        // SAFETY: the tier is only reported when the CPU has the features.
        #[cfg(target_arch = "x86_64")]
        Tier::Fma512 => unsafe { quantize_rows_512(src, inv, dst, k, kp) },
        #[cfg(target_arch = "x86_64")]
        Tier::Fma256 => unsafe { quantize_rows_256(src, inv, dst, k, kp) },
        _ => quantize_rows_body(src, inv, dst, k, kp),
    }
}

/// Generic body for [`quantize_rows_i16`]; re-monomorphized inside the
/// `#[target_feature]` wrappers so the mul/clamp/magic-add/convert chain
/// vectorizes at full register width (this runs once per GEMM input —
/// ~7k elements per scored window — and was a top-three cost of the int8
/// path at baseline vector width).
#[inline(always)]
fn quantize_rows_body(src: &[f32], inv: f32, dst: &mut [i16], k: usize, kp: usize) {
    for (drow, srow) in dst.chunks_exact_mut(kp).zip(src.chunks_exact(k)) {
        for (d, &x) in drow[..k].iter_mut().zip(srow) {
            *d = round_clamped_i32(x, inv) as i16;
        }
        drow[k..].fill(0);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn quantize_rows_256(src: &[f32], inv: f32, dst: &mut [i16], k: usize, kp: usize) {
    quantize_rows_body(src, inv, dst, k, kp)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn quantize_rows_512(src: &[f32], inv: f32, dst: &mut [i16], k: usize, kp: usize) {
    quantize_rows_body(src, inv, dst, k, kp)
}

/// Dequantize-and-bias pass: `out[i, j] = acc[i, j] · deq[j] (+ bias[j])`
/// over `[m, n]` rows — the f32 epilogue of every quantized GEMM,
/// tier-dispatched for the same reason as [`quantize_rows_i16`].
pub fn dequant_bias_rows(acc: &[i32], deq: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
    let n = deq.len();
    assert_eq!(acc.len(), out.len(), "dequant_bias_rows shape");
    assert_eq!(acc.len() % n.max(1), 0, "dequant_bias_rows row width");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "dequant_bias_rows bias width");
    }
    match tier() {
        // SAFETY: the tier is only reported when the CPU has the features.
        #[cfg(target_arch = "x86_64")]
        Tier::Fma512 => unsafe { dequant_rows_512(acc, deq, bias, out, n) },
        #[cfg(target_arch = "x86_64")]
        Tier::Fma256 => unsafe { dequant_rows_256(acc, deq, bias, out, n) },
        _ => dequant_rows_body(acc, deq, bias, out, n),
    }
}

#[inline(always)]
fn dequant_rows_body(acc: &[i32], deq: &[f32], bias: Option<&[f32]>, out: &mut [f32], n: usize) {
    match bias {
        Some(b) => {
            for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
                for j in 0..n {
                    orow[j] = arow[j] as f32 * deq[j] + b[j];
                }
            }
        }
        None => {
            for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
                for j in 0..n {
                    orow[j] = arow[j] as f32 * deq[j];
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dequant_rows_256(
    acc: &[i32],
    deq: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    n: usize,
) {
    dequant_rows_body(acc, deq, bias, out, n)
}

/// [`dequant_bias_rows`] fused with a residual add:
/// `out[i, j] += acc[i, j] · deq[j] (+ bias[j])`. The transformer's
/// attention-output and FFN-output GEMMs both feed residual additions —
/// fusing the add saves a full read-modify-write pass over the block.
pub fn dequant_bias_add_rows(acc: &[i32], deq: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
    let n = deq.len();
    assert_eq!(acc.len(), out.len(), "dequant_bias_add_rows shape");
    assert_eq!(acc.len() % n.max(1), 0, "dequant_bias_add_rows row width");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "dequant_bias_add_rows bias width");
    }
    match tier() {
        // SAFETY: the tier is only reported when the CPU has the features.
        #[cfg(target_arch = "x86_64")]
        Tier::Fma512 => unsafe { dequant_add_rows_512(acc, deq, bias, out, n) },
        _ => dequant_add_rows_body(acc, deq, bias, out, n),
    }
}

#[inline(always)]
fn dequant_add_rows_body(
    acc: &[i32],
    deq: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    n: usize,
) {
    for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
        for j in 0..n {
            let b = bias.map_or(0.0, |b| b[j]);
            orow[j] += arow[j] as f32 * deq[j] + b;
        }
    }
}

/// AVX-512 fused dequantize-and-accumulate; scalar `n % 16` column tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn dequant_add_rows_512(
    acc: &[i32],
    deq: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    n: usize,
) {
    use std::arch::x86_64::*;
    let nfull = n - n % 16;
    if nfull > 0 {
        let rows = acc.len() / n;
        for r in 0..rows {
            let arow = acc.as_ptr().add(r * n);
            let orow = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j < nfull {
                let q = _mm512_cvtepi32_ps(_mm512_loadu_si512(arow.add(j) as *const __m512i));
                let s = _mm512_loadu_ps(deq.as_ptr().add(j));
                let mut o = _mm512_loadu_ps(orow.add(j));
                if let Some(b) = bias {
                    o = _mm512_add_ps(o, _mm512_loadu_ps(b.as_ptr().add(j)));
                }
                _mm512_storeu_ps(orow.add(j), _mm512_fmadd_ps(q, s, o));
                j += 16;
            }
        }
    }
    if nfull < n {
        for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
            for j in nfull..n {
                let b = bias.map_or(0.0, |b| b[j]);
                orow[j] += arow[j] as f32 * deq[j] + b;
            }
        }
    }
}

/// AVX-512 dequantize: `vcvtdq2ps` + FMA against the per-channel scale
/// and bias vectors, 16 outputs per instruction group. The generic body
/// handles the `n % 16` column tail (and rows too narrow to vectorize).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn dequant_rows_512(
    acc: &[i32],
    deq: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    n: usize,
) {
    use std::arch::x86_64::*;
    let nfull = n - n % 16;
    if nfull > 0 {
        let rows = acc.len() / n;
        let zero = _mm512_setzero_ps();
        for r in 0..rows {
            let arow = acc.as_ptr().add(r * n);
            let orow = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j < nfull {
                let q = _mm512_cvtepi32_ps(_mm512_loadu_si512(arow.add(j) as *const __m512i));
                let s = _mm512_loadu_ps(deq.as_ptr().add(j));
                let b = match bias {
                    Some(b) => _mm512_loadu_ps(b.as_ptr().add(j)),
                    None => zero,
                };
                _mm512_storeu_ps(orow.add(j), _mm512_fmadd_ps(q, s, b));
                j += 16;
            }
        }
    }
    if nfull < n {
        dequant_rows_tail(acc, deq, bias, out, n, nfull);
    }
}

/// Scalar column tail `j0..n` of the dequantize pass.
#[inline(always)]
fn dequant_rows_tail(
    acc: &[i32],
    deq: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    n: usize,
    j0: usize,
) {
    for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
        for j in j0..n {
            let b = bias.map_or(0.0, |b| b[j]);
            orow[j] = arow[j] as f32 * deq[j] + b;
        }
    }
}

/// Dequantizes a single value: `q * scale`.
#[inline(always)]
pub fn dequantize(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// `c[m,n] = a[m,k] · b[n,k]ᵀ` in exact i32 arithmetic (`c` is
/// overwritten, not accumulated into). `b` is `[n, k]` row-major:
/// output channel `j`'s weights are the contiguous row `b[j*k..]`.
pub fn qgemm_nt(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "qgemm_nt A shape");
    assert_eq!(b.len(), n * k, "qgemm_nt B shape");
    assert_eq!(c.len(), m * n, "qgemm_nt C shape");
    assert!(k <= 1 << 16, "qgemm_nt k={k} would risk i32 overflow");
    super::stats::record_qgemm(m, k, n);
    let threads = matmul_threads(2 * m * k * n);
    let grain = ((1usize << 18) / (2 * k.max(1) * n.max(1))).max(1);
    let out = SharedI32::new(c);
    super::with_threads(threads, || {
        parallel_for(m, grain, |r0, r1| {
            // SAFETY: row blocks are disjoint across chunks.
            let rows = unsafe { out.range(r0 * n, r1 * n) };
            qgemm_rows(a, b, rows, r0, r1, k, n);
        });
    });
}

/// Row-range worker: tier dispatch mirrors the f32 kernels. Integer math
/// is exact, so every tier returns identical values — asserted in tests.
fn qgemm_rows(a: &[i8], b: &[i8], c: &mut [i32], r0: usize, r1: usize, k: usize, n: usize) {
    match qtier() {
        // SAFETY: the tier is only reported when the CPU has the features
        // the wrapper enables.
        #[cfg(target_arch = "x86_64")]
        Tier::Fma512 => unsafe { qgemm_rows_512(a, b, c, r0, r1, k, n) },
        #[cfg(target_arch = "x86_64")]
        Tier::Fma256 => unsafe { qgemm_rows_256(a, b, c, r0, r1, k, n) },
        _ => qgemm_rows_scalar(a, b, c, r0, r1, k, n),
    }
}

/// The int8 tier: the f32 dispatcher's choice, demoted from AVX-512 when
/// the CPU lacks `avx512bw` (needed for the byte-widening converts the
/// `madd` kernel uses; plain avx512f boxes fall back to the AVX2 kernel).
fn qtier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        static QTIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *QTIER.get_or_init(|| match tier() {
            Tier::Fma512 if std::arch::is_x86_feature_detected!("avx512bw") => Tier::Fma512,
            Tier::Fma512 => Tier::Fma256,
            t => t,
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tier()
    }
}

/// Human-readable name of the int8 kernel tier, for telemetry tags and
/// benchmark reports.
pub fn qgemm_tier_name() -> &'static str {
    match qtier() {
        Tier::Scalar => "scalar",
        Tier::Fma256 => "avx2-madd",
        Tier::Fma512 => "avx512-madd",
    }
}

/// Weights prepared for the serving-path kernel: the plain `[n, k]` i8
/// rows (scalar tier and column tails) plus, on the SIMD tiers, an
/// interleaved pre-widened i16 copy.
///
/// The interleaved layout is the classic VNNI-style packing: columns are
/// grouped into blocks of `block` (32 on AVX-512, 16 on AVX2), and within
/// a block the two `k`-adjacent weights of each column sit side by side —
/// `packed[blk][p/2][col][0..2] = (b[col][p], b[col][p+1])`. One
/// `madd_epi16` against a broadcast activation pair then produces one i32
/// partial sum *per column lane*, so output columns accumulate directly
/// in vector lanes and the kernel needs no horizontal reductions at all —
/// the reductions are what capped the naive `[n, k]` kernel below the f32
/// GEMM's MAC rate at this model's small `k`.
pub struct PackedWeights {
    /// `[n, k]` row-major i8 (the [`qgemm_nt`] B layout).
    rows: Vec<i8>,
    /// Interleaved i16 pairs for the full column blocks; empty on the
    /// scalar tier.
    packed: Vec<i16>,
    /// Column-block width (SIMD i32 lanes ×2); 0 on the scalar tier.
    block: usize,
    k: usize,
    /// `k` rounded up to an even pair count ×16 so vector loads never
    /// straddle the tail; activation rows must be padded to match.
    kp: usize,
    n: usize,
    /// Columns covered by full blocks; the `nfull..n` tail runs scalar.
    nfull: usize,
}

impl PackedWeights {
    /// Packs `[n, k]` i8 weight rows for the current kernel tier.
    pub fn pack(rows: Vec<i8>, k: usize, n: usize) -> Self {
        assert_eq!(rows.len(), n * k, "PackedWeights shape");
        assert!(k <= 1 << 16, "PackedWeights k={k} would risk i32 overflow");
        let kp = k.next_multiple_of(32);
        let block = match qtier() {
            Tier::Fma512 => 32,
            Tier::Fma256 => 16,
            Tier::Scalar => 0,
        };
        let nfull = if block > 0 { n - n % block } else { 0 };
        let mut packed = vec![0i16; if block > 0 { nfull * kp } else { 0 }];
        for blk in 0..nfull / block.max(1) {
            let base = blk * block * kp;
            for p2 in 0..kp / 2 {
                for lane in 0..block {
                    let col = blk * block + lane;
                    let at = base + p2 * block * 2 + lane * 2;
                    // Pairs at and beyond `k` (the `k..kp` padding) are zero.
                    let at_or_zero = |p: usize| if p < k { rows[col * k + p] as i16 } else { 0 };
                    packed[at] = at_or_zero(2 * p2);
                    packed[at + 1] = at_or_zero(2 * p2 + 1);
                }
            }
        }
        PackedWeights {
            rows,
            packed,
            block,
            k,
            kp,
            n,
            nfull,
        }
    }

    /// Contraction length (activation row width before padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Padded activation row stride required by [`qgemm_nt_packed`].
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// Output channels.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// `c[m,n] = a[m,kp] · bᵀ` against [`PackedWeights`], exact i32. `a` rows
/// are `kp`-padded i16 (from [`quantize_rows_i16`]); `c` is overwritten.
pub fn qgemm_nt_packed(a: &[i16], w: &PackedWeights, c: &mut [i32], m: usize) {
    assert_eq!(a.len(), m * w.kp, "qgemm_nt_packed A shape");
    assert_eq!(c.len(), m * w.n, "qgemm_nt_packed C shape");
    super::stats::record_qgemm(m, w.k, w.n);
    let threads = matmul_threads(2 * m * w.k * w.n);
    let grain = ((1usize << 18) / (2 * w.k.max(1) * w.n.max(1))).max(1);
    let out = SharedI32::new(c);
    super::with_threads(threads, || {
        parallel_for(m, grain, |r0, r1| {
            // SAFETY: row blocks are disjoint across chunks.
            let rows = unsafe { out.range(r0 * w.n, r1 * w.n) };
            qgemm_packed_rows(a, w, rows, r0, r1);
        });
    });
}

fn qgemm_packed_rows(a: &[i16], w: &PackedWeights, c: &mut [i32], r0: usize, r1: usize) {
    match (qtier(), w.block) {
        // SAFETY: tier implies the CPU features; block implies the layout.
        #[cfg(target_arch = "x86_64")]
        (Tier::Fma512, 32) => unsafe { qgemm_packed_rows_512(a, w, c, r0, r1) },
        #[cfg(target_arch = "x86_64")]
        (Tier::Fma256, 16) => unsafe { qgemm_packed_rows_256(a, w, c, r0, r1) },
        _ => qgemm_packed_rows_scalar(a, w, c, r0, r1, 0),
    }
    // Column tail beyond the last full block (e.g. the scalar scoring
    // head's single output) always runs scalar; integer math keeps every
    // combination exact.
    if w.nfull < w.n {
        qgemm_packed_rows_scalar(a, w, c, r0, r1, w.nfull);
    }
}

/// Scalar fallback over the plain i8 rows, for columns `j0..n`.
fn qgemm_packed_rows_scalar(
    a: &[i16],
    w: &PackedWeights,
    c: &mut [i32],
    r0: usize,
    r1: usize,
    j0: usize,
) {
    let (k, kp, n) = (w.k, w.kp, w.n);
    for (ci, i) in (r0..r1).enumerate() {
        let arow = &a[i * kp..i * kp + k];
        let crow = &mut c[ci * n..(ci + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate().skip(j0) {
            let brow = &w.rows[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x as i32 * y as i32;
            }
            *cv = acc;
        }
    }
}

/// AVX2 packed kernel: broadcast one activation pair, `madd` it against
/// 16 interleaved columns (two ymm), accumulate per-column in i32 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_packed_rows_256(a: &[i16], w: &PackedWeights, c: &mut [i32], r0: usize, r1: usize) {
    use std::arch::x86_64::*;
    let (kp, n) = (w.kp, w.n);
    for (ci, i) in (r0..r1).enumerate() {
        let arow = a.as_ptr().add(i * kp);
        let crow = c.as_mut_ptr().add(ci * n);
        for blk in 0..w.nfull / 16 {
            let bp = w.packed.as_ptr().add(blk * 16 * kp);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            for p2 in 0..kp / 2 {
                let va = _mm256_set1_epi32((arow.add(2 * p2) as *const i32).read_unaligned());
                let v0 = _mm256_loadu_si256(bp.add(p2 * 32) as *const __m256i);
                let v1 = _mm256_loadu_si256(bp.add(p2 * 32 + 16) as *const __m256i);
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, v0));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va, v1));
            }
            _mm256_storeu_si256(crow.add(blk * 16) as *mut __m256i, acc0);
            _mm256_storeu_si256(crow.add(blk * 16 + 8) as *mut __m256i, acc1);
        }
    }
}

/// AVX-512 packed kernel: 32 columns per block, two zmm accumulators per
/// row, rows processed in pairs so each weight-panel load feeds two
/// `madd` chains (the panel loads, not the `madd`s, were the port
/// bottleneck at one row per pass).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn qgemm_packed_rows_512(a: &[i16], w: &PackedWeights, c: &mut [i32], r0: usize, r1: usize) {
    use std::arch::x86_64::*;
    let (kp, n) = (w.kp, w.n);
    let mut i = r0;
    let mut ci = 0usize;
    while i + 1 < r1 {
        let arow0 = a.as_ptr().add(i * kp);
        let arow1 = a.as_ptr().add((i + 1) * kp);
        let crow0 = c.as_mut_ptr().add(ci * n);
        let crow1 = c.as_mut_ptr().add((ci + 1) * n);
        for blk in 0..w.nfull / 32 {
            let bp = w.packed.as_ptr().add(blk * 32 * kp);
            let mut acc00 = _mm512_setzero_si512();
            let mut acc01 = _mm512_setzero_si512();
            let mut acc10 = _mm512_setzero_si512();
            let mut acc11 = _mm512_setzero_si512();
            // kp is a multiple of 32, so the pair loop (step 4 in k) always
            // divides evenly — unrolled ×2 to amortize loop overhead.
            for p4 in 0..kp / 4 {
                let p2 = 2 * p4;
                let va0 = _mm512_set1_epi32((arow0.add(2 * p2) as *const i32).read_unaligned());
                let va1 = _mm512_set1_epi32((arow1.add(2 * p2) as *const i32).read_unaligned());
                let v0 = _mm512_loadu_si512(bp.add(p2 * 64) as *const __m512i);
                let v1 = _mm512_loadu_si512(bp.add(p2 * 64 + 32) as *const __m512i);
                acc00 = _mm512_add_epi32(acc00, _mm512_madd_epi16(va0, v0));
                acc01 = _mm512_add_epi32(acc01, _mm512_madd_epi16(va0, v1));
                acc10 = _mm512_add_epi32(acc10, _mm512_madd_epi16(va1, v0));
                acc11 = _mm512_add_epi32(acc11, _mm512_madd_epi16(va1, v1));
                let vb0 = _mm512_set1_epi32((arow0.add(2 * p2 + 2) as *const i32).read_unaligned());
                let vb1 = _mm512_set1_epi32((arow1.add(2 * p2 + 2) as *const i32).read_unaligned());
                let w0 = _mm512_loadu_si512(bp.add(p2 * 64 + 64) as *const __m512i);
                let w1 = _mm512_loadu_si512(bp.add(p2 * 64 + 96) as *const __m512i);
                acc00 = _mm512_add_epi32(acc00, _mm512_madd_epi16(vb0, w0));
                acc01 = _mm512_add_epi32(acc01, _mm512_madd_epi16(vb0, w1));
                acc10 = _mm512_add_epi32(acc10, _mm512_madd_epi16(vb1, w0));
                acc11 = _mm512_add_epi32(acc11, _mm512_madd_epi16(vb1, w1));
            }
            _mm512_storeu_si512(crow0.add(blk * 32) as *mut __m512i, acc00);
            _mm512_storeu_si512(crow0.add(blk * 32 + 16) as *mut __m512i, acc01);
            _mm512_storeu_si512(crow1.add(blk * 32) as *mut __m512i, acc10);
            _mm512_storeu_si512(crow1.add(blk * 32 + 16) as *mut __m512i, acc11);
        }
        i += 2;
        ci += 2;
    }
    if i < r1 {
        let arow = a.as_ptr().add(i * kp);
        let crow = c.as_mut_ptr().add(ci * n);
        for blk in 0..w.nfull / 32 {
            let bp = w.packed.as_ptr().add(blk * 32 * kp);
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            for p2 in 0..kp / 2 {
                let va = _mm512_set1_epi32((arow.add(2 * p2) as *const i32).read_unaligned());
                let v0 = _mm512_loadu_si512(bp.add(p2 * 64) as *const __m512i);
                let v1 = _mm512_loadu_si512(bp.add(p2 * 64 + 32) as *const __m512i);
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va, v0));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(va, v1));
            }
            _mm512_storeu_si512(crow.add(blk * 32) as *mut __m512i, acc0);
            _mm512_storeu_si512(crow.add(blk * 32 + 16) as *mut __m512i, acc1);
        }
    }
}

fn qgemm_rows_scalar(a: &[i8], b: &[i8], c: &mut [i32], r0: usize, r1: usize, k: usize, n: usize) {
    for (ci, i) in (r0..r1).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[ci * n..(ci + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x as i32 * y as i32;
            }
            *cv = acc;
        }
    }
}

/// AVX2 kernel: widen 16 bytes to i16 (`cvtepi8_epi16`), `madd_epi16`
/// into 8 i32 lanes, 4 output columns per A-row load. Exact i32 math.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_rows_256(
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn widen16(p: *const i8) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i))
    }
    #[inline]
    unsafe fn hsum(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_01_00_01));
        _mm_cvtsi128_si32(s)
    }
    let kv = k - (k % 16);
    let jfull = n - (n % 4);
    for (ci, i) in (r0..r1).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[ci * n..(ci + 1) * n];
        let mut j = 0;
        while j < jfull {
            let b0 = &b[j * k..];
            let b1 = &b[(j + 1) * k..];
            let b2 = &b[(j + 2) * k..];
            let b3 = &b[(j + 3) * k..];
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut p = 0;
            while p < kv {
                let va = widen16(arow.as_ptr().add(p));
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, widen16(b0.as_ptr().add(p))));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va, widen16(b1.as_ptr().add(p))));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(va, widen16(b2.as_ptr().add(p))));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(va, widen16(b3.as_ptr().add(p))));
                p += 16;
            }
            let mut s = [hsum(acc0), hsum(acc1), hsum(acc2), hsum(acc3)];
            for p in kv..k {
                let x = arow[p] as i32;
                s[0] += x * b0[p] as i32;
                s[1] += x * b1[p] as i32;
                s[2] += x * b2[p] as i32;
                s[3] += x * b3[p] as i32;
            }
            crow[j..j + 4].copy_from_slice(&s);
            j += 4;
        }
        for j in jfull..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x as i32 * y as i32;
            }
            crow[j] = acc;
        }
    }
}

/// AVX-512 kernel: widen 32 bytes to i16 in one zmm, `madd_epi16` into 16
/// i32 lanes, 4 output columns per A-row load. Exact i32 math.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn qgemm_rows_512(
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    #[inline]
    unsafe fn widen32(p: *const i8) -> __m512i {
        _mm512_cvtepi8_epi16(_mm256_loadu_si256(p as *const __m256i))
    }
    let kv = k - (k % 32);
    let jfull = n - (n % 4);
    for (ci, i) in (r0..r1).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[ci * n..(ci + 1) * n];
        let mut j = 0;
        while j < jfull {
            let b0 = &b[j * k..];
            let b1 = &b[(j + 1) * k..];
            let b2 = &b[(j + 2) * k..];
            let b3 = &b[(j + 3) * k..];
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            let mut acc2 = _mm512_setzero_si512();
            let mut acc3 = _mm512_setzero_si512();
            let mut p = 0;
            while p < kv {
                let va = widen32(arow.as_ptr().add(p));
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va, widen32(b0.as_ptr().add(p))));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(va, widen32(b1.as_ptr().add(p))));
                acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(va, widen32(b2.as_ptr().add(p))));
                acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(va, widen32(b3.as_ptr().add(p))));
                p += 32;
            }
            let mut s = [
                _mm512_reduce_add_epi32(acc0),
                _mm512_reduce_add_epi32(acc1),
                _mm512_reduce_add_epi32(acc2),
                _mm512_reduce_add_epi32(acc3),
            ];
            for p in kv..k {
                let x = arow[p] as i32;
                s[0] += x * b0[p] as i32;
                s[1] += x * b1[p] as i32;
                s[2] += x * b2[p] as i32;
                s[3] += x * b3[p] as i32;
            }
            crow[j..j + 4].copy_from_slice(&s);
            j += 4;
        }
        for j in jfull..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x as i32 * y as i32;
            }
            crow[j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_i8(len: usize, seed: i64) -> Vec<i8> {
        // Deterministic pseudo-random bytes spanning the full i8 range.
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) & 0xff) as i8
            })
            .collect()
    }

    fn qgemm_ref(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] as i64 * b[j * k + p] as i64;
                }
            }
        }
        c.into_iter().map(|v| i32::try_from(v).unwrap()).collect()
    }

    #[test]
    fn matches_i64_reference_exactly() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (8, 64, 192),
            (10, 33, 17),
            (5, 128, 64),
        ] {
            let a = gen_i8(m * k, 1 + (m * k * n) as i64);
            let b = gen_i8(n * k, 99 + (m + k + n) as i64);
            let mut c = vec![0i32; m * n];
            qgemm_nt(&a, &b, &mut c, m, k, n);
            assert_eq!(c, qgemm_ref(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn scalar_tier_matches_dispatch_exactly() {
        let (m, k, n) = (9, 70, 13);
        let a = gen_i8(m * k, 5);
        let b = gen_i8(n * k, 6);
        let mut via_dispatch = vec![0i32; m * n];
        qgemm_nt(&a, &b, &mut via_dispatch, m, k, n);
        let mut via_scalar = vec![0i32; m * n];
        qgemm_rows_scalar(&a, &b, &mut via_scalar, 0, m, k, n);
        assert_eq!(via_dispatch, via_scalar);
    }

    #[test]
    fn identical_across_thread_counts() {
        let (m, k, n) = (64, 64, 64);
        let a = gen_i8(m * k, 7);
        let b = gen_i8(n * k, 8);
        let mut one = vec![0i32; m * n];
        let mut four = vec![0i32; m * n];
        super::super::with_threads(1, || qgemm_nt(&a, &b, &mut one, m, k, n));
        super::super::with_threads(4, || qgemm_nt(&a, &b, &mut four, m, k, n));
        assert_eq!(one, four);
    }

    #[test]
    fn packed_matches_i64_reference_exactly() {
        // Shapes cover full blocks, column tails (n % block ≠ 0, incl. the
        // scoring head's n = 1), odd / padded k, and a `k` so far below
        // its padding that the last block column's pad pairs lie past the
        // end of the weight rows.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 16),
            (4, 8, 32),
            (3, 7, 5),
            (8, 64, 192),
            (10, 33, 17),
            (5, 128, 64),
            (32, 64, 1),
            (9, 31, 40),
        ] {
            let a = gen_i8(m * k, 21 + (m * k * n) as i64);
            let b = gen_i8(n * k, 77 + (m + k + n) as i64);
            let w = PackedWeights::pack(b.clone(), k, n);
            let kp = w.kp();
            let mut a16 = vec![0i16; m * kp];
            for i in 0..m {
                for p in 0..k {
                    a16[i * kp + p] = a[i * k + p] as i16;
                }
            }
            let mut c = vec![0i32; m * n];
            qgemm_nt_packed(&a16, &w, &mut c, m);
            assert_eq!(c, qgemm_ref(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn quantize_rows_pad_and_match_i8_quantize() {
        let xs: Vec<f32> = (0..4 * 33).map(|i| (i as f32 - 60.0) * 0.21).collect();
        let s = scale_for(absmax(&xs));
        let mut q8 = vec![0i8; xs.len()];
        quantize(&xs, s, &mut q8);
        let kp = 33usize.next_multiple_of(32);
        let mut q16 = vec![7i16; 4 * kp];
        quantize_rows_i16(&xs, s, &mut q16, 33, kp);
        for r in 0..4 {
            for p in 0..33 {
                assert_eq!(q16[r * kp + p], q8[r * 33 + p] as i16);
            }
            assert!(q16[r * kp + 33..(r + 1) * kp].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn quantize_round_trip_within_half_scale() {
        let xs: Vec<f32> = (0..1000).map(|i| ((i as f32) - 500.0) * 0.013).collect();
        let s = scale_for(absmax(&xs));
        let mut q = vec![0i8; xs.len()];
        quantize(&xs, s, &mut q);
        for (&x, &qi) in xs.iter().zip(&q) {
            let err = (x - dequantize(qi, s)).abs();
            assert!(err <= 0.5 * s + s * 1e-4, "x={x} q={qi} s={s} err={err}");
        }
    }

    #[test]
    fn zero_scale_quantizes_to_zero() {
        let xs = [0.0f32; 8];
        let s = scale_for(absmax(&xs));
        assert_eq!(s, 0.0);
        let mut q = [1i8; 8];
        quantize(&xs, s, &mut q);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn marker_is_referenced() {
        assert!(QGEMM_MARKER.contains("int8"));
    }
}
