//! Log-linear (HDR-style) histograms with quantile extraction.
//!
//! Values are non-negative integers (nanoseconds, window counts, queue
//! depths). Buckets follow the HDR scheme: the first 16 values get one
//! bucket each, and every further power-of-two range `[2^k, 2^(k+1))` is
//! split into 16 linear sub-buckets — so the relative width of any bucket
//! is at most 1/16 (6.25%), and a reported quantile is always within one
//! bucket of the exact sample quantile. Recording is lock-free (relaxed
//! `fetch_add` on the bucket plus count/sum/min/max), and histograms merge
//! bucket-wise, which is what makes per-worker recording exact in
//! aggregate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two group splits into `1 << SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16

/// Total buckets: 16 unit buckets for values < 16, then 16 per group for
/// the 60 groups `[2^4, 2^5) .. [2^63, 2^64)`.
const BUCKETS: usize = SUB + SUB * (64 - SUB_BITS as usize);

/// Index of the bucket containing `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as usize; // v in [2^k, 2^(k+1)), k >= 4
        let off = ((v >> (k - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
        SUB * (k - SUB_BITS as usize + 1) + off
    }
}

/// Inclusive lower bound of bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let group = idx / SUB; // >= 1
        let off = (idx % SUB) as u64;
        let k = group + SUB_BITS as usize - 1;
        (SUB as u64 + off) << (k - SUB_BITS as usize)
    }
}

/// Inclusive upper bound of bucket `idx`.
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let group = idx / SUB;
        let k = group + SUB_BITS as usize - 1;
        // `((1 << w) - 1)` first: the top bucket's high is exactly
        // `u64::MAX`, so `low + (1 << w)` would overflow.
        bucket_low(idx) + ((1u64 << (k - SUB_BITS as usize)) - 1)
    }
}

/// A lock-free log-linear histogram over `u64` samples.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data view of a histogram at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records `n` samples of the same value `v` with one update of each
    /// field — the snapshot equals `n` calls of [`Histogram::record`].
    /// `n == 0` records nothing.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 || !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the sample of that rank — within one log-linear bucket
    /// (≤ 6.25% relative) of the exact sample quantile. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_high(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Adds every bucket of `other` into `self` (exact: counts are sums).
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Plain-data snapshot with the standard percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// The index of the log-linear bucket `v` falls into (exposed so tests
    /// can assert the "within one bucket" quantile contract).
    pub fn bucket_of(v: u64) -> usize {
        bucket_index(v)
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_ordered() {
        // Every value maps into a bucket whose [low, high] contains it,
        // and bucket indices are monotone in the value.
        let mut last_idx = 0usize;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 7, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(
                bucket_low(idx) <= v && v <= bucket_high(idx),
                "v={v} idx={idx}"
            );
            assert!(idx >= last_idx || v < 4096, "indices monotone");
            last_idx = idx.max(last_idx);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 3, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Values < 16 get unit buckets: quantiles are exact there.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..10_000u64).map(|i| (i * i * 31) % 1_000_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact =
                samples[((q * samples.len() as f64).ceil() as usize - 1).min(samples.len() - 1)];
            let got = h.quantile(q);
            let (be, bg) = (bucket_index(exact), bucket_index(got));
            assert!(
                be.abs_diff(bg) <= 1,
                "q={q}: exact {exact} (bucket {be}) vs got {got} (bucket {bg})"
            );
        }
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
        }
        let merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.max(), a.max().max(b.max()));
        assert_eq!(merged.min(), a.min().min(b.min()));
    }

    #[test]
    fn record_n_matches_n_single_records() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [
            (7u64, 3u64),
            (0, 1),
            (1_000, 64),
            (5, 0),
            (u64::MAX / 3, 4),
            (90, 17),
        ] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
            assert_eq!(batched.snapshot(), single.snapshot(), "after ({v}, {n})");
        }
        let buckets = |h: &Histogram| -> Vec<u64> {
            h.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        };
        assert_eq!(buckets(&batched), buckets(&single));
        // Nothing recorded by `n == 0` alone: min/max stay at empty.
        let empty = Histogram::new();
        empty.record_n(42, 0);
        assert_eq!(empty.snapshot(), Histogram::new().snapshot());
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }
}
