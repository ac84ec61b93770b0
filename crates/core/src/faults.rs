//! Deterministic fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] is a seeded set of rules, each armed at a named
//! *injection point* (see [`points`]) with a fault kind, a firing
//! probability, and optional first-call / max-fires bounds. Installing a
//! plan makes [`inject`] consult it; dropping the returned [`FaultGuard`]
//! disarms everything. Decisions are a pure function of
//! `(seed, point, call index)` via SplitMix64, so a given plan fires the
//! same faults on every run — chaos tests are reproducible.
//!
//! The whole mechanism is compiled in only under the `fault-injection`
//! cargo feature. Without it, [`inject`] is a `const`-`None` inline
//! function, the optimizer deletes every call site, and release binaries
//! carry zero injected code (CI greps the release binary for the
//! [`PANIC_MARKER`] string to prove it).
//!
//! Injected faults model the production failure taxonomy:
//!
//! - [`Fault::Panic`] — a worker bug: the injection point panics
//!   (payload carries [`PANIC_MARKER`]); recovery layers catch it.
//! - [`Fault::Latency`] — a slow dependency: the point sleeps before
//!   proceeding normally.
//! - [`Fault::TransientError`] — a retryable failure: the point reports
//!   an error without doing the work.
//! - [`Fault::CorruptScore`] — a poisoned value: the point yields a
//!   non-finite score the validation layer must catch.

use std::time::Duration;

/// Marker embedded in every injected panic payload and error message.
/// Release builds must not contain this string (checked by CI).
pub const PANIC_MARKER: &str = "logsynergy-fault-injected";

/// Well-known injection point names used across the workspace.
pub mod points {
    /// Producer-side buffer enqueue (the pipeline shipper, once per record).
    pub const BUFFER_PUSH: &str = "buffer.push";
    /// Worker-side micro-batch drain (`Consumer::recv_batch`).
    pub const BATCH_DRAIN: &str = "batch.drain";
    /// Window-score cache lookup in the detection tiering.
    pub const CACHE_LOOKUP: &str = "cache.lookup";
    /// Model-tier batched scoring call.
    pub const MODEL_SCORE: &str = "model.score";
    /// Model persistence I/O (`persist::save` / `persist::load`).
    pub const PERSIST_IO: &str = "persist.io";
    /// Ingest daemon connection accept (`logsynergy-serve` accept loop).
    pub const INGEST_ACCEPT: &str = "ingest.accept";
    /// Ingest daemon line parsing (`logsynergy-serve` protocol decoder).
    pub const INGEST_PARSE: &str = "ingest.parse";
    /// WAL record append (segment write + flush in [`crate::wal`]).
    pub const WAL_APPEND: &str = "wal.append";
    /// WAL segment roll (close/open/retention in [`crate::wal`]).
    pub const WAL_ROLL: &str = "wal.roll";
    /// WAL recovery scan (cursor + segment replay in [`crate::wal`]).
    pub const WAL_RECOVER: &str = "wal.recover";
}

/// A fault to inject at a point, decided by [`inject`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the injection point (worker-crash simulation).
    Panic,
    /// Sleep this long, then proceed normally (slow-dependency
    /// simulation).
    Latency(Duration),
    /// Report a retryable failure without doing the work.
    TransientError,
    /// Produce a detectably corrupt (non-finite) score.
    CorruptScore,
}

/// One armed rule: fire `kind` at `point` with `probability`, skipping
/// the first `after` calls and firing at most `max_fires` times.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: Fault,
    /// Per-call firing probability in `[0, 1]` (1.0 = every call).
    pub probability: f64,
    /// Number of initial calls at the point that never fire.
    pub after: u64,
    /// Cap on total fires for this rule (`u64::MAX` = unbounded).
    pub max_fires: u64,
}

impl FaultSpec {
    /// A rule that always fires, from the first call, unbounded.
    pub fn new(kind: Fault) -> Self {
        FaultSpec {
            kind,
            probability: 1.0,
            after: 0,
            max_fires: u64::MAX,
        }
    }

    /// Convenience: an always-firing panic rule.
    pub fn panic() -> Self {
        Self::new(Fault::Panic)
    }

    /// Convenience: an added-latency rule.
    pub fn latency(d: Duration) -> Self {
        Self::new(Fault::Latency(d))
    }

    /// Convenience: a transient-error rule.
    pub fn transient() -> Self {
        Self::new(Fault::TransientError)
    }

    /// Convenience: a corrupt-score rule.
    pub fn corrupt_score() -> Self {
        Self::new(Fault::CorruptScore)
    }

    /// Sets the per-call firing probability.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Skips the first `n` calls at the point.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Caps total fires.
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

/// A seeded, thread-safe plan of armed fault rules.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    // Only read by the feature-gated `imp::install`; without the feature
    // the plan is inert and the fields are deliberately dead.
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    seed: u64,
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    rules: Vec<(String, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan with a deterministic seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Arms a rule at a named injection point.
    pub fn arm(mut self, point: &str, spec: FaultSpec) -> Self {
        self.rules.push((point.to_string(), spec));
        self
    }

    /// Installs the plan process-wide; faults fire until the guard drops.
    ///
    /// Without the `fault-injection` feature this is a no-op (nothing
    /// consults the plan). Plans do not stack: installing replaces any
    /// previously active plan, so chaos tests must serialize.
    pub fn install(self) -> FaultGuard {
        imp::install(self)
    }
}

pub use imp::{inject, FaultGuard};

/// Serializes tests that install fault plans: plans are process-global
/// and do not stack, so concurrent installs would race. Hold the returned
/// guard for the duration of the test.
#[cfg(feature = "fault-injection")]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, RwLock};

    struct RuleState {
        point: String,
        spec: FaultSpec,
        calls: AtomicU64,
        fires: AtomicU64,
    }

    struct PlanState {
        seed: u64,
        rules: Vec<RuleState>,
    }

    fn active() -> &'static RwLock<Option<Arc<PlanState>>> {
        static ACTIVE: RwLock<Option<Arc<PlanState>>> = RwLock::new(None);
        &ACTIVE
    }

    /// Keeps the plan armed; disarms on drop.
    pub struct FaultGuard {
        state: Arc<PlanState>,
    }

    impl FaultGuard {
        /// Total fires recorded at `point` across all rules so far.
        pub fn fires(&self, point: &str) -> u64 {
            self.state
                .rules
                .iter()
                .filter(|r| r.point == point)
                .map(|r| r.fires.load(Ordering::Relaxed))
                .sum()
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            let mut slot = active().write().unwrap_or_else(|e| e.into_inner());
            if let Some(cur) = slot.as_ref() {
                if Arc::ptr_eq(cur, &self.state) {
                    *slot = None;
                }
            }
        }
    }

    pub(super) fn install(plan: FaultPlan) -> FaultGuard {
        let state = Arc::new(PlanState {
            seed: plan.seed,
            rules: plan
                .rules
                .into_iter()
                .map(|(point, spec)| RuleState {
                    point,
                    spec,
                    calls: AtomicU64::new(0),
                    fires: AtomicU64::new(0),
                })
                .collect(),
        });
        *active().write().unwrap_or_else(|e| e.into_inner()) = Some(state.clone());
        FaultGuard { state }
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn fnv(s: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Consults the active plan at a named injection point.
    ///
    /// Each call advances the matching rules' call counters; whether a
    /// given call fires is a pure function of `(seed, point, call index)`,
    /// so runs with the same plan replay the same fault schedule.
    pub fn inject(point: &str) -> Option<Fault> {
        let plan = active().read().unwrap_or_else(|e| e.into_inner()).clone()?;
        for rule in plan.rules.iter().filter(|r| r.point == point) {
            let n = rule.calls.fetch_add(1, Ordering::Relaxed);
            if n < rule.spec.after {
                continue;
            }
            if rule.fires.load(Ordering::Relaxed) >= rule.spec.max_fires {
                continue;
            }
            let draw = splitmix64(plan.seed ^ fnv(point) ^ n.wrapping_add(1));
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if unit < rule.spec.probability {
                rule.fires.fetch_add(1, Ordering::Relaxed);
                return Some(rule.spec.kind);
            }
        }
        None
    }
}

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use super::*;

    /// Inert guard; the build has no injection machinery.
    pub struct FaultGuard;

    impl FaultGuard {
        /// Always 0 without the `fault-injection` feature.
        pub fn fires(&self, _point: &str) -> u64 {
            0
        }
    }

    pub(super) fn install(_plan: FaultPlan) -> FaultGuard {
        FaultGuard
    }

    /// Always `None`; inlines away entirely in release builds.
    #[inline(always)]
    pub fn inject(_point: &str) -> Option<Fault> {
        None
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    /// Plans are process-global; serialize the tests that install them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn uninstalled_plan_never_fires() {
        let _l = lock();
        assert_eq!(inject(points::MODEL_SCORE), None);
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _l = lock();
        let guard = FaultPlan::seeded(7)
            .arm(points::MODEL_SCORE, FaultSpec::transient())
            .install();
        assert_eq!(inject(points::MODEL_SCORE), Some(Fault::TransientError));
        drop(guard);
        assert_eq!(inject(points::MODEL_SCORE), None);
    }

    #[test]
    fn after_and_max_fires_bound_the_schedule() {
        let _l = lock();
        let guard = FaultPlan::seeded(7)
            .arm(
                points::CACHE_LOOKUP,
                FaultSpec::panic().after(2).max_fires(3),
            )
            .install();
        let fired: Vec<bool> = (0..10)
            .map(|_| inject(points::CACHE_LOOKUP).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, true, true, true, false, false, false, false, false]
        );
        assert_eq!(guard.fires(points::CACHE_LOOKUP), 3);
    }

    #[test]
    fn probability_schedule_is_deterministic_per_seed() {
        let _l = lock();
        let schedule = |seed: u64| -> Vec<bool> {
            let _guard = FaultPlan::seeded(seed)
                .arm(
                    points::BUFFER_PUSH,
                    FaultSpec::latency(Duration::from_millis(1)).with_probability(0.5),
                )
                .install();
            (0..64)
                .map(|_| inject(points::BUFFER_PUSH).is_some())
                .collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        let c = schedule(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fires), "p=0.5 over 64 calls: {fires}");
    }

    #[test]
    fn rules_match_their_point_only() {
        let _l = lock();
        let _guard = FaultPlan::seeded(1)
            .arm(points::PERSIST_IO, FaultSpec::corrupt_score())
            .install();
        assert_eq!(inject(points::MODEL_SCORE), None);
        assert_eq!(inject(points::PERSIST_IO), Some(Fault::CorruptScore));
    }
}
