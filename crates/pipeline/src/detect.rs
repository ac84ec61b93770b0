//! Online detection stage: sliding-window assembly, pattern-library fast
//! path, LRU score cache, micro-batched model slow path, and report
//! generation.
//!
//! [`OnlineDetector::ingest_batch`] is the serving hot path: it answers
//! pattern-library hits inline, serves exact-window repeats from the
//! bounded [`ScoreCache`], and ships only the remaining misses through a
//! single batched [`SequenceScorer::score_batch`] call (leave-one-out
//! culprit scoring is batched the same way). Because the model forward is
//! deterministic, batching and caching change cost only: verdicts and
//! report order are identical to the one-window-at-a-time path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use logsynergy::detector::THRESHOLD;
use logsynergy::infer::{InferencePlan, PlanScratch};
use logsynergy::model::LogSynergyModel;
use parking_lot::Mutex;

use crate::cache::ScoreCache;
use crate::error::{DeadLetter, PipelineError};
use crate::faults::{self, points, Fault};
use crate::patterns::{pattern_key, PatternLibrary, Verdict};
use crate::record::StructuredLog;
use crate::report::Report;
use crate::vectorizer::EventVectorizer;

/// Default capacity of the per-detector window-score cache.
pub const DEFAULT_SCORE_CACHE: usize = 4096;

/// How a batch should be served (the load-shedding switch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Full three-tier service: library → cache → batched model.
    Normal,
    /// Overload: answer the cheap tiers (library + cache) only; misses
    /// are counted as shed instead of reaching the model.
    Shed,
}

/// Retry/deadline policy for the model tier.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Transient scorer failures retried per batch before degrading.
    pub max_retries: u32,
    /// Base backoff between retries (doubles per attempt, jittered).
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one batch's scoring attempts.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Anything that can score windows of event ids against an embedding
/// table (the offline-trained model, or a stub in tests).
pub trait SequenceScorer: Send {
    /// Anomaly probability in `[0, 1]` for one window.
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32;

    /// Anomaly probabilities for a micro-batch of windows. The default
    /// implementation loops over [`SequenceScorer::score`], so test stubs
    /// keep working; real scorers override it to amortize per-call cost.
    fn score_batch(&self, windows: &[&[u32]], table: &[Vec<f32>]) -> Vec<f32> {
        windows.iter().map(|w| self.score(w, table)).collect()
    }

    /// Short label of the numeric tier this scorer runs at, published as
    /// the `pipeline.scorer_tier` telemetry tag ("f32" unless overridden).
    fn tier_label(&self) -> &'static str {
        "f32"
    }
}

/// The serving engine a [`ModelScorer`] was built over.
#[derive(Clone)]
enum Engine {
    F32(Arc<InferencePlan>),
    #[cfg(feature = "quant")]
    Int8(Arc<logsynergy::quant::QuantizedModel>),
}

/// The production scorer: one serving engine of a trained LogSynergy
/// model, shared (`Arc`, frozen weights); each clone owns a private scratch
/// that persists across calls, so every serving worker scores against the
/// same weights without copying them or allocating per batch.
///
/// [`ModelScorer::new`] / [`ModelScorer::shared`] serve the fused f32
/// [`InferencePlan`] — the default, bit-identical to the tape's
/// `Detector::scores`. `ModelScorer::quantized` (`quant` feature,
/// `--quant`) serves the calibrated int8 model, held to the
/// verdict-agreement gate (≥ 99.5% with f32, |ΔF1| ≤ 0.005) asserted in
/// `quant_agreement.rs`.
pub struct ModelScorer {
    engine: Engine,
    scratch: Mutex<PlanScratch>,
}

impl ModelScorer {
    /// Wraps a trained model.
    pub fn new(model: LogSynergyModel) -> Self {
        Self::shared(Arc::new(model))
    }

    /// Wraps an already-shared trained model (its serving weights are
    /// copied into the plan once, here).
    pub fn shared(model: Arc<LogSynergyModel>) -> Self {
        Self::over(Engine::F32(Arc::new(InferencePlan::from_model(&model))))
    }

    /// Quantizes a trained f32 model against calibration windows drawn
    /// from the deployment's expected traffic. Fails when those windows
    /// carry no signal to calibrate on (none at all, or all-zero
    /// embeddings).
    #[cfg(feature = "quant")]
    pub fn quantized(
        model: &LogSynergyModel,
        calib_windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Result<Self, logsynergy::quant::EmptyCalibration> {
        let model =
            logsynergy::quant::QuantizedModel::from_model(model, calib_windows, embeddings)?;
        Ok(Self::over(Engine::Int8(Arc::new(model))))
    }

    fn over(engine: Engine) -> Self {
        let scratch = Mutex::new(match &engine {
            Engine::F32(plan) => plan.scratch(),
            #[cfg(feature = "quant")]
            Engine::Int8(model) => model.scratch(),
        });
        ModelScorer { engine, scratch }
    }
}

impl Clone for ModelScorer {
    fn clone(&self) -> Self {
        Self::over(self.engine.clone())
    }
}

impl SequenceScorer for ModelScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        self.score_batch(&[events], table)[0]
    }

    fn score_batch(&self, windows: &[&[u32]], table: &[Vec<f32>]) -> Vec<f32> {
        let scratch = &mut self.scratch.lock();
        match &self.engine {
            Engine::F32(plan) => plan.score_windows_with(scratch, windows, table),
            #[cfg(feature = "quant")]
            Engine::Int8(model) => model.score_windows_with(scratch, windows, table),
        }
    }

    fn tier_label(&self) -> &'static str {
        match self.engine {
            Engine::F32(_) => "f32",
            #[cfg(feature = "quant")]
            Engine::Int8(_) => "int8",
        }
    }
}

/// Everything needed to build a [`Report`] for a window after its verdict
/// resolves (the sliding window moves on while scoring is deferred).
struct WindowCtx {
    events: Vec<u32>,
    system: String,
    start_timestamp: u64,
    end_timestamp: u64,
    first_seq_no: u64,
    messages: Vec<String>,
}

/// A window awaiting the batched slow path.
struct Pending {
    ctx: WindowCtx,
    /// Score from the cache (phase 1) or the model (phase 2). Stays
    /// `None` when the batch was shed or degraded.
    score: Option<f32>,
    /// True when phase 1 answered from the score cache.
    from_cache: bool,
}

/// How this batch's cache misses resolved (decided in phase 2).
#[derive(Clone, Copy, PartialEq, Eq)]
enum MissOutcome {
    /// Model tier answered (possibly after retries).
    Scored,
    /// Model tier failed persistently; misses fell back to cheap tiers.
    Degraded,
    /// Load shedding skipped the model tier entirely.
    Shed,
}

/// Per-window resolution recorded in arrival order so reports are emitted
/// exactly as the sequential path would.
enum Slot {
    /// Verdict known inline (library hit); report prebuilt if anomalous.
    Ready(Option<Report>),
    /// First occurrence of a new pattern — owns `Pending` entry `i`.
    Deferred(usize),
    /// Same pattern as pending entry `i` arrived earlier in this batch;
    /// sequentially it would hit the library after `i` was scored.
    Alias(usize, WindowCtx),
}

/// Per-stream window assembler + three-tier detector (library → cache →
/// batched model).
pub struct OnlineDetector<S: SequenceScorer> {
    vectorizer: EventVectorizer,
    scorer: S,
    library: PatternLibrary,
    cache: ScoreCache,
    window_len: usize,
    step: usize,
    window: VecDeque<(u32, StructuredLog)>,
    since_last_window: usize,
    policy: RetryPolicy,
    /// Monotone retry counter; also seeds the deterministic backoff
    /// jitter (no shared RNG).
    retry_seq: u64,
    dead_letters: Vec<DeadLetter>,
    /// Windows scored by the model (slow path).
    pub model_calls: u64,
    /// Windows answered from the pattern library (fast path).
    pub pattern_hits: u64,
    /// Windows answered from the exact-window score cache.
    pub cache_hits: u64,
    /// Windows that fell back to the cheap tiers because the model tier
    /// failed persistently (no verdict emitted).
    pub degraded: u64,
    /// Windows skipped by load shedding (no verdict emitted).
    pub shed: u64,
    /// Windows quarantined to the dead-letter queue after exhausting the
    /// panic-retry budget.
    pub quarantined: u64,
    /// Model-tier retry attempts performed.
    pub retries: u64,
}

/// A restorable snapshot of the detector's mutable serving state, taken
/// before each batch attempt so a faulted attempt can be rolled back and
/// replayed (or quarantined) without double counting.
///
/// The pattern library and score cache are deliberately *not* part of the
/// checkpoint: both are idempotent memoizations of pure, deterministic
/// values, so partial writes from a failed attempt are harmless — a
/// replay recomputes bit-identical entries.
pub struct DetectorCheckpoint {
    window: VecDeque<(u32, StructuredLog)>,
    since_last_window: usize,
    retry_seq: u64,
    dead_letters: usize,
    counts: TierCounts,
}

/// One snapshot of the detector's seven verdict-tier counters. The
/// serving loop takes one before and after each batch (the difference is
/// the batch's telemetry), commits one in every recovery cursor, and
/// sums the workers' into the run summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TierCounts {
    pub(crate) pattern_hits: u64,
    pub(crate) cache_hits: u64,
    pub(crate) model_calls: u64,
    pub(crate) degraded: u64,
    pub(crate) shed: u64,
    pub(crate) quarantined: u64,
    pub(crate) retries: u64,
}

impl TierCounts {
    /// Windows resolved: the six buckets every window lands in exactly
    /// one of (retries are attempts, not windows).
    pub(crate) fn windows(&self) -> u64 {
        self.pattern_hits
            + self.cache_hits
            + self.model_calls
            + self.degraded
            + self.shed
            + self.quarantined
    }
}

impl std::ops::Sub for TierCounts {
    type Output = TierCounts;
    fn sub(self, rhs: TierCounts) -> TierCounts {
        TierCounts {
            pattern_hits: self.pattern_hits - rhs.pattern_hits,
            cache_hits: self.cache_hits - rhs.cache_hits,
            model_calls: self.model_calls - rhs.model_calls,
            degraded: self.degraded - rhs.degraded,
            shed: self.shed - rhs.shed,
            quarantined: self.quarantined - rhs.quarantined,
            retries: self.retries - rhs.retries,
        }
    }
}

impl std::ops::AddAssign for TierCounts {
    fn add_assign(&mut self, rhs: TierCounts) {
        self.pattern_hits += rhs.pattern_hits;
        self.cache_hits += rhs.cache_hits;
        self.model_calls += rhs.model_calls;
        self.degraded += rhs.degraded;
        self.shed += rhs.shed;
        self.quarantined += rhs.quarantined;
        self.retries += rhs.retries;
    }
}

impl<S: SequenceScorer> OnlineDetector<S> {
    /// Builds a detector with the paper's window geometry (10/5) and the
    /// default score-cache capacity.
    pub fn new(vectorizer: EventVectorizer, scorer: S) -> Self {
        OnlineDetector {
            vectorizer,
            scorer,
            library: PatternLibrary::new(),
            cache: ScoreCache::new(DEFAULT_SCORE_CACHE),
            window_len: 10,
            step: 5,
            window: VecDeque::new(),
            since_last_window: 0,
            policy: RetryPolicy::default(),
            retry_seq: 0,
            dead_letters: Vec::new(),
            model_calls: 0,
            pattern_hits: 0,
            cache_hits: 0,
            degraded: 0,
            shed: 0,
            quarantined: 0,
            retries: 0,
        }
    }

    /// Sets the window-score cache capacity (0 disables the cache).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = ScoreCache::new(capacity);
        self
    }

    /// Bounds the pattern library to `capacity` patterns with LRU
    /// eviction (0 = unbounded, the default). Evicted patterns fall
    /// through to the score cache / model tiers on their next occurrence,
    /// which is what makes main-path cache hits reachable at all: an
    /// unbounded library answers every exact repeat before the cache is
    /// consulted.
    pub fn with_library_capacity(mut self, capacity: usize) -> Self {
        self.library = PatternLibrary::bounded(capacity);
        self
    }

    /// Sets the model-tier retry/deadline policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Feeds one structured log; returns a report when a freshly completed
    /// window is anomalous.
    pub fn ingest(&mut self, log: StructuredLog) -> Option<Report> {
        let mut reports = Vec::new();
        self.ingest_batch(std::iter::once(log), &mut reports);
        reports.pop()
    }

    /// Feeds a micro-batch of structured logs, appending any anomaly
    /// reports (in window order) to `reports`.
    ///
    /// All completed windows that miss the fast path and the cache are
    /// scored through one `score_batch` call; a second batched call covers
    /// the leave-one-out culprit search for anomalous windows. Verdicts,
    /// library contents, and report order are identical to feeding the
    /// logs one at a time.
    pub fn ingest_batch(
        &mut self,
        logs: impl IntoIterator<Item = StructuredLog>,
        reports: &mut Vec<Report>,
    ) {
        self.ingest_batch_mode(logs, reports, ServeMode::Normal)
    }

    /// [`OnlineDetector::ingest_batch`] with an explicit serve mode — the
    /// worker passes [`ServeMode::Shed`] while its queue depth is above
    /// the load-shedding watermark.
    ///
    /// Model-tier failures are absorbed here rather than propagated: a
    /// transient scorer failure is retried under [`RetryPolicy`], and a
    /// persistent one degrades this batch's misses to the cheap tiers
    /// (counted in [`OnlineDetector::degraded`], no verdict emitted).
    /// Injected panics are *not* absorbed — they unwind to the worker's
    /// isolation layer, which restores a [`DetectorCheckpoint`].
    pub fn ingest_batch_mode(
        &mut self,
        logs: impl IntoIterator<Item = StructuredLog>,
        reports: &mut Vec<Report>,
        mode: ServeMode,
    ) {
        // Phase 1: assemble windows; resolve library and cache tiers
        // inline; defer model misses. `pending_by_key` mirrors the library
        // insert the sequential path would have performed mid-batch.
        let mut slots: Vec<Slot> = Vec::new();
        let mut pending: Vec<Pending> = Vec::new();
        let mut pending_by_key: HashMap<Vec<u32>, usize> = HashMap::new();

        for log in logs {
            let event = self.vectorizer.ingest(&log.message);
            self.window.push_back((event, log));
            if self.window.len() > self.window_len {
                self.window.pop_front();
            }
            self.since_last_window += 1;
            if self.window.len() < self.window_len || self.since_last_window < self.step {
                continue;
            }
            self.since_last_window = 0;

            let events: Vec<u32> = self.window.iter().map(|(e, _)| *e).collect();
            if let Some(v) = self.library.lookup(&events) {
                self.pattern_hits += 1;
                let report = v.anomalous.then(|| {
                    let ctx = self.snapshot(events);
                    self.build_report(ctx, v)
                });
                slots.push(Slot::Ready(report));
                continue;
            }
            let key = pattern_key(&events);
            if let Some(&i) = pending_by_key.get(&key) {
                // Tier accounting happens in phase 4: whether this alias
                // counts as a pattern hit depends on whether its referent
                // actually resolved to a verdict.
                let ctx = self.snapshot(events);
                slots.push(Slot::Alias(i, ctx));
                continue;
            }
            let score = self.cached_score(&events);
            pending_by_key.insert(key, pending.len());
            slots.push(Slot::Deferred(pending.len()));
            let ctx = self.snapshot(events);
            pending.push(Pending {
                ctx,
                from_cache: score.is_some(),
                score,
            });
        }

        // Phase 2: one batched forward for every window the cache missed
        // (retried/degraded under the policy), unless we are shedding.
        let misses: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.score.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut miss_outcome = MissOutcome::Scored;
        if !misses.is_empty() {
            match mode {
                ServeMode::Shed => miss_outcome = MissOutcome::Shed,
                ServeMode::Normal => {
                    let windows: Vec<&[u32]> = misses
                        .iter()
                        .map(|&i| pending[i].ctx.events.as_slice())
                        .collect();
                    match self.score_resilient(&windows) {
                        Ok(scores) => {
                            for (&i, &p) in misses.iter().zip(&scores) {
                                self.cache.insert(&pending[i].ctx.events, p);
                                pending[i].score = Some(p);
                            }
                        }
                        Err(_) => miss_outcome = MissOutcome::Degraded,
                    }
                }
            }
        }

        // Phase 3: leave-one-out saliency for anomalous windows — the
        // event whose removal drops the score the most headlines the
        // alert. Reduced windows dedupe within the batch and route
        // through the score cache, and the remainder is one more batched
        // call.
        enum Src {
            Const(f32),
            Batched(usize),
        }
        let mut probes: Vec<(usize, u32, Src)> = Vec::new();
        let mut batch_windows: Vec<Vec<u32>> = Vec::new();
        let mut batch_index: HashMap<Vec<u32>, usize> = HashMap::new();
        for (i, p) in pending.iter().enumerate() {
            // Shed/degraded windows have no score and get no verdict.
            let Some(score) = p.score else { continue };
            if score <= THRESHOLD {
                continue;
            }
            let mut distinct = p.ctx.events.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for id in distinct {
                let reduced: Vec<u32> = p.ctx.events.iter().copied().filter(|&e| e != id).collect();
                let src = if reduced.is_empty() {
                    Src::Const(0.0)
                } else if let Some(s) = self.cache.get(&reduced).filter(|s| s.is_finite()) {
                    Src::Const(s)
                } else if let Some(&j) = batch_index.get(&reduced) {
                    Src::Batched(j)
                } else {
                    let j = batch_windows.len();
                    batch_index.insert(reduced.clone(), j);
                    batch_windows.push(reduced);
                    Src::Batched(j)
                };
                probes.push((i, id, src));
            }
        }
        let probe_scores: Vec<f32> = if batch_windows.is_empty() {
            Vec::new()
        } else {
            let refs: Vec<&[u32]> = batch_windows.iter().map(|w| w.as_slice()).collect();
            match self.score_resilient(&refs) {
                Ok(scores) => {
                    for (w, &s) in batch_windows.iter().zip(&scores) {
                        self.cache.insert(w, s);
                    }
                    scores
                }
                // Saliency is best-effort: if probe scoring fails
                // persistently, verdicts stand and alerts just carry no
                // culprit.
                Err(_) => Vec::new(),
            }
        };
        let mut culprits: Vec<Option<u32>> = vec![None; pending.len()];
        let mut probes = probes.into_iter().peekable();
        while let Some(&(i, _, _)) = probes.peek() {
            let mut best: Option<(u32, f32)> = None;
            while let Some(&(j, _, _)) = probes.peek() {
                if j != i {
                    break;
                }
                let Some((_, id, src)) = probes.next() else {
                    break;
                };
                let p_without = match src {
                    Src::Const(s) => s,
                    // Probe scoring failed persistently: skip this probe
                    // (the verdict stands, the culprit is best-effort).
                    Src::Batched(k) => match probe_scores.get(k) {
                        Some(&s) => s,
                        None => continue,
                    },
                };
                let base = pending[i]
                    .score
                    .expect("probes exist only for scored windows");
                let drop = base - p_without;
                // Same tie-breaking as `Iterator::max_by` over the
                // (id, drop) pairs in ascending-id order: ties keep the
                // later (larger) id.
                best = match best {
                    Some((bid, bdrop)) if drop < bdrop => Some((bid, bdrop)),
                    _ => Some((id, drop)),
                };
            }
            culprits[i] = best.map(|(id, _)| id);
        }

        // Phase 4: commit verdicts (in window order, as the sequential
        // path inserts them), settle tier accounting now that every
        // window's resolution is known, and emit reports in window order.
        // Shed/degraded windows have no verdict: nothing enters the
        // library (a later repeat gets a fresh chance at the model tier)
        // and no report is emitted.
        let verdicts: Vec<Option<Verdict>> = pending
            .iter()
            .zip(&culprits)
            .map(|(p, &culprit)| {
                p.score.map(|probability| Verdict {
                    probability,
                    anomalous: probability > THRESHOLD,
                    culprit,
                })
            })
            .collect();
        for (p, v) in pending.iter().zip(&verdicts) {
            if let Some(v) = v {
                self.library.insert(&p.ctx.events, *v);
            }
        }
        for p in &pending {
            if p.from_cache {
                self.cache_hits += 1;
            } else {
                match miss_outcome {
                    MissOutcome::Scored => self.model_calls += 1,
                    MissOutcome::Degraded => self.degraded += 1,
                    MissOutcome::Shed => self.shed += 1,
                }
            }
        }
        let mut ctxs: Vec<Option<WindowCtx>> = pending.into_iter().map(|p| Some(p.ctx)).collect();
        for slot in slots {
            match slot {
                Slot::Ready(r) => reports.extend(r),
                Slot::Deferred(i) => {
                    if let Some(v) = verdicts[i] {
                        if v.anomalous {
                            let ctx = ctxs[i].take().expect("deferred ctx consumed once");
                            reports.push(self.build_report(ctx, v));
                        }
                    }
                }
                Slot::Alias(i, ctx) => match verdicts[i] {
                    // Sequentially the alias would hit the library right
                    // after its referent was scored.
                    Some(v) => {
                        self.pattern_hits += 1;
                        if v.anomalous {
                            reports.push(self.build_report(ctx, v));
                        }
                    }
                    // The referent never resolved, so sequentially this
                    // window would have been its own miss — it shares the
                    // referent's fate.
                    None => match miss_outcome {
                        MissOutcome::Scored => unreachable!("scored batches resolve all pendings"),
                        MissOutcome::Degraded => self.degraded += 1,
                        MissOutcome::Shed => self.shed += 1,
                    },
                },
            }
        }
    }

    /// Consults the score cache through the `cache.lookup` injection
    /// point, validating the entry so a poisoned score falls back to a
    /// miss (the deterministic model re-scores it to the same bits).
    fn cached_score(&mut self, events: &[u32]) -> Option<f32> {
        let poison = match faults::inject(points::CACHE_LOOKUP) {
            Some(Fault::Panic) => panic!("{}: cache.lookup", faults::PANIC_MARKER),
            Some(Fault::Latency(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(Fault::TransientError) => return None, // forced miss
            Some(Fault::CorruptScore) => true,
            None => false,
        };
        let score = self.cache.get(events)?;
        let score = if poison { f32::NAN } else { score };
        (score.is_finite() && (0.0..=1.0).contains(&score)).then_some(score)
    }

    /// One scoring attempt through the `model.score` injection point,
    /// with the result validated (length, finiteness, range) before any
    /// verdict can be built from it.
    fn score_attempt(&mut self, windows: &[&[u32]]) -> Result<Vec<f32>, PipelineError> {
        let poison = match faults::inject(points::MODEL_SCORE) {
            Some(Fault::Panic) => panic!("{}: model.score", faults::PANIC_MARKER),
            Some(Fault::Latency(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(Fault::TransientError) => return Err(PipelineError::ScorerUnavailable),
            Some(Fault::CorruptScore) => true,
            None => false,
        };
        let mut scores = self.scorer.score_batch(windows, self.vectorizer.table());
        if poison {
            if let Some(s) = scores.first_mut() {
                *s = f32::NAN;
            }
        }
        if scores.len() != windows.len() {
            return Err(PipelineError::ShortScoreBatch {
                expected: windows.len(),
                got: scores.len(),
            });
        }
        if let Some(&bad) = scores
            .iter()
            .find(|s| !s.is_finite() || !(0.0..=1.0).contains(*s))
        {
            return Err(PipelineError::CorruptScore(bad));
        }
        Ok(scores)
    }

    /// Model-tier call with the retry/deadline policy: transient failures
    /// are retried with jittered capped-exponential backoff; exhausting
    /// the budget (or the deadline) returns the error so the caller can
    /// degrade the batch. The model forward is deterministic, so a retry
    /// that succeeds returns bit-identical scores to a fault-free call.
    fn score_resilient(&mut self, windows: &[&[u32]]) -> Result<Vec<f32>, PipelineError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.score_attempt(windows) {
                Ok(scores) => return Ok(scores),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) if attempt >= self.policy.max_retries => return Err(e),
                Err(_) if start.elapsed() >= self.policy.deadline => {
                    return Err(PipelineError::DeadlineExceeded)
                }
                Err(_) => {
                    attempt += 1;
                    self.retries += 1;
                    std::thread::sleep(self.retry_backoff(attempt));
                }
            }
        }
    }

    /// Capped exponential backoff with deterministic jitter derived from
    /// the running retry counter — spreads concurrent workers without a
    /// shared RNG, and replays identically for a given fault schedule.
    fn retry_backoff(&mut self, attempt: u32) -> Duration {
        let base = self.policy.backoff.max(Duration::from_micros(50));
        let capped = base
            .saturating_mul(1u32 << attempt.min(10))
            .min(self.policy.backoff_cap.max(base));
        self.retry_seq = self.retry_seq.wrapping_add(1);
        let mut z = self
            .retry_seq
            .wrapping_add(0x9E3779B97F4A7C15)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 31;
        let jitter_ns = z % (capped.as_nanos().max(1) as u64 / 4 + 1);
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Snapshots the mutable serving state before a batch attempt.
    pub fn checkpoint(&self) -> DetectorCheckpoint {
        DetectorCheckpoint {
            window: self.window.clone(),
            since_last_window: self.since_last_window,
            retry_seq: self.retry_seq,
            dead_letters: self.dead_letters.len(),
            counts: self.counts(),
        }
    }

    /// The seven verdict-tier counters, as one value.
    pub(crate) fn counts(&self) -> TierCounts {
        TierCounts {
            pattern_hits: self.pattern_hits,
            cache_hits: self.cache_hits,
            model_calls: self.model_calls,
            degraded: self.degraded,
            shed: self.shed,
            quarantined: self.quarantined,
            retries: self.retries,
        }
    }

    /// Overwrites the seven counters (checkpoint rollback, and a durable
    /// worker resuming from its recovered cursor).
    pub(crate) fn set_counts(&mut self, c: TierCounts) {
        self.pattern_hits = c.pattern_hits;
        self.cache_hits = c.cache_hits;
        self.model_calls = c.model_calls;
        self.degraded = c.degraded;
        self.shed = c.shed;
        self.quarantined = c.quarantined;
        self.retries = c.retries;
    }

    /// Rolls the detector back to a [`DetectorCheckpoint`] after a
    /// faulted batch attempt, so the batch can be replayed (or
    /// quarantined) without double counting windows.
    pub fn restore(&mut self, cp: DetectorCheckpoint) {
        self.window = cp.window;
        self.since_last_window = cp.since_last_window;
        self.retry_seq = cp.retry_seq;
        self.dead_letters.truncate(cp.dead_letters);
        self.set_counts(cp.counts);
    }

    /// Consumes a batch that exhausted its panic-retry budget: windows
    /// are still assembled (so the sliding-window state and the global
    /// window count stay consistent) but every completed window is
    /// quarantined to the dead-letter queue instead of being scored.
    ///
    /// This path runs no tier lookups and no scorer calls — it contains
    /// no injection points, so it cannot fault again.
    pub fn quarantine_batch(
        &mut self,
        logs: impl IntoIterator<Item = StructuredLog>,
        reason: &str,
    ) {
        for log in logs {
            let event = self.vectorizer.ingest(&log.message);
            self.window.push_back((event, log));
            if self.window.len() > self.window_len {
                self.window.pop_front();
            }
            self.since_last_window += 1;
            if self.window.len() < self.window_len || self.since_last_window < self.step {
                continue;
            }
            self.since_last_window = 0;
            self.quarantined += 1;
            let (first, last) = match (self.window.front(), self.window.back()) {
                (Some((_, f)), Some((_, l))) => (f, l),
                _ => continue,
            };
            self.dead_letters.push(DeadLetter {
                system: first.system.clone(),
                start_timestamp: first.timestamp,
                end_timestamp: last.timestamp,
                first_seq_no: first.seq_no,
                reason: reason.to_string(),
            });
        }
    }

    /// Drains the dead-letter queue (quarantined windows).
    pub fn take_dead_letters(&mut self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.dead_letters)
    }

    /// The dead-letter queue of quarantined windows.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Snapshots the current window into an owned report context.
    fn snapshot(&self, events: Vec<u32>) -> WindowCtx {
        let first = &self.window.front().expect("window non-empty").1;
        let last = &self.window.back().expect("window non-empty").1;
        WindowCtx {
            events,
            system: first.system.clone(),
            start_timestamp: first.timestamp,
            end_timestamp: last.timestamp,
            first_seq_no: first.seq_no,
            messages: self.window.iter().map(|(_, l)| l.message.clone()).collect(),
        }
    }

    fn build_report(&self, ctx: WindowCtx, verdict: Verdict) -> Report {
        Report {
            system: ctx.system,
            probability: verdict.probability,
            start_timestamp: ctx.start_timestamp,
            end_timestamp: ctx.end_timestamp,
            first_seq_no: ctx.first_seq_no,
            interpretations: ctx
                .events
                .iter()
                .map(|&e| self.vectorizer.text(e).to_string())
                .collect(),
            messages: ctx.messages,
            culprit: verdict
                .culprit
                .map(|id| self.vectorizer.text(id).to_string()),
        }
    }

    /// The underlying vectorizer (template statistics).
    pub fn vectorizer(&self) -> &EventVectorizer {
        &self.vectorizer
    }

    /// Pattern-library size.
    pub fn library_len(&self) -> usize {
        self.library.len()
    }

    /// Window-score cache occupancy.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Window-score cache `(hits, misses)`, including the leave-one-out
    /// probe lookups that never surface in [`Self::cache_hits`].
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Window geometry as `(window_len, step)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.window_len, self.step)
    }

    /// Window-assembler state as `(window_fill, since_last_window)` —
    /// exactly what a durable cursor commit must persist for recovery to
    /// resume window emission at the committed boundary.
    pub fn assembler_state(&self) -> (usize, usize) {
        (self.window.len(), self.since_last_window)
    }

    /// Re-primes the sliding-window assembler from recovered WAL context:
    /// pushes `logs` through the vectorizer into the window deque without
    /// emitting windows or touching any tier counter, then pins the
    /// since-last-window counter to its committed value. Durable recovery
    /// calls this before replaying unacked records, so the first window
    /// after a restart completes at exactly the same record it would have
    /// without the crash.
    pub fn prime_context(
        &mut self,
        logs: impl IntoIterator<Item = StructuredLog>,
        since_last_window: usize,
    ) {
        for log in logs {
            let event = self.vectorizer.ingest(&log.message);
            self.window.push_back((event, log));
            if self.window.len() > self.window_len {
                self.window.pop_front();
            }
        }
        self.since_last_window = since_last_window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logsynergy_lei::LeiConfig;
    use logsynergy_loggen::SystemId;

    /// Flags windows containing the token "dead".
    struct StubScorer;
    impl SequenceScorer for StubScorer {
        fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
            let _ = table;
            if events.iter().any(|&e| e >= 1) {
                0.9
            } else {
                0.1
            }
        }
    }

    fn slog(i: u64, msg: &str) -> StructuredLog {
        StructuredLog {
            system: "b".into(),
            timestamp: i,
            message: msg.into(),
            seq_no: i,
        }
    }

    #[test]
    fn windows_fire_every_step_and_reports_carry_interpretations() {
        let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        let mut det = OnlineDetector::new(v, StubScorer);
        let mut reports = Vec::new();
        for i in 0..30 {
            let msg = if i == 17 {
                "drive volume dead offline"
            } else {
                "session open remote peer"
            };
            if let Some(r) = det.ingest(slog(i, msg)) {
                reports.push(r);
            }
        }
        assert!(
            !reports.is_empty(),
            "the anomalous log must produce a report"
        );
        assert!(det.model_calls > 0);
        for r in &reports {
            assert_eq!(r.messages.len(), 10);
            assert_eq!(r.interpretations.len(), 10);
            assert!(r.probability > THRESHOLD);
        }
    }

    #[test]
    fn pattern_library_serves_repeats() {
        let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        let mut det = OnlineDetector::new(v, StubScorer);
        for i in 0..200 {
            det.ingest(slog(i, "steady state heartbeat ping"));
        }
        assert!(
            det.pattern_hits > 0,
            "identical windows must hit the fast path"
        );
        assert!(
            det.model_calls < 5,
            "steady-state stream should rarely reach the model: {}",
            det.model_calls
        );
        assert_eq!(det.library_len() as u64, det.model_calls);
    }

    #[test]
    fn batched_ingest_matches_sequential_ingest() {
        let make = || {
            let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
            OnlineDetector::new(v, StubScorer)
        };
        let stream: Vec<StructuredLog> = (0..120)
            .map(|i| {
                let msg = match i {
                    17 | 18 | 61 => "drive volume dead offline",
                    _ if i % 7 == 0 => "session open remote peer",
                    _ => "steady state heartbeat ping",
                };
                slog(i, msg)
            })
            .collect();

        let mut seq_det = make();
        let mut seq_reports = Vec::new();
        for log in stream.clone() {
            if let Some(r) = seq_det.ingest(log) {
                seq_reports.push(r);
            }
        }

        for chunk_size in [3usize, 16, 50, 120] {
            let mut det = make();
            let mut reports = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                det.ingest_batch(chunk.to_vec(), &mut reports);
            }
            assert_eq!(reports, seq_reports, "chunk size {chunk_size}");
            assert_eq!(
                det.pattern_hits, seq_det.pattern_hits,
                "chunk size {chunk_size}"
            );
            assert_eq!(
                det.model_calls + det.cache_hits,
                seq_det.model_calls + seq_det.cache_hits,
                "chunk size {chunk_size}"
            );
            assert_eq!(
                det.library_len(),
                seq_det.library_len(),
                "chunk size {chunk_size}"
            );
        }
    }

    /// A scorer that records how many windows each call carried.
    struct CountingScorer {
        batches: std::sync::Mutex<Vec<usize>>,
    }
    impl SequenceScorer for CountingScorer {
        fn score(&self, _events: &[u32], _table: &[Vec<f32>]) -> f32 {
            self.batches.lock().unwrap().push(1);
            0.1
        }
        fn score_batch(&self, windows: &[&[u32]], _table: &[Vec<f32>]) -> Vec<f32> {
            self.batches.lock().unwrap().push(windows.len());
            windows.iter().map(|_| 0.1).collect()
        }
    }

    #[test]
    fn misses_ship_in_one_batched_call() {
        let v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        let scorer = CountingScorer {
            batches: std::sync::Mutex::new(Vec::new()),
        };
        let mut det = OnlineDetector::new(v, scorer);
        // 12 distinct messages cycle so every window is a new pattern.
        let logs: Vec<StructuredLog> = (0..60)
            .map(|i| slog(i, &format!("unique event kind {} stream", i % 12)))
            .collect();
        let mut reports = Vec::new();
        det.ingest_batch(logs, &mut reports);
        let batches = det.scorer.batches.lock().unwrap().clone();
        assert_eq!(
            batches.len(),
            1,
            "all misses must ship in one batched call: {batches:?}"
        );
        assert_eq!(batches[0] as u64, det.model_calls);
    }
}
