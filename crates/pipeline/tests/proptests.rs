//! Property tests for the deployment pipeline's invariants.

use std::time::Duration;

use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::{
    format_log, EventVectorizer, LogBuffer, OnlineDetector, PatternLibrary, RawLog, ScoreCache,
    SequenceScorer, StructuredLog, Verdict,
};
use proptest::prelude::*;

struct NeverScorer;
impl SequenceScorer for NeverScorer {
    fn score(&self, _events: &[u32], _table: &[Vec<f32>]) -> f32 {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The library always hits after an insert, whatever the event mix,
    /// and hit/miss counters add up.
    #[test]
    fn pattern_library_is_consistent(patterns in proptest::collection::vec(
        proptest::collection::vec(0u32..30, 1..12), 1..20)
    ) {
        let mut lib = PatternLibrary::new();
        let mut lookups = 0u64;
        for p in &patterns {
            if lib.lookup(p).is_none() {
                lib.insert(p, Verdict { probability: 0.1, anomalous: false, culprit: None });
            }
            lookups += 1;
            prop_assert!(lib.lookup(p).is_some(), "insert-then-lookup must hit");
            lookups += 1;
        }
        let (hits, misses) = lib.stats();
        prop_assert_eq!(hits + misses, lookups);
        prop_assert!(lib.len() <= patterns.len());
    }

    /// The window assembler evaluates exactly the sliding-window count:
    /// one window per step once the first full window exists.
    #[test]
    fn detector_window_cadence(n in 10usize..200) {
        let v = EventVectorizer::new(SystemId::SystemB, 4, LeiConfig::default());
        let mut det = OnlineDetector::new(v, NeverScorer);
        for i in 0..n {
            det.ingest(StructuredLog {
                system: "x".into(),
                timestamp: i as u64,
                message: format!("token{} steady stream", i % 3),
                seq_no: i as u64,
            });
        }
        let expected = (n - 10) / 5 + 1;
        prop_assert_eq!(det.pattern_hits + det.model_calls, expected as u64);
    }

    /// Formatting normalizes whitespace and preserves content tokens.
    #[test]
    fn format_log_normalizes(tokens in proptest::collection::vec("[a-z]{1,6}", 1..8), pad in 0usize..4) {
        let message = tokens.join(&" ".repeat(pad + 1));
        let raw = RawLog { system: "s".into(), timestamp: 1, message };
        let f = format_log(&raw, 9);
        prop_assert_eq!(f.message.split(' ').count(), tokens.len());
        prop_assert!(!f.message.contains("  "));
    }

    /// The single-pass formatter writes what the collect-and-join
    /// expression it replaced wrote, for any mix of ASCII and Unicode
    /// whitespace between, before and after (or instead of) the tokens.
    #[test]
    fn format_log_matches_collect_and_join(
        pieces in proptest::collection::vec(
            prop_oneof!["[a-z0-9é<*>]{1,5}", "[ \t\n\r\u{a0}\u{2003}\u{3000}]{1,3}"], 0..12)
    ) {
        let raw = RawLog { system: "s".into(), timestamp: 1, message: pieces.concat() };
        let want = raw.message.split_whitespace().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(format_log(&raw, 9).message, want);
    }

    /// Arbitrary interleavings of insert/lookup never exceed the LRU
    /// capacity bound, and a hit always returns the score most recently
    /// inserted for that exact event-id sequence.
    #[test]
    fn score_cache_bounds_capacity_and_serves_freshest(
        capacity in 0usize..9,
        ops in proptest::collection::vec(
            (proptest::collection::vec(0u32..6, 1..4), 0u32..1000, any::<bool>()),
            1..200,
        ),
    ) {
        let mut cache = ScoreCache::new(capacity);
        // Reference model: the last score inserted per exact key.
        let mut freshest: std::collections::HashMap<Vec<u32>, f32> = Default::default();
        for (key, raw_score, is_insert) in ops {
            let score = raw_score as f32 / 1000.0;
            if is_insert {
                cache.insert(&key, score);
                freshest.insert(key.clone(), score);
            } else if let Some(hit) = cache.get(&key) {
                // A hit may legitimately be absent after eviction, but a
                // present entry must carry the freshest score, bitwise.
                let expected = freshest.get(&key).copied();
                prop_assert_eq!(
                    Some(hit.to_bits()),
                    expected.map(f32::to_bits),
                    "hit must return the most recently inserted score"
                );
            }
            prop_assert!(
                cache.len() <= capacity,
                "LRU exceeded its capacity bound: {} > {}",
                cache.len(),
                capacity
            );
        }
    }

    /// The buffer preserves per-system order and loses nothing.
    #[test]
    fn buffer_preserves_per_system_order(
        n in 1usize..60,
        systems in proptest::collection::vec(0u8..3, 1..60),
    ) {
        let buf = LogBuffer::new(3, 128);
        let p = buf.producer();
        let count = n.min(systems.len());
        for (i, &sys) in systems.iter().take(count).enumerate() {
            let log = RawLog {
                system: format!("sys{sys}"),
                timestamp: i as u64,
                message: String::new(),
            };
            let shard = p.partition_for(&log.system);
            p.send_many_to(shard, vec![log]).expect("buffer open");
        }
        drop(p);
        let mut per_system: std::collections::HashMap<String, Vec<u64>> = Default::default();
        let mut total = 0;
        for shard in 0..3 {
            let mut c = buf.partition_consumer(shard);
            for l in c.recv_batch(128, Duration::ZERO).expect("buffer open") {
                per_system.entry(l.system).or_default().push(l.timestamp);
                total += 1;
            }
        }
        prop_assert_eq!(total, count);
        for (_, ts) in per_system {
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            prop_assert_eq!(ts, sorted, "per-system order must be preserved");
        }
    }
}
