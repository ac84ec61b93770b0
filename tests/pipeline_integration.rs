//! Deployment-pipeline integration: a trained model serving a live stream
//! through the Fig. 7 dataflow must report the injected bursts without
//! flooding operators.

use logsynergy::api::Pipeline;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MemorySink, ModelScorer, PipelineConfig, RawLog,
};

#[test]
fn trained_model_serves_live_stream() {
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 4;
    p.train_config.n_source = 700;
    p.train_config.n_target = 200;

    let src_a = p.prepare(&datasets::system_a().generate_with(0.004, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(0.012, 4.0));
    let history = datasets::system_b().generate_with(0.01, 4.0);
    let target = p.prepare(&history);
    let (model, _) = p.fit(&[&src_a, &src_c], &target);

    let split_at = p.train_config.n_target * 5 + 10;
    let (warm, live) = history.records.split_at(split_at);
    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        p.model_config.embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(warm.iter().map(|r| r.message.as_str()));

    let source: Vec<RawLog> = live
        .iter()
        .map(|r| RawLog {
            system: "b".into(),
            timestamp: r.timestamp,
            message: r.message.clone(),
        })
        .collect();
    let n_anomalous = live.iter().filter(|r| r.anomalous).count();
    assert!(
        n_anomalous > 20,
        "live stream needs anomalies, got {n_anomalous}"
    );

    let sink = MemorySink::new();
    let tele_before = logsynergy_telemetry::global().snapshot();
    let summary = run_pipeline_with(
        source,
        vectorizer,
        ModelScorer::new(model),
        sink.clone(),
        PipelineConfig::default(),
    );
    let tele_after = logsynergy_telemetry::global().snapshot();

    assert_eq!(summary.logs as usize, live.len());
    assert!(summary.reports > 0, "bursts must be reported: {summary:?}");
    // The generator draws normal events i.i.d., which is the worst case
    // for pattern caching (production streams repeat heavily — the
    // paper's motivation for the fast path). Assert the mechanism, not a
    // hit rate: repeats are served from the library, and every model call
    // populated it.
    assert!(
        summary.pattern_hits > 0,
        "repeated patterns must hit the library: {summary:?}"
    );
    assert_eq!(
        summary.pattern_hits + summary.cache_hits + summary.model_calls,
        summary.windows,
        "every window is fast-pathed, cache-served, or scored: {summary:?}"
    );
    // A healthy, fault-free run must never exercise the robustness paths:
    // nothing degrades, sheds, quarantines, retries, or restarts.
    assert_eq!(summary.degraded, 0, "{summary:?}");
    assert_eq!(summary.shed, 0, "{summary:?}");
    assert_eq!(summary.quarantined, 0, "{summary:?}");
    assert_eq!(summary.retries, 0, "{summary:?}");
    assert_eq!(summary.worker_restarts, 0, "{summary:?}");
    assert!(summary.dead_letters.is_empty(), "{summary:?}");
    // The telemetry registry must tell the same story as the summary: the
    // three verdict-tier counters partition exactly the windows this run
    // produced (snapshot deltas isolate this run from other tests sharing
    // the process-global registry).
    if logsynergy_telemetry::enabled() {
        let d = |name: &str| tele_after.counter_delta(&tele_before, name);
        assert_eq!(d("pipeline.logs"), summary.logs, "telemetry log count");
        assert_eq!(
            d("pipeline.tier.pattern") + d("pipeline.tier.cache") + d("pipeline.tier.model"),
            summary.windows,
            "tier counters must partition the windows"
        );
        assert_eq!(
            d("pipeline.degraded") + d("pipeline.shed") + d("pipeline.quarantined"),
            0,
            "robustness counters must stay silent in a fault-free run"
        );
        assert_eq!(
            d("pipeline.windows"),
            summary.windows,
            "telemetry window count"
        );
        assert_eq!(
            d("pipeline.reports"),
            summary.reports,
            "telemetry report count"
        );
        // The model tier is the fused plan: its sweep counters tick in
        // serving, once per encoder block per forward. (Only a lower
        // bound — other tests in this process share the registry.)
        assert!(
            d("nn.fused.attention") >= p.model_config.layers as u64,
            "serving must score through the fused plan"
        );
    }
    // Alert volume sanity: reports should be a small fraction of windows
    // (operators are not flooded).
    assert!(
        summary.reports * 4 < summary.windows,
        "too many alerts: {summary:?}"
    );
    // Reports must reference real anomalous regions more often than not:
    // check each report's window overlaps an anomalous live log.
    let anomalous_ts: std::collections::HashSet<u64> = live
        .iter()
        .filter(|r| r.anomalous)
        .map(|r| r.timestamp)
        .collect();
    let hits = sink
        .reports()
        .iter()
        .filter(|r| (r.start_timestamp..=r.end_timestamp).any(|t| anomalous_ts.contains(&t)))
        .count();
    assert!(
        hits * 2 >= sink.len(),
        "at least half the alerts should cover true anomalies: {hits}/{}",
        sink.len()
    );
}
