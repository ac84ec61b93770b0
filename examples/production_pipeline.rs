//! The §VI deployment workflow (Fig. 7) end to end: train LogSynergy
//! offline, then stream a new system's logs through the
//! collection → detection → report pipeline with the pattern-library fast
//! path, and print the operator-facing alerts.
//!
//! Run with: `cargo run --release --example production_pipeline`

use logsynergy::api::Pipeline;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MessagingSink, ModelScorer, PipelineConfig, RawLog,
};

fn main() {
    // ------------------------------------------------- offline training
    println!("offline phase: training LogSynergy for the new System B…");
    let mut pipeline = Pipeline::scaled();
    pipeline.train_config.epochs = 5;
    pipeline.train_config.n_source = 900;
    pipeline.train_config.n_target = 250;
    let src_a = pipeline.prepare(&datasets::system_a().generate_with(0.0055, 4.0));
    let src_c = pipeline.prepare(&datasets::system_c().generate_with(0.017, 4.0));
    let target_history = datasets::system_b().generate_with(0.014, 4.0);
    let target = pipeline.prepare(&target_history);
    let (model, _) = pipeline.fit(&[&src_a, &src_c], &target);
    println!("  trained ({} parameters)", model.num_parameters());

    // --------------------------------------------------- online serving
    // Warm-start the online vectorizer on the training slice's raw logs so
    // the serving template space matches the offline one, then stream the
    // *future* logs through the pipeline.
    let split_at = pipeline.train_config.n_target * 5 + 10; // sequences -> logs
    let (history_logs, live_logs) = target_history.records.split_at(split_at);

    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        pipeline.model_config.embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(history_logs.iter().map(|r| r.message.as_str()));

    let source: Vec<RawLog> = live_logs
        .iter()
        .map(|r| RawLog {
            system: "system-b".into(),
            timestamp: r.timestamp,
            message: r.message.clone(),
        })
        .collect();
    let true_anomalous_logs = live_logs.iter().filter(|r| r.anomalous).count();
    println!(
        "online phase: streaming {} live logs ({} anomalous lines)…",
        source.len(),
        true_anomalous_logs
    );

    let sink = MessagingSink::new();
    let summary = run_pipeline_with(
        source,
        vectorizer,
        ModelScorer::new(model),
        sink.clone(),
        PipelineConfig::default(),
    );

    println!("\npipeline summary:");
    println!("  logs processed     {}", summary.logs);
    println!("  windows evaluated  {}", summary.windows);
    println!(
        "  fast-path hits     {} ({:.1}%)",
        summary.pattern_hits,
        100.0 * summary.pattern_hits as f64 / summary.windows.max(1) as f64
    );
    println!("  score-cache hits   {}", summary.cache_hits);
    println!("  model invocations  {}", summary.model_calls);
    println!("  new templates      {}", summary.new_templates);
    println!("  reports sent       {}", summary.reports);
    println!("  throughput         {:.0} logs/s", summary.throughput);

    let outbox = sink.outbox();
    if let Some((sms, email)) = outbox.first() {
        println!("\nfirst alert SMS:\n  {sms}");
        println!(
            "\nfirst alert email:\n{}",
            email.lines().take(6).collect::<Vec<_>>().join("\n")
        );
    }
}
