//! End-to-end regression tests for malformed ingest input.
//!
//! The collection path must treat hostile records as data, not as
//! panics: empty and whitespace-only messages, control characters,
//! pathologically long lines, and empty system names all flow through
//! format → window → tier resolution, and every failure the path can
//! hit surfaces as a typed [`PipelineError`] instead of an unwind.

use std::sync::Arc;
use std::time::Duration;

use logsynergy::model::LogSynergyModel;
use logsynergy::ModelConfig;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, LogBuffer, MemorySink, ModelScorer, PipelineConfig,
    PipelineError, RawLog,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EMBED_DIM: usize = 8;

fn tiny_model(seed: u64) -> Arc<LogSynergyModel> {
    let config = ModelConfig {
        embed_dim: EMBED_DIM,
        d_model: 8,
        heads: 2,
        ff: 16,
        layers: 1,
        max_len: 10,
        dropout: 0.0,
        head_hidden: 8,
        num_systems: 2,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(LogSynergyModel::new(config, &mut rng))
}

fn vectorizer() -> EventVectorizer {
    EventVectorizer::new(SystemId::SystemB, EMBED_DIM, LeiConfig::default())
}

/// A stream mixing healthy records with every malformed shape the
/// collectors have been seen to emit in the field.
fn hostile_stream() -> Vec<RawLog> {
    let mut logs = Vec::new();
    let mut raw = |system: &str, message: String| {
        let timestamp = logs.len() as u64;
        logs.push(RawLog {
            system: system.into(),
            timestamp,
            message,
        });
    };
    for i in 0..120u64 {
        match i % 8 {
            // Empty and whitespace-only bodies.
            1 => raw("b", String::new()),
            2 => raw("b", " \t \r\n  ".to_string()),
            // Control characters and embedded NULs.
            3 => raw("b", "conn\x00reset \x07by\x1b[31m peer\u{7f}".to_string()),
            // A pathologically long single token and a long line.
            4 => raw("b", "x".repeat(64 * 1024)),
            5 => raw("b", "flood ".repeat(16 * 1024)),
            // Empty / whitespace system names.
            6 => raw("", format!("orphan record {i}")),
            7 => raw("  ", format!("blank-system record {i}")),
            // Healthy traffic between the hostile records.
            _ => raw("b", format!("session open remote peer lan {}", i % 3)),
        }
    }
    logs
}

#[test]
fn hostile_records_flow_end_to_end_without_panic_or_loss() {
    let model = tiny_model(42);
    let source = hostile_stream();
    let expected_logs = source.len() as u64;
    let sink = MemorySink::new();
    let summary = run_pipeline_with(
        source,
        vectorizer(),
        ModelScorer::shared(model),
        sink.clone(),
        PipelineConfig {
            partitions: 2,
            batch_windows: 4,
            ..PipelineConfig::default()
        },
    );
    assert_eq!(summary.logs, expected_logs, "no record may be dropped");
    assert_eq!(
        summary.pattern_hits
            + summary.cache_hits
            + summary.model_calls
            + summary.degraded
            + summary.shed
            + summary.quarantined,
        summary.windows,
        "hostile input must not break tier conservation: {summary:?}"
    );
    assert_eq!(
        summary.quarantined, 0,
        "malformed input is data, not a fault"
    );
    assert_eq!(
        summary.worker_restarts, 0,
        "no worker may panic: {summary:?}"
    );
    for report in sink.reports() {
        assert!(report.probability.is_finite());
    }
    // Seven message shapes, each learned at most once per partition: the
    // empty and whitespace-only bodies share the one empty template
    // instead of learning one each.
    assert!(
        summary.new_templates <= 7 * 2,
        "hostile shapes must not each learn a template: {}",
        summary.new_templates
    );
}

#[test]
fn send_after_shutdown_returns_typed_error_with_the_record() {
    let buf = LogBuffer::new(2, 8);
    let producer = buf.producer();
    // Drain and drop every consumer: the channel closes underneath the
    // producer, which must hand the record back with a typed error
    // instead of panicking.
    drop(buf);
    let log = RawLog {
        system: "b".into(),
        timestamp: 7,
        message: "late arrival".into(),
    };
    let expected = producer.partition_for("b");
    let (mut returned, err) = producer
        .send_many_to(expected, vec![log])
        .expect_err("send into a closed buffer must fail");
    let returned = returned.pop().expect("the refused record is handed back");
    assert_eq!(
        err,
        PipelineError::BufferClosed {
            partition: expected
        }
    );
    assert!(!err.is_transient(), "closed is terminal, not retryable");
    assert_eq!(returned.timestamp, 7, "the record comes back intact");
    assert_eq!(returned.message, "late arrival");
    assert!(!err.to_string().is_empty());
}

#[test]
fn empty_source_completes_with_empty_summary() {
    let model = tiny_model(42);
    let sink = MemorySink::new();
    let summary = run_pipeline_with(
        Vec::new(),
        vectorizer(),
        ModelScorer::shared(model),
        sink.clone(),
        PipelineConfig::default(),
    );
    assert_eq!(summary.logs, 0);
    assert_eq!(summary.windows, 0);
    assert_eq!(summary.reports, 0);
    assert!(summary.dead_letters.is_empty());
    assert!(sink.reports().is_empty());
    assert!(summary.elapsed < Duration::from_secs(10));
}
