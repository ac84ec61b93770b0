//! Paper-shape assertions on the lighter experiments (the heavyweight
//! Table IV/V shapes are asserted by `end_to_end.rs` on one target and
//! regenerated in full by `logsynergy experiment table4` / `table5`).

use logsynergy_eval::experiments::{fig6, fig8_case_study, table3};
use logsynergy_eval::ExperimentConfig;

#[test]
fn table3_shapes_follow_paper_proportions() {
    let cfg = ExperimentConfig {
        logs_per_dataset: 4_000,
        ..ExperimentConfig::quick()
    };
    let rows = table3(&cfg);
    assert_eq!(rows.len(), 6);
    // Sequences ≈ logs / step (5).
    for r in &rows {
        let ratio = r.gen_logs as f64 / r.gen_sequences as f64;
        assert!(
            (4.0..6.5).contains(&ratio),
            "{}: logs/seq ratio {ratio}",
            r.dataset
        );
        assert!(r.gen_anomalies > 0);
        assert!(
            r.gen_anomalies * 3 < r.gen_sequences,
            "{}: anomalies are a minority",
            r.dataset
        );
    }
    // BGL is the anomaly-densest dataset, as in the paper.
    let rate = |name: &str| {
        let r = rows.iter().find(|r| r.dataset == name).unwrap();
        r.gen_anomalies as f64 / r.gen_sequences as f64
    };
    assert!(
        rate("BGL") > rate("System B"),
        "BGL must be denser than System B"
    );
}

#[test]
fn fig6_transfer_asymmetry_holds() {
    let cfg = ExperimentConfig::quick();
    let results = fig6(&cfg);
    assert_eq!(results.len(), 4);
    let f1 = |src: &str, tgt: &str| {
        results
            .iter()
            .find(|r| r.source == src && r.target == tgt)
            .map(|r| r.result.prf.f1)
            .unwrap()
    };
    let rich_to_simple = (f1("BGL", "System B") + f1("Spirit", "System C")) / 2.0;
    let simple_to_rich = (f1("System B", "BGL") + f1("System C", "Spirit")) / 2.0;
    assert!(
        rich_to_simple > simple_to_rich + 15.0,
        "rich->simple {rich_to_simple:.1} must dominate simple->rich {simple_to_rich:.1}"
    );
    assert!(
        rich_to_simple > 70.0,
        "rich->simple should be strong: {rich_to_simple:.1}"
    );
}

#[test]
fn fig8_lei_reduces_misleading_similarity() {
    let cfg = ExperimentConfig {
        logs_per_dataset: 5_000,
        ..ExperimentConfig::quick()
    };
    let cs = fig8_case_study(&cfg);
    assert!(
        cs.raw_margin > 0.0,
        "a misleading raw pair must exist: {}",
        cs.raw_margin
    );
    assert!(
        cs.lei_margin < 0.0,
        "LEI must resolve the confusion: {}",
        cs.lei_margin
    );
}
