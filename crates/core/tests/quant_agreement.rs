//! The int8 accuracy gate (`quant` feature): on a trained model and a
//! Table IV/V-shaped eval corpus, the quantized scorer must agree with
//! the f32 detector on ≥ 99.5% of verdicts and move F1 by ≤ 0.005.
//!
//! This is the test that keeps `--quant` honest: the quantized path is a
//! performance tier, not a different detector.

#![cfg(feature = "quant")]

use logsynergy::api::Pipeline;
use logsynergy::detector::{Detector, THRESHOLD};
use logsynergy::infer::InferencePlan;
use logsynergy::quant::QuantizedModel;
use logsynergy_loggen::datasets;

fn f1(pred: &[bool], truth: &[bool]) -> f64 {
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fnd = 0.0;
    for (&p, &t) in pred.iter().zip(truth) {
        match (p, t) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fnd += 1.0,
            _ => {}
        }
    }
    let prec = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let rec = if tp + fnd > 0.0 { tp / (tp + fnd) } else { 0.0 };
    if prec + rec > 0.0 {
        2.0 * prec * rec / (prec + rec)
    } else {
        0.0
    }
}

#[test]
fn int8_verdicts_agree_with_f32_within_gate() {
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 5;
    p.train_config.n_source = 1200;
    p.train_config.n_target = 300;
    p.train_config.batch_size = 128;

    let src1 = p.prepare(&datasets::bgl().generate_with(0.006, 2.0));
    let src2 = p.prepare(&datasets::spirit().generate_with(0.002, 6.0));
    let tgt = p.prepare(&datasets::thunderbird().generate_with(0.012, 3.0));
    let (model, _) = p.fit(&[&src1, &src2], &tgt);

    let (calib, test) = tgt.split(p.train_config.n_target, 1500);
    let truth: Vec<bool> = test.iter().map(|s| s.label).collect();
    assert!(
        truth.iter().filter(|&&t| t).count() >= 10,
        "test set needs anomalies"
    );

    // f32 reference: the tape detector (the serving plan is bit-identical to it).
    let f32_scores = Detector::new(&model).scores(&test, &tgt.event_embeddings);

    // int8: calibrated on the training sliver, evaluated on held-out data.
    let calib_windows: Vec<&[u32]> = calib.iter().map(|s| s.events.as_slice()).collect();
    let plan = InferencePlan::from_model(&model);
    let calibration = plan.calibrate(&calib_windows, &tgt.event_embeddings);
    let q = QuantizedModel::from_plan(&plan, &calibration);
    let test_windows: Vec<&[u32]> = test.iter().map(|s| s.events.as_slice()).collect();
    let q_scores = q.score_windows(&test_windows, &tgt.event_embeddings);

    let f32_pred: Vec<bool> = f32_scores.iter().map(|&s| s > THRESHOLD).collect();
    let q_pred: Vec<bool> = q_scores.iter().map(|&s| s > THRESHOLD).collect();
    let agree = f32_pred.iter().zip(&q_pred).filter(|(a, b)| a == b).count();
    let agreement = agree as f64 / f32_pred.len() as f64;
    assert!(
        agreement >= 0.995,
        "verdict agreement {:.4} below the 99.5% gate ({} / {} windows)",
        agreement,
        agree,
        f32_pred.len()
    );

    let f1_f32 = f1(&f32_pred, &truth);
    let f1_q = f1(&q_pred, &truth);
    assert!(
        (f1_f32 - f1_q).abs() <= 0.005,
        "|ΔF1| {:.4} above the 0.005 gate (f32 {:.4}, int8 {:.4})",
        (f1_f32 - f1_q).abs(),
        f1_f32,
        f1_q
    );
}
