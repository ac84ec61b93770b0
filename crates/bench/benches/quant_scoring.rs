//! Quantized-scoring benchmark (`quant` feature): measures the model
//! tier of the Fig. 7 serving stack across its three implementations —
//! the tape `Detector` (training / offline evaluation), the fused
//! graph-free f32 plan (the serving default), and the calibrated int8
//! path — then sweeps the full pipeline quant-on/off across worker
//! counts. Emits `results/quant.json`.
//!
//! Gates asserted here:
//! - int8 model-tier throughput ≥ 1.3× the f32 plan's, both at 64-window
//!   forwards through a persistent scratch, measured in this process (a
//!   ratio against a rate recorded by another bench moves whenever the
//!   f32 engine does, for reasons that have nothing to do with int8);
//! - verdict agreement with the f32 detector ≥ 99.5% and |ΔF1| ≤ 0.005
//!   on a Table IV/V-shaped held-out corpus.
//!
//! Run with `cargo bench -p logsynergy-bench --features quant --bench
//! quant_scoring`. Honors `LOGSYNERGY_BENCH_QUICK=1`.

use std::sync::Arc;
use std::time::Instant;

use logsynergy::api::Pipeline;
use logsynergy::detector::{Detector, THRESHOLD};
use logsynergy::infer::InferencePlan;
use logsynergy::quant::QuantizedModel;
use logsynergy_bench::{quick_mode, write_result};
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MemorySink, ModelScorer, PipelineConfig, RawLog,
};
use serde::Serialize;

#[derive(Serialize)]
struct SweepPoint {
    workers: usize,
    quant: bool,
    logs: u64,
    logs_per_sec: f64,
}

#[derive(Serialize)]
struct QuantReport {
    qgemm_tier: String,
    eval_windows: usize,
    verdict_agreement: f64,
    f1_f32: f64,
    f1_int8: f64,
    f1_delta: f64,
    tape_windows_per_sec: f64,
    fused_f32_windows_per_sec: f64,
    int8_windows_per_sec: f64,
    speedup_fused_vs_tape: f64,
    speedup_int8_vs_tape: f64,
    speedup_int8_vs_fused_f32: f64,
    /// Full-pipeline quant-on/off × workers sweep (logs/s).
    pipeline_sweep: Vec<SweepPoint>,
}

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

/// Best-of-`reps` throughput in windows/s for `f`, which scores
/// `windows` windows per call.
fn best_wps(reps: usize, windows: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    windows as f64 / best
}

fn main() {
    let quick = quick_mode();
    let scale = if quick { 0.006 } else { 0.02 };
    let reps = if quick { 3 } else { 7 };

    // Fig. 7 recipe: train for System B on its group.
    println!("training a model for System B…");
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 4;
    p.train_config.n_source = 800;
    p.train_config.n_target = 200;
    let src_a = p.prepare(&datasets::system_a().generate_with(scale / 2.5, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(scale, 4.0));
    let history = datasets::system_b().generate_with(scale, 4.0);
    let target = p.prepare(&history);
    let (model, _) = p.fit(&[&src_a, &src_c], &target);
    let model = Arc::new(model);

    // Table IV/V-shaped eval corpus: calibrate on the training sliver,
    // evaluate on held-out windows.
    let (calib, test) = target.split(p.train_config.n_target, 1500);
    let truth: Vec<bool> = test.iter().map(|s| s.label).collect();
    let calib_windows: Vec<&[u32]> = calib.iter().map(|s| s.events.as_slice()).collect();
    let windows: Vec<&[u32]> = test.iter().map(|s| s.events.as_slice()).collect();
    let table = &target.event_embeddings;

    let plan = InferencePlan::from_model(&model).with_batch_size(64);
    let calibration = plan.calibrate(&calib_windows, table);
    let q = QuantizedModel::from_plan(&plan, &calibration).with_batch_size(64);
    let tape = Detector::new(&model).with_batch_size(64);

    // ---- model-tier throughput: tape vs fused f32 vs int8 --------------
    println!(
        "model tier ({} windows per call, 64 per forward):",
        windows.len()
    );
    let tape_wps = best_wps(reps, windows.len(), || {
        std::hint::black_box(tape.scores(&test, table));
    });
    println!("  tape f32 detector      {tape_wps:>9.0} windows/s");
    let mut scratch = plan.scratch();
    let fused_wps = best_wps(reps, windows.len(), || {
        std::hint::black_box(plan.score_windows_with(&mut scratch, &windows, table));
    });
    println!("  fused f32 plan         {fused_wps:>9.0} windows/s");
    let mut q_scratch = q.scratch();
    let int8_wps = best_wps(reps, windows.len(), || {
        std::hint::black_box(q.score_windows_with(&mut q_scratch, &windows, table));
    });
    println!(
        "  int8 ({:<12})     {int8_wps:>9.0} windows/s",
        logsynergy_nn::kernels::qgemm::qgemm_tier_name()
    );

    // ---- accuracy gate --------------------------------------------------
    let f32_scores = tape.scores(&test, table);
    let q_scores = q.score_windows(&windows, table);
    let f32_pred: Vec<bool> = f32_scores.iter().map(|&s| s > THRESHOLD).collect();
    let q_pred: Vec<bool> = q_scores.iter().map(|&s| s > THRESHOLD).collect();
    let agree = f32_pred.iter().zip(&q_pred).filter(|(a, b)| a == b).count();
    let agreement = agree as f64 / f32_pred.len().max(1) as f64;
    let f1_f32 = f1(&f32_pred, &truth);
    let f1_int8 = f1(&q_pred, &truth);
    println!(
        "accuracy: agreement {:.2}%  F1 f32 {:.4}  int8 {:.4}",
        100.0 * agreement,
        f1_f32,
        f1_int8
    );
    assert!(
        agreement >= 0.995,
        "verdict agreement {agreement:.4} below the 99.5% gate"
    );
    assert!(
        (f1_f32 - f1_int8).abs() <= 0.005,
        "|ΔF1| {:.4} above the 0.005 gate",
        (f1_f32 - f1_int8).abs()
    );

    // ---- throughput gate: int8 vs the f32 plan, same process -------------
    let speedup_vs_fused = int8_wps / fused_wps.max(1e-9);
    println!("int8 vs fused f32 plan: {speedup_vs_fused:.2}x");
    assert!(
        speedup_vs_fused >= 1.3,
        "int8 model tier {int8_wps:.0} w/s is below 1.3x the f32 plan ({fused_wps:.0} w/s)"
    );

    // ---- full pipeline: quant on/off × workers ---------------------------
    let split_at = p.train_config.n_target * 5 + 10;
    let (warm, live) = history
        .records
        .split_at(split_at.min(history.records.len()));
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
    // Calibrate the serving scorer against the serving embedding table.
    let mut cal = vectorizer.clone();
    let warm_ids: Vec<u32> = warm.iter().map(|r| cal.ingest(&r.message)).collect();
    let serve_calib: Vec<&[u32]> = warm_ids
        .chunks(10)
        .filter(|c| c.len() == 10)
        .take(256)
        .collect();
    let quant_scorer = ModelScorer::quantized(&model, &serve_calib, cal.table())
        .expect("the warm-start segment calibrates the int8 scorer");
    let f32_scorer = ModelScorer::shared(model.clone());

    println!("pipeline sweep ({} live logs per run):", source.len());
    let worker_axis: &[usize] = if quick { &[4] } else { &[1, 2, 4] };
    let mut pipeline_sweep = Vec::new();
    for &workers in worker_axis {
        for quant in [false, true] {
            let config = PipelineConfig {
                partitions: workers,
                ..PipelineConfig::default()
            };
            let sink = MemorySink::new();
            let scorer = if quant { &quant_scorer } else { &f32_scorer };
            let s = run_pipeline_with(
                source.clone(),
                vectorizer.clone(),
                scorer.clone(),
                sink,
                config,
            );
            println!(
                "  {} worker(s), {:<4}  {:>9.0} logs/s",
                workers,
                if quant { "int8" } else { "f32" },
                s.throughput
            );
            pipeline_sweep.push(SweepPoint {
                workers,
                quant,
                logs: s.logs,
                logs_per_sec: s.throughput,
            });
        }
    }

    let report = QuantReport {
        qgemm_tier: logsynergy_nn::kernels::qgemm::qgemm_tier_name().to_string(),
        eval_windows: windows.len(),
        verdict_agreement: agreement,
        f1_f32,
        f1_int8,
        f1_delta: (f1_f32 - f1_int8).abs(),
        tape_windows_per_sec: tape_wps,
        fused_f32_windows_per_sec: fused_wps,
        int8_windows_per_sec: int8_wps,
        speedup_fused_vs_tape: fused_wps / tape_wps.max(1e-9),
        speedup_int8_vs_tape: int8_wps / tape_wps.max(1e-9),
        speedup_int8_vs_fused_f32: speedup_vs_fused,
        pipeline_sweep,
    };
    write_result("quant", &report);
}
