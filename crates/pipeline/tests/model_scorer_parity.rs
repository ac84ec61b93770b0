//! The f32 serving engine is the fused plan behind [`ModelScorer`]; the
//! tape's `Detector::scores` is the training / evaluation forward every
//! number under `results/` came from. On a trained model the two must
//! agree bit for bit, however the serving loop groups its calls and
//! however many workers score at once.

use std::sync::{Arc, Barrier};

use logsynergy::api::Pipeline;
use logsynergy::data::SeqSample;
use logsynergy::detector::Detector;
use logsynergy::model::LogSynergyModel;
use logsynergy_loggen::datasets;
use logsynergy_pipeline::{ModelScorer, SequenceScorer};

/// Call-batch sizes: single windows, an odd size, the Fig. 7 serving
/// mean, the `batch_windows` default, and one above the plan's 256-window
/// chunk (so one call spans two forwards).
const CALL_BATCHES: [usize; 5] = [1, 7, 43, 64, 300];

/// A quick-trained model, its target system's embedding table, and
/// 640 windows: full 10-event windows interleaved with the 9-event
/// leave-one-out probes the culprit search sends (zero-padded by the
/// gather — a different path through the first GEMM).
fn trained() -> (Arc<LogSynergyModel>, Vec<Vec<f32>>, Vec<SeqSample>) {
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 2;
    p.train_config.n_source = 300;
    p.train_config.n_target = 100;
    let src_a = p.prepare(&datasets::system_a().generate_with(0.004, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(0.012, 4.0));
    let target = p.prepare(&datasets::system_b().generate_with(0.01, 4.0));
    let (model, _) = p.fit(&[&src_a, &src_c], &target);

    assert!(target.sequences.len() >= 320, "corpus too small");
    let samples = target.sequences[..320]
        .iter()
        .enumerate()
        .flat_map(|(i, full)| {
            let mut probe = full.clone();
            probe.events.remove(i % probe.events.len());
            assert_eq!(probe.events.len(), 9);
            [full.clone(), probe]
        })
        .collect();
    (Arc::new(model), target.event_embeddings, samples)
}

fn score_in_calls_of(
    scorer: &ModelScorer,
    n: usize,
    windows: &[&[u32]],
    table: &[Vec<f32>],
) -> Vec<f32> {
    windows
        .chunks(n)
        .flat_map(|call| scorer.score_batch(call, table))
        .collect()
}

fn assert_bitwise(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: window {i}: {g} vs {w}");
    }
}

#[test]
fn model_scorer_equals_tape_detector_bitwise_at_every_call_batch() {
    let (model, table, samples) = trained();
    let want = Detector::new(&model).scores(&samples, &table);
    assert!(
        want.iter().any(|&p| p > 0.5) && want.iter().any(|&p| p < 0.5),
        "a trained model should give both verdicts"
    );
    let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();

    // One scorer throughout: its scratch grows 1 → 7 → 43 → 64 → 256 and
    // every later call runs in buffers earlier calls dirtied.
    let scorer = ModelScorer::shared(model.clone());
    for n in CALL_BATCHES {
        let got = score_in_calls_of(&scorer, n, &windows, &table);
        assert_bitwise(&got, &want, &format!("call-batch {n}"));
    }
    for (w, &expect) in windows.iter().zip(&want).take(16) {
        assert_eq!(scorer.score(w, &table).to_bits(), expect.to_bits());
    }

    // Two clones (one plan, private scratches) scoring at the same time
    // agree with the single scorer. The barrier puts both inside the
    // scoring loop together; different call sizes keep them out of step.
    let (a, b) = (scorer.clone(), scorer.clone());
    let start = Barrier::new(2);
    let run = |clone: &ModelScorer, sizes: [usize; 3]| {
        start.wait();
        sizes.map(|n| score_in_calls_of(clone, n, &windows, &table))
    };
    let (got_a, got_b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run(&a, [43, 1, 64]));
        let hb = s.spawn(|| run(&b, [7, 300, 43]));
        (
            ha.join().expect("clone a panicked"),
            hb.join().expect("clone b panicked"),
        )
    });
    for got in got_a.iter().chain(&got_b) {
        assert_bitwise(got, &want, "concurrent clones");
    }
}
