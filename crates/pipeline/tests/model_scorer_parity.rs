//! The f32 serving engine is the fused plan behind [`ModelScorer`]; the
//! tape's `Detector::scores` is the training / evaluation forward every
//! number under `results/` came from. On a trained model the two must
//! agree bit for bit, however the serving loop groups its calls and
//! however many workers score at once.
//!
//! With `--features quant` the same scorer type serves the int8 engine: it
//! has no bitwise reference (it is gated statistically, in
//! `quant_agreement.rs`), but it owes the same grouping- and
//! clone-independence, its own tier label, and window conservation.

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

#[cfg(feature = "quant")]
#[test]
fn quantized_model_scorer_is_grouping_and_clone_independent_and_conserves_windows() {
    use logsynergy_lei::LeiConfig;
    use logsynergy_loggen::SystemId;
    use logsynergy_pipeline::{
        run_pipeline_with, EventVectorizer, MemorySink, PipelineConfig, RawLog,
    };

    let (model, table, samples) = trained();
    let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();

    assert!(
        ModelScorer::quantized(&model, &[], &table).is_err(),
        "nothing to calibrate on must be refused, not served as a constant"
    );
    let scorer = ModelScorer::quantized(&model, &windows[..128], &table).expect("calibration");
    assert_eq!(scorer.tier_label(), "int8");
    assert_eq!(ModelScorer::shared(model.clone()).tier_label(), "f32");

    // One scorer, one persistent scratch, every call grouping: same bits.
    let want = score_in_calls_of(&scorer, 64, &windows, &table);
    assert!(
        want.iter().any(|&p| p > 0.5) && want.iter().any(|&p| p < 0.5),
        "the quantized model should give both verdicts"
    );
    for n in CALL_BATCHES {
        let got = score_in_calls_of(&scorer, n, &windows, &table);
        assert_bitwise(&got, &want, &format!("int8 call-batch {n}"));
    }

    // Clones (shared quantized weights, private scratches) scoring at the
    // same time, out of step, agree with the single scorer.
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
        assert_bitwise(got, &want, "concurrent int8 clones");
    }

    // A full serving run over clones of a scorer calibrated the way the
    // CLI does it (warm-start segment through a clone of the serving
    // vectorizer): every window lands in exactly one of the six buckets.
    let history = datasets::system_b().generate_with(0.01, 4.0);
    let (warm, live) = history.records.split_at(history.records.len() / 3);
    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        model.config().embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(warm.iter().map(|r| r.message.as_str()));
    let mut cal = vectorizer.clone();
    let ids: Vec<u32> = warm.iter().map(|r| cal.ingest(&r.message)).collect();
    let calib: Vec<&[u32]> = ids.chunks_exact(10).take(256).collect();
    let serving = ModelScorer::quantized(&model, &calib, cal.table()).expect("calibration");
    let source: Vec<RawLog> = live
        .iter()
        .map(|r| RawLog {
            system: "b".into(),
            timestamp: r.timestamp,
            message: r.message.clone(),
        })
        .collect();
    let config = PipelineConfig {
        partitions: 2,
        ..PipelineConfig::default()
    };
    let s = run_pipeline_with(source, vectorizer, serving, MemorySink::new(), config);
    assert!(s.model_calls > 0, "the int8 tier must be reached: {s:?}");
    assert_eq!(
        s.pattern_hits + s.cache_hits + s.model_calls + s.degraded + s.shed + s.quarantined,
        s.windows,
        "six-bucket conservation: {s:?}"
    );
    assert_eq!(s.degraded + s.shed + s.quarantined, 0, "{s:?}");
}
