//! Online detection (paper §III-E): score sequences with the trained
//! `F` + `C_anomaly`, threshold at 0.5, and build anomaly reports that
//! combine the LEI interpretations with the score.

use logsynergy_nn::graph::Graph;
use logsynergy_nn::kernels::arena;
use logsynergy_nn::Tensor;

use crate::data::{PreparedSystem, SeqSample};
use crate::model::LogSynergyModel;

/// The paper's fixed decision threshold (§III-E, §IV-A3).
pub const THRESHOLD: f32 = 0.5;

/// Scores one chunked sweep of `windows` through the model on `graph`,
/// resetting the tape between chunks so every forward re-traces into
/// recycled arena buffers. This is the tape (training / offline-eval)
/// forward; serving scores through [`crate::infer::InferencePlan`], which
/// is pinned bit-for-bit to it.
fn forward_scores(
    model: &LogSynergyModel,
    graph: &Graph,
    batch_size: usize,
    windows: &[&[u32]],
    embeddings: &[Vec<f32>],
    out: &mut Vec<f32>,
) {
    let cfg = model.config();
    let (t, d) = (cfg.max_len, cfg.embed_dim);
    let mut dummy_rng = rand::rngs::mock::StepRng::new(0, 1);
    for chunk in windows.chunks(batch_size) {
        graph.reset();
        let b = chunk.len();
        // Embedding-gather scratch comes from the kernel arena: after the
        // first call the buffer is recycled from the previous tape, so the
        // steady-state hot path performs no allocator round-trips.
        let mut xb = arena::take_zeroed(b * t * d);
        for (row, events) in chunk.iter().enumerate() {
            for (step, &e) in events.iter().take(t).enumerate() {
                xb[(row * t + step) * d..(row * t + step + 1) * d]
                    .copy_from_slice(&embeddings[e as usize]);
            }
        }
        let x = graph.input(Tensor::new(xb, &[b, t, d]));
        let f = model.features(graph, x, &mut dummy_rng);
        let logits = model.anomaly_logits(graph, f);
        graph.with_value(logits, |l| {
            out.extend(l.data().iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
        });
    }
    graph.reset();
}

/// An anomaly report, as emitted to operators in deployment (§VI-A
/// "Report"): the triggering sequence, its interpretations, and the score.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// Anomaly probability from `C_anomaly`.
    pub probability: f32,
    /// Event interpretations of the sequence, in order.
    pub interpretations: Vec<String>,
    /// Event template ids, in order.
    pub events: Vec<u32>,
}

/// Batch scorer over a trained model.
pub struct Detector<'a> {
    model: &'a LogSynergyModel,
    batch_size: usize,
}

impl<'a> Detector<'a> {
    /// Creates a detector with a default inference batch size.
    pub fn new(model: &'a LogSynergyModel) -> Self {
        Detector {
            model,
            batch_size: 256,
        }
    }

    /// Sets the inference batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    /// Anomaly probabilities for `samples` (embeddings looked up in the
    /// sample's own system's table).
    pub fn scores(&self, samples: &[SeqSample], embeddings: &[Vec<f32>]) -> Vec<f32> {
        let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();
        let graph = Graph::inference();
        let mut out = Vec::with_capacity(samples.len());
        forward_scores(
            self.model,
            &graph,
            self.batch_size,
            &windows,
            embeddings,
            &mut out,
        );
        out
    }

    /// Binary decisions at the paper's 0.5 threshold.
    pub fn detect(&self, samples: &[SeqSample], embeddings: &[Vec<f32>]) -> Vec<bool> {
        self.scores(samples, embeddings)
            .into_iter()
            .map(|p| p > THRESHOLD)
            .collect()
    }

    /// Scores `samples` and produces a report for each detection, wiring in
    /// the system's event interpretations.
    pub fn reports(&self, samples: &[SeqSample], prepared: &PreparedSystem) -> Vec<AnomalyReport> {
        let scores = self.scores(samples, &prepared.event_embeddings);
        samples
            .iter()
            .zip(scores)
            .filter(|(_, p)| *p > THRESHOLD)
            .map(|(s, p)| AnomalyReport {
                probability: p,
                interpretations: s
                    .events
                    .iter()
                    .map(|&e| prepared.event_texts[e as usize].clone())
                    .collect(),
                events: s.events.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use logsynergy_loggen::SystemId;
    use rand::SeedableRng;

    fn tiny_model() -> LogSynergyModel {
        let mut cfg = ModelConfig::scaled(2);
        cfg.embed_dim = 8;
        cfg.d_model = 8;
        cfg.heads = 2;
        cfg.ff = 16;
        cfg.layers = 1;
        cfg.head_hidden = 8;
        cfg.max_len = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        LogSynergyModel::new(cfg, &mut rng)
    }

    fn embeddings() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    }

    #[test]
    fn scores_are_probabilities() {
        let model = tiny_model();
        let det = Detector::new(&model);
        let samples: Vec<SeqSample> = (0..10)
            .map(|i| SeqSample {
                events: vec![i % 2; 4],
                label: false,
            })
            .collect();
        let scores = det.scores(&samples, &embeddings());
        assert_eq!(scores.len(), 10);
        assert!(scores.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn detect_applies_half_threshold() {
        let model = tiny_model();
        let det = Detector::new(&model);
        let samples: Vec<SeqSample> = (0..6)
            .map(|_| SeqSample {
                events: vec![0; 4],
                label: false,
            })
            .collect();
        let scores = det.scores(&samples, &embeddings());
        let flags = det.detect(&samples, &embeddings());
        for (p, f) in scores.iter().zip(flags) {
            assert_eq!(f, *p > THRESHOLD);
        }
    }

    #[test]
    fn batching_does_not_change_scores() {
        let model = tiny_model();
        let samples: Vec<SeqSample> = (0..9)
            .map(|i| SeqSample {
                events: vec![i % 2, 0, 1, 0],
                label: false,
            })
            .collect();
        let a = Detector::new(&model)
            .with_batch_size(3)
            .scores(&samples, &embeddings());
        let b = Detector::new(&model)
            .with_batch_size(100)
            .scores(&samples, &embeddings());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn reports_carry_interpretations() {
        let model = tiny_model();
        let det = Detector::new(&model);
        let prepared = PreparedSystem {
            system: SystemId::SystemB,
            sequences: vec![],
            event_embeddings: embeddings(),
            event_texts: vec!["normal event".into(), "anomalous event".into()],
            templates: vec!["t0".into(), "t1".into()],
            review_stats: Default::default(),
        };
        let samples: Vec<SeqSample> = (0..20)
            .map(|i| SeqSample {
                events: vec![i % 2; 4],
                label: false,
            })
            .collect();
        let reports = det.reports(&samples, &prepared);
        for r in &reports {
            assert!(r.probability > THRESHOLD);
            assert_eq!(r.interpretations.len(), 4);
            assert!(r.interpretations[0].ends_with("event"));
        }
    }
}
