//! Fused, graph-free inference for the frozen serving model (`F` +
//! `C_anomaly`) — the one f32 serving engine. The tape
//! ([`crate::detector::Detector`]) re-traces the autograd graph every
//! chunk and stays the training / offline-evaluation path; this plan runs
//! the same math straight through reused scratch buffers with the
//! transformer hot path fused — QKV as one `[d, 3d]` GEMM, attention per
//! `(batch, head)` against a single `[T, T]` score scratch, and the GELU
//! fast path applied in place inside the MLP sweep.
//!
//! **Bitwise contract:** scores are bit-identical to `Detector::scores`
//! for every window, batch size and call grouping. Every step reuses the
//! exact tape kernels (see [`logsynergy_nn::infer`]); the test suite pins
//! this end-to-end on a trained model.
//!
//! The plan also drives **calibration** for the int8 path (`quant`
//! feature): [`InferencePlan::calibrate`] runs the f32 forward over a
//! corpus and records the absolute maximum seen at every GEMM input,
//! which fixes the per-tensor activation scales of the quantized model.

use logsynergy_nn::infer as nni;
use logsynergy_nn::layers::{Activation, Linear};

use crate::model::LogSynergyModel;

/// Copied frozen weights for one encoder block, QKV pre-concatenated.
pub(crate) struct LayerPlan {
    pub(crate) ln1_gamma: Vec<f32>,
    pub(crate) ln1_beta: Vec<f32>,
    pub(crate) ln1_eps: f32,
    /// `[d, 3d]`: columns are `Wq | Wk | Wv` (bit-neutral vs three GEMMs —
    /// each GEMM output element depends only on its A-row and B-column).
    pub(crate) wqkv: Vec<f32>,
    pub(crate) bqkv: Vec<f32>,
    pub(crate) wo: Vec<f32>,
    pub(crate) bo: Option<Vec<f32>>,
    pub(crate) ln2_gamma: Vec<f32>,
    pub(crate) ln2_beta: Vec<f32>,
    pub(crate) ln2_eps: f32,
    pub(crate) ff1_w: Vec<f32>,
    pub(crate) ff1_b: Option<Vec<f32>>,
    pub(crate) ff2_w: Vec<f32>,
    pub(crate) ff2_b: Option<Vec<f32>>,
}

/// One classifier-head linear layer.
pub(crate) struct HeadLayer {
    pub(crate) w: Vec<f32>,
    pub(crate) b: Option<Vec<f32>>,
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
}

/// Absolute maxima observed at every GEMM input during a calibration run —
/// the per-tensor activation ranges the int8 path quantizes against.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    /// Gathered embedding input to the input projection.
    pub input: f32,
    /// Per encoder block, in order.
    pub layers: Vec<LayerCalibration>,
    /// Unified feature half entering the first head layer.
    pub unified: f32,
    /// Hidden head activations (post-ReLU), one per inner head layer.
    pub head_hidden: Vec<f32>,
}

/// Per-block GEMM-input maxima.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCalibration {
    /// `ln1` output (input to the fused QKV projection).
    pub qkv_in: f32,
    /// Attention head concat (input to the output projection).
    pub wo_in: f32,
    /// `ln2` output (input to the feed-forward expansion).
    pub ff1_in: f32,
    /// GELU output (input to the feed-forward contraction).
    pub ff2_in: f32,
}

fn absmax_update(slot: &mut f32, xs: &[f32]) {
    for &x in xs {
        let a = x.abs();
        if a > *slot {
            *slot = a;
        }
    }
}

/// Caller-owned forward scratch for one [`InferencePlan`]: keep one per
/// scoring thread and pass it to [`InferencePlan::score_windows_with`] so
/// calls stop paying for allocation. It starts empty and grows to the
/// largest chunk it has served (at most the plan's batch size).
///
/// It carries **no state** between calls: every forward overwrites each
/// byte before reading it, so whatever an earlier (or abandoned, e.g.
/// unwound) forward left behind cannot reach a later score.
pub struct PlanScratch {
    x: Vec<f32>,
    h: Vec<f32>,
    n: Vec<f32>,
    qkv: Vec<f32>,
    concat: Vec<f32>,
    a: Vec<f32>,
    hidden: Vec<f32>,
    attn: nni::AttnScratch,
    pooled: Vec<f32>,
    feat: Vec<f32>,
    head: Vec<f32>,
}

/// A frozen, fused inference plan over copied model weights.
///
/// Build once with [`InferencePlan::from_model`] and share it (`Arc`)
/// across workers; each worker scores through
/// [`InferencePlan::score_windows_with`] and its own [`PlanScratch`] —
/// bit-identical to the tape's `Detector::scores`, without the tape.
pub struct InferencePlan {
    pub(crate) t: usize,
    pub(crate) embed: usize,
    pub(crate) d: usize,
    pub(crate) heads: usize,
    pub(crate) head_dim: usize,
    pub(crate) ff: usize,
    pub(crate) half: usize,
    pub(crate) batch_size: usize,
    pub(crate) input_w: Vec<f32>,
    pub(crate) input_b: Option<Vec<f32>>,
    pub(crate) pos: Vec<f32>,
    pub(crate) layers: Vec<LayerPlan>,
    pub(crate) ln_out_gamma: Vec<f32>,
    pub(crate) ln_out_beta: Vec<f32>,
    pub(crate) ln_out_eps: f32,
    pub(crate) head: Vec<HeadLayer>,
    pub(crate) head_act: Activation,
}

fn copy_linear(model: &LogSynergyModel, lin: &Linear) -> (Vec<f32>, Option<Vec<f32>>) {
    let w = model.store.value(lin.w_id()).data().to_vec();
    let b = lin.b_id().map(|id| model.store.value(id).data().to_vec());
    (w, b)
}

impl InferencePlan {
    /// Copies the frozen serving weights (`input_proj`, encoder,
    /// `C_anomaly`) out of `model` into fused layout.
    pub fn from_model(model: &LogSynergyModel) -> Self {
        let cfg = model.config();
        let d = cfg.d_model;
        let enc = model.encoder();
        let (input_w, input_b) = copy_linear(model, model.input_proj());
        let pos = model.store.value(enc.pos_id()).data().to_vec();
        let layers = enc
            .layer_stack()
            .iter()
            .map(|layer| {
                let (wq, bq) = copy_linear(model, layer.attn().wq());
                let (wk, bk) = copy_linear(model, layer.attn().wk());
                let (wv, bv) = copy_linear(model, layer.attn().wv());
                // Interleave columns: row r of wqkv = wq[r] | wk[r] | wv[r].
                let mut wqkv = vec![0.0f32; d * 3 * d];
                for r in 0..d {
                    wqkv[r * 3 * d..r * 3 * d + d].copy_from_slice(&wq[r * d..(r + 1) * d]);
                    wqkv[r * 3 * d + d..r * 3 * d + 2 * d].copy_from_slice(&wk[r * d..(r + 1) * d]);
                    wqkv[r * 3 * d + 2 * d..(r + 1) * 3 * d]
                        .copy_from_slice(&wv[r * d..(r + 1) * d]);
                }
                let mut bqkv = vec![0.0f32; 3 * d];
                for (s, b) in [&bq, &bk, &bv].into_iter().enumerate() {
                    if let Some(b) = b {
                        bqkv[s * d..(s + 1) * d].copy_from_slice(b);
                    }
                }
                let (wo, bo) = copy_linear(model, layer.attn().wo());
                let (ff1_w, ff1_b) = copy_linear(model, layer.ff1());
                let (ff2_w, ff2_b) = copy_linear(model, layer.ff2());
                LayerPlan {
                    ln1_gamma: model.store.value(layer.ln1().gamma_id()).data().to_vec(),
                    ln1_beta: model.store.value(layer.ln1().beta_id()).data().to_vec(),
                    ln1_eps: layer.ln1().eps(),
                    wqkv,
                    bqkv,
                    wo,
                    bo,
                    ln2_gamma: model.store.value(layer.ln2().gamma_id()).data().to_vec(),
                    ln2_beta: model.store.value(layer.ln2().beta_id()).data().to_vec(),
                    ln2_eps: layer.ln2().eps(),
                    ff1_w,
                    ff1_b,
                    ff2_w,
                    ff2_b,
                }
            })
            .collect();
        let head = model
            .c_anomaly()
            .layers()
            .iter()
            .map(|lin| {
                let (w, b) = copy_linear(model, lin);
                HeadLayer {
                    w,
                    b,
                    in_dim: lin.in_dim(),
                    out_dim: lin.out_dim(),
                }
            })
            .collect();
        InferencePlan {
            t: cfg.max_len,
            embed: cfg.embed_dim,
            d,
            heads: cfg.heads,
            head_dim: d / cfg.heads,
            ff: cfg.ff,
            half: cfg.half_dim(),
            batch_size: 256,
            input_w,
            input_b,
            pos,
            layers,
            ln_out_gamma: model.store.value(enc.ln_out().gamma_id()).data().to_vec(),
            ln_out_beta: model.store.value(enc.ln_out().beta_id()).data().to_vec(),
            ln_out_eps: enc.ln_out().eps(),
            head,
            head_act: model.c_anomaly().activation(),
        }
    }

    /// Sets the maximum forward batch size (default 256, matching the
    /// tape's `Detector`).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    /// An empty scratch for this plan's geometry.
    pub fn scratch(&self) -> PlanScratch {
        PlanScratch {
            x: Vec::new(),
            h: Vec::new(),
            n: Vec::new(),
            qkv: Vec::new(),
            concat: Vec::new(),
            a: Vec::new(),
            hidden: Vec::new(),
            attn: nni::AttnScratch::new(self.t, self.head_dim),
            pooled: Vec::new(),
            feat: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Grows `s` (never shrinks it) to hold a forward over `b` windows.
    fn reserve(&self, s: &mut PlanScratch, b: usize) {
        let head_max = self
            .head
            .iter()
            .map(|h| h.in_dim.max(h.out_dim))
            .fold(self.half, usize::max);
        let rows = b * self.t;
        for (buf, len) in [
            (&mut s.x, rows * self.embed),
            (&mut s.h, rows * self.d),
            (&mut s.n, rows * self.d),
            (&mut s.qkv, rows * 3 * self.d),
            (&mut s.concat, rows * self.d),
            (&mut s.a, rows * self.d),
            (&mut s.hidden, rows * self.ff),
            (&mut s.pooled, b * self.d),
            (&mut s.feat, b * head_max),
            (&mut s.head, b * head_max),
        ] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
        }
    }

    /// Anomaly probabilities for a batch of raw event-id windows, through
    /// a one-shot scratch sized for `min(batch_size, windows.len())`
    /// windows. Serving loops should hold a [`PlanScratch`] and call
    /// [`InferencePlan::score_windows_with`] instead.
    pub fn score_windows(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Vec<f32> {
        self.score_windows_with(&mut self.scratch(), windows, embeddings)
    }

    /// [`InferencePlan::score_windows`] through a caller-owned scratch
    /// (from [`InferencePlan::scratch`] of this plan) that persists across
    /// calls.
    pub fn score_windows_with(
        &self,
        scratch: &mut PlanScratch,
        windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(windows.len());
        for chunk in windows.chunks(self.batch_size) {
            self.forward_chunk(scratch, chunk, embeddings, &mut out, None);
        }
        out
    }

    /// Anomaly probability for a single window.
    pub fn score_one(&self, events: &[u32], embeddings: &[Vec<f32>]) -> f32 {
        self.score_windows(&[events], embeddings)[0]
    }

    /// Runs the f32 forward over `windows` and records the absolute
    /// maximum at every GEMM input — the activation ranges the int8 path
    /// calibrates its per-tensor scales against.
    pub fn calibrate(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Calibration {
        let mut calib = Calibration {
            layers: vec![LayerCalibration::default(); self.layers.len()],
            head_hidden: vec![0.0; self.head.len().saturating_sub(1)],
            ..Default::default()
        };
        let mut out = Vec::with_capacity(windows.len());
        let mut scratch = self.scratch();
        for chunk in windows.chunks(self.batch_size) {
            self.forward_chunk(&mut scratch, chunk, embeddings, &mut out, Some(&mut calib));
        }
        calib
    }

    /// One fused forward over up to `batch_size` windows, appending
    /// sigmoid probabilities to `out`. Mirrors the tape's `forward_scores`
    /// chunk body step for step.
    fn forward_chunk(
        &self,
        s: &mut PlanScratch,
        chunk: &[&[u32]],
        embeddings: &[Vec<f32>],
        out: &mut Vec<f32>,
        mut calib: Option<&mut Calibration>,
    ) {
        let (b, t, d, embed) = (chunk.len(), self.t, self.d, self.embed);
        let rows = b * t;
        self.reserve(s, b);
        // Gather [b*t, embed], zero-padded beyond each window's length.
        let x = &mut s.x[..rows * embed];
        x.fill(0.0);
        for (row, events) in chunk.iter().enumerate() {
            for (step, &e) in events.iter().take(t).enumerate() {
                x[(row * t + step) * embed..(row * t + step + 1) * embed]
                    .copy_from_slice(&embeddings[e as usize]);
            }
        }
        if let Some(c) = calib.as_deref_mut() {
            absmax_update(&mut c.input, x);
        }

        // Input projection, then positional embeddings.
        let h = &mut s.h[..rows * d];
        nni::linear_into(x, &self.input_w, self.input_b.as_deref(), h, rows, embed, d);
        nni::add_pos_inplace(h, &self.pos, b, t, d);

        for (li, layer) in self.layers.iter().enumerate() {
            let n = &mut s.n[..rows * d];
            nni::layer_norm_into(h, &layer.ln1_gamma, &layer.ln1_beta, layer.ln1_eps, n);
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].qkv_in, n);
            }
            // Fused QKV: one [d, 3d] GEMM; the head sweep gathers Q, K and
            // V straight out of its interleaved rows.
            let qkv = &mut s.qkv[..rows * 3 * d];
            nni::linear_into(n, &layer.wqkv, Some(&layer.bqkv), qkv, rows, d, 3 * d);
            let concat = &mut s.concat[..rows * d];
            let scale = 1.0 / (self.head_dim as f32).sqrt();
            nni::attention_sweep_strided(
                qkv,
                &qkv[d..],
                &qkv[2 * d..],
                3 * d,
                b,
                t,
                self.heads,
                self.head_dim,
                scale,
                concat,
                &mut s.attn,
            );
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].wo_in, concat);
            }
            let a = &mut s.a[..rows * d];
            nni::linear_into(concat, &layer.wo, layer.bo.as_deref(), a, rows, d, d);
            nni::add_inplace(h, a);

            nni::layer_norm_into(h, &layer.ln2_gamma, &layer.ln2_beta, layer.ln2_eps, n);
            if let Some(c) = calib.as_deref_mut() {
                absmax_update(&mut c.layers[li].ff1_in, n);
            }
            if let Some(c) = calib.as_deref_mut() {
                // The GELU output feeds ff2; record it by replaying the
                // sweep's hidden stage (same buffer the sweep fills).
                let hidden = &mut s.hidden[..rows * self.ff];
                nni::linear_into(
                    n,
                    &layer.ff1_w,
                    layer.ff1_b.as_deref(),
                    hidden,
                    rows,
                    d,
                    self.ff,
                );
                nni::gelu_inplace(hidden);
                absmax_update(&mut c.layers[li].ff2_in, hidden);
            }
            nni::mlp_sweep(
                n,
                &layer.ff1_w,
                layer.ff1_b.as_deref(),
                &layer.ff2_w,
                layer.ff2_b.as_deref(),
                a,
                &mut s.hidden[..rows * self.ff],
                rows,
                d,
                self.ff,
            );
            nni::add_inplace(h, a);
        }

        // Final norm, mean pool over time, unified half.
        let n = &mut s.n[..rows * d];
        nni::layer_norm_into(h, &self.ln_out_gamma, &self.ln_out_beta, self.ln_out_eps, n);
        let pooled = &mut s.pooled[..b * d];
        nni::mean_pool_into(n, b, t, d, pooled);
        let feat = &mut s.feat[..b * self.half];
        for r in 0..b {
            feat[r * self.half..(r + 1) * self.half]
                .copy_from_slice(&pooled[r * d..r * d + self.half]);
        }
        if let Some(c) = calib.as_deref_mut() {
            absmax_update(&mut c.unified, feat);
        }

        // Classifier head: activation between (not after) layers.
        let n_head = self.head.len();
        let mut cur_width = self.half;
        for (hi, hl) in self.head.iter().enumerate() {
            debug_assert_eq!(cur_width, hl.in_dim);
            let dst = &mut s.head[..b * hl.out_dim];
            nni::linear_into(
                &s.feat[..b * hl.in_dim],
                &hl.w,
                hl.b.as_deref(),
                dst,
                b,
                hl.in_dim,
                hl.out_dim,
            );
            if hi + 1 < n_head {
                match self.head_act {
                    Activation::Relu => nni::relu_inplace(dst),
                    Activation::Gelu => nni::gelu_inplace(dst),
                    Activation::Tanh => {
                        for o in dst.iter_mut() {
                            *o = o.tanh();
                        }
                    }
                }
                if let Some(c) = calib.as_deref_mut() {
                    absmax_update(&mut c.head_hidden[hi], dst);
                }
            }
            s.feat[..b * hl.out_dim].copy_from_slice(dst);
            cur_width = hl.out_dim;
        }
        debug_assert_eq!(cur_width, 1);
        out.extend(s.feat[..b].iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::data::SeqSample;
    use crate::detector::Detector;

    use rand::SeedableRng;

    fn tiny_model() -> LogSynergyModel {
        let mut cfg = ModelConfig::scaled(2);
        cfg.embed_dim = 8;
        cfg.d_model = 8;
        cfg.heads = 2;
        cfg.ff = 16;
        cfg.layers = 2;
        cfg.head_hidden = 8;
        cfg.max_len = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        LogSynergyModel::new(cfg, &mut rng)
    }

    fn embeddings() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.3, -0.4, 0.5, 0.0, 0.2, 0.0, -0.1, 0.0],
        ]
    }

    #[test]
    fn plan_matches_detector_bitwise() {
        let model = tiny_model();
        let samples: Vec<SeqSample> = (0..13)
            .map(|i| SeqSample {
                events: vec![i % 3, (i + 1) % 2, 0, 2],
                label: false,
            })
            .collect();
        let want = Detector::new(&model).scores(&samples, &embeddings());
        let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();
        let plan = InferencePlan::from_model(&model).with_batch_size(4);
        let got = plan.score_windows(&windows, &embeddings());
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "window {i}: {g} vs {w}");
        }
    }

    #[test]
    fn reused_scratch_matches_detector_bitwise() {
        let model = tiny_model();
        let samples: Vec<SeqSample> = (0..13)
            .map(|i| SeqSample {
                events: vec![i % 2, (i + 1) % 2, 0, 1],
                label: false,
            })
            .collect();
        let want = Detector::new(&model).scores(&samples, &embeddings());
        let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();

        let plan = InferencePlan::from_model(&model).with_batch_size(4);
        let mut scratch = plan.scratch();
        // One at a time first, so the scratch then has to grow for the
        // batched calls; a scratch that has already served forwards must
        // not perturb anything.
        let one_by_one: Vec<f32> = windows
            .iter()
            .map(|w| plan.score_windows_with(&mut scratch, &[w], &embeddings())[0])
            .collect();
        let batched = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        let again = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        for (i, &expect) in want.iter().enumerate() {
            assert_eq!(
                expect.to_bits(),
                one_by_one[i].to_bits(),
                "window {i} single"
            );
            assert_eq!(expect.to_bits(), batched[i].to_bits(), "window {i} batched");
            assert_eq!(expect.to_bits(), again[i].to_bits(), "window {i} reused");
        }
    }

    #[test]
    fn scratch_carries_no_state_between_calls() {
        // Every forward must overwrite each scratch byte before reading it:
        // poison the whole scratch with NaN between two calls (what an
        // unwound, half-finished forward could leave behind at worst) and
        // demand the same bits, for full and for short probe windows.
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..11u32)
            .map(|i| (0..4 - i % 2).map(|j| (i + j) % 3).collect())
            .collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model).with_batch_size(8);
        let mut scratch = plan.scratch();
        let clean = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        let s = &mut scratch;
        for buf in [
            &mut s.x,
            &mut s.h,
            &mut s.n,
            &mut s.qkv,
            &mut s.concat,
            &mut s.a,
            &mut s.hidden,
            &mut s.pooled,
            &mut s.feat,
            &mut s.head,
        ] {
            assert!(!buf.is_empty());
            buf.fill(f32::NAN);
        }
        let poisoned = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        for (c, p) in clean.iter().zip(&poisoned) {
            assert_eq!(c.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn scratch_grows_to_the_largest_chunk_only() {
        let model = tiny_model();
        let plan = InferencePlan::from_model(&model);
        let window: &[u32] = &[0, 1, 2, 0];
        let mut scratch = plan.scratch();
        assert!(scratch.x.is_empty());
        plan.score_windows_with(&mut scratch, &[window], &embeddings());
        assert_eq!(scratch.x.len(), plan.t * plan.embed);
        plan.score_windows_with(&mut scratch, &[window; 5], &embeddings());
        assert_eq!(scratch.x.len(), 5 * plan.t * plan.embed);
        plan.score_windows_with(&mut scratch, &[window; 2], &embeddings());
        assert_eq!(scratch.x.len(), 5 * plan.t * plan.embed);
        // Never beyond the batch size, however many windows one call brings.
        let plan = plan.with_batch_size(3);
        let mut scratch = plan.scratch();
        plan.score_windows_with(&mut scratch, &[window; 10], &embeddings());
        assert_eq!(scratch.x.len(), 3 * plan.t * plan.embed);
    }

    #[test]
    fn plan_handles_short_probe_windows_bitwise() {
        // Probe windows are shorter than max_len; the tape zero-pads the
        // gather. The plan must reproduce that exactly.
        let model = tiny_model();
        let samples: Vec<SeqSample> = vec![
            SeqSample {
                events: vec![0],
                label: false,
            },
            SeqSample {
                events: vec![1, 2],
                label: false,
            },
            SeqSample {
                events: vec![2, 0, 1],
                label: false,
            },
        ];
        let want = Detector::new(&model).scores(&samples, &embeddings());
        let windows: Vec<&[u32]> = samples.iter().map(|s| s.events.as_slice()).collect();
        let plan = InferencePlan::from_model(&model);
        let got = plan.score_windows(&windows, &embeddings());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn batch_size_does_not_change_plan_bits() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..17)
            .map(|i| vec![i % 3, i % 2, 2, (i + 2) % 3])
            .collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let a = InferencePlan::from_model(&model)
            .with_batch_size(1)
            .score_windows(&windows, &embeddings());
        let b = InferencePlan::from_model(&model)
            .with_batch_size(100)
            .score_windows(&windows, &embeddings());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn calibration_records_positive_ranges() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..8).map(|i| vec![i % 3, 1, 0, 2]).collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model);
        let calib = plan.calibrate(&windows, &embeddings());
        assert!(calib.input > 0.0);
        assert!(calib.unified > 0.0);
        assert_eq!(calib.layers.len(), 2);
        for l in &calib.layers {
            assert!(l.qkv_in > 0.0 && l.wo_in > 0.0 && l.ff1_in > 0.0 && l.ff2_in > 0.0);
        }
        assert_eq!(calib.head_hidden.len(), 1);
    }
}
