//! Graph-free inference for the frozen serving model (`F` + `C_anomaly`):
//! **the one serving forward**. The tape ([`crate::detector::Detector`])
//! re-traces the autograd graph every chunk and stays the training /
//! offline-evaluation path; [`Frame::forward_chunk`] runs the same math
//! straight through a reused [`PlanScratch`] with the transformer hot path
//! fused — QKV as one `[d, 3d]` GEMM, attention per `(batch, head)` read
//! out of the packed QKV rows, and GELU applied in place between the two
//! feed-forward GEMMs.
//!
//! The order of operations is written once, generic over a crate-private
//! [`Numerics`] policy that supplies only what differs between engines —
//! the weight GEMM (`linear`, and the residual-fused `linear_add`),
//! `layer_norm` and `attention` — and is monomorphised per policy. There
//! are three, because there are three callers:
//!
//! - [`Exact`]: f32 weights through the pinned [`logsynergy_nn::infer`]
//!   primitives → [`InferencePlan::score_windows_with`]. **Bitwise
//!   contract:** scores are bit-identical to `Detector::scores` for every
//!   window, batch size and call grouping; the test suite pins this
//!   end-to-end.
//! - [`Calibrate`]: `Exact` that records the absolute maximum of every
//!   `linear` input → [`InferencePlan::calibrate`], which fixes the
//!   per-tensor activation scales of the int8 model.
//! - `Int8` (`quant` feature, [`crate::quant`]): calibrated int8 GEMMs and
//!   the AVX-512 interludes of `logsynergy_nn::infer_fast`.

use std::sync::Arc;

use logsynergy_nn::infer as nni;
use logsynergy_nn::layers::{Activation, Linear};

use crate::model::LogSynergyModel;

/// Layer-norm parameters.
pub(crate) struct Norm {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) eps: f32,
}

/// One f32 weight GEMM: `[in_dim, out_dim]` weights and an optional bias.
pub(crate) struct Dense {
    pub(crate) w: Vec<f32>,
    pub(crate) b: Option<Vec<f32>>,
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
}

/// The four weight GEMMs of one encoder block.
pub(crate) struct Block<L> {
    /// `[d, 3d]`: columns are `Wq | Wk | Wv` (bit-neutral vs three GEMMs —
    /// each GEMM output element depends only on its A-row and B-column).
    pub(crate) qkv: L,
    pub(crate) wo: L,
    pub(crate) ff1: L,
    pub(crate) ff2: L,
}

/// Every weight GEMM of the serving model, in one policy's representation
/// (`L` = [`Dense`] for f32, the quantized linear for int8), in the order
/// the forward calls them.
pub(crate) struct Linears<L> {
    pub(crate) input: L,
    pub(crate) blocks: Vec<Block<L>>,
    pub(crate) head: Vec<L>,
}

/// Everything of the serving model that is *not* a weight GEMM — geometry,
/// positional table, layer-norm parameters, head shape — and so is the same
/// under every numerics policy. Built once by
/// [`InferencePlan::from_model`]; the int8 model shares it (`Arc`).
pub(crate) struct Frame {
    t: usize,
    embed: usize,
    d: usize,
    heads: usize,
    head_dim: usize,
    ff: usize,
    half: usize,
    pos: Vec<f32>,
    /// `(ln1, ln2)` per encoder block.
    norms: Vec<(Norm, Norm)>,
    ln_out: Norm,
    /// Output width of each classifier-head layer (the last is 1).
    head_out: Vec<usize>,
    head_act: Activation,
}

/// What differs between the serving engines. [`Frame::forward_chunk`] is
/// monomorphised per implementation; the provided methods are the pinned
/// [`logsynergy_nn::infer`] sweeps.
pub(crate) trait Numerics {
    /// This policy's representation of one weight GEMM.
    type Linear;

    /// `out[m, out_dim] = x[m, in_dim] · W + b`.
    fn linear(
        &mut self,
        lin: &Self::Linear,
        x: &[f32],
        out: &mut [f32],
        m: usize,
        ops: &mut Operands,
    );

    /// `acc[m, out_dim] += x[m, in_dim] · W + b` — the residual add of the
    /// attention-output and feed-forward-output projections.
    fn linear_add(
        &mut self,
        lin: &Self::Linear,
        x: &[f32],
        acc: &mut [f32],
        m: usize,
        ops: &mut Operands,
    );

    /// Row-wise layer norm of `src` into `dst`.
    fn layer_norm(src: &[f32], norm: &Norm, dst: &mut [f32]) {
        nni::layer_norm_into(src, &norm.gamma, &norm.beta, norm.eps, dst);
    }

    /// Multi-head attention over the packed `[b·t, 3d]` QKV projection
    /// into the `[b·t, d]` head concat.
    #[allow(clippy::too_many_arguments)]
    fn attention(
        qkv: &[f32],
        b: usize,
        t: usize,
        heads: usize,
        head_dim: usize,
        scale: f32,
        concat: &mut [f32],
        attn: &mut nni::AttnScratch,
    ) {
        let d = heads * head_dim;
        nni::attention_sweep_strided(
            qkv,
            &qkv[d..],
            &qkv[2 * d..],
            3 * d,
            b,
            t,
            heads,
            head_dim,
            scale,
            concat,
            attn,
        );
    }
}

/// The f32 serving numerics: the tape's kernels, bit for bit.
pub(crate) struct Exact;

impl Numerics for Exact {
    type Linear = Dense;

    fn linear(&mut self, lin: &Dense, x: &[f32], out: &mut [f32], m: usize, _: &mut Operands) {
        nni::linear_into(x, &lin.w, lin.b.as_deref(), out, m, lin.in_dim, lin.out_dim);
    }

    fn linear_add(
        &mut self,
        lin: &Dense,
        x: &[f32],
        acc: &mut [f32],
        m: usize,
        ops: &mut Operands,
    ) {
        let a = &mut ops.a[..m * lin.out_dim];
        nni::linear_into(x, &lin.w, lin.b.as_deref(), a, m, lin.in_dim, lin.out_dim);
        nni::add_inplace(acc, a);
    }
}

/// [`Exact`] that records the absolute maximum of every `linear` input,
/// one slot per weight GEMM in call order.
struct Calibrate {
    absmax: Vec<f32>,
    next: usize,
}

impl Calibrate {
    fn observe(&mut self, x: &[f32]) {
        let slot = &mut self.absmax[self.next];
        for &v in x {
            let a = v.abs();
            if a > *slot {
                *slot = a;
            }
        }
        self.next = (self.next + 1) % self.absmax.len();
    }
}

impl Numerics for Calibrate {
    type Linear = Dense;

    fn linear(&mut self, lin: &Dense, x: &[f32], out: &mut [f32], m: usize, ops: &mut Operands) {
        self.observe(x);
        Exact.linear(lin, x, out, m, ops);
    }

    fn linear_add(
        &mut self,
        lin: &Dense,
        x: &[f32],
        acc: &mut [f32],
        m: usize,
        ops: &mut Operands,
    ) {
        self.observe(x);
        Exact.linear_add(lin, x, acc, m, ops);
    }
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

/// `buf[..len]`, growing `buf` (never shrinking it) first when it is
/// shorter.
pub(crate) fn grown<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Caller-owned forward scratch for one serving engine: keep one per
/// scoring thread and pass it to [`InferencePlan::score_windows_with`] so
/// calls stop paying for allocation. It starts empty and grows to the
/// largest chunk it has served (at most the engine's batch size).
///
/// It carries **no state** between calls: every forward overwrites each
/// byte before reading it, so whatever an earlier (or abandoned, e.g.
/// unwound) forward left behind cannot reach a later score — under any
/// numerics policy, and across policies.
pub struct PlanScratch {
    x: Vec<f32>,
    h: Vec<f32>,
    n: Vec<f32>,
    qkv: Vec<f32>,
    concat: Vec<f32>,
    hidden: Vec<f32>,
    attn: nni::AttnScratch,
    pooled: Vec<f32>,
    feat: Vec<f32>,
    head: Vec<f32>,
    ops: Operands,
}

/// The temporaries a policy's weight GEMM works through.
#[derive(Default)]
pub(crate) struct Operands {
    /// [`Exact`]: the GEMM output a `linear_add` adds to its accumulator.
    a: Vec<f32>,
    /// `Int8`: the quantized activation rows.
    #[cfg(feature = "quant")]
    pub(crate) qa: Vec<i16>,
    /// `Int8`: the exact `i32` GEMM output.
    #[cfg(feature = "quant")]
    pub(crate) acc: Vec<i32>,
}

/// A frozen, fused f32 inference plan over copied model weights.
///
/// Build once with [`InferencePlan::from_model`] and share it (`Arc`)
/// across workers; each worker scores through
/// [`InferencePlan::score_windows_with`] and its own [`PlanScratch`] —
/// bit-identical to the tape's `Detector::scores`, without the tape.
pub struct InferencePlan {
    pub(crate) frame: Arc<Frame>,
    pub(crate) batch_size: usize,
    pub(crate) lin: Linears<Dense>,
}

fn copy_linear(model: &LogSynergyModel, lin: &Linear) -> Dense {
    Dense {
        w: model.store.value(lin.w_id()).data().to_vec(),
        b: lin.b_id().map(|id| model.store.value(id).data().to_vec()),
        in_dim: lin.in_dim(),
        out_dim: lin.out_dim(),
    }
}

fn copy_norm(model: &LogSynergyModel, ln: &logsynergy_nn::layers::LayerNorm) -> Norm {
    Norm {
        gamma: model.store.value(ln.gamma_id()).data().to_vec(),
        beta: model.store.value(ln.beta_id()).data().to_vec(),
        eps: ln.eps(),
    }
}

impl InferencePlan {
    /// Copies the frozen serving weights (`input_proj`, encoder,
    /// `C_anomaly`) out of `model` into fused layout.
    pub fn from_model(model: &LogSynergyModel) -> Self {
        let cfg = model.config();
        let d = cfg.d_model;
        let enc = model.encoder();
        let blocks = enc
            .layer_stack()
            .iter()
            .map(|layer| {
                let [q, k, v] = [layer.attn().wq(), layer.attn().wk(), layer.attn().wv()]
                    .map(|l| copy_linear(model, l));
                // Interleave columns: row r of wqkv = wq[r] | wk[r] | wv[r].
                let mut w = vec![0.0f32; d * 3 * d];
                let mut b = vec![0.0f32; 3 * d];
                for (s, part) in [&q, &k, &v].into_iter().enumerate() {
                    for r in 0..d {
                        w[r * 3 * d + s * d..r * 3 * d + (s + 1) * d]
                            .copy_from_slice(&part.w[r * d..(r + 1) * d]);
                    }
                    if let Some(bias) = &part.b {
                        b[s * d..(s + 1) * d].copy_from_slice(bias);
                    }
                }
                Block {
                    qkv: Dense {
                        w,
                        b: Some(b),
                        in_dim: d,
                        out_dim: 3 * d,
                    },
                    wo: copy_linear(model, layer.attn().wo()),
                    ff1: copy_linear(model, layer.ff1()),
                    ff2: copy_linear(model, layer.ff2()),
                }
            })
            .collect();
        let head: Vec<Dense> = model
            .c_anomaly()
            .layers()
            .iter()
            .map(|lin| copy_linear(model, lin))
            .collect();
        let frame = Frame {
            t: cfg.max_len,
            embed: cfg.embed_dim,
            d,
            heads: cfg.heads,
            head_dim: d / cfg.heads,
            ff: cfg.ff,
            half: cfg.half_dim(),
            pos: model.store.value(enc.pos_id()).data().to_vec(),
            norms: enc
                .layer_stack()
                .iter()
                .map(|layer| (copy_norm(model, layer.ln1()), copy_norm(model, layer.ln2())))
                .collect(),
            ln_out: copy_norm(model, enc.ln_out()),
            head_out: head.iter().map(|l| l.out_dim).collect(),
            head_act: model.c_anomaly().activation(),
        };
        InferencePlan {
            frame: Arc::new(frame),
            batch_size: 256,
            lin: Linears {
                input: copy_linear(model, model.input_proj()),
                blocks,
                head,
            },
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
        self.frame.scratch()
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
        self.frame.score(
            &mut Exact,
            &self.lin,
            self.batch_size,
            scratch,
            windows,
            embeddings,
        )
    }

    /// Runs the f32 forward over `windows` and records the absolute
    /// maximum at every GEMM input — the activation ranges the int8 path
    /// calibrates its per-tensor scales against.
    pub fn calibrate(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Calibration {
        let lin = &self.lin;
        let mut p = Calibrate {
            absmax: vec![0.0; 1 + 4 * lin.blocks.len() + lin.head.len()],
            next: 0,
        };
        let scratch = &mut self.scratch();
        self.frame
            .score(&mut p, lin, self.batch_size, scratch, windows, embeddings);
        // One slot per `linear`, in the forward's call order.
        let mut seen = p.absmax.into_iter();
        let mut next = || seen.next().expect("one slot per weight GEMM");
        Calibration {
            input: next(),
            layers: (0..lin.blocks.len())
                .map(|_| LayerCalibration {
                    qkv_in: next(),
                    wo_in: next(),
                    ff1_in: next(),
                    ff2_in: next(),
                })
                .collect(),
            unified: next(),
            head_hidden: seen.collect(),
        }
    }
}

impl Frame {
    /// An empty scratch for this geometry.
    pub(crate) fn scratch(&self) -> PlanScratch {
        PlanScratch {
            x: Vec::new(),
            h: Vec::new(),
            n: Vec::new(),
            qkv: Vec::new(),
            concat: Vec::new(),
            hidden: Vec::new(),
            attn: nni::AttnScratch::new(self.t, self.head_dim),
            pooled: Vec::new(),
            feat: Vec::new(),
            head: Vec::new(),
            ops: Operands::default(),
        }
    }

    /// Grows the f32 buffers of `s` (never shrinks them) to hold a forward
    /// over `b` windows — all of them here, in one burst before any kernel
    /// runs: growing each where the forward first needs it measured slower
    /// for one-shot single-window calls (medians 14.2k vs 15.6k calls/s).
    /// The int8 GEMM operands grow in the `Int8` policy, the only one that
    /// uses them.
    fn reserve(&self, s: &mut PlanScratch, b: usize) {
        let head_max = self.head_out.iter().copied().fold(self.half, usize::max);
        let rows = b * self.t;
        for (buf, len) in [
            (&mut s.x, rows * self.embed),
            (&mut s.h, rows * self.d),
            (&mut s.n, rows * self.d),
            (&mut s.qkv, rows * 3 * self.d),
            (&mut s.concat, rows * self.d),
            (&mut s.ops.a, rows * self.d),
            (&mut s.hidden, rows * self.ff),
            (&mut s.pooled, b * self.d),
            (&mut s.feat, b * head_max),
            (&mut s.head, b * head_max),
        ] {
            grown(buf, len);
        }
    }

    /// Anomaly probabilities for `windows`, at most `batch_size` per
    /// forward, under policy `p` over its weights `lin`.
    pub(crate) fn score<P: Numerics>(
        &self,
        p: &mut P,
        lin: &Linears<P::Linear>,
        batch_size: usize,
        scratch: &mut PlanScratch,
        windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(windows.len());
        for chunk in windows.chunks(batch_size) {
            self.forward_chunk(p, lin, scratch, chunk, embeddings, &mut out);
        }
        out
    }

    /// One fused forward over a chunk of windows, appending sigmoid
    /// probabilities to `out`. Mirrors the tape's `forward_scores` chunk
    /// body step for step.
    fn forward_chunk<P: Numerics>(
        &self,
        p: &mut P,
        lin: &Linears<P::Linear>,
        s: &mut PlanScratch,
        chunk: &[&[u32]],
        embeddings: &[Vec<f32>],
        out: &mut Vec<f32>,
    ) {
        let (b, t, d, embed) = (chunk.len(), self.t, self.d, self.embed);
        let rows = b * t;
        self.reserve(s, b);
        let ops = &mut s.ops;
        // Gather [b*t, embed], zero-padded beyond each window's length.
        let x = &mut s.x[..rows * embed];
        x.fill(0.0);
        for (row, events) in chunk.iter().enumerate() {
            for (step, &e) in events.iter().take(t).enumerate() {
                x[(row * t + step) * embed..(row * t + step + 1) * embed]
                    .copy_from_slice(&embeddings[e as usize]);
            }
        }

        // Input projection, then positional embeddings.
        let h = &mut s.h[..rows * d];
        p.linear(&lin.input, x, h, rows, ops);
        nni::add_pos_inplace(h, &self.pos, b, t, d);

        let n = &mut s.n[..rows * d];
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        for (block, (ln1, ln2)) in lin.blocks.iter().zip(&self.norms) {
            nni::record_fused_block();
            P::layer_norm(h, ln1, n);
            // Fused QKV: one [d, 3d] GEMM; the head sweep reads Q, K and V
            // straight out of its interleaved rows.
            let qkv = &mut s.qkv[..rows * 3 * d];
            p.linear(&block.qkv, n, qkv, rows, ops);
            let concat = &mut s.concat[..rows * d];
            P::attention(
                qkv,
                b,
                t,
                self.heads,
                self.head_dim,
                scale,
                concat,
                &mut s.attn,
            );
            p.linear_add(&block.wo, concat, h, rows, ops);

            P::layer_norm(h, ln2, n);
            let hidden = &mut s.hidden[..rows * self.ff];
            p.linear(&block.ff1, n, hidden, rows, ops);
            nni::gelu_inplace(hidden);
            p.linear_add(&block.ff2, hidden, h, rows, ops);
        }

        // Final norm, mean pool over time, unified half.
        P::layer_norm(h, &self.ln_out, n);
        let pooled = &mut s.pooled[..b * d];
        nni::mean_pool_into(n, b, t, d, pooled);
        let mut width = self.half;
        let feat = &mut s.feat[..b * width];
        for (dst, src) in feat.chunks_exact_mut(width).zip(pooled.chunks_exact(d)) {
            dst.copy_from_slice(&src[..width]);
        }

        // Classifier head: activation between (not after) layers.
        for (hi, (layer, &out_dim)) in lin.head.iter().zip(&self.head_out).enumerate() {
            let dst = &mut s.head[..b * out_dim];
            p.linear(layer, &s.feat[..b * width], dst, b, ops);
            if hi + 1 < lin.head.len() {
                match self.head_act {
                    Activation::Relu => nni::relu_inplace(dst),
                    Activation::Gelu => nni::gelu_inplace(dst),
                    Activation::Tanh => {
                        for o in dst.iter_mut() {
                            *o = o.tanh();
                        }
                    }
                }
            }
            std::mem::swap(&mut s.feat, &mut s.head);
            width = out_dim;
        }
        debug_assert_eq!(width, 1);
        out.extend(s.feat[..b].iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::data::SeqSample;
    use crate::detector::Detector;

    use rand::SeedableRng;

    /// The fixture the policy tests (here and in `crate::quant`) share.
    pub(crate) fn tiny_model() -> LogSynergyModel {
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

    pub(crate) fn embeddings() -> Vec<Vec<f32>> {
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

    /// Overwrites every scratch buffer with the worst an unwound,
    /// half-finished forward could leave behind: NaN in the f32 buffers,
    /// garbage in the int8 GEMM operands.
    fn poison(s: &mut PlanScratch) {
        for buf in [
            &mut s.x,
            &mut s.h,
            &mut s.n,
            &mut s.qkv,
            &mut s.concat,
            &mut s.hidden,
            &mut s.pooled,
            &mut s.feat,
            &mut s.head,
        ] {
            assert!(!buf.is_empty());
            buf.fill(f32::NAN);
        }
        s.ops.a.fill(f32::NAN);
        #[cfg(feature = "quant")]
        {
            s.ops.qa.fill(i16::MIN);
            s.ops.acc.fill(i32::MAX - 7);
        }
    }

    /// 11 windows, full and one short of full (probe-shaped).
    fn mixed_windows() -> Vec<Vec<u32>> {
        (0..11u32)
            .map(|i| (0..4 - i % 2).map(|j| (i + j) % 3).collect())
            .collect()
    }

    fn assert_same_bits(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scratch_carries_no_state_between_calls() {
        // Every forward must overwrite each scratch byte before reading it:
        // poison the whole scratch between two calls and demand the same
        // bits, for full and for short probe windows — under both engines,
        // since both now score through a scratch that persists.
        let model = tiny_model();
        let windows_owned = mixed_windows();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model).with_batch_size(8);
        let mut scratch = plan.scratch();
        let clean = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        assert!(!scratch.ops.a.is_empty());
        poison(&mut scratch);
        let poisoned = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        assert_same_bits(&clean, &poisoned);

        #[cfg(feature = "quant")]
        {
            let calib = plan.calibrate(&windows, &embeddings());
            let int8 = crate::quant::QuantizedModel::from_plan(&plan, &calib).with_batch_size(8);
            let mut scratch = int8.scratch();
            let clean = int8.score_windows_with(&mut scratch, &windows, &embeddings());
            assert!(!scratch.ops.qa.is_empty() && !scratch.ops.acc.is_empty());
            poison(&mut scratch);
            let poisoned = int8.score_windows_with(&mut scratch, &windows, &embeddings());
            assert_same_bits(&clean, &poisoned);
        }
    }

    #[cfg(feature = "quant")]
    #[test]
    fn one_scratch_serves_both_engines_with_fresh_scratch_bits() {
        // Exact → Int8 → Exact through one scratch: neither engine may see
        // what the other left in the shared buffers.
        let model = tiny_model();
        let windows_owned = mixed_windows();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model).with_batch_size(4);
        let calib = plan.calibrate(&windows, &embeddings());
        let int8 = crate::quant::QuantizedModel::from_plan(&plan, &calib);
        let want_f32 = plan.score_windows(&windows, &embeddings());
        let want_int8 = int8.score_windows(&windows, &embeddings());

        let mut scratch = plan.scratch();
        let first = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        let second = int8.score_windows_with(&mut scratch, &windows, &embeddings());
        let third = plan.score_windows_with(&mut scratch, &windows, &embeddings());
        assert_same_bits(&first, &want_f32);
        assert_same_bits(&second, &want_int8);
        assert_same_bits(&third, &want_f32);
    }

    #[test]
    fn scratch_grows_to_the_largest_chunk_only() {
        let model = tiny_model();
        let plan = InferencePlan::from_model(&model);
        let window: &[u32] = &[0, 1, 2, 0];
        let mut scratch = plan.scratch();
        assert!(scratch.x.is_empty());
        plan.score_windows_with(&mut scratch, &[window], &embeddings());
        assert_eq!(scratch.x.len(), plan.frame.t * plan.frame.embed);
        plan.score_windows_with(&mut scratch, &[window; 5], &embeddings());
        assert_eq!(scratch.x.len(), 5 * plan.frame.t * plan.frame.embed);
        plan.score_windows_with(&mut scratch, &[window; 2], &embeddings());
        assert_eq!(scratch.x.len(), 5 * plan.frame.t * plan.frame.embed);
        // Never beyond the batch size, however many windows one call brings.
        let plan = plan.with_batch_size(3);
        let mut scratch = plan.scratch();
        plan.score_windows_with(&mut scratch, &[window; 10], &embeddings());
        assert_eq!(scratch.x.len(), 3 * plan.frame.t * plan.frame.embed);
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

    #[test]
    fn calibration_is_the_hook_based_one_field_for_field() {
        // The values `calibrate` returned on this fixture when it was seven
        // hooks threaded through the f32 forward (plus a replayed ff1 GEMM
        // and GELU), as bits, per SIMD tier — the FMA tiers round
        // differently from the scalar kernels and from each other. Moving
        // the recording into the `Calibrate` policy may not shift one.
        // Order: input, then (qkv_in, wo_in, ff1_in, ff2_in) per block,
        // then unified, then head_hidden.
        let want: [u32; 11] = match logsynergy_nn::kernels::simd_tier_name() {
            "scalar" => [
                0x3f800000, 0x3fe1e09c, 0x3fb74ce5, 0x4003e41c, 0x4017f884, 0x40042128, 0x400709b4,
                0x4010501f, 0x3faba72e, 0x3fd24d90, 0x3f9193e0,
            ],
            "avx2+fma" => [
                0x3f800000, 0x3fe1e09c, 0x3fb74ce4, 0x4003e41c, 0x4017f884, 0x40042129, 0x400709b2,
                0x4010501f, 0x3faba72e, 0x3fd24d91, 0x3f9193e4,
            ],
            _ => [
                0x3f800000, 0x3fe1e09c, 0x3fb74ce4, 0x4003e41c, 0x4017f884, 0x40042128, 0x400709b3,
                0x4010501f, 0x3faba72d, 0x3fd24d91, 0x3f9193e2,
            ],
        };
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..8).map(|i| vec![i % 3, 1, 0, 2]).collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        // Batch size 3: the eight windows take three forwards, so the
        // per-GEMM slots must line up again on every chunk.
        for plan in [
            InferencePlan::from_model(&model),
            InferencePlan::from_model(&model).with_batch_size(3),
        ] {
            let c = plan.calibrate(&windows, &embeddings());
            let mut got = vec![c.input];
            for l in &c.layers {
                got.extend([l.qkv_in, l.wo_in, l.ff1_in, l.ff2_in]);
            }
            got.push(c.unified);
            got.extend(&c.head_hidden);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{c:?}");
        }
    }
}
