//! Int8 quantized scoring (`quant` feature): the serving forward of
//! [`crate::infer`] under its `Int8` numerics policy — every weight GEMM a
//! calibrated symmetric-int8 `i8×i8 → i32` kernel
//! ([`logsynergy_nn::kernels::qgemm`]), layer norm and attention the
//! AVX-512 interludes of [`logsynergy_nn::infer_fast`] where those exist.
//! [`QuantizedModel`] is the f32 plan's shared geometry and non-GEMM
//! parameters plus the quantized linears; gather, positional add, residual
//! order, pooling and the head loop are the plan's own code.
//!
//! Quantization scheme:
//! - **Weights**: per-output-channel symmetric scales
//!   (`scale_j = absmax(column j) / 127`), stored transposed `[out, in]`
//!   so each channel's weights are one contiguous dot product.
//! - **Activations**: per-tensor symmetric scales fixed by a calibration
//!   run ([`crate::infer::InferencePlan::calibrate`]) over representative
//!   windows — no runtime range tracking on the hot path.
//! - **Accumulation**: exact `i32`; dequantization multiplies by the
//!   precomputed `activation_scale · weight_scale_j` and adds the f32
//!   bias. Everything between GEMMs — layer norm, softmax, the attention
//!   score/value products, GELU, residuals, pooling — stays f32, so the
//!   only approximation is the int8 rounding of GEMM operands.
//!
//! The f32 path remains the serving default; this path is opt-in
//! (`--quant`) and is gated by an accuracy test: verdict agreement with
//! f32 ≥ 99.5% and |ΔF1| ≤ 0.005 on held-out eval corpora.

use std::fmt;
use std::sync::Arc;

use logsynergy_nn::infer as nni;
use logsynergy_nn::infer_fast as nnf;
use logsynergy_nn::kernels::qgemm;

use crate::infer::{
    grown, Block, Calibration, Dense, Frame, InferencePlan, Linears, Norm, Numerics, Operands,
    PlanScratch,
};
use crate::model::LogSynergyModel;

/// One quantized linear layer: transposed int8 weights (packed for the
/// serving kernel), per-channel dequantization scales, calibrated
/// activation scale, f32 bias.
struct QLinear {
    /// `[out, in]` int8 weights in the kernel's packed layout.
    wq: qgemm::PackedWeights,
    /// `deq[j] = activation_scale · weight_scale_j`.
    deq: Vec<f32>,
    bias: Option<Vec<f32>>,
    /// Per-tensor activation scale (`calibrated absmax / 127`).
    a_scale: f32,
    in_dim: usize,
    out_dim: usize,
}

impl QLinear {
    /// Quantizes a `[in, out]` f32 weight matrix against a calibrated
    /// activation `absmax`.
    fn quantize(lin: &Dense, act_absmax: f32) -> Self {
        let (in_dim, out_dim) = (lin.in_dim, lin.out_dim);
        assert_eq!(lin.w.len(), in_dim * out_dim);
        let a_scale = qgemm::scale_for(act_absmax);
        let mut wq = vec![0i8; out_dim * in_dim];
        let mut deq = vec![0f32; out_dim];
        let mut col = vec![0f32; in_dim];
        for j in 0..out_dim {
            for (i, c) in col.iter_mut().enumerate() {
                *c = lin.w[i * out_dim + j];
            }
            let ws = qgemm::scale_for(qgemm::absmax(&col));
            qgemm::quantize(&col, ws, &mut wq[j * in_dim..(j + 1) * in_dim]);
            deq[j] = a_scale * ws;
        }
        QLinear {
            wq: qgemm::PackedWeights::pack(wq, in_dim, out_dim),
            deq,
            bias: lin.b.clone(),
            a_scale,
            in_dim,
            out_dim,
        }
    }

    /// `finish(int8_gemm(quant(x), wqᵀ), deq, bias, out)` over `m` rows,
    /// where `finish` is the dequantize-and-bias epilogue that overwrites
    /// `out` or the residual-fused one that adds into it (which saves a
    /// separate read-modify-write add pass).
    fn forward(
        &self,
        x: &[f32],
        m: usize,
        out: &mut [f32],
        ops: &mut Operands,
        finish: impl Fn(&[i32], &[f32], Option<&[f32]>, &mut [f32]),
    ) {
        let (k, n) = (self.in_dim, self.out_dim);
        let qa = grown(&mut ops.qa, m * self.wq.kp());
        let acc = grown(&mut ops.acc, m * n);
        qgemm::quantize_rows_i16(&x[..m * k], self.a_scale, qa, k, self.wq.kp());
        qgemm::qgemm_nt_packed(qa, &self.wq, acc, m);
        finish(acc, &self.deq, self.bias.as_deref(), &mut out[..m * n]);
    }
}

/// The int8 serving numerics: calibrated int8 weight GEMMs, f32 everything
/// else, layer norm and attention at AVX-512 width where
/// [`logsynergy_nn::infer_fast`] has a kernel for the shape.
struct Int8;

impl Numerics for Int8 {
    type Linear = QLinear;

    fn linear(&mut self, lin: &QLinear, x: &[f32], out: &mut [f32], m: usize, ops: &mut Operands) {
        lin.forward(x, m, out, ops, qgemm::dequant_bias_rows);
    }

    fn linear_add(
        &mut self,
        lin: &QLinear,
        x: &[f32],
        acc: &mut [f32],
        m: usize,
        ops: &mut Operands,
    ) {
        lin.forward(x, m, acc, ops, qgemm::dequant_bias_add_rows);
    }

    fn layer_norm(src: &[f32], norm: &Norm, dst: &mut [f32]) {
        nnf::layer_norm_into(src, &norm.gamma, &norm.beta, norm.eps, dst);
    }

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
        nnf::attention_sweep_packed(qkv, b, t, heads, head_dim, scale, concat, attn);
    }
}

/// A calibration that saw no non-zero model input — an empty window set, or
/// windows whose embeddings are all zero. Every activation scale would be
/// 0, every GEMM input would quantize to 0, and the int8 model would score
/// every window the same whatever its content.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyCalibration;

impl fmt::Display for EmptyCalibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "int8 calibration saw no non-zero input (no windows, or all-zero embeddings): \
             the quantized model would score every window the same",
        )
    }
}

impl std::error::Error for EmptyCalibration {}

/// The frozen serving model with calibrated int8 weight GEMMs: the f32
/// plan's [`Frame`] (shared, not copied) plus one quantized linear per
/// weight GEMM.
///
/// Scoring takes `&self`, so one instance can be shared across serving
/// workers without locking; each worker holds its own [`PlanScratch`].
pub struct QuantizedModel {
    frame: Arc<Frame>,
    batch_size: usize,
    lin: Linears<QLinear>,
}

impl QuantizedModel {
    /// Quantizes a fused plan against the activation ranges in `calib`,
    /// inheriting its forward batch size.
    ///
    /// # Panics
    /// If `calib` was not recorded on a plan of this depth, or is an
    /// [`EmptyCalibration`].
    pub fn from_plan(plan: &InferencePlan, calib: &Calibration) -> Self {
        // Pin the int8-kernel marker string into any binary that links this
        // path: scripts/ci.sh greps the default build for its absence.
        std::hint::black_box(qgemm::QGEMM_MARKER);
        assert_eq!(
            calib.layers.len(),
            plan.lin.blocks.len(),
            "calibration does not match plan depth"
        );
        assert!(calib.input > 0.0, "{EmptyCalibration}");
        let blocks = plan.lin.blocks.iter().zip(&calib.layers);
        let lin = Linears {
            input: QLinear::quantize(&plan.lin.input, calib.input),
            blocks: blocks
                .map(|(b, c)| Block {
                    qkv: QLinear::quantize(&b.qkv, c.qkv_in),
                    wo: QLinear::quantize(&b.wo, c.wo_in),
                    ff1: QLinear::quantize(&b.ff1, c.ff1_in),
                    ff2: QLinear::quantize(&b.ff2, c.ff2_in),
                })
                .collect(),
            head: plan
                .lin
                .head
                .iter()
                .enumerate()
                .map(|(hi, l)| {
                    let act_absmax = match hi {
                        0 => calib.unified,
                        _ => calib.head_hidden[hi - 1],
                    };
                    QLinear::quantize(l, act_absmax)
                })
                .collect(),
        };
        QuantizedModel {
            frame: Arc::clone(&plan.frame),
            batch_size: plan.batch_size,
            lin,
        }
    }

    /// Convenience: plan + calibrate + quantize in one step.
    pub fn from_model(
        model: &LogSynergyModel,
        calib_windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Result<Self, EmptyCalibration> {
        let plan = InferencePlan::from_model(model);
        let calib = plan.calibrate(calib_windows, embeddings);
        if calib.input > 0.0 {
            Ok(QuantizedModel::from_plan(&plan, &calib))
        } else {
            Err(EmptyCalibration)
        }
    }

    /// Sets the maximum forward batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        self.batch_size = batch_size;
        self
    }

    /// An empty scratch for this model's geometry.
    pub fn scratch(&self) -> PlanScratch {
        self.frame.scratch()
    }

    /// Anomaly probabilities for a batch of raw event-id windows through a
    /// one-shot scratch — the int8 counterpart of
    /// [`InferencePlan::score_windows`].
    pub fn score_windows(&self, windows: &[&[u32]], embeddings: &[Vec<f32>]) -> Vec<f32> {
        self.score_windows_with(&mut self.scratch(), windows, embeddings)
    }

    /// [`QuantizedModel::score_windows`] through a caller-owned scratch that
    /// persists across calls — the int8 counterpart of
    /// [`InferencePlan::score_windows_with`].
    pub fn score_windows_with(
        &self,
        scratch: &mut PlanScratch,
        windows: &[&[u32]],
        embeddings: &[Vec<f32>],
    ) -> Vec<f32> {
        self.frame.score(
            &mut Int8,
            &self.lin,
            self.batch_size,
            scratch,
            windows,
            embeddings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::tests::{embeddings, tiny_model};

    #[test]
    fn quantized_scores_track_f32_closely() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..32)
            .map(|i| vec![i % 3, (i + 1) % 3, i % 2, 2])
            .collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let plan = InferencePlan::from_model(&model);
        let f32_scores = plan.score_windows(&windows, &embeddings());
        let q = QuantizedModel::from_model(&model, &windows, &embeddings()).unwrap();
        let q_scores = q.score_windows(&windows, &embeddings());
        for (i, (a, b)) in f32_scores.iter().zip(&q_scores).enumerate() {
            assert!(
                (a - b).abs() < 0.05,
                "window {i}: f32 {a} vs int8 {b} drifted"
            );
        }
    }

    #[test]
    fn quantized_scores_are_deterministic() {
        let model = tiny_model();
        let windows_owned: Vec<Vec<u32>> = (0..9).map(|i| vec![i % 3, 0, 1, 2]).collect();
        let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
        let q = QuantizedModel::from_model(&model, &windows, &embeddings()).unwrap();
        let a = q.score_windows(&windows, &embeddings());
        let b = q.with_batch_size(2).score_windows(&windows, &embeddings());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "int8 scoring must not depend on batch size"
            );
        }
    }

    #[test]
    fn from_model_rejects_an_empty_or_all_zero_calibration() {
        // Either way every activation scale would be 0 and every window
        // would score the same constant.
        let model = tiny_model();
        assert_eq!(
            QuantizedModel::from_model(&model, &[], &embeddings()).err(),
            Some(EmptyCalibration)
        );
        let window: &[u32] = &[0, 1, 2, 0];
        let zeros = vec![vec![0.0; 8]; 3];
        assert_eq!(
            QuantizedModel::from_model(&model, &[window], &zeros).err(),
            Some(EmptyCalibration)
        );
        assert!(QuantizedModel::from_model(&model, &[window], &embeddings()).is_ok());
    }

    #[test]
    #[should_panic(expected = "int8 calibration saw no non-zero input")]
    fn from_plan_rejects_a_default_shaped_calibration() {
        let plan = InferencePlan::from_model(&tiny_model());
        QuantizedModel::from_plan(&plan, &plan.calibrate(&[], &embeddings()));
    }
}
