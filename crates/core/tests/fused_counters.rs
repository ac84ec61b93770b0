//! `docs/telemetry.md` promises `nn.fused.attention == nn.fused.mlp ==
//! layers × forwards` in serving, whichever engine serves. The counters are
//! process-global, so this file holds exactly one test: nothing else in its
//! process scores a window.

use logsynergy::config::ModelConfig;
use logsynergy::infer::InferencePlan;
use logsynergy::model::LogSynergyModel;
use rand::SeedableRng;

#[test]
fn both_fused_counters_tick_once_per_block_per_forward_under_every_engine() {
    if !logsynergy_telemetry::enabled() {
        return;
    }
    let cfg = ModelConfig::scaled(2);
    let layers = cfg.layers as u64;
    let table: Vec<Vec<f32>> = (0..4)
        .map(|e| {
            (0..cfg.embed_dim)
                .map(|j| ((e * 7 + j) % 5) as f32 * 0.2 - 0.3)
                .collect()
        })
        .collect();
    let model = LogSynergyModel::new(cfg, &mut rand::rngs::StdRng::seed_from_u64(7));
    let windows_owned: Vec<Vec<u32>> = (0..10u32)
        .map(|i| (0..10).map(|j| (i + j) % 4).collect())
        .collect();
    let windows: Vec<&[u32]> = windows_owned.iter().map(|w| w.as_slice()).collect();
    // Ten windows, four per forward: three forwards per scoring call.
    let plan = InferencePlan::from_model(&model).with_batch_size(4);

    let fused_ticks = |score: &dyn Fn()| {
        let before = logsynergy_telemetry::global().snapshot();
        score();
        let after = logsynergy_telemetry::global().snapshot();
        ["nn.fused.attention", "nn.fused.mlp"].map(|name| after.counter_delta(&before, name))
    };
    let f32_ticks = fused_ticks(&|| {
        plan.score_windows(&windows, &table);
    });
    assert_eq!(f32_ticks, [layers * 3; 2], "f32 plan");

    #[cfg(feature = "quant")]
    {
        let calibration = plan.calibrate(&windows, &table);
        let int8 =
            logsynergy::quant::QuantizedModel::from_plan(&plan, &calibration).with_batch_size(4);
        let int8_ticks = fused_ticks(&|| {
            int8.score_windows(&windows, &table);
        });
        assert_eq!(int8_ticks, [layers * 3; 2], "int8 model");
    }
}
