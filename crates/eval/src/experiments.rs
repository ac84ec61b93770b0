//! Runners that regenerate every table and figure of the paper's
//! evaluation (§IV, §V), and the [`REGISTRY`] that names them. Each
//! runner returns a serializable result that [`crate::report`] renders as
//! text in the paper's layout; a registry entry fixes the configuration,
//! target list and grid of one artifact and names its `results/` file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use logsynergy::api::Pipeline;
use logsynergy::data::{prepare_system, EventTextMode};
use logsynergy::trainer::{DaMode, TrainOptions};
use logsynergy_embed::{cosine, HashedEmbedder};
use logsynergy_lei::{LeiConfig, LlmInterpreter, ReviewPolicy};
use logsynergy_loggen::{by_name, datasets, ontology, SyntaxProfile, SystemId};
use logsynergy_logparse::WindowConfig;

use crate::methods::{run_logsynergy_custom, run_method, MethodKind, MethodResult};
use crate::report;
use crate::setup::{prepare, prepare_group, ExperimentConfig, SystemData};

// --------------------------------------------------------------------------
// The registry — one regenerator per paper artifact
// --------------------------------------------------------------------------

/// What a registry runner produced.
pub struct Artifact {
    /// The result rendered in the paper's layout.
    pub text: String,
    /// The result as pretty JSON: the body of its `results/` file.
    pub json: String,
}

impl Artifact {
    fn new<T: Serialize>(text: String, value: &T) -> Artifact {
        Artifact {
            text,
            json: report::to_json(value),
        }
    }
}

/// One regenerable paper artifact.
pub struct Experiment {
    /// The name `logsynergy experiment <name>` takes.
    pub name: &'static str,
    /// The result file's stem: `results/<file>.json`.
    pub file: &'static str,
    /// Regenerates the artifact; `true` selects the quick grid.
    pub run: fn(quick: bool) -> Artifact,
}

/// Every paper artifact, in the order `all` runs them.
pub const REGISTRY: [Experiment; 10] = [
    Experiment::new("table1", "table1_syntax_gap", run_table1),
    Experiment::new("table3", "table3_datasets", run_table3),
    Experiment::new("table4", "table4_public", run_table4),
    Experiment::new("table5", "table5_isp", run_table5),
    Experiment::new("fig4", "fig4_hyperparams", run_fig4),
    Experiment::new("fig5", "fig5_ablation", run_fig5),
    Experiment::new("fig6", "fig6_lessons", run_fig6),
    Experiment::new("fig8", "fig8_case_study", run_fig8),
    Experiment::new("deployment_costs", "deployment_costs", run_deployment_costs),
    Experiment::new("design_ablations", "design_ablations", run_design_ablations),
];

impl Experiment {
    const fn new(name: &'static str, file: &'static str, run: fn(bool) -> Artifact) -> Self {
        Experiment { name, file, run }
    }
}

/// The registry entries `name` selects: one artifact, or every artifact
/// for `all`. The error lists the names there are.
pub fn select(name: &str) -> Result<&'static [Experiment], String> {
    if name == "all" {
        return Ok(&REGISTRY);
    }
    match REGISTRY.iter().position(|e| e.name == name) {
        Some(i) => Ok(&REGISTRY[i..=i]),
        None => {
            let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            Err(format!(
                "unknown experiment: {name} (expected one of {}, all)",
                names.join(", ")
            ))
        }
    }
}

/// Where a result file goes: `results/<file>.json` for a full run, and
/// `target/quick-results/<file>.json` for a quick one, so a smoke run
/// never rewrites a committed file.
pub fn result_path(file: &str, quick: bool) -> PathBuf {
    let root = workspace_root();
    let dir = if quick {
        root.join("target/quick-results")
    } else {
        root.join("results")
    };
    dir.join(format!("{file}.json"))
}

/// The workspace root (two levels above this crate).
fn workspace_root() -> &'static Path {
    let eval = Path::new(env!("CARGO_MANIFEST_DIR"));
    eval.ancestors()
        .nth(2)
        .expect("crates/eval sits two levels down")
}

/// Writes `json` to [`result_path`] and returns the path written.
pub fn save_result(file: &str, quick: bool, json: &str) -> std::io::Result<PathBuf> {
    let path = result_path(file, quick);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The group a system belongs to (public vs ISP), per §IV-A1.
pub fn group_of(system: SystemId) -> [SystemId; 3] {
    match system {
        SystemId::Bgl | SystemId::Spirit | SystemId::Thunderbird => datasets::public_group(),
        _ => datasets::isp_group(),
    }
}

/// The two source systems for a target (the rest of its group).
pub fn sources_of(target: SystemId) -> Vec<SystemId> {
    group_of(target)
        .iter()
        .copied()
        .filter(|&s| s != target)
        .collect()
}

// --------------------------------------------------------------------------
// Table III — dataset statistics
// --------------------------------------------------------------------------

/// One Table III row: paper-scale numbers next to generated numbers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// Paper: number of log lines.
    pub paper_logs: usize,
    /// Paper: number of log sequences.
    pub paper_sequences: usize,
    /// Paper: number of anomalous sequences.
    pub paper_anomalies: usize,
    /// Generated log lines (at the experiment scale).
    pub gen_logs: usize,
    /// Generated sequences.
    pub gen_sequences: usize,
    /// Generated anomalous sequences.
    pub gen_anomalies: usize,
}

/// Regenerates Table III at the experiment scale.
pub fn table3(cfg: &ExperimentConfig) -> Vec<Table3Row> {
    SystemId::ALL
        .iter()
        .map(|&sys| {
            let spec = datasets::spec_for(sys);
            let d = prepare(sys, cfg);
            Table3Row {
                dataset: sys.name().to_string(),
                paper_logs: spec.n_logs,
                paper_sequences: spec.n_logs / 5, // window step 5
                paper_anomalies: spec.target_anomalous_sequences,
                gen_logs: d.n_logs,
                gen_sequences: d.raw.sequences.len(),
                gen_anomalies: d.raw.num_anomalous(),
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Tables IV & V — overall performance
// --------------------------------------------------------------------------

/// Results for one target system (a column block of Table IV/V).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TargetResults {
    /// Target dataset name.
    pub target: String,
    /// One row per method, in paper order.
    pub rows: Vec<MethodResult>,
}

/// Runs the full method battery for every target in a group.
pub fn run_group_table(
    group: [SystemId; 3],
    methods: &[MethodKind],
    cfg: &ExperimentConfig,
) -> Vec<TargetResults> {
    let data = prepare_group(&group, cfg);
    group
        .iter()
        .enumerate()
        .map(|(ti, &target)| {
            let sources: Vec<&SystemData> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ti)
                .map(|(_, d)| d)
                .collect();
            let rows = methods
                .iter()
                .map(|&m| run_method(m, &sources, &data[ti], cfg))
                .collect();
            TargetResults {
                target: target.name().to_string(),
                rows,
            }
        })
        .collect()
}

/// Table IV: the public group (BGL / Spirit / Thunderbird as targets).
pub fn table4(cfg: &ExperimentConfig) -> Vec<TargetResults> {
    run_group_table(datasets::public_group(), &MethodKind::TABLE_METHODS, cfg)
}

/// Table V: the ISP group (Systems A / B / C as targets).
pub fn table5(cfg: &ExperimentConfig) -> Vec<TargetResults> {
    run_group_table(datasets::isp_group(), &MethodKind::TABLE_METHODS, cfg)
}

// --------------------------------------------------------------------------
// Fig. 4 — hyper-parameter sweeps
// --------------------------------------------------------------------------

/// One sweep point: parameter value → F1 per target.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// (target name, F1 %) pairs.
    pub f1_by_target: Vec<(String, f64)>,
}

fn sweep<F: Fn(&mut ExperimentConfig, f64)>(
    targets: &[SystemId],
    values: &[f64],
    base: &ExperimentConfig,
    apply: F,
) -> Vec<SweepPoint> {
    // Prepare each target's group once per target (reused across values).
    let prepared: Vec<(SystemId, Vec<SystemData>)> = targets
        .iter()
        .map(|&t| {
            let mut systems = sources_of(t);
            systems.push(t);
            (t, prepare_group(&systems, base))
        })
        .collect();
    values
        .iter()
        .map(|&v| {
            let f1_by_target = prepared
                .iter()
                .map(|(t, data)| {
                    let mut cfg = base.clone();
                    apply(&mut cfg, v);
                    let n = data.len();
                    let sources: Vec<&SystemData> = data[..n - 1].iter().collect();
                    let r = run_method(MethodKind::LogSynergy, &sources, &data[n - 1], &cfg);
                    (t.name().to_string(), r.prf.f1)
                })
                .collect();
            SweepPoint {
                value: v,
                f1_by_target,
            }
        })
        .collect()
}

/// Fig. 4a: F1 vs λ_MI over the paper's grid {0.001, 0.01, 0.05, 0.1, 0.5}.
pub fn fig4a(targets: &[SystemId], cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    sweep(targets, &[0.001, 0.01, 0.05, 0.1, 0.5], cfg, |c, v| {
        c.lambda_mi = v as f32
    })
}

/// Fig. 4b: F1 vs n_s. The paper sweeps 10k..80k; values here are
/// fractions of the configured n_source grid.
pub fn fig4b(targets: &[SystemId], values: &[usize], cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    let vals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sweep(targets, &vals, cfg, |c, v| c.n_source = v as usize)
}

/// Fig. 4c: F1 vs n_t (paper sweeps 1k..8k). The test region is pinned at
/// the grid maximum so every sweep point is evaluated on the same
/// held-out windows (otherwise small n_t would be scored on the easy
/// early-stream region).
pub fn fig4c(targets: &[SystemId], values: &[usize], cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    let vals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let pin = values.iter().copied().max().unwrap_or(cfg.n_target);
    sweep(targets, &vals, cfg, move |c, v| {
        c.n_target = v as usize;
        c.test_from = pin;
    })
}

// --------------------------------------------------------------------------
// Fig. 5 — ablation study
// --------------------------------------------------------------------------

/// Ablation rows for one target.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationResult {
    /// Target dataset name.
    pub target: String,
    /// Full LogSynergy.
    pub full: MethodResult,
    /// w/o LEI.
    pub no_lei: MethodResult,
    /// w/o SUFE.
    pub no_sufe: MethodResult,
    /// Direct application of NeuralLog (source-trained).
    pub neurallog_direct: MethodResult,
}

/// Fig. 5: ablation across the requested targets.
pub fn fig5(targets: &[SystemId], cfg: &ExperimentConfig) -> Vec<AblationResult> {
    targets
        .iter()
        .map(|&t| {
            let mut systems = sources_of(t);
            systems.push(t);
            let data = prepare_group(&systems, cfg);
            let n = data.len();
            let sources: Vec<&SystemData> = data[..n - 1].iter().collect();
            let target = &data[n - 1];
            AblationResult {
                target: t.name().to_string(),
                full: run_method(MethodKind::LogSynergy, &sources, target, cfg),
                no_lei: run_method(MethodKind::LogSynergyNoLei, &sources, target, cfg),
                no_sufe: run_method(MethodKind::LogSynergyNoSufe, &sources, target, cfg),
                neurallog_direct: run_method(MethodKind::NeuralLogDirect, &sources, target, cfg),
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Fig. 6 — cross-group transfer (Lesson Learned)
// --------------------------------------------------------------------------

/// One cross-group transfer result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransferResult {
    /// Source system.
    pub source: String,
    /// Target system.
    pub target: String,
    /// LogSynergy's result on the target.
    pub result: MethodResult,
}

/// Fig. 6: the four single-source cross-group transfers of §V —
/// BGL→System B, Spirit→System C, System B→BGL, System C→Spirit.
pub fn fig6(cfg: &ExperimentConfig) -> Vec<TransferResult> {
    let pairs = [
        (SystemId::Bgl, SystemId::SystemB),
        (SystemId::Spirit, SystemId::SystemC),
        (SystemId::SystemB, SystemId::Bgl),
        (SystemId::SystemC, SystemId::Spirit),
    ];
    // One source system instead of the usual two: double n_s so the total
    // source-sample budget matches the group experiments.
    let mut cfg = cfg.clone();
    cfg.n_source *= 2;
    pairs
        .iter()
        .map(|&(src, tgt)| {
            let data = prepare_group(&[src, tgt], &cfg);
            let sources: Vec<&SystemData> = vec![&data[0]];
            let result = run_method(MethodKind::LogSynergy, &sources, &data[1], &cfg);
            TransferResult {
                source: src.name().to_string(),
                target: tgt.name().to_string(),
                result,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Fig. 8 — case study
// --------------------------------------------------------------------------

/// The Fig. 8 case study: a *normal* target log event whose raw
/// word-level representation is misleadingly similar to an *anomalous*
/// source event (the mechanism behind LogTransfer's false positive), and
/// how LEI interpretations dissolve that similarity by keeping only the
/// essential event meaning.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Raw template of the normal System A event.
    pub target_templates: Vec<String>,
    /// Raw template of the similar-looking anomalous System C event.
    pub source_templates: Vec<String>,
    /// LEI interpretation of the target event.
    pub target_interpretations: Vec<String>,
    /// LEI interpretation of the source event.
    pub source_interpretations: Vec<String>,
    /// Cosine similarity of the two events under raw embeddings.
    pub raw_similarity: f32,
    /// Cosine similarity under LEI-interpreted embeddings.
    pub lei_similarity: f32,
    /// Misleadingness under raw embeddings: similarity to the anomalous
    /// source event minus similarity to the nearest *normal* source event.
    /// Positive = the normal target event looks more like a source anomaly
    /// than like any source normal (LogTransfer's false-positive trigger).
    pub raw_margin: f32,
    /// The same margin under LEI interpretations. Negative = the nearest
    /// source neighbor is now a normal event; the false positive dissolves.
    pub lei_margin: f32,
}

/// Fig. 8: finds the *normal* System A event whose raw representation is
/// most similar to an *anomalous* System C event (the two systems share
/// much vocabulary), then shows LEI interpretations reduce the similarity.
pub fn fig8_case_study(cfg: &ExperimentConfig) -> CaseStudy {
    let data = prepare_group(&[SystemId::SystemC, SystemId::SystemA], cfg);
    let (src, tgt) = (&data[0], &data[1]);

    // Anomalous source events = templates whose interpretation matches an
    // anomalous concept; normal target events = the rest.
    let anomaly_texts: std::collections::HashSet<&'static str> = logsynergy_loggen::ontology()
        .iter()
        .filter(|c| c.anomalous)
        .map(|c| c.interpretation)
        .collect();
    let src_anom: Vec<usize> = (0..src.lei.event_texts.len())
        .filter(|&i| anomaly_texts.contains(src.lei.event_texts[i].as_str()))
        .collect();
    let tgt_norm: Vec<usize> = (0..tgt.lei.event_texts.len())
        .filter(|&i| !anomaly_texts.contains(tgt.lei.event_texts[i].as_str()))
        .collect();
    assert!(!src_anom.is_empty() && !tgt_norm.is_empty());

    let src_norm: Vec<usize> = (0..src.lei.event_texts.len())
        .filter(|&i| !anomaly_texts.contains(src.lei.event_texts[i].as_str()))
        .collect();
    // Misleadingness margin of pairing target event `t` with anomalous
    // source event `s`: how much closer `t` sits to the anomaly than to
    // any *normal* source event, under the given embedding table.
    let margin = |t: usize, s: usize, t_table: &[Vec<f32>], s_table: &[Vec<f32>]| {
        let to_anom = cosine(&t_table[t], &s_table[s]);
        let to_best_normal = src_norm
            .iter()
            .map(|&n| cosine(&t_table[t], &s_table[n]))
            .fold(f32::NEG_INFINITY, f32::max);
        to_anom - to_best_normal
    };

    // The case: the (normal target, anomalous source) pair with the most
    // misleading raw representation.
    let mut best = (tgt_norm[0], src_anom[0], f32::NEG_INFINITY);
    for &t in &tgt_norm {
        for &s in &src_anom {
            let m = margin(t, s, &tgt.raw.event_embeddings, &src.raw.event_embeddings);
            if m > best.2 {
                best = (t, s, m);
            }
        }
    }
    let (ti, sj, raw_margin) = best;
    let lei_margin = margin(ti, sj, &tgt.lei.event_embeddings, &src.lei.event_embeddings);
    CaseStudy {
        target_templates: vec![tgt.raw.templates[ti].clone()],
        source_templates: vec![src.raw.templates[sj].clone()],
        target_interpretations: vec![tgt.lei.event_texts[ti].clone()],
        source_interpretations: vec![src.lei.event_texts[sj].clone()],
        raw_similarity: cosine(&tgt.raw.event_embeddings[ti], &src.raw.event_embeddings[sj]),
        lei_similarity: cosine(&tgt.lei.event_embeddings[ti], &src.lei.event_embeddings[sj]),
        raw_margin,
        lei_margin,
    }
}

// --------------------------------------------------------------------------
// Table I — the cross-system syntax gap
// --------------------------------------------------------------------------

/// One Table I cell: an anomalous event as one system renders it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyntaxRow {
    /// Ontology concept name.
    pub event: String,
    /// System whose syntax rendered it.
    pub system: String,
    /// The rendered log message.
    pub message: String,
    /// LEI's interpretation of the message's template.
    pub interpretation: String,
}

/// The syntax gap for one event across the six systems.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GapStats {
    /// Ontology concept name.
    pub event: String,
    /// Mean pairwise cosine of the raw templates.
    pub mean_raw_cosine: f32,
    /// Mean pairwise cosine of the LEI interpretations.
    pub mean_lei_cosine: f32,
}

/// Table I: renders the same anomalous events through every system's
/// syntax profile and measures the gap (mean pairwise cosine) before and
/// after LEI. Panics unless LEI narrows the gap for every event.
pub fn table1() -> (Vec<SyntaxRow>, Vec<GapStats>) {
    let concepts = ontology();
    let lei = LlmInterpreter::new(LeiConfig {
        hallucination_rate: 0.0,
        ..Default::default()
    });
    let embedder = HashedEmbedder::new(64, 0xE1B);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for name in ["network_interruption", "parity_error"] {
        let c = &concepts[by_name(&concepts, name).0 as usize];
        let mut raws = Vec::new();
        let mut leis = Vec::new();
        for sys in SystemId::ALL {
            let p = SyntaxProfile::new(sys, &concepts);
            let message = p.render(c, &mut rng);
            let template = p.template_text(c);
            let interpretation = lei.interpret(sys, &template).text;
            raws.push(embedder.embed(&template));
            leis.push(embedder.embed(&interpretation));
            rows.push(SyntaxRow {
                event: name.into(),
                system: sys.name().into(),
                message,
                interpretation,
            });
        }
        let mean = |vs: &[Vec<f32>]| {
            let mut s = 0.0;
            let mut n = 0;
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    s += cosine(&vs[i], &vs[j]);
                    n += 1;
                }
            }
            s / n as f32
        };
        let g = GapStats {
            event: name.into(),
            mean_raw_cosine: mean(&raws),
            mean_lei_cosine: mean(&leis),
        };
        assert!(
            g.mean_lei_cosine > g.mean_raw_cosine,
            "LEI must close the gap"
        );
        gaps.push(g);
    }
    (rows, gaps)
}

// --------------------------------------------------------------------------
// §VI-B — deployment costs
// --------------------------------------------------------------------------

/// LEI generation + review cost for one dataset (§VI-B2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeiCost {
    /// Dataset name.
    pub dataset: String,
    /// Templates interpreted.
    pub templates: usize,
    /// Wall time of the whole preparation (parse + LEI + review + embed).
    pub interpret_secs: f64,
    /// Interpretations regenerated for failing the format check.
    pub review_regenerated: usize,
    /// Interpretations repaired during operator review.
    pub review_repaired: usize,
    /// Regenerations forced by the self-consistency check.
    pub consistency_regens: usize,
}

/// Offline training cost for one target (§VI-B3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainCost {
    /// Target dataset name.
    pub target: String,
    /// Training sequences (both sources plus the target slice).
    pub train_sequences: usize,
    /// Model parameter count.
    pub parameters: usize,
    /// Wall time of the fit.
    pub train_secs: f64,
}

/// §VI-B: LEI cost per dataset ("a few hundred templates" — panics at
/// 500 or more) and the offline training time for System B.
pub fn deployment_costs(cfg: &ExperimentConfig) -> (Vec<LeiCost>, TrainCost) {
    let lei_costs = SystemId::ALL
        .iter()
        .map(|&sys| {
            let t0 = Instant::now();
            let d = prepare(sys, cfg);
            let c = LeiCost {
                dataset: sys.name().into(),
                templates: d.lei.templates.len(),
                interpret_secs: t0.elapsed().as_secs_f64(),
                review_regenerated: d.lei.review_stats.regenerated,
                review_repaired: d.lei.review_stats.repaired,
                consistency_regens: d.lei.review_stats.consistency_regens,
            };
            assert!(
                c.templates < 500,
                "a few hundred templates at most (paper §VI-B2)"
            );
            c
        })
        .collect();

    let mut p = Pipeline::scaled();
    p.train_config.epochs = cfg.epochs;
    p.train_config.n_source = cfg.n_source;
    p.train_config.n_target = cfg.n_target;
    let src1 =
        p.prepare(&datasets::system_a().generate_with(cfg.scale_for(SystemId::SystemA), 4.0));
    let src2 =
        p.prepare(&datasets::system_c().generate_with(cfg.scale_for(SystemId::SystemC), 4.0));
    let tgt = p.prepare(&datasets::system_b().generate_with(cfg.scale_for(SystemId::SystemB), 4.0));
    let t0 = Instant::now();
    let (model, _) = p.fit(&[&src1, &src2], &tgt);
    let train = TrainCost {
        target: "System B".into(),
        train_sequences: cfg.n_source * 2 + cfg.n_target,
        parameters: model.num_parameters(),
        train_secs: t0.elapsed().as_secs_f64(),
    };
    (lei_costs, train)
}

// --------------------------------------------------------------------------
// Design ablations — the knobs DESIGN.md calls out, beyond Fig. 5
// --------------------------------------------------------------------------

/// One design-ablation point. `f1` is an F1 % for the trained knobs, an
/// anomaly rate % for `window`, and a wrong-interpretation rate % for the
/// `hallucination_*` knobs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The knob varied.
    pub knob: String,
    /// Its value.
    pub value: String,
    /// The measured percentage.
    pub f1: f64,
}

/// Design ablations on Thunderbird: domain-adaptation mode, λ_DA,
/// embedding dimension, window geometry, and LEI hallucination with and
/// without self-consistency review. `quick` trims every grid.
pub fn design_ablations(quick: bool) -> Vec<DesignPoint> {
    let target = SystemId::Thunderbird;
    let base = ExperimentConfig::quick();
    let mut points = Vec::new();
    let mut point = |knob: &str, value: String, f1: f64| {
        points.push(DesignPoint {
            knob: knob.into(),
            value,
            f1,
        })
    };
    let group = |cfg: &ExperimentConfig| {
        let mut systems = sources_of(target);
        systems.push(target);
        prepare_group(&systems, cfg)
    };
    let f1_for = |cfg: &ExperimentConfig| {
        let data = group(cfg);
        let n = data.len();
        let sources: Vec<&SystemData> = data[..n - 1].iter().collect();
        run_method(MethodKind::LogSynergy, &sources, &data[n - 1], cfg)
            .prf
            .f1
    };

    // Domain-adaptation variant: DAAN (the paper) vs linear MMD vs none.
    {
        let data = group(&base);
        let n = data.len();
        let sources: Vec<&SystemData> = data[..n - 1].iter().collect();
        let modes: &[DaMode] = if quick {
            &[DaMode::Daan]
        } else {
            &[DaMode::Daan, DaMode::Mmd, DaMode::Off]
        };
        for &mode in modes {
            let opts = TrainOptions {
                use_sufe: true,
                da: mode,
            };
            let r = run_logsynergy_custom(&sources, &data[n - 1], &base, opts, true);
            point("da_mode", format!("{mode:?}"), r.prf.f1);
        }
    }

    // λ_DA sweep (the DA analogue of Fig. 4a).
    let da_grid: &[f32] = if quick {
        &[0.01, 0.5]
    } else {
        &[0.0, 0.01, 0.1, 0.5]
    };
    for &lda in da_grid {
        let f1 = f1_for(&ExperimentConfig {
            lambda_da: lda,
            ..base.clone()
        });
        point("lambda_da", lda.to_string(), f1);
    }

    // Embedding dimensionality.
    let dims: &[usize] = if quick { &[32, 64] } else { &[16, 32, 64, 128] };
    for &d in dims {
        let f1 = f1_for(&ExperimentConfig {
            embed_dim: d,
            ..base.clone()
        });
        point("embed_dim", d.to_string(), f1);
    }

    // Window geometry effect on sequence construction (via Drain windows).
    for (len, step) in [(10usize, 5usize), (20, 10)] {
        let ds = base.generate(target);
        let emb = HashedEmbedder::new(base.embed_dim, 0xE1B);
        let prep = prepare_system(
            &ds,
            &EventTextMode::Interpreted(LeiConfig::default()),
            &emb,
            WindowConfig { length: len, step },
        );
        let rate = prep.num_anomalous() as f64 / prep.sequences.len() as f64;
        point("window", format!("{len}/{step}"), rate * 100.0);
    }

    // LEI failure sensitivity: hallucination rate × self-consistency review
    // (the §IV-E2 internal threat: unreviewed hallucinations poison
    // training; the review workflow mitigates). The experiment pipeline
    // always reviews, so this measures the raw interpretation error rate.
    let hall_grid: &[f64] = if quick { &[0.05] } else { &[0.02, 0.05, 0.1] };
    let concepts = ontology();
    let profile = SyntaxProfile::new(target, &concepts);
    let templates: Vec<String> = concepts.iter().map(|c| profile.template_text(c)).collect();
    for &h in hall_grid {
        let lei = LlmInterpreter::new(LeiConfig {
            hallucination_rate: h,
            ..LeiConfig::default()
        });
        let wrong = |policy: &ReviewPolicy| {
            let (outs, _) = logsynergy_lei::interpret_with_review(&lei, target, &templates, policy);
            outs.iter()
                .zip(&concepts)
                .filter(|(o, c)| o.matched_concept != Some(c.name))
                .count() as f64
                / concepts.len() as f64
        };
        let raw_err = wrong(&ReviewPolicy {
            consistency_samples: 1,
            ..Default::default()
        });
        let reviewed_err = wrong(&ReviewPolicy::default());
        point("hallucination_raw", h.to_string(), raw_err * 100.0);
        point(
            "hallucination_reviewed",
            h.to_string(),
            reviewed_err * 100.0,
        );
    }
    points
}

// --------------------------------------------------------------------------
// Registry runners: each artifact's configuration, targets and grids
// --------------------------------------------------------------------------

fn run_table1(_quick: bool) -> Artifact {
    let (rows, gaps) = table1();
    let mut text = String::new();
    for (g, block) in gaps.iter().zip(rows.chunks(SystemId::ALL.len())) {
        let _ = writeln!(text, "== {} ==", g.event);
        for r in block {
            let _ = writeln!(text, "  {:<12} {}", r.system, r.message);
            let _ = writeln!(text, "  {:<12} -> {}", "", r.interpretation);
        }
        let _ = writeln!(
            text,
            "  mean pairwise cosine: raw {:.3} -> LEI {:.3}",
            g.mean_raw_cosine, g.mean_lei_cosine
        );
    }
    Artifact::new(text, &(rows, gaps))
}

fn run_table3(quick: bool) -> Artifact {
    let cfg = if quick {
        ExperimentConfig {
            logs_per_dataset: 4_000,
            ..ExperimentConfig::quick()
        }
    } else {
        ExperimentConfig::default()
    };
    let rows = table3(&cfg);
    Artifact::new(report::render_table3(&rows), &rows)
}

/// Tables IV and V: the quick or the default configuration.
fn group_config(quick: bool) -> ExperimentConfig {
    if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    }
}

fn run_table4(quick: bool) -> Artifact {
    let results = table4(&group_config(quick));
    let text = report::render_group_table("Table IV: public datasets", &results);
    Artifact::new(text, &results)
}

fn run_table5(quick: bool) -> Artifact {
    let results = table5(&group_config(quick));
    let text = report::render_group_table("Table V: ISP datasets", &results);
    Artifact::new(text, &results)
}

/// The quick grids' targets: one public and one ISP system.
const QUICK_TARGETS: [SystemId; 2] = [SystemId::Thunderbird, SystemId::SystemB];

fn run_fig4(quick: bool) -> Artifact {
    let cfg = ExperimentConfig::quick();
    // All six targets for the λ sweep (the paper's Fig. 4a plots all six).
    let (targets_a, targets_bc) = if quick {
        (QUICK_TARGETS.to_vec(), QUICK_TARGETS.to_vec())
    } else {
        (
            SystemId::ALL.to_vec(),
            vec![SystemId::Bgl, SystemId::Thunderbird, SystemId::SystemB],
        )
    };
    let a = fig4a(&targets_a, &cfg);
    // n_s and n_t: 8 points like the paper's 10k..80k and 1k..8k grids,
    // scaled to the configured n_s / n_t.
    let ns: Vec<usize> = (1..=8).map(|i| i * cfg.n_source / 5).collect();
    let b = fig4b(&targets_bc, &ns, &cfg);
    let nt: Vec<usize> = (1..=8).map(|i| i * cfg.n_target / 5).collect();
    let c = fig4c(&targets_bc, &nt, &cfg);
    let text = [
        report::render_sweep("Fig. 4a: F1 vs lambda_MI", &a),
        report::render_sweep("Fig. 4b: F1 vs n_s", &b),
        report::render_sweep("Fig. 4c: F1 vs n_t", &c),
    ]
    .join("\n");
    Artifact::new(text, &(a, b, c))
}

fn run_fig5(quick: bool) -> Artifact {
    let targets = if quick {
        QUICK_TARGETS.to_vec()
    } else {
        SystemId::ALL.to_vec()
    };
    let results = fig5(&targets, &ExperimentConfig::quick());
    Artifact::new(report::render_ablation(&results), &results)
}

fn run_fig6(_quick: bool) -> Artifact {
    let results = fig6(&ExperimentConfig::quick());
    Artifact::new(report::render_transfers(&results), &results)
}

fn run_fig8(_quick: bool) -> Artifact {
    let cs = fig8_case_study(&ExperimentConfig {
        logs_per_dataset: 8_000,
        ..ExperimentConfig::quick()
    });
    Artifact::new(report::render_case_study(&cs), &cs)
}

fn run_deployment_costs(_quick: bool) -> Artifact {
    let (lei_costs, train) = deployment_costs(&ExperimentConfig::quick());
    let mut text = String::from("== LEI generation + review cost per dataset ==\n");
    for c in &lei_costs {
        let _ = writeln!(
            text,
            "{:<12} {:>4} templates  prep {:>5.1}s  format-regens {}  repairs {}  consistency {}",
            c.dataset,
            c.templates,
            c.interpret_secs,
            c.review_regenerated,
            c.review_repaired,
            c.consistency_regens
        );
    }
    let _ = writeln!(
        text,
        "\n== offline training time (scaled; paper: ~10 min at full scale) ==\n\
         {}: {} sequences, {} parameters, {:.1}s",
        train.target, train.train_sequences, train.parameters, train.train_secs
    );
    Artifact::new(text, &(lei_costs, train))
}

fn run_design_ablations(quick: bool) -> Artifact {
    let points = design_ablations(quick);
    let mut text = String::from(
        "Design ablations on Thunderbird (%: F1; window: anomaly rate; \
         hallucination: wrong interpretations)\n",
    );
    for p in &points {
        let _ = writeln!(text, "  {:<24} {:>8} {:>7.2}", p.knob, p.value, p.f1);
    }
    Artifact::new(text, &points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_files_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let mut files: Vec<&str> = REGISTRY.iter().map(|e| e.file).collect();
        names.sort_unstable();
        names.dedup();
        files.sort_unstable();
        files.dedup();
        assert_eq!(names.len(), REGISTRY.len());
        assert_eq!(files.len(), REGISTRY.len());
        assert!(!names.contains(&"all"), "`all` selects the whole registry");
        assert_eq!(select("all").unwrap().len(), REGISTRY.len());
        assert_eq!(select("fig6").unwrap()[0].file, "fig6_lessons");
    }

    #[test]
    fn quick_results_never_land_in_results() {
        for e in &REGISTRY {
            let full = result_path(e.file, false);
            let quick = result_path(e.file, true);
            assert!(full.ends_with(format!("results/{}.json", e.file)));
            assert!(quick.ends_with(format!("target/quick-results/{}.json", e.file)));
        }
    }

    /// Every committed `results/*.json` has exactly one producer: a
    /// registry entry, or a bench in `crates/bench/benches` that names
    /// the file in its `write_result` call.
    #[test]
    fn every_committed_result_has_exactly_one_producer() {
        let root = workspace_root();
        let mut producers: Vec<String> = REGISTRY.iter().map(|e| e.file.to_string()).collect();
        for bench in std::fs::read_dir(root.join("crates/bench/benches")).unwrap() {
            let src = std::fs::read_to_string(bench.unwrap().path()).unwrap();
            for call in src.split("write_result(\"").skip(1) {
                producers.push(call.split('"').next().unwrap().to_string());
            }
        }
        let mut committed: Vec<String> = std::fs::read_dir(root.join("results"))
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        committed.sort();
        for file in &committed {
            let n = producers.iter().filter(|p| *p == file).count();
            assert_eq!(n, 1, "results/{file}.json has {n} producers");
        }
        producers.sort();
        assert_eq!(producers, committed, "a producer without a committed file");
    }

    #[test]
    fn table1_through_the_registry_is_deterministic_and_closes_the_gap() {
        let table1 = &select("table1").unwrap()[0];
        let first = (table1.run)(false);
        assert_eq!(first.json, (table1.run)(false).json);
        assert_eq!(first.text, (table1.run)(true).text);
        let (rows, gaps): (Vec<SyntaxRow>, Vec<GapStats>) =
            serde_json::from_str(&first.json).unwrap();
        assert_eq!(rows.len(), 2 * SystemId::ALL.len());
        assert_eq!(gaps.len(), 2);
        for g in &gaps {
            assert!(g.mean_lei_cosine > g.mean_raw_cosine, "{g:?}");
        }
    }

    #[test]
    fn groups_partition_the_six_systems() {
        for sys in SystemId::ALL {
            let g = group_of(sys);
            assert!(g.contains(&sys));
            assert_eq!(sources_of(sys).len(), 2);
            assert!(!sources_of(sys).contains(&sys));
        }
    }

    #[test]
    fn table3_reports_all_six_datasets() {
        let cfg = ExperimentConfig {
            logs_per_dataset: 2_500,
            ..ExperimentConfig::quick()
        };
        let rows = table3(&cfg);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].dataset, "BGL");
        assert_eq!(rows[0].paper_logs, 1_356_817);
        assert_eq!(rows[0].paper_anomalies, 29_092);
        for r in &rows {
            assert!(r.gen_sequences > 0);
            assert!(r.gen_anomalies > 0, "{}: no anomalies generated", r.dataset);
        }
    }

    #[test]
    fn fig8_case_study_shows_similarity_reduction() {
        let cfg = ExperimentConfig {
            logs_per_dataset: 4_000,
            ..ExperimentConfig::quick()
        };
        let cs = fig8_case_study(&cfg);
        assert!(
            cs.raw_margin > 0.0,
            "a misleading raw pair must exist (margin {})",
            cs.raw_margin
        );
        assert!(
            cs.lei_margin < 0.0,
            "under LEI the nearest source neighbor must be normal (margin {})",
            cs.lei_margin
        );
        assert!(!cs.target_interpretations.is_empty());
    }
}
