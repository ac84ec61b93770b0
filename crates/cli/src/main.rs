//! `logsynergy` — the LogSynergy-RS command line.
//!
//! ```text
//! logsynergy generate   --system bgl --logs 20000 --out bgl.log
//! logsynergy train      --target thunderbird --out model.json
//! logsynergy detect     --model model.json --target thunderbird
//! logsynergy experiment table4 [--quick]
//! logsynergy pipeline   --target system-b
//! ```

mod args;

use std::process::ExitCode;

use args::Args;
use logsynergy::api::Pipeline;
use logsynergy::detector::Detector;
use logsynergy::persist;
use logsynergy_eval::experiments::{self, sources_of};
use logsynergy_eval::{ExperimentConfig, Prf};
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MessagingSink, ModelScorer, PipelineConfig, RawLog,
};

const USAGE: &str = "\
logsynergy <command> [options]

An option a command does not list below is refused, not ignored.

commands:
  generate    synthesize a system's log stream
                --system <bgl|spirit|thunderbird|system-a|system-b|system-c>
                --logs <n>          target log-line count (default 20000)
                --boost <f>         anomaly density boost (default 3)
                --out <path>        write messages (default stdout)
                --labels <path>     also write per-line 0/1 labels
                --metrics-out <p>   write a JSON telemetry snapshot when done
                --metrics-listen <a> serve /metrics over HTTP while running
  train       train LogSynergy for a target system (sources = its group)
                --target <system>   required
                --logs <n>          logs per dataset (default 30000)
                --epochs <n>        training epochs (default 5)
                --quick             start from the quick experiment scale
                --n-source <n>      labeled source sequences per system
                --n-target <n>      labeled target sequences
                --out <path>        save the trained model (default model.json)
                --metrics-out <p>   write a JSON telemetry snapshot when done
                --metrics-listen <a> serve /metrics over HTTP while running
  detect      score a target's held-out stream with a saved model
                --model <path>      required
                --target <system>   required (must match training)
                --logs <n>          must match training (default 30000)
                --quick             must match training
                --n-target <n>      must match training
                --metrics-out <p>   write a JSON telemetry snapshot when done
                --metrics-listen <a> serve /metrics over HTTP while running
  experiment  regenerate a paper artifact into results/<file>.json
                <name>              one of: table1 table3 table4 table5 fig4
                                    fig5 fig6 fig8 deployment_costs
                                    design_ablations all
                --quick             the smaller grid, written under
                                    target/quick-results/ instead
  pipeline    run the Fig. 7 deployment demo for a target system
                --target <system>   (default system-b)
                --workers <n>       buffer partitions / detection workers (default 4)
                --batch <n>         micro-batch window cap per model call (default 64)
                --cache <n>         window-score LRU capacity, 0 disables (default 4096)
                --max-retries <n>   per-batch retry budget for transient model
                                    failures and panicking attempts (default 2)
                --shed-watermark <n> queue depth above which batches are served
                                    from the cheap tiers only, 0 disables (default 0)
                --library-capacity <n> per-worker pattern-library LRU capacity,
                                    0 = unbounded (default 0)
                --core-budget <n>   kernel-thread budget split across workers,
                                    0 = auto (default 0); composes with
                                    LOGSYNERGY_NN_THREADS and --workers
                --quant             serve with the calibrated int8 scorer
                                    (requires a build with --features quant)
                --wal-dir <p>       durable mode: write-ahead-log every record
                                    before detection and resume from the
                                    per-partition cursors (see docs/wal.md)
                --metrics-out <p>   write a JSON telemetry snapshot when done
                --metrics-listen <a> serve /metrics over HTTP while running
  serve       run the multi-tenant TCP ingest daemon (see docs/ingest.md);
              SIGTERM/SIGINT triggers a graceful drain and prints a final
              accounting summary as JSON on stdout
                --tenants-file <p>  required; tenant/token/quota config,
                                    hot-reloaded while running
                --listen <addr>     bind address (default 127.0.0.1:4517;
                                    port 0 picks an ephemeral port)
                --target <system>   system the quick-trained model serves
                                    (default system-b)
                --drain-timeout <s> in-flight flush budget on shutdown
                                    (default 5)
                --workers <n>       buffer partitions / detection workers
                                    (default 4)
                --batch <n>         micro-batch window cap (default 64)
                --cache <n>         window-score LRU capacity (default 4096)
                --shed-watermark <n> queue depth above which ingest answers
                                    503 shed frames, 0 disables (default 0)
                --wal-dir <p>       durable mode: log every accepted record
                                    before acknowledging it and replay
                                    unacked records on restart (docs/wal.md)
                --ingest-batch <n>  most records a handler group-commits
                                    per partition flush; a flush also
                                    happens whenever the client's input
                                    runs dry; 1 = per-record (default 64)
                --addr-file <p>     write the bound addresses as JSON once
                                    the daemon is ready
                --metrics-out <p>   write a JSON telemetry snapshot when done
                --metrics-listen <a> serve /metrics over HTTP while running
";

/// Optional observability for a command: an HTTP exporter held open for the
/// command's lifetime (`--metrics-listen`) and a JSON snapshot written once
/// the work is done (`--metrics-out`).
struct Metrics {
    out: Option<String>,
    server: Option<logsynergy_telemetry::MetricsServer>,
}

impl Metrics {
    fn start(a: &Args) -> Result<Self, String> {
        let server = match a.get("metrics-listen") {
            Some(addr) => {
                let s = logsynergy_telemetry::serve(addr)
                    .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
                eprintln!("serving metrics on http://{}/metrics", s.addr());
                Some(s)
            }
            None => None,
        };
        Ok(Metrics {
            out: a.get("metrics-out").map(str::to_string),
            server,
        })
    }

    fn finish(self) -> Result<(), String> {
        if let Some(path) = &self.out {
            let json = logsynergy_telemetry::json_snapshot(logsynergy_telemetry::global());
            std::fs::write(path, json).map_err(|e| format!("--metrics-out {path}: {e}"))?;
            eprintln!("wrote metrics snapshot to {path}");
        }
        drop(self.server);
        Ok(())
    }
}

fn system_of(name: &str) -> Result<SystemId, String> {
    match name.to_ascii_lowercase().as_str() {
        "bgl" => Ok(SystemId::Bgl),
        "spirit" => Ok(SystemId::Spirit),
        "thunderbird" | "tbird" => Ok(SystemId::Thunderbird),
        "system-a" | "a" => Ok(SystemId::SystemA),
        "system-b" | "b" => Ok(SystemId::SystemB),
        "system-c" | "c" => Ok(SystemId::SystemC),
        other => Err(format!("unknown system: {other}")),
    }
}

fn cfg_from(a: &Args) -> Result<ExperimentConfig, String> {
    let mut cfg = if a.flag("quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    cfg.logs_per_dataset = a.num("logs", cfg.logs_per_dataset)?;
    cfg.epochs = a.num("epochs", cfg.epochs)?;
    cfg.n_source = a.num("n-source", cfg.n_source)?;
    cfg.n_target = a.num("n-target", cfg.n_target)?;
    Ok(cfg)
}

fn cmd_generate(a: &Args) -> Result<(), String> {
    let system = system_of(a.get("system").ok_or("--system is required")?)?;
    let logs: usize = a.num("logs", 20_000usize)?;
    let boost: f64 = a.num("boost", 3.0f64)?;
    let metrics = Metrics::start(a)?;
    let spec = datasets::spec_for(system);
    let scale = (logs as f64 / spec.n_logs as f64).min(1.0);
    let ds = spec.generate_with(scale, boost);
    let mut out = String::with_capacity(ds.records.len() * 64);
    let mut labels = String::with_capacity(ds.records.len() * 2);
    for r in &ds.records {
        out.push_str(&r.message);
        out.push('\n');
        labels.push(if r.anomalous { '1' } else { '0' });
        labels.push('\n');
    }
    match a.get("out") {
        Some(path) => std::fs::write(path, out).map_err(|e| e.to_string())?,
        None => print!("{out}"),
    }
    if let Some(path) = a.get("labels") {
        std::fs::write(path, labels).map_err(|e| e.to_string())?;
    }
    eprintln!(
        "generated {} logs ({} anomalous) for {}",
        ds.records.len(),
        ds.num_anomalous_logs(),
        system.name()
    );
    metrics.finish()
}

fn build_pipeline(cfg: &ExperimentConfig) -> Pipeline {
    let mut p = Pipeline::scaled();
    p.model_config = cfg.model_config(2);
    p.train_config = cfg.train_config();
    p
}

fn cmd_train(a: &Args) -> Result<(), String> {
    let target = system_of(a.get("target").ok_or("--target is required")?)?;
    let cfg = cfg_from(a)?;
    let out = a.get_or("out", "model.json");
    let metrics = Metrics::start(a)?;
    let sources = sources_of(target);
    eprintln!(
        "training LogSynergy for {} with sources {:?}…",
        target.name(),
        sources.iter().map(|s| s.name()).collect::<Vec<_>>()
    );
    let p = build_pipeline(&cfg);
    let src_data: Vec<_> = sources
        .iter()
        .map(|&s| p.prepare(&cfg.generate(s)))
        .collect();
    let tgt_data = p.prepare(&cfg.generate(target));
    let src_refs: Vec<_> = src_data.iter().collect();
    let (model, history) = p.fit(&src_refs, &tgt_data);
    persist::save(&model, out).map_err(|e| e.to_string())?;
    eprintln!(
        "saved {} ({} parameters, final loss {:.4})",
        out,
        model.num_parameters(),
        history.last().map(|h| h.total).unwrap_or(f32::NAN)
    );
    metrics.finish()
}

fn cmd_detect(a: &Args) -> Result<(), String> {
    let target = system_of(a.get("target").ok_or("--target is required")?)?;
    let model_path = a.get("model").ok_or("--model is required")?;
    let cfg = cfg_from(a)?;
    let metrics = Metrics::start(a)?;
    let model = persist::load(model_path).map_err(|e| e.to_string())?;
    let p = build_pipeline(&cfg);
    let tgt = p.prepare(&cfg.generate(target));
    let (_, test) = tgt.split(cfg.n_target, cfg.max_test);
    let truth: Vec<bool> = test.iter().map(|s| s.label).collect();
    let pred = Detector::new(&model).detect(&test, &tgt.event_embeddings);
    let prf = Prf::evaluate(&pred, &truth);
    println!(
        "{}: {} sequences, {} anomalous | P {:.2}%  R {:.2}%  F1 {:.2}%",
        target.name(),
        test.len(),
        truth.iter().filter(|&&t| t).count(),
        prf.precision,
        prf.recall,
        prf.f1
    );
    metrics.finish()
}

fn cmd_experiment(a: &Args) -> Result<(), String> {
    let name = a.positionals.first().ok_or("experiment name required")?;
    let quick = a.flag("quick");
    for e in experiments::select(name)? {
        let t0 = std::time::Instant::now();
        let out = (e.run)(quick);
        println!("{}", out.text);
        println!("[elapsed {:.1}s]", t0.elapsed().as_secs_f64());
        let path = experiments::save_result(e.file, quick, &out.json)
            .map_err(|err| format!("cannot write {}.json: {err}", e.file))?;
        println!("[saved {}]", path.display());
    }
    Ok(())
}

fn cmd_pipeline(a: &Args) -> Result<(), String> {
    let target = system_of(a.get_or("target", "system-b"))?;
    let metrics = Metrics::start(a)?;
    let cfg = ExperimentConfig::quick();
    let p = build_pipeline(&cfg);
    let sources = sources_of(target);
    eprintln!("training a model for {}…", target.name());
    let src_data: Vec<_> = sources
        .iter()
        .map(|&s| p.prepare(&cfg.generate(s)))
        .collect();
    let history = cfg.generate(target);
    let tgt_data = p.prepare(&history);
    let src_refs: Vec<_> = src_data.iter().collect();
    let (model, _) = p.fit(&src_refs, &tgt_data);

    let split_at = cfg.n_target * 5 + 10;
    let (warm, live) = history
        .records
        .split_at(split_at.min(history.records.len()));
    let mut vectorizer =
        EventVectorizer::new(target, p.model_config.embed_dim, LeiConfig::default());
    vectorizer.warm_start(warm.iter().map(|r| r.message.as_str()));
    let source: Vec<RawLog> = live
        .iter()
        .map(|r| RawLog {
            system: target.name().to_string(),
            timestamp: r.timestamp,
            message: r.message.clone(),
        })
        .collect();
    let serving = PipelineConfig {
        partitions: a.num("workers", PipelineConfig::default().partitions)?,
        batch_windows: a.num("batch", PipelineConfig::default().batch_windows)?,
        score_cache: a.num("cache", PipelineConfig::default().score_cache)?,
        max_retries: a.num("max-retries", PipelineConfig::default().max_retries)?,
        shed_watermark: a.num("shed-watermark", PipelineConfig::default().shed_watermark)?,
        library_capacity: a.num(
            "library-capacity",
            PipelineConfig::default().library_capacity,
        )?,
        core_budget: a.num("core-budget", PipelineConfig::default().core_budget)?,
        wal: a
            .get("wal-dir")
            .map(|d| logsynergy_pipeline::WalOptions::at(std::path::PathBuf::from(d))),
        ..PipelineConfig::default()
    };
    let sink = MessagingSink::new();
    let scorer = if a.flag("quant") {
        #[cfg(feature = "quant")]
        {
            // Calibrate the int8 scorer on the warm-start segment, replayed
            // through a clone of the serving vectorizer so activation ranges
            // are measured against the embeddings the pipeline will actually
            // score with.
            let mut cal = vectorizer.clone();
            let ids: Vec<u32> = warm.iter().map(|r| cal.ingest(&r.message)).collect();
            let windows: Vec<&[u32]> = ids.chunks(10).filter(|c| c.len() == 10).take(256).collect();
            let scorer = ModelScorer::quantized(&model, &windows, cal.table()).map_err(|e| {
                format!(
                    "--quant: {e} ({} calibration windows from {} warm-start logs)",
                    windows.len(),
                    warm.len()
                )
            })?;
            eprintln!(
                "serving tier: int8 (calibrated on {} windows)",
                windows.len()
            );
            scorer
        }
        #[cfg(not(feature = "quant"))]
        {
            return Err("--quant requires a binary built with --features quant \
                 (cargo build -p logsynergy-cli --features quant)"
                .into());
        }
    } else {
        ModelScorer::new(model)
    };
    let s = run_pipeline_with(source, vectorizer, scorer, sink.clone(), serving);
    println!(
        "logs {}  windows {}  fast-path {:.1}%  cache hits {}  model calls {}  reports {}  {:.0} logs/s",
        s.logs,
        s.windows,
        100.0 * s.pattern_hits as f64 / s.windows.max(1) as f64,
        s.cache_hits,
        s.model_calls,
        s.reports,
        s.throughput
    );
    if s.degraded + s.shed + s.quarantined + s.worker_restarts > 0 {
        println!(
            "robustness: degraded {}  shed {}  quarantined {}  retries {}  worker restarts {}",
            s.degraded, s.shed, s.quarantined, s.retries, s.worker_restarts
        );
    }
    if let Some((sms, _)) = sink.outbox().first() {
        println!("first alert: {sms}");
    }
    metrics.finish()
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let target = system_of(a.get_or("target", "system-b"))?;
    let tenants_path = a.get("tenants-file").ok_or("--tenants-file is required")?;
    let specs = logsynergy_serve::load_tenants(std::path::Path::new(tenants_path))?;
    let metrics = Metrics::start(a)?;

    // Same quick-trained model and warm-started vectorizer as the Fig. 7
    // pipeline demo: the daemon serves real verdicts, just for a model
    // trained on synthesized history rather than a persisted artifact.
    let cfg = ExperimentConfig::quick();
    let p = build_pipeline(&cfg);
    let sources = sources_of(target);
    eprintln!("training a model for {}…", target.name());
    let src_data: Vec<_> = sources
        .iter()
        .map(|&s| p.prepare(&cfg.generate(s)))
        .collect();
    let history = cfg.generate(target);
    let tgt_data = p.prepare(&history);
    let src_refs: Vec<_> = src_data.iter().collect();
    let (model, _) = p.fit(&src_refs, &tgt_data);
    let mut vectorizer =
        EventVectorizer::new(target, p.model_config.embed_dim, LeiConfig::default());
    vectorizer.warm_start(history.records.iter().map(|r| r.message.as_str()));

    let defaults = logsynergy_serve::ServeConfig::default();
    let serve_config = logsynergy_serve::ServeConfig {
        listen: a.get_or("listen", "127.0.0.1:4517").to_string(),
        drain_timeout: std::time::Duration::from_secs(a.num("drain-timeout", 5u64)?),
        ingest_batch: a.num("ingest-batch", defaults.ingest_batch)?,
        pipeline: PipelineConfig {
            partitions: a.num("workers", PipelineConfig::default().partitions)?,
            batch_windows: a.num("batch", PipelineConfig::default().batch_windows)?,
            score_cache: a.num("cache", PipelineConfig::default().score_cache)?,
            shed_watermark: a.num("shed-watermark", PipelineConfig::default().shed_watermark)?,
            wal: a
                .get("wal-dir")
                .map(|d| logsynergy_pipeline::WalOptions::at(std::path::PathBuf::from(d))),
            ..PipelineConfig::default()
        },
        ..logsynergy_serve::ServeConfig::default()
    };
    let sink = MessagingSink::new();
    let daemon = logsynergy_serve::start(
        serve_config,
        specs,
        Some(std::path::PathBuf::from(tenants_path)),
        vectorizer,
        ModelScorer::new(model),
        sink,
    )
    .map_err(|e| format!("cannot start ingest daemon: {e}"))?;
    eprintln!(
        "ingest daemon listening on {} ({} tenants); SIGTERM to drain",
        daemon.addr(),
        daemon.tenant_count()
    );
    if let Some(path) = a.get("addr-file") {
        let metrics_addr = match &metrics.server {
            Some(s) => format!("\"{}\"", s.addr()),
            None => "null".to_string(),
        };
        let json = format!(
            "{{\"listen\":\"{}\",\"metrics\":{metrics_addr}}}\n",
            daemon.addr()
        );
        std::fs::write(path, json).map_err(|e| format!("--addr-file {path}: {e}"))?;
    }

    let term = logsynergy_serve::signals::termination_flag();
    while !term.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("termination signal received; draining…");
    // Ingest totals are snapshotted after the drain flushes in-flight
    // connections, so `ingest.accepted` covers every record the
    // pipeline summary counts.
    let (stats, s) = daemon.drain_with_stats();
    println!(
        "{{\"ingest\":{{\"accepted\":{},\"rejected\":{},\"shed\":{},\"parse_errors\":{},\
         \"abusive_disconnects\":{},\"connections\":{}}},\
         \"pipeline\":{{\"logs\":{},\"windows\":{},\"pattern_hits\":{},\"cache_hits\":{},\
         \"model_calls\":{},\"degraded\":{},\"shed\":{},\"quarantined\":{},\"reports\":{}}}}}",
        stats.accepted,
        stats.rejected,
        stats.shed,
        stats.parse_errors,
        stats.abusive_disconnects,
        stats.connections,
        s.logs,
        s.windows,
        s.pattern_hits,
        s.cache_hits,
        s.model_calls,
        s.degraded,
        s.shed,
        s.quarantined,
        s.reports
    );
    metrics.finish()
}

type Command = fn(&Args) -> Result<(), String>;

/// Every command: its name, its handler, and the options it takes. An
/// option outside the list is refused by name before the command runs,
/// so a typo (`--log` for `--logs`) or a removed option is an error,
/// never a silent default.
const COMMANDS: [(&str, Command, &[&str]); 6] = [
    (
        "generate",
        cmd_generate,
        &[
            "system",
            "logs",
            "boost",
            "out",
            "labels",
            "metrics-out",
            "metrics-listen",
        ],
    ),
    (
        "train",
        cmd_train,
        &[
            "target",
            "logs",
            "epochs",
            "quick",
            "n-source",
            "n-target",
            "out",
            "metrics-out",
            "metrics-listen",
        ],
    ),
    (
        "detect",
        cmd_detect,
        &[
            "model",
            "target",
            "logs",
            "quick",
            "n-target",
            "metrics-out",
            "metrics-listen",
        ],
    ),
    ("experiment", cmd_experiment, &["quick"]),
    (
        "pipeline",
        cmd_pipeline,
        &[
            "target",
            "workers",
            "batch",
            "cache",
            "max-retries",
            "shed-watermark",
            "library-capacity",
            "core-budget",
            "quant",
            "wal-dir",
            "metrics-out",
            "metrics-listen",
        ],
    ),
    (
        "serve",
        cmd_serve,
        &[
            "tenants-file",
            "listen",
            "target",
            "drain-timeout",
            "workers",
            "batch",
            "cache",
            "shed-watermark",
            "wal-dir",
            "ingest-batch",
            "addr-file",
            "metrics-out",
            "metrics-listen",
        ],
    ),
];

fn run(argv: impl Iterator<Item = String>) -> Result<(), String> {
    let a = Args::parse(argv).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    if matches!(a.command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let (_, command, options) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == a.command)
        .ok_or_else(|| format!("unknown command: {}\n\n{USAGE}", a.command))?;
    a.only(options)?;
    command(&a)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<(), String> {
        run(line.split_whitespace().map(str::to_string))
    }

    /// The options USAGE lists under `command`: the leading `--name` of
    /// each line of its block.
    fn usage_options(command: &str) -> Vec<&'static str> {
        let header = format!("  {command} ");
        let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&header));
        let first = lines.next().expect("USAGE has a block per command");
        std::iter::once(first.trim_start_matches(&header))
            .chain(lines.take_while(|l| !l.starts_with("  ") || l.starts_with("   ")))
            .filter_map(|l| l.split_whitespace().next()?.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn usage_documents_exactly_the_options_each_command_takes() {
        for (name, _, options) in COMMANDS {
            let mut listed = usage_options(name);
            let mut taken = options.to_vec();
            listed.sort_unstable();
            taken.sort_unstable();
            assert_eq!(listed, taken, "{name}");
        }
    }

    #[test]
    fn generate_refuses_an_option_it_does_not_take() {
        assert_eq!(
            run_line("generate --system bgl --log 10").unwrap_err(),
            "generate does not take --log"
        );
    }

    #[test]
    fn train_refuses_an_option_it_does_not_take() {
        assert_eq!(
            run_line("train --target system-b --epoch 2").unwrap_err(),
            "train does not take --epoch"
        );
    }

    #[test]
    fn detect_refuses_an_option_it_does_not_take() {
        // `--epochs` is a training option: detect would have ignored it.
        assert_eq!(
            run_line("detect --model m.json --target system-b --epochs 2").unwrap_err(),
            "detect does not take --epochs"
        );
    }

    #[test]
    fn experiment_refuses_an_option_it_does_not_take() {
        assert_eq!(
            run_line("experiment fig6 --quick --logs 5").unwrap_err(),
            "experiment does not take --logs"
        );
    }

    #[test]
    fn pipeline_refuses_an_option_it_does_not_take() {
        assert_eq!(
            run_line("pipeline --target system-b --worker 2").unwrap_err(),
            "pipeline does not take --worker"
        );
    }

    #[test]
    fn serve_refuses_the_removed_batch_deadline_option() {
        assert_eq!(
            run_line("serve --tenants-file t.conf --ingest-batch-deadline-ms 2").unwrap_err(),
            "serve does not take --ingest-batch-deadline-ms"
        );
    }

    #[test]
    fn usage_lists_exactly_the_experiment_registry() {
        let listed: Vec<&str> = USAGE
            .split("one of:")
            .nth(1)
            .and_then(|rest| rest.split("--quick").next())
            .expect("the experiment block names its experiments")
            .split_whitespace()
            .collect();
        let mut names: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name).collect();
        names.push("all");
        assert_eq!(listed, names);
        let err = experiments::select("nope").err().expect("unknown name");
        for name in names {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }
}
