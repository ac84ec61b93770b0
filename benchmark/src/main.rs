//! Socket-to-verdict benchmark of the LogSynergy serving stack: sustained
//! logs/s, ingest→verdict latency and a per-layer time budget, all from
//! one harness. See `README.md` beside this crate.

mod compare;
mod e2e;
mod env;
mod layers;
mod loadgen;
mod metrics;
mod run;
mod setup;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use env::Env;
use run::Outcome;
use spec::{Workload, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage:
  benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
      Without --trace: every end-to-end and per-layer metric of every chosen
      workload (default: all), the correctness gate, and a result file under
      benchmark/results/. With --trace 0 or 1 and one --workload: that
      workload's end-to-end (0) or per-layer (1) metrics, and as the last
      line of standard output one JSON object with the keys correct,
      attempted, failed and metrics.
      --quick runs a tenth of the size: a smoke run, flagged not comparable.
  benchmark compare A.json B.json
      Applies each end-to-end metric's bound per metric and workload; exits
      1 when B regressed against A.";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads.push(
                    spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.trace.is_some() && parsed.workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".into());
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    if parsed.quick {
        parsed.seconds = (parsed.seconds / 10).max(1);
    }
    Ok(parsed)
}

/// The benchmark's own directory: where `cargo run` says the manifest
/// is, else where it was at build time.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn outcome_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        o.metrics.to_json()
    )
}

/// One workload's entry of a result file.
fn workload_json(w: &Workload, e2e: &Outcome, layers: &Outcome) -> String {
    let samples: Vec<String> = e2e
        .samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|&v| metrics::json_number(v)).collect();
            format!("\"{name}\": [{}]", values.join(", "))
        })
        .collect();
    format!(
        "{{\n      \"why\": \"{}\",\n      \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": {},\n      \"samples\": {{{}}},\n      \"per_layer\": {}\n    }}",
        w.why,
        e2e.attempted,
        e2e.failed,
        e2e.metrics.to_json(),
        samples.join(", "),
        layers.metrics.to_json()
    )
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let dir = manifest_dir();
    let results = dir.join("results");
    // Write-ahead logs of the durable workload live under the results
    // directory, so a run writes nowhere but its own checkout.
    let scratch = results.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let env = Env::capture(&dir, args.seed, args.seconds, !args.quick);
    println!("env: {}", env.to_json());
    if args.seed == HELD_OUT_SEED {
        println!(
            "seed {HELD_OUT_SEED} is the held-out seed: for confirming a claim, not for tuning"
        );
    }
    let outcome = run_workloads(&args, &env, &scratch, &results);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_workloads(args: &RunArgs, env: &Env, scratch: &Path, results: &Path) -> Result<(), String> {
    if let Some(traced) = args.trace {
        let w = args.workloads[0];
        println!("workload {}: {}", w.name, w.why);
        let outcome = if traced {
            run::per_layer(w, args.seed, args.seconds, scratch, results)?
        } else {
            run::end_to_end(w, args.seed, args.seconds, scratch)?
        };
        outcome.metrics.print("  ");
        println!("{}", outcome_json(&outcome));
        return Ok(());
    }

    let mut entries = Vec::new();
    for w in &args.workloads {
        println!("workload {}: {}", w.name, w.why);
        let e2e = run::end_to_end(w, args.seed, args.seconds, scratch)?;
        println!(
            "  end to end ({} of {} windows failed):",
            e2e.failed, e2e.attempted
        );
        e2e.metrics.print("    ");
        let layers = run::per_layer(w, args.seed, args.seconds, scratch, results)?;
        println!("  per layer:");
        layers.metrics.print("    ");
        entries.push(format!(
            "    \"{}\": {}",
            w.name,
            workload_json(w, &e2e, &layers)
        ));
    }
    let file = args
        .out
        .clone()
        .unwrap_or_else(|| results.join(format!("run_seed{}.json", args.seed)));
    let json = format!(
        "{{\n  \"env\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        env.to_json(),
        entries.join(",\n")
    );
    std::fs::write(&file, json).map_err(|e| format!("{}: {e}", file.display()))?;
    if args.quick {
        println!("--quick: a tenth of the size; these numbers are not comparable");
    }
    println!("result written to {}", file.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => match compare::compare(a, b) {
                Ok(true) => Ok(()),
                Ok(false) => Err("regressed".into()),
                Err(e) => Err(e),
            },
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // A failed gate prints no metrics: the message goes to
            // standard error and the exit code says the rest.
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
