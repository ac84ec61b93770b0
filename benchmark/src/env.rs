//! The `env` block every result carries: what ran, on what, built how.

use std::path::Path;
use std::process::Command;

use logsynergy_nn::kernels::{qgemm::qgemm_tier_name, simd_tier_name};

/// Cargo features the benchmark builds the program with: `quant` so the
/// int8 layer can be timed (end-to-end runs stay on the f32 scorer), and
/// telemetry's default `enabled`, as the shipped daemon has it.
const FEATURES: &str =
    "logsynergy/quant logsynergy-nn/quant logsynergy-pipeline/quant logsynergy-telemetry/enabled";

#[derive(Clone, Debug)]
pub struct Env {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub git_commit: String,
    pub features: &'static str,
    pub simd_tier: &'static str,
    pub qgemm_tier: &'static str,
    pub seed: u64,
    pub seconds: u64,
    /// `run --quick`: a tenth of the size, for smoke runs only.
    pub comparable: bool,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` of the checkout holding the benchmark, with
/// `-dirty` when the tree differs; "unknown" outside a repository.
fn git_commit(manifest_dir: &Path) -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(manifest_dir)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => match git(&["status", "--porcelain"]) {
            Some(status) if !status.is_empty() => format!("{commit}-dirty"),
            _ => commit,
        },
        None => "unknown".into(),
    }
}

impl Env {
    pub fn capture(manifest_dir: &Path, seed: u64, seconds: u64, comparable: bool) -> Self {
        Env {
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCHMARK_RUSTC"),
            git_commit: git_commit(manifest_dir),
            features: FEATURES,
            simd_tier: simd_tier_name(),
            qgemm_tier: qgemm_tier_name(),
            seed,
            seconds,
            comparable,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"cargo_features\": \"{}\", \"simd_tier\": \"{}\", \"qgemm_tier\": \"{}\", \"seed\": {}, \"seconds\": {}, \"comparable\": {}}}",
            self.cpu.replace(['"', '\\'], " "),
            self.nproc,
            self.rustc,
            self.git_commit,
            self.features,
            self.simd_tier,
            self.qgemm_tier,
            self.seed,
            self.seconds,
            self.comparable,
        )
    }
}
