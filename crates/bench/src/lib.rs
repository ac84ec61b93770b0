//! # logsynergy-bench
//!
//! Host crate for the workspace's runnable examples, cross-crate
//! integration tests, and the serving and kernel performance benches
//! (see `benches/`). The paper's tables and figures are regenerated by
//! `logsynergy experiment <name>`, not here.

#![warn(missing_docs)]

/// Writes a bench's serializable result as `<name>.json`: into `results/`
/// for a full run, under `target/quick-results/` in quick mode (the rule
/// of [`logsynergy_eval::experiments::result_path`]).
pub fn write_result<T: serde::Serialize>(name: &str, value: &T) {
    let json = logsynergy_eval::report::to_json(value);
    let path = logsynergy_eval::experiments::save_result(name, quick_mode(), &json)
        .unwrap_or_else(|e| panic!("cannot write {name}.json: {e}"));
    println!("[saved {}]", path.display());
}

/// True when the harness should run in quick mode (smoke runs of the
/// benches): set `LOGSYNERGY_BENCH_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("LOGSYNERGY_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
