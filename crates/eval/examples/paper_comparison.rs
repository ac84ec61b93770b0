//! Prints a paper-vs-measured comparison for Tables IV/V from the JSON
//! results `logsynergy experiment` wrote (`results/table4_public.json`,
//! `results/table5_isp.json`). Run after `logsynergy experiment table4`
//! and `logsynergy experiment table5`:
//!
//! `cargo run --release -p logsynergy-eval --example paper_comparison`

use logsynergy_eval::experiments::TargetResults;
use logsynergy_eval::paper::{paper_prf, PaperCell, TABLE4, TABLE5};

fn compare(title: &str, path: &str, table: &[PaperCell]) {
    let Ok(raw) = std::fs::read_to_string(path) else {
        eprintln!(
            "{title}: no results at {path} (run `logsynergy experiment table4` / `table5` first)"
        );
        return;
    };
    let results: Vec<TargetResults> = serde_json::from_str(&raw).expect("valid results JSON");
    println!("== {title}: paper F1 vs measured F1 ==");
    print!("{:<22}", "Method");
    for t in &results {
        print!(" | {:^19}", t.target);
    }
    println!();
    print!("{:<22}", "");
    for _ in &results {
        print!(" | {:>8} {:>8}", "paper", "measured");
    }
    println!();
    let n = results.first().map(|t| t.rows.len()).unwrap_or(0);
    for m in 0..n {
        let name = &results[0].rows[m].method;
        print!("{name:<22}");
        for t in &results {
            let measured = t.rows[m].prf.f1;
            match paper_prf(table, name, &t.target) {
                Some(p) => print!(" | {:>8.2} {:>8.2}", p.f1, measured),
                None => print!(" | {:>8} {:>8.2}", "-", measured),
            }
        }
        println!();
    }
    // Shape check: does the measured table keep the paper's headline —
    // LogSynergy first on every target?
    let mut wins = true;
    for t in &results {
        let ls = t
            .rows
            .iter()
            .find(|r| r.method == "LogSynergy")
            .map(|r| r.prf.f1)
            .unwrap_or(0.0);
        for r in &t.rows {
            if r.method != "LogSynergy" && r.prf.f1 >= ls {
                wins = false;
                println!(
                    "  !! {}: {} ({:.2}) >= LogSynergy ({:.2})",
                    t.target, r.method, r.prf.f1, ls
                );
            }
        }
    }
    println!(
        "shape: LogSynergy best on every target: {}\n",
        if wins {
            "YES (matches paper)"
        } else {
            "NO (see above)"
        }
    );
}

fn main() {
    compare("Table IV (public)", "results/table4_public.json", TABLE4);
    compare("Table V (ISP)", "results/table5_isp.json", TABLE5);
}
