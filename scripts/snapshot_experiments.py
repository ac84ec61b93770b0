#!/usr/bin/env python3
"""Appends a measured-results snapshot to EXPERIMENTS.md from results/*.json.

Run after `logsynergy experiment all` (full runs write results/; quick
runs write target/quick-results/ and are not read here):
    python3 scripts/snapshot_experiments.py
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
MARKER = "<!-- snapshot tables inserted below by the final bench run -->"


def load(name):
    p = RESULTS / f"{name}.json"
    if not p.exists():
        return None
    return json.loads(p.read_text())


def group_table(title, data):
    out = [f"### {title}", "", "| Method | " + " | ".join(
        f"{t['target']} P/R/F1" for t in data) + " |"]
    out.append("|" + "---|" * (len(data) + 1))
    n = len(data[0]["rows"])
    for m in range(n):
        name = data[0]["rows"][m]["method"]
        cells = []
        for t in data:
            p = t["rows"][m]["prf"]
            cells.append(f"{p['precision']:.1f} / {p['recall']:.1f} / {p['f1']:.1f}")
        out.append("| " + name + " | " + " | ".join(cells) + " |")
    out.append("")
    return "\n".join(out)


def sweep_table(title, points):
    targets = [name for name, _ in points[0]["f1_by_target"]]
    out = [f"### {title}", "", "| value | " + " | ".join(targets) + " |",
           "|" + "---|" * (len(targets) + 1)]
    for p in points:
        vals = " | ".join(f"{f1:.1f}" for _, f1 in p["f1_by_target"])
        out.append(f"| {p['value']} | {vals} |")
    out.append("")
    return "\n".join(out)


def fill_table1(doc):
    t1 = load("table1_syntax_gap")
    if not t1:
        return doc
    _rows, gaps = t1
    raw = sum(g["mean_raw_cosine"] for g in gaps) / len(gaps)
    lei = sum(g["mean_lei_cosine"] for g in gaps) / len(gaps)
    return doc.replace("RAW_T1", f"{raw:.2f}").replace("LEI_T1", f"{lei:.2f}")


def main():
    sections = []
    t4 = load("table4_public")
    if t4:
        sections.append(group_table("Table IV measured (public group)", t4))
    t5 = load("table5_isp")
    if t5:
        sections.append(group_table("Table V measured (ISP group)", t5))
    f4 = load("fig4_hyperparams")
    if f4:
        a, b, c = f4
        sections.append(sweep_table("Fig. 4a measured (F1 vs λ_MI)", a))
        sections.append(sweep_table("Fig. 4b measured (F1 vs n_s)", b))
        sections.append(sweep_table("Fig. 4c measured (F1 vs n_t)", c))
    f5 = load("fig5_ablation")
    if f5:
        out = ["### Fig. 5 measured (ablation, F1 %)", "",
               "| Target | LogSynergy | w/o LEI | w/o SUFE | NeuralLog direct |",
               "|---|---|---|---|---|"]
        for r in f5:
            out.append(
                f"| {r['target']} | {r['full']['prf']['f1']:.1f} | "
                f"{r['no_lei']['prf']['f1']:.1f} | {r['no_sufe']['prf']['f1']:.1f} | "
                f"{r['neurallog_direct']['prf']['f1']:.1f} |")
        out.append("")
        sections.append("\n".join(out))
    f6 = load("fig6_lessons")
    if f6:
        out = ["### Fig. 6 measured (cross-group transfer)", "",
               "| Source → Target | P | R | F1 |", "|---|---|---|---|"]
        for r in f6:
            p = r["result"]["prf"]
            out.append(f"| {r['source']} → {r['target']} | {p['precision']:.1f} "
                       f"| {p['recall']:.1f} | {p['f1']:.1f} |")
        out.append("")
        sections.append("\n".join(out))
    f8 = load("fig8_case_study")
    if f8:
        sections.append(
            "### Fig. 8 measured (case study)\n\n"
            f"- raw similarity {f8['raw_similarity']:.3f} "
            f"(margin over nearest normal {f8['raw_margin']:+.3f})\n"
            f"- LEI similarity {f8['lei_similarity']:.3f} "
            f"(margin {f8['lei_margin']:+.3f})\n"
            f"- target event: `{f8['target_templates'][0]}` → "
            f"\"{f8['target_interpretations'][0]}\"\n"
            f"- source event: `{f8['source_templates'][0]}` → "
            f"\"{f8['source_interpretations'][0]}\"\n")
    f7 = load("fig7_pipeline_throughput")
    if f7:
        sections.append(
            "### Fig. 7 measured (deployment pipeline)\n\n"
            f"- {f7['logs']} logs, {f7['windows']} windows, "
            f"{f7['model_calls']} model calls, {f7['reports']} reports, "
            f"{f7['new_templates']} templates interpreted online, "
            f"{f7['throughput_logs_per_sec']:.0f} logs/s\n")

    doc = (ROOT / "EXPERIMENTS.md").read_text()
    doc = fill_table1(doc)
    head = doc.split(MARKER)[0]
    (ROOT / "EXPERIMENTS.md").write_text(head + MARKER + "\n\n" + "\n".join(sections))
    print(f"wrote {len(sections)} snapshot sections")


if __name__ == "__main__":
    sys.exit(main())
