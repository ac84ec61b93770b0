#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> [pairs] [seed] [workload...]
#
# Defaults: 10 pairs, seed 1, workload `sessions`. The parent is exported
# with `git archive` into a temporary directory outside the repository
# (no worktree; removed on exit). Both copies of the unmodified harness
# are built `--offline` in release, then each pair runs
# `benchmark run --workload W --seed S --trace 0` once per side,
# alternating which side goes first. Nothing is written under
# `benchmark/`: each side runs with its own scratch home.
#
# Every run's full stdout (round lines, `FAILED:` reasons, the outcome
# JSON) is kept under target/bench-pairs/<stamp>/. The summary printed at
# the end (also saved there as summary.txt) gives, per workload and
# end-to-end metric, the median and quartiles of each side, the pairs the
# working tree wins, and every run with `failed > 0` together with its
# reasons and round lines.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -lt 1 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs=${2:-10}
seed=${3:-1}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(sessions)

out="$root/target/bench-pairs/$(date -u +%Y%m%dT%H%M%SZ)-${rev:0:10}-seed$seed"
mkdir -p "$out/home-parent" "$out/home-change"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "==> exporting parent $rev"
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

echo "==> building both harnesses"
cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml" --target-dir "$tmp/build"
cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$root/target/bench-pairs/build"
declare -A bin=(
    [parent]="$tmp/build/release/benchmark"
    [change]="$root/target/bench-pairs/build/release/benchmark"
)

# One run: full stdout and stderr into its log; a failing exit is
# recorded in the log, not fatal to the series.
run_one() {
    local side=$1 w=$2 i=$3 log="$out/$1-$2-$3.log"
    echo "    $side $w pair $i"
    CARGO_MANIFEST_DIR="$out/home-$side" "${bin[$side]}" \
        run --workload "$w" --seed "$seed" --trace 0 >"$log" 2>&1 ||
        echo "exit status $?" >>"$log"
}

for w in "${workloads[@]}"; do
    echo "==> $w: $pairs pairs, seed $seed"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run_one parent "$w" "$i"
            run_one change "$w" "$i"
        else
            run_one change "$w" "$i"
            run_one parent "$w" "$i"
        fi
    done
done

python3 - "$out" "$root/BENCHMARK.json" "$rev" "$pairs" "$seed" "${workloads[@]}" <<'PY' | tee "$out/summary.txt"
import json, os, statistics, sys

out, spec_path, rev, pairs, seed, *workloads = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(spec_path))["end_to_end"]

def load(side, w, i):
    path = os.path.join(out, f"{side}-{w}-{i}.log")
    lines = open(path).read().splitlines()
    outcome = next((json.loads(l) for l in reversed(lines) if l.startswith('{"correct"')), None)
    return path, lines, outcome

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"parent {rev} vs working tree, seed {seed}, {pairs} pairs; logs in {out}")
for w in workloads:
    runs = {s: [load(s, w, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    print(f"\n{w}")
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        vals = {s: [o["metrics"][name]["value"] if o else None for _, _, o in runs[s]]
                for s in runs}
        ok = [i for i in range(pairs) if vals["parent"][i] is not None and vals["change"][i] is not None]
        if len(ok) < 2:
            print(f"  {name}: fewer than two complete pairs")
            continue
        p = [vals["parent"][i] for i in ok]
        c = [vals["change"][i] for i in ok]
        wins = sum((ci > pi) if higher else (ci < pi) for pi, ci in zip(p, c))
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        delta = (cm - pm) / pm * 100 if pm else float("nan")
        clear = "yes" if abs(cm - pm) > pq3 - pq1 else "no"
        print(f"  {name} ({m['unit']}, {'higher' if higher else 'lower'} is better): "
              f"parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  "
              f"{delta:+.1f}%  change wins {wins}/{len(ok)}  median gap > parent IQR: {clear}")
        print(f"    parent: {' '.join('-' if v is None else f'{v:.4g}' for v in vals['parent'])}")
        print(f"    change: {' '.join('-' if v is None else f'{v:.4g}' for v in vals['change'])}")
    for s in ("parent", "change"):
        for path, lines, o in runs[s]:
            if o is not None and o["failed"] == 0:
                continue
            what = "no outcome (run errored)" if o is None else f"failed {o['failed']} of {o['attempted']}"
            print(f"  {s} {os.path.basename(path)}: {what}")
            for l in lines:
                if "FAILED:" in l or l.lstrip().startswith("round ") or l.startswith("exit status") or l.startswith("benchmark:"):
                    print(f"    {l.strip()}")
PY
