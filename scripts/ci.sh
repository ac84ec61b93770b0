#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Quick-mode runs write under target/quick-results/, never into the
# committed results/: the last step checks that git's view of results/
# and the bytes of every file in it are as they were here.
results_snapshot() { git status --porcelain results/; cat results/* | sha256sum; }
results_before="$(results_snapshot)"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark/ compiles against the frozen serving surface"
# benchmark/ is its own workspace and may not change with the code it
# measures; checking it here turns a break of the names it imports
# (LogBuffer, send_many_to, recv_batch, run_pipeline_with, serve::start,
# the wal module…) into a failure in seconds instead of at the final
# smoke run.
cargo check --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q"
# Includes the vendored stand-ins' own unit tests (vendor/serde_json's
# parser differential, nesting cap and surrogate tests among them): a path
# dependency inside the workspace root is a workspace member.
cargo test --workspace -q

echo "==> nn + core suites (quant on) on the scalar and AVX2 tiers"
# The run above used the best tier the CPU has. nn::infer's GELU sweep is
# compiled once per tier (scalar / AVX2 / AVX-512) and must give the same
# bits on each, and the plan must equal the tape on each: re-run the two
# suites that hold the bitwise oracles with the tier pinned, so all three
# dispatch arms are exercised (on a CPU without AVX2 the pin falls back
# and the pass is a repeat). With `--features quant`, because off AVX-512
# the int8 forward's interludes are infer_fast's fallback arms — the pinned
# nn::infer sweeps, asserted bit for bit — and the int8 kernels' own
# scalar/AVX2 arms never run on an AVX-512 host otherwise.
for tier in scalar avx2; do
  LOGSYNERGY_NN_SIMD="$tier" cargo test -p logsynergy-nn --features quant -q
  LOGSYNERGY_NN_SIMD="$tier" cargo test -p logsynergy --features quant -q
done

echo "==> telemetry off-feature build (instrumentation must compile out)"
cargo check -p logsynergy-telemetry --no-default-features

echo "==> fault-injection feature tests (chaos suite, fixed seeds)"
# The chaos scenarios are deterministic (seeded FaultPlans) but involve
# real panics, retries, and injected latency; the timeout turns a wedged
# pipeline into a CI failure instead of a hung job (liveness gate).
timeout 60 cargo test -p logsynergy --features fault-injection -q
timeout 60 cargo test -p logsynergy-pipeline --features fault-injection -q
timeout 60 cargo test -p logsynergy-serve --features fault-injection -q
# The WAL codec/recovery proptests (incl. the group-commit byte-parity
# and mid-batch torn-tail properties) must also hold with the fault
# plumbing compiled in — the wal_fault consults sit on the append path.
timeout 120 cargo test -p logsynergy --features fault-injection --test wal_proptests -q

echo "==> quant feature tests (int8 kernels, fast primitives, agreement gate)"
# The int8 path is opt-in; its kernel proptests, fused-primitive parity
# tests, and the trained-model f32-agreement gate only exist with the
# feature on.
cargo test -p logsynergy-nn --features quant -q
cargo test -p logsynergy --features quant -q
cargo test -p logsynergy-pipeline --features quant -q

echo "==> fault-injection compile-out gate"
# Release build WITHOUT the feature must carry zero injected code: the
# panic marker string is only referenced from injection sites, so its
# absence from the binary proves the optimizer deleted them all (and the
# Fig. 7 numbers below are measured on exactly this binary).
cargo build -q --release -p logsynergy-cli
if grep -aq "logsynergy-fault-injected" target/release/logsynergy; then
  echo "FAIL: fault-injection code survives in the no-feature release binary" >&2
  exit 1
fi
echo "compile-out gate OK: no fault marker in the release binary"

echo "==> WAL fault-point compile-out gate"
# The durable-transport fault points are named by string constants only
# referenced from injection sites, so the no-feature release binary must
# not contain them — and a fault-injection build must (else the gate is
# vacuous). This proves the WAL hot path carries zero injected code in
# the binary the throughput numbers are measured on.
for marker in "wal.append" "wal.roll" "wal.recover"; do
  if grep -aq "$marker" target/release/logsynergy; then
    echo "FAIL: WAL fault point '$marker' survives in the no-feature release binary" >&2
    exit 1
  fi
done
cargo build -q --release -p logsynergy-cli \
  --features logsynergy/fault-injection,logsynergy-pipeline/fault-injection \
  --target-dir target/fault-gate
for marker in "wal.append" "wal.roll" "wal.recover"; do
  if ! grep -aq "$marker" target/fault-gate/release/logsynergy; then
    echo "FAIL: fault-injection build lost the '$marker' point (gate is vacuous)" >&2
    exit 1
  fi
done
echo "compile-out gate OK: wal.append/wal.roll/wal.recover absent by default, present with fault-injection"

echo "==> quant compile-out gate"
# Same proof for the int8 path: the qgemm marker string is pinned into
# every binary that links the quantized scorer, so the default release
# binary must not contain it — and a --features quant build must.
if grep -aq "logsynergy-int8-qgemm" target/release/logsynergy; then
  echo "FAIL: int8 qgemm code survives in the no-feature release binary" >&2
  exit 1
fi
cargo build -q --release -p logsynergy-cli --features quant \
  --target-dir target/quant-gate
if ! grep -aq "logsynergy-int8-qgemm" target/quant-gate/release/logsynergy; then
  echo "FAIL: quant build lost the int8 qgemm marker (gate is vacuous)" >&2
  exit 1
fi
echo "compile-out gate OK: int8 marker absent by default, present with --features quant"

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> serving-pipeline throughput smoke (quick mode)"
# Quick Fig. 7 run: small stream, full sweep, and the bench's built-in
# assertion that batched/sharded/cached serving reproduces the unbatched
# baseline bit for bit.
LOGSYNERGY_BENCH_QUICK=1 cargo bench --bench fig7_pipeline_throughput

echo "==> quant accuracy + throughput smoke (quick mode)"
# Quick quant_scoring run: asserts ≥ 99.5% verdict agreement with f32,
# |ΔF1| ≤ 0.005, and int8 model-tier throughput ≥ 1.3× the f32 plan's
# measured in the same process; writes target/quick-results/quant.json.
LOGSYNERGY_BENCH_QUICK=1 cargo bench -p logsynergy-bench --features quant --bench quant_scoring

echo "==> telemetry overhead contract (quick mode)"
# Paired on/off repetitions of the Fig. 7 serving run; asserts the
# instrumented median stays within the 2% overhead contract and writes
# target/quick-results/telemetry_overhead.json.
LOGSYNERGY_BENCH_QUICK=1 cargo bench --bench telemetry_overhead

echo "==> group-commit WAL throughput smoke (quick mode)"
# Quick durable-vs-in-memory run: asserts group commit buys ≥ 3× over
# per-record flush on the isolated WAL ack path, durable stays within
# 1.5× of in-memory at the Fig. 7 operating point, and (quick-mode
# smoke gate) durable throughput ≥ 0.5× in-memory there; writes
# target/quick-results/wal_group_commit.json.
LOGSYNERGY_BENCH_QUICK=1 cargo bench -p logsynergy-bench --bench wal_group_commit

echo "==> unknown options are refused"
# A typo of --logs must fail by name, not generate at the 20 000 default.
if target/release/logsynergy generate --system bgl --log 10 >/dev/null 2>&1; then
  echo "FAIL: generate accepted the unknown option --log" >&2
  exit 1
fi
echo "unknown-option gate OK"

echo "==> paper-artifact regenerator smoke (experiment fig6 --quick)"
# The one regenerator of the paper's tables and figures, end to end on
# its cheapest trained artifact (Fig. 6's four transfers); the quick
# run writes target/quick-results/fig6_lessons.json.
target/release/logsynergy experiment fig6 --quick

echo "==> socket-to-verdict benchmark smoke (quick mode)"
# A tenth-size run of benchmark/ (its own workspace and lock file): all
# three workloads over a real loopback socket, with the harness's
# correctness gate on — reports bitwise equal to the unbatched in-process
# reference, six-bucket window conservation, zero failed operations.
# Quick runs are flagged not comparable; this checks behaviour, not speed.
cargo run --release --manifest-path benchmark/Cargo.toml -- run --quick

echo "==> metrics snapshot smoke"
# A real CLI run must produce a parseable JSON snapshot whose verdict-tier
# counters partition the window count exactly.
metrics_file="$(mktemp)"
cargo run -q --release -p logsynergy-cli -- pipeline \
  --target system-b --metrics-out "$metrics_file" >/dev/null
python3 - "$metrics_file" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
c = snap["counters"]
tiers = c["pipeline.tier.pattern"] + c["pipeline.tier.cache"] + c["pipeline.tier.model"]
assert tiers == c["pipeline.windows"] > 0, (tiers, c["pipeline.windows"])
assert c["pipeline.logs"] > 0
print(f"metrics smoke OK: {c['pipeline.logs']} logs, {c['pipeline.windows']} windows")
PY
rm -f "$metrics_file"

echo "==> ingest daemon smoke (serve, two tenants, SIGTERM drain)"
# Start the daemon on an ephemeral port, stream mixed NDJSON + syslog
# lines from two tenants over real sockets, SIGTERM it, and assert the
# drained summary's accounting: every streamed line accepted, ingest
# accepted == pipeline logs, six resolution buckets exactly partition
# the window count, and the /metrics scrape is non-empty.
smoke_dir="$(mktemp -d)"
cat > "$smoke_dir/tenants.conf" <<'EOF'
tenant edge token=edge-secret shards=2
tenant lab  token=lab-secret
EOF
# Run the release binary directly (built by the compile-out gate above):
# backgrounding `cargo run` would put cargo, not the daemon, behind
# $serve_pid and the SIGTERM below would never reach the drain path.
target/release/logsynergy serve \
  --tenants-file "$smoke_dir/tenants.conf" --listen 127.0.0.1:0 \
  --metrics-listen 127.0.0.1:0 --addr-file "$smoke_dir/addr.json" \
  > "$smoke_dir/summary.json" 2> "$smoke_dir/serve.log" &
serve_pid=$!
# The daemon quick-trains its model before binding; allow a few minutes.
for _ in $(seq 1 600); do
  [ -s "$smoke_dir/addr.json" ] && break
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.5
done
[ -s "$smoke_dir/addr.json" ] || { cat "$smoke_dir/serve.log" >&2; exit 1; }
python3 - "$smoke_dir/addr.json" <<'PY'
import json, socket, sys
addr = json.load(open(sys.argv[1]))
host, port = addr["listen"].rsplit(":", 1)

def exchange(payload):
    """Send payload, half-close, and return the server's last frame."""
    s = socket.create_connection((host, int(port)))
    s.sendall(payload)
    s.shutdown(socket.SHUT_WR)
    resp = b""
    while chunk := s.recv(65536):
        resp += chunk
    s.close()
    return json.loads(resp.decode().strip().splitlines()[-1])

def stream(token, system, n):
    lines = [f"HELLO {token}"]
    for i in range(n):
        if i % 2 == 0:
            lines.append('{"system":"%s","timestamp":%d,"message":"smoke line %d ok"}' % (system, i, i))
        else:
            lines.append("Jan  1 00:00:%02d %s smoke line %d ok" % (i % 60, system, i))
    return exchange(("\n".join(lines) + "\n").encode())

# Hostile first: 60 000 `[` before HELLO (a legal < 64 KiB line, parsed
# before the auth check) must cost a 401 frame, not the daemon — an
# uncapped recursive parse overflows the handler's stack, which aborts
# the whole process. The streams below are the "still serving" check.
refusal = exchange(b'{"a":' + b"[" * 60000 + b"\n")
assert refusal["code"] == 401, refusal

for token, system in (("edge-secret", "edge-sys"), ("lab-secret", "lab-sys")):
    summary = stream(token, system, 500)
    assert summary["accepted"] == 500, summary
    assert summary["rejected"] == summary["shed"] == summary["parse_errors"] == 0, summary

mhost, mport = addr["metrics"].rsplit(":", 1)
m = socket.create_connection((mhost, int(mport)))
m.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
scrape = b""
while chunk := m.recv(65536):
    scrape += chunk
m.close()
assert b"ingest" in scrape and len(scrape) > 200, scrape[:200]
print("daemon smoke: deep-nesting line refused, 1000 lines streamed, metrics scrape OK")
PY
kill -0 "$serve_pid" || { echo "FAIL: daemon died during the smoke" >&2; cat "$smoke_dir/serve.log" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid"
python3 - "$smoke_dir/summary.json" <<'PY'
import json, sys
out = json.load(open(sys.argv[1]))
ing, pipe = out["ingest"], out["pipeline"]
assert ing["accepted"] == 1000 == pipe["logs"], out
assert ing["rejected"] == ing["shed"] == ing["parse_errors"] == 0, out
buckets = (pipe["pattern_hits"] + pipe["cache_hits"] + pipe["model_calls"]
           + pipe["degraded"] + pipe["shed"] + pipe["quarantined"])
assert buckets == pipe["windows"] > 0, out
print(f"drain summary OK: {pipe['logs']} logs, {pipe['windows']} windows, exact accounting")
PY
rm -rf "$smoke_dir"

echo "==> WAL kill-and-recover smoke (serve --wal-dir, SIGKILL, restart)"
# Durable-transport contract over a real process kill: stream N records
# into a --wal-dir daemon, SIGKILL it the moment the client has its
# summary (every accepted record is flush-before-ack durable), restart
# on the same WAL directory, stream M more, and SIGTERM-drain. The final
# summary must account for all N+M records exactly once — the cursor
# counters carry across the crash and the unprocessed suffix replays.
wal_dir="$(mktemp -d)"
cat > "$wal_dir/tenants.conf" <<'EOF'
tenant edge token=edge-secret
EOF
stream_wal_lines() { # <addr-file> <start-index> <count>
  python3 - "$1" "$2" "$3" <<'PY'
import json, socket, sys
addr = json.load(open(sys.argv[1]))
host, port = addr["listen"].rsplit(":", 1)
start, n = int(sys.argv[2]), int(sys.argv[3])
s = socket.create_connection((host, int(port)))
s.sendall(b"HELLO edge-secret\n")
lines = ['{"system":"wal-sys","timestamp":%d,"message":"wal smoke line %d ok"}'
         % (i, i) for i in range(start, start + n)]
s.sendall(("\n".join(lines) + "\n").encode())
s.shutdown(socket.SHUT_WR)
resp = b""
while chunk := s.recv(65536):
    resp += chunk
s.close()
summary = json.loads(resp.decode().strip().splitlines()[-1])
assert summary["accepted"] == n, summary
assert summary["rejected"] == summary["shed"] == summary["parse_errors"] == 0, summary
print(f"streamed [{start}, {start + n}): accepted {n}")
PY
}
start_wal_daemon() { # <addr-file> <summary-file>
  target/release/logsynergy serve \
    --tenants-file "$wal_dir/tenants.conf" --listen 127.0.0.1:0 \
    --wal-dir "$wal_dir/wal" --addr-file "$1" \
    > "$2" 2> "$wal_dir/serve.log" &
  serve_pid=$!
  for _ in $(seq 1 600); do
    [ -s "$1" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.5
  done
  [ -s "$1" ] || { cat "$wal_dir/serve.log" >&2; exit 1; }
}
start_wal_daemon "$wal_dir/addr1.json" "$wal_dir/summary1.json"
stream_wal_lines "$wal_dir/addr1.json" 0 300
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
start_wal_daemon "$wal_dir/addr2.json" "$wal_dir/summary2.json"
stream_wal_lines "$wal_dir/addr2.json" 300 200
kill -TERM "$serve_pid"
wait "$serve_pid"
python3 - "$wal_dir/summary2.json" <<'PY'
import json, sys
out = json.load(open(sys.argv[1]))
ing, pipe = out["ingest"], out["pipeline"]
# Ingest counters are per-process (200 this run); pipeline counters are
# cursor-durable and cumulative across the SIGKILL (all 500 records).
assert ing["accepted"] == 200, out
assert pipe["logs"] == 500, out
buckets = (pipe["pattern_hits"] + pipe["cache_hits"] + pipe["model_calls"]
           + pipe["degraded"] + pipe["shed"] + pipe["quarantined"])
assert buckets == pipe["windows"] > 0, out
assert pipe.get("crashed_workers", 0) == 0, out
print(f"kill-and-recover OK: 500 logs across a SIGKILL, {pipe['windows']} windows, exact accounting")
PY
rm -rf "$wal_dir"

echo "==> committed results/ untouched"
results_after="$(results_snapshot)"
if [ "$results_after" != "$results_before" ]; then
  echo "FAIL: this run changed results/:" >&2
  diff <(echo "$results_before") <(echo "$results_after") >&2 || true
  exit 1
fi
echo "results/ as found"

echo "CI OK"
