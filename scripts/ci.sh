#!/usr/bin/env bash
# The one CI definition (.github/workflows/ci.yml only runs this and
# uploads its artifacts): clippy, tier-1 build+test, property tests, the
# golden-report regression suite, the perfbench smoke test, the CC-NUMA
# example, CLI-level checks that parallel sweeps are byte-deterministic,
# the micro benches, the parent-vs-head perf A/B (scripts/perf_ab.sh), the
# fault matrix, the trace smoke and the sweep server's crash-resume run. Leaves
# BENCH_sweep.json, BENCH_sweep_64node.json and trace.json in the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temporary file and directory the steps make, and the sweep daemon
# while it runs; one exit trap removes and stops them all.
tmps=()
sweepd_pid=""
cleanup() {
    if [ -n "$sweepd_pid" ]; then kill "$sweepd_pid" 2>/dev/null || true; fi
    rm -rf "${tmps[@]}"
}
trap cleanup EXIT
# new_tmp VAR [mktemp flags]: makes a temporary path, records it for
# cleanup and stores it in VAR.
new_tmp() {
    local path
    path=$(mktemp "${@:2}")
    tmps+=("$path")
    printf -v "$1" %s "$path"
}

echo "==> lint: clippy (warnings are errors)"
cargo clippy --all-targets -- -D warnings

echo "==> tier-1: build"
cargo build --workspace --release

echo "==> tier-1: tests"
cargo test --workspace -q

echo "==> property tests: cachesim, sim, TLB, VM, coherence, workloads, experiments"
cargo test --release -q --features proptest-tests \
    -p vcoma-cachesim -p vcoma-sim -p vcoma-tlb -p vcoma-vm -p vcoma-coherence -p vcoma-workloads \
    -p vcoma-experiments

echo "==> golden-report regression suite"
cargo test -q -p vcoma-integration --test golden_reports

echo "==> perfbench: builds against the workspace API and passes its smoke test"
# perfbench's build rewrites its tracked Cargo.lock; put the committed one back.
new_tmp lock_copy
cp perfbench/Cargo.lock "$lock_copy"
smoke_status=0
python3 perfbench/test_smoke.py || smoke_status=$?
cp "$lock_copy" perfbench/Cargo.lock
[ "$smoke_status" -eq 0 ] || { echo "perfbench smoke test failed"; exit 1; }

echo "==> CC-NUMA example (paper §2): first touch keeps misses local, SHARED-TLB sends them remote"
cargo run --release -q --example ccnuma_motivation | python3 -c '
import sys
rows = {f[0]: f[-1] for f in map(str.split, sys.stdin) if f and f[0].endswith("-TLB")}
assert sorted(rows) == ["L0-TLB", "L1-TLB", "L2-TLB", "SHARED-TLB"], rows
assert all(rows[s] == "0.0" for s in ("L0-TLB", "L1-TLB", "L2-TLB")), rows
assert float(rows["SHARED-TLB"]) > 90.0, rows
print("remote %:", rows)
'

echo "==> report fixtures: v4 is v3 without the counter registry and write-only net stats"
python3 - <<'PY'
import json
v3 = json.load(open("tests/golden/simreport_v3.json"))
v4 = json.load(open("tests/golden/simreport_v4.json"))
assert (v4["version"], v3["version"]) == (4, 3), (v4["version"], v3["version"])
assert v4.keys() == v3.keys(), (v4.keys(), v3.keys())
for field in ("format", "fingerprint", "key"):
    assert v4[field] == v3[field], field
body = v3["body"]
del body["metrics"]["counters"], body["metrics"]["gauges"]
for field in ("sent_per_node", "recv_per_node", "queue_wait", "local_msgs",
              "contention_cycles", "fault_delay_cycles"):
    del body["net"][field]
assert v4["body"] == body, "v4 body is not v3's minus metrics.counters/gauges and the six net fields"
PY

echo "==> parallel determinism smoke sweep (--jobs 1 vs --jobs 2)"
new_tmp out1 -d
new_tmp out2 -d
new_tmp bench1 -d
new_tmp fault1 -d
new_tmp fault2 -d
new_tmp n64a -d
new_tmp n64b -d
cargo run --release -p vcoma-experiments -- table2 fig8 \
    --scale 0.01 --out "$out1" --jobs 1
cargo run --release -p vcoma-experiments -- table2 fig8 \
    --scale 0.01 --out "$out2" --jobs 2
diff -r "$out1" "$out2"
echo "==> CSVs byte-identical across worker counts"

echo "==> 64-node smoke: scale-up run, --jobs 2 vs --jobs 1"
# The --jobs 1 run goes last so BENCH_sweep.json records cycles/s for the
# single-worker 64-node configuration.
cargo run --release -p vcoma-experiments -- fig11 \
    --scale 0.01 --nodes 64 --out "$n64a" --jobs 2
cargo run --release -p vcoma-experiments -- fig11 \
    --scale 0.01 --nodes 64 --out "$n64b" --jobs 1
diff -r "$n64a" "$n64b"
grep -q '"nodes": 64' BENCH_sweep.json
cp BENCH_sweep.json BENCH_sweep_64node.json
echo "==> 64-node CSVs byte-identical; BENCH_sweep_64node.json records the --jobs 1 run"

echo "==> table5 smoke: full scheme registry, --jobs 1 vs --jobs 8"
new_tmp t5a -d
new_tmp t5b -d
new_tmp t5n64a -d
new_tmp t5n64b -d
cargo run --release -p vcoma-experiments -- table5 \
    --scale 0.01 --out "$t5a" --jobs 1
cargo run --release -p vcoma-experiments -- table5 \
    --scale 0.01 --out "$t5b" --jobs 8
diff -r "$t5a" "$t5b"
# Registry exhaustiveness at the CLI level: every built-in key, paper and
# post-1998 alike, lands in the rendered CSV.
for label in L0-TLB L1-TLB L2-TLB L2-TLB/no_wback L3-TLB V-COMA Victima MPS-TLB; do
    grep -q -- "$label" "$t5a/table5.csv" || { echo "table5.csv is missing $label"; exit 1; }
done
echo "==> table5 byte-identical across worker counts; all registered schemes present"

echo "==> table5 64-node smoke: --jobs 1 vs --jobs 2, --schemes filter in play"
cargo run --release -p vcoma-experiments -- table5 --schemes l0_tlb,victima,mps_tlb \
    --scale 0.01 --nodes 64 --out "$t5n64a" --jobs 1
cargo run --release -p vcoma-experiments -- table5 --schemes l0_tlb,victima,mps_tlb \
    --scale 0.01 --nodes 64 --out "$t5n64b" --jobs 2
diff -r "$t5n64a" "$t5n64b"
# An unknown key must fail fast with the one-line usage error, status 2.
set +e
cargo run --release -p vcoma-experiments -- table5 --schemes no_such_scheme \
    >/dev/null 2>&1
status=$?
set -e
test "$status" -eq 2 || { echo "expected --schemes no_such_scheme to exit 2, got $status"; exit 1; }
echo "==> table5 64-node CSVs byte-identical across worker counts; bad --schemes rejected"

echo "==> bench smoke: --jobs 2 vs --jobs 1 sweeps"
# The single-worker run is the oracle the two-worker CSVs must match
# byte-for-byte. It runs first: each run overwrites BENCH_sweep.json in
# the working directory, and the two-worker run's copy is the CI artifact.
cargo run --release -p vcoma-experiments -- table1 table2 fig8 fig10 \
    --scale 0.01 --out "$bench1" --jobs 1
cargo run --release -p vcoma-experiments -- table1 table2 fig8 fig10 \
    --scale 0.01 --out "$out2" --jobs 2
diff -r "$out2" "$bench1"
test -s BENCH_sweep.json
grep -q '"peak_rss_kb"' BENCH_sweep.json
echo "==> jobs-1 and jobs-2 sweeps byte-identical; BENCH_sweep.json written"

echo "==> hot-path micro-benchmarks: plain-timer harness must run every kernel"
new_tmp micro_out
cargo bench -p vcoma-bench --bench hotpath_micro | tee "$micro_out"
for label in op_gen tlb_lookup tlb_bank cache_probe am_probe page_table_map coherence_txn directory_fill access_v_coma access_l0_tlb replay_paper codec_roundtrip; do
    grep -q "bench hotpath_micro/${label}:" "$micro_out" \
        || { echo "hotpath_micro never ran ${label}"; exit 1; }
done
echo "==> all micro-bench kernels ran under the plain-timer fallback"

echo "==> perf A/B: parent commit vs head, same host, --jobs 1"
scripts/perf_ab.sh

echo "==> fault-matrix smoke: every scheme under a lossy crossbar, auditor on"
cargo run --release -p vcoma-experiments -- faults --scale 0.01 \
    --fault-plan drop=0.01,dup=0.005,delay=32,nack=0.02 --fault-seed 0xFA17 \
    --out "$fault1" --jobs 1
cargo run --release -p vcoma-experiments -- faults --scale 0.01 \
    --fault-plan drop=0.01,dup=0.005,delay=32,nack=0.02 --fault-seed 0xFA17 \
    --out "$fault2" --jobs 8
diff -r "$fault1" "$fault2"
echo "==> fault sweeps byte-identical across worker counts"

echo "==> trace smoke: critical-path table + Perfetto export, --jobs 1 vs --jobs 8"
new_tmp trace1 -d
new_tmp trace8 -d
cargo run --release -p vcoma-experiments -- trace --scale 0.01 \
    --out "$trace1" --trace-out "$trace1/trace.json" --jobs 1
cargo run --release -p vcoma-experiments -- trace --scale 0.01 \
    --out "$trace8" --trace-out "$trace8/trace.json" --jobs 8 --progress
diff -r "$trace1" "$trace8"
# The workflow uploads this copy as the Perfetto trace artifact.
cp "$trace1/trace.json" trace.json
if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace1/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace export has no events"
bad = [e for e in events if not all(k in e for k in ("ts", "dur", "pid"))]
assert not bad, f"{len(bad)} events missing ts/dur/pid"
print(f"trace.json OK: {len(events)} events, all with ts/dur/pid")
EOF
else
    grep -q '"traceEvents"' "$trace1/trace.json"
    echo "python3 unavailable; structural grep check only"
fi
echo "==> trace artifact byte-identical across worker counts; export valid"

echo "==> sweep server: crash resume, 100% cache-hit resubmission, byte-diff vs direct run"
new_tmp sw -d
sweepd_http="127.0.0.1:9188"
cargo build --release -p vcoma-server -p vcoma-experiments
start_sweepd() {
    # A kill -9'd daemon leaves its socket file behind; clear it so the
    # readiness probe below only sees the new daemon's bind.
    rm -f "$sw/sweepd.sock"
    target/release/vcoma-sweepd --listen "unix:$sw/sweepd.sock" --store "$sw/store" \
        --jobs 2 --http "$sweepd_http" > "$sw/sweepd.stdout" &
    sweepd_pid=$!
    for _ in $(seq 1 100); do [ -S "$sw/sweepd.sock" ] && return 0; sleep 0.1; done
    echo "vcoma-sweepd never started listening"; exit 1
}
# Fetches /metrics and validates every line of the scrape against the
# Prometheus text-exposition grammar (comments must be HELP/TYPE, sample
# values must parse as floats).
check_scrape() {
    curl -fsS "http://$sweepd_http/metrics" > "$sw/scrape.txt"
    python3 - "$sw/scrape.txt" <<'EOF'
import re, sys
sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\S+)$')
comment = re.compile(r'^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$')
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty scrape"
for line in lines:
    if line.startswith("#"):
        assert comment.match(line), f"bad comment line: {line!r}"
        continue
    m = sample.match(line)
    assert m, f"bad sample line: {line!r}"
    float(m.group(2))  # raises on a malformed value
for series in ("vcoma_store_hits_total", "vcoma_queue_depth",
               'vcoma_jobs{phase="running"}', "vcoma_cycles_per_second"):
    assert any(l.startswith(series + " ") for l in lines), f"missing series {series}"
print(f"scrape OK: {len(lines)} lines")
EOF
}
# The daemon's stdout must hold only its `listening on …` readiness line,
# however many sweeps it has run; logs go to stderr.
check_quiet_stdout() {
    test "$(wc -l < "$sw/sweepd.stdout")" -eq 1 || {
        echo "vcoma-sweepd stdout holds more than its readiness line:"
        cat "$sw/sweepd.stdout"
        exit 1
    }
}
# The value of a single un-labelled metric in the latest scrape.
metric() { awk -v m="$1" '$1 == m { print $2 }' "$sw/scrape.txt"; }
# Daemon 1 populates the store with table2, then dies hard: the on-disk
# state is exactly a sweep killed partway through the full artifact set.
start_sweepd
target/release/vcoma-experiments submit table2 --scale 0.01 \
    --server "unix:$sw/sweepd.sock" >/dev/null
kill -9 "$sweepd_pid"; wait "$sweepd_pid" 2>/dev/null || true
# Daemon 2 resumes: the full sweep must serve table2's points from the
# store (hits >= 1) while simulating only the genuinely new remainder.
# Submit --no-wait first so /metrics and /healthz get probed mid-job.
start_sweepd
job=$(target/release/vcoma-experiments submit table2 fig8 table5 --scale 0.01 \
    --server "unix:$sw/sweepd.sock" --no-wait)
curl -fsS "http://$sweepd_http/healthz" | grep -q '^ok$' \
    || { echo "/healthz not ok on a live daemon"; exit 1; }
check_scrape
# The identical resubmission joins the running job and waits it out.
job_again=$(target/release/vcoma-experiments submit table2 fig8 table5 --scale 0.01 \
    --server "unix:$sw/sweepd.sock" --out "$sw/daemon-csvs")
test "$job" = "$job_again" || { echo "resubmit forked a new job: $job vs $job_again"; exit 1; }
status=$(target/release/vcoma-experiments status "$job" --server "unix:$sw/sweepd.sock")
echo "$status"
echo "$status" | grep -q " done " || { echo "resumed sweep did not finish"; exit 1; }
echo "$status" | grep -q " 0 store hits, " && { echo "resume simulated table2 instead of hitting the store"; exit 1; }
echo "$status" | grep -q ", 0 simulated)" && { echo "fig8/table5 should have simulated fresh points"; exit 1; }
check_quiet_stdout
kill -9 "$sweepd_pid"; wait "$sweepd_pid" 2>/dev/null || true
# Daemon 3: the identical resubmission must be served 100% from the
# store, and the scrape's store-hit counter must climb while it does.
start_sweepd
check_scrape
hits_before=$(metric vcoma_store_hits_total)
job2=$(target/release/vcoma-experiments submit table2 fig8 table5 --scale 0.01 \
    --server "unix:$sw/sweepd.sock" --out "$sw/resume-csvs")
test "$job" = "$job2" || { echo "job ids must be content-addressed: $job vs $job2"; exit 1; }
status=$(target/release/vcoma-experiments status "$job2" --server "unix:$sw/sweepd.sock")
echo "$status"
echo "$status" | grep -q ", 0 simulated)" || { echo "resubmission was not 100% from the store"; exit 1; }
echo "$status" | grep -qE " 0/[0-9]+ points, " && { echo "resubmission served no points at all"; exit 1; }
check_scrape
hits_after=$(metric vcoma_store_hits_total)
awk -v a="$hits_before" -v b="$hits_after" 'BEGIN { exit !(b > a) }' \
    || { echo "vcoma_store_hits_total did not climb across the resubmit ($hits_before -> $hits_after)"; exit 1; }
target/release/vcoma-experiments fetch "$job2" \
    --server "unix:$sw/sweepd.sock" --out "$sw/fetch-csvs" >/dev/null
kill "$sweepd_pid"; wait "$sweepd_pid" 2>/dev/null || true
sweepd_pid=""
diff -r "$sw/daemon-csvs" "$sw/resume-csvs"
diff -r "$sw/daemon-csvs" "$sw/fetch-csvs"
# The daemon's CSVs must be byte-identical to a direct single-worker run.
# It runs in "$sw" so its BENCH_sweep.json leaves the uploaded one alone.
cli="$PWD/target/release/vcoma-experiments"
(cd "$sw" && "$cli" table2 fig8 table5 --scale 0.01 --out "$sw/direct-csvs" --jobs 1)
diff -r "$sw/daemon-csvs" "$sw/direct-csvs"
echo "==> sweep server resumes from its store and matches direct runs byte-for-byte"

echo "==> ci.sh: all green"
