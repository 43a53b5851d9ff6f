#!/usr/bin/env bash
# Perf gate: the parent commit against the head commit, like for like.
#
# Builds HEAD^1 in a throwaway git worktree (with its own target dir) and
# the working tree as head, then runs one pinned sweep,
#   vcoma-experiments table2 fig8 --scale 0.05 --jobs 1,
# three times per side, alternating parent and head so that drift in the
# host's load hits both sides alike. Each side runs in its own temporary
# working directory and reports the `total_refs_per_second` (simulated
# memory references per wall-clock second) its BENCH_sweep.json records.
# The gate fails when head's median is below 0.7x the parent's median.
#
# Both sides run on the same host in the same job, so the runner's speed
# cancels out. One worker per run keeps the figure free of
# oversubscription. The script takes no arguments; run it from a checkout
# with at least two commits of history:
#   scripts/perf_ab.sh
set -euo pipefail
# A sweep that fails inside $(...) must fail the script, not leave the
# previous run's BENCH_sweep.json to be read.
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

if ! parent=$(git rev-parse --verify -q 'HEAD^1^{commit}'); then
    echo "perf_ab: HEAD^1 does not resolve; the checkout needs the parent commit (fetch-depth 2)"
    exit 1
fi

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/parent" 2>/dev/null || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> perf A/B: building parent $(git rev-parse --short "$parent") and head"
git worktree add -q --detach "$work/parent" "$parent"
(cd "$work/parent" && CARGO_TARGET_DIR="$work/parent-target" \
    cargo build --release -q -p vcoma-experiments)
env -u CARGO_TARGET_DIR cargo build --release -q -p vcoma-experiments
parent_bin="$work/parent-target/release/vcoma-experiments"
head_bin="$PWD/target/release/vcoma-experiments"
mkdir "$work/parent-run" "$work/head-run"

# Runs the pinned sweep with binary $1 in directory $2 and prints the
# run's simulated refs/s.
sweep() {
    (cd "$2" && "$1" table2 fig8 --scale 0.05 --jobs 1 --out csv >/dev/null)
    grep -o '"total_refs_per_second": [0-9.eE+-]*' "$2/BENCH_sweep.json" | awk '{print $2}'
}

# The middle of three values.
median3() { printf '%s\n' "$@" | sort -g | sed -n 2p; }

parent_runs=()
head_runs=()
for i in 1 2 3; do
    if [ $((i % 2)) -eq 1 ]; then
        parent_runs+=("$(sweep "$parent_bin" "$work/parent-run")")
        head_runs+=("$(sweep "$head_bin" "$work/head-run")")
    else
        head_runs+=("$(sweep "$head_bin" "$work/head-run")")
        parent_runs+=("$(sweep "$parent_bin" "$work/parent-run")")
    fi
    echo "pair $i: parent ${parent_runs[-1]} refs/s, head ${head_runs[-1]} refs/s"
done

p=$(median3 "${parent_runs[@]}")
h=$(median3 "${head_runs[@]}")
awk -v p="$p" -v h="$h" 'BEGIN {
    printf "median refs/s: parent %.0f, head %.0f (head/parent %.3f)\n", p, h, h / p
    if (h < 0.7 * p) {
        print "perf A/B: head is more than 30% slower than its parent"
        exit 1
    }
    print "perf A/B ok"
}'
