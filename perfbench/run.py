#!/usr/bin/env python3
"""Build and run the vcoma host-side benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload locality_l0 --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root) and
then run with the given arguments. Its standard output, whose last line is
the JSON result, passes through unchanged; build output goes to standard
error. Stores, spans and the result ledger live under .bench_work.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--commit", commit(), "--work", os.path.join(ROOT, ".bench_work")]
    # The benchmark is single-threaded, but each sweep runs on a short-lived
    # worker thread; with glibc's default arenas, peak RSS then depends on
    # which arena each worker lands in (57 or 89 MB on the same run).
    env["MALLOC_ARENA_MAX"] = "1"
    return subprocess.run([binary] + args, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
