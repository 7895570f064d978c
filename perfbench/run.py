#!/usr/bin/env python3
"""Builds the benchmark and the `bisramgen` daemon from source, then runs
one workload.

    python3 perfbench/run.py --workload <compile-scale|reliability|daemon-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Build output goes to standard error;
the benchmark's report and its JSON result line go to standard output.
Binaries land in $CARGO_TARGET_DIR (default: .bench_build).
"""

import os
import subprocess
import sys

# One run must finish well inside three minutes once built.
RUN_TIMEOUT_S = 175


def main():
    manifest = os.path.join("perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest,
         "-p", "bisram-perfbench", "-p", "bisram-serve", "--bins"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(os.path.abspath(target), "release")
    bench = os.path.join(release, "bisram-perfbench")
    daemon = os.path.join(release, "bisramgen")
    # Two glibc malloc arenas for the benchmark and the daemon it starts.
    # Uncapped, a worker thread may or may not get an arena of its own,
    # and peak RSS jumps between two levels from run to run. A cap of
    # one makes the worker threads contend for one arena and slowed the
    # fleet job by about a fifth (2 vCPUs); two costs no measurable time.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="2")
    try:
        run = subprocess.run([bench, *sys.argv[1:], "--daemon-bin", daemon],
                             timeout=RUN_TIMEOUT_S, env=run_env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
