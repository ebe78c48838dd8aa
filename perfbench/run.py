#!/usr/bin/env python3
"""Build and run the scheduler benchmark.

    python3 perfbench/run.py --workload <judge_replay|backlog_replay|wire_open_loop> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, with path dependencies on the repository's crates) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
it. The last line of standard output is the JSON result. Exits non-zero,
printing no result, when the repository's sources are missing, the build
fails, or the run fails or overruns.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The crates the benchmark links; without them there is nothing to build.
SOURCES = ["crates/serve/Cargo.toml", "crates/sim/Cargo.toml", "Cargo.toml"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"repository sources missing ({', '.join(missing)}); nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--sock-dir", target],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
