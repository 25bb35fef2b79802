#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corpus_batch|serve_cold \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own cargo workspace over the
repository's crates) and the release `vliw-served` binary into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then runs
the benchmark. Its last stdout line is the JSON result; build output and
progress go to stderr. Exits non-zero without a result when the build or
the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    for extra in (["--bin", "perfbench"], ["-p", "vliw-serve", "--bin", "vliw-served"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        build = subprocess.run(cmd + extra, env=env, stdout=sys.stderr, cwd=ROOT)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(target, "release", "vliw-served"),
        "--work-dir",
        work_dir,
    ]
    # A process group of its own, so a timeout also stops the server it
    # started.
    run = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
