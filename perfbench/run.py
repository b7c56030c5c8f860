#!/usr/bin/env python3
"""Build FabP from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `fabp_search` binary and the benchmark crate in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the workload
in a scratch directory under `.perfbench_work`. Build and progress output
go to stderr; the last stdout line is the JSON result. Exits non-zero,
printing no result, when the sources are missing or anything fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("search_scan", "search_seeded", "serve_scan", "serve_fleet")
BUILD_TIMEOUT_S = 840
# Set-up, warm-up and the correctness checks run outside the measured
# phase; this much time on top of --seconds covers them.
RUN_SLACK_S = 150
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group and waits for it. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} did not finish within {timeout} s")
    return proc.returncode, out


def build(cmd, root, env):
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates"))
    ):
        fail(f"no FabP sources in {root}; run from a full checkout")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["--bin", "fabp_search"], root, env)
    build(cargo + ["--manifest-path", os.path.join(bench_dir, "Cargo.toml")], root, env)

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        code, out = run_group(
            [
                os.path.join(target, "release", "fabp-perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--search-bin", os.path.join(target, "release", "fabp_search"),
                "--work-dir", work,
            ],
            args.seconds + RUN_SLACK_S,
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    if code != 0:
        fail(f"workload {args.workload} exited with {code}")
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the workload printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
