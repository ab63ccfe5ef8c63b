#!/usr/bin/env python3
"""Builds and runs the ULMT repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to 25, the run_seconds of BENCHMARK.json.

Run from the root of a checkout. Builds perfbench/ (a cargo package with
path dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload in its
own process pinned to one CPU, so that every thread of the load
generator, the service and the simulator shares that CPU. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload, one process
each, and ends with one object whose metric names are prefixed with the
workload. The exit code is 0 only if every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_inproc", "small_net", "sim_fig7"]
DEFAULT_SEED = 24301
# Equal to run_seconds in BENCHMARK.json: a run without --seconds measures
# what the steadiness figures were taken on. The measuring program has no
# default of its own; it always gets --seconds from here.
DEFAULT_SECONDS = 25
# A run must end within 180 s; leave room to report.
CHILD_TIMEOUT_S = 170


def build():
    """Builds the measuring program; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("build failed", file=sys.stderr)
        return None
    return os.path.join(ROOT, target, "release", "ulmt-perfbench")


def revision():
    """The git revision of the checkout, if it is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_one(binary, workload, args, cpu):
    """Runs one workload pinned to `cpu`; returns (exit code, stdout lines)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--revision", revision(), "--host-cpus", str(os.cpu_count()),
    ]
    # The simulator reads a few ULMT_* variables; keep runs reproducible.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ULMT_")}
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cpu = min(os.sched_getaffinity(0))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        rc, lines = run_one(binary, name, args, cpu)
        for line in lines[:-1] if len(names) > 1 else lines:
            print(line, flush=True)
        code = code or rc
        if not lines:
            return code or 1
        results[name] = lines[-1]
    if len(names) > 1:
        parsed = {n: json.loads(r) for n, r in results.items()}
        for n, r in parsed.items():
            print(f"{n}: " + json.dumps(r))
        print(json.dumps({
            "correct": all(r["correct"] for r in parsed.values()),
            "attempted": sum(r["attempted"] for r in parsed.values()),
            "failed": sum(r["failed"] for r in parsed.values()),
            "metrics": {f"{n}/{k}": v for n, r in parsed.items() for k, v in r["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
