#!/usr/bin/env python3
"""Builds the roomnet benchmark from source and runs one workload.

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, and is incremental after the first
run. Build output goes to stderr; the benchmark's own output goes to stdout,
and its last line is the JSON result. A traced run (--trace 1) also writes
its spans to <build dir>/traces/<workload>-seed<seed>.jsonl.

Exits non-zero, printing no result, when the sources are missing, the build
fails, the benchmark fails or produces no result line, or its metric names
differ from those BENCHMARK.json declares.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "fleet", "replay_batch", "replay_stream")
# A run takes --seconds plus set-up, about a minute at most for a traced
# study; this only guards against a hang, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "roomnet_perfbench"],
        check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "roomnet_perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            declared = json.load(spec)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    expected = declared_metrics(args.trace == "1")
    if expected is not None and set(result.get("metrics", {})) != expected:
        sys.stderr.write(run.stdout)
        print("perfbench: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
