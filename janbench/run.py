#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 janbench/run.py --workload spec-hybrid --seed 1 --seconds 20 --trace 0

The benchmark and the library it measures are built (Release) into
.bench_build/janbench; the benchmark's self-tests run after every build.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "janbench")
WORKLOADS = ("spec-hybrid", "juliet-cold", "spec-aot")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"janbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no library sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    steps.append([os.path.join(BUILD, "janbench_selftest")])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("step failed: " + " ".join(cmd))


def state_dir(binary):
    """Per-binary directory for the cross-run cycle digests and spans."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    path = os.path.join(BUILD, "state", h.hexdigest()[:16])
    os.makedirs(path, exist_ok=True)
    return path


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent).

    Also checks that layers.json maps exactly the per-layer metrics."""
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec):
        return None
    with open(spec) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    per_layer = {m["name"] for m in bench["per_layer"]}
    if mapped != per_layer:
        die(f"layers.json and BENCHMARK.json disagree: {sorted(mapped ^ per_layer)}")
    return per_layer if trace else {m["name"] for m in bench["end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    binary = os.path.join(BUILD, "janbench")
    # The library reads JZ_* variables (kill switches, budgets, tracing);
    # none may leak into a measured run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JZ_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir(binary)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode} and no result")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        die("metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ want)}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
