#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the workload driver from source (into .bench_build/),
runs the workload in a fresh process, checks its outputs and hard gates, and
prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json from one untraced
run. --trace 1 runs the workload twice with the same seed, untraced and then
traced (spans and per-slice counter deltas, written to
.bench_build/spans/<workload>-<seed>.jsonl), checks that the two agree on every
deterministic counter, and reports every per-layer metric plus the tracing
overhead (traced minus untraced) of each end-to-end metric.

Exit status: 0 on success; 1 when a hard gate trips or an output is wrong
(the result line is still printed, with "correct": false); 2 when the
benchmark cannot build or run (no result line).
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "p2bench")
CHILD_TIMEOUT_S = 170

# Sim workloads are deterministic: the traced run must reproduce these exactly.
DETERMINISTIC = ("fleet256_k4", "forensics21")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("engine sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "p2bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            die("build step failed: " + " ".join(cmd))


def no_aslr():
    """Runs in the child before exec: disables address-space randomisation.

    With ASLR on, each process lays the engine's tables and trace stores out
    at different addresses, and the memory-bound workloads (replay scans,
    trace ingest) then differ by up to 20% from run to run on one seed.
    """
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | addr_no_randomize)


def run_child(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        die("%s run timed out after %d s" % (workload, CHILD_TIMEOUT_S))
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s run exited with %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("%s run printed no report" % workload)


def pick(report_metrics, names, what):
    out = {}
    for name in names:
        if name not in report_metrics:
            die("%s metric %s missing from the workload report" % (what, name))
        m = report_metrics[name]
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    if args.seconds < 1:
        die("--seconds must be at least 1")
    build()

    problems = []
    base = run_child(args.workload, args.seed, args.seconds, trace=False)
    reports = [base]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    e2e = pick(base["metrics"], e2e_names, "end-to-end")
    if args.trace:
        traced = run_child(args.workload, args.seed, args.seconds, trace=True)
        reports.append(traced)
        if args.workload in DETERMINISTIC:
            for key, value in sorted(base["det"].items()):
                if traced["det"].get(key) != value:
                    problems.append("traced run changed deterministic counter %s: %s -> %s"
                                    % (key, value, traced["det"].get(key)))
        layers = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            if name.startswith("overhead."):
                metric = name[len("overhead."):]
                value = traced["metrics"][metric]["value"] - base["metrics"][metric]["value"]
            else:
                # Layers a workload does not exercise read 0 (the README's
                # "predicted flat" cells).
                value = traced["layers"].get(name, {"value": 0})["value"]
            layers[name] = {"value": value, "unit": units[name]}
        metrics = layers
    else:
        metrics = e2e

    for rep in reports:
        problems += rep["gate_violations"] + rep["errors"]
    correct = not problems
    for p in problems:
        log("perfbench: FAIL: " + p)
    log("perfbench: %s seed=%d attempted=%d failed=%d ops=%s" % (
        args.workload, args.seed, base["attempted"], base["failed"],
        json.dumps(base["ops"], sort_keys=True)))
    log("perfbench: untraced metrics " + json.dumps(
        {k: round(v["value"], 6) for k, v in sorted(base["metrics"].items())}))
    print(json.dumps({"correct": correct, "attempted": base["attempted"],
                      "failed": base["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
