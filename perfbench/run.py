#!/usr/bin/env python3
"""Velox serving benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (which builds src/)
into .bench_build/perfbench, runs the harness with the workload's fixed
parameters from perfbench/config.json, prints every metric it measured
with its name, unit and sample count, writes the full report to
.bench_out/perfbench/, and prints the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Exits 1 after the result line when
an output check failed, and 2 without a result when the benchmark
cannot run.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out", "perfbench")
# Leaves headroom under the 180 s a measurement may take.
DEADLINE_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no program sources in {os.path.join(ROOT, 'src')}; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "velox_perfbench",
                  "-j", str(min(os.cpu_count() or 1, 8))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                die(f"build step failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(BUILD_DIR, "velox_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "config.json")) as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read the benchmark definition: {e}")
    if args.workload not in config["workloads"]:
        die(f"unknown workload {args.workload}; known: {', '.join(config['workloads'])}")
    binary = build()
    # The first run in a checkout also builds; the deadline covers the
    # measurement only.
    started = time.monotonic()

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = os.path.join(OUT_DIR, stem + ".json")
    spans_path = os.path.join(OUT_DIR, stem + "-spans.jsonl")
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", report_path, "--spans", spans_path, "--work-dir", work_dir]
    for key, value in config["workloads"][args.workload].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        command += ["--param", f"{key}={value}"]

    if os.path.exists(report_path):
        os.remove(report_path)
    try:
        child = subprocess.run(command, timeout=max(1, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        die("the harness ran past its deadline and was stopped")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0 or not os.path.isfile(report_path):
        die(f"the harness failed (exit code {child.returncode})")
    with open(report_path) as f:
        report = json.load(f)

    report["context"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "parameters": config["workloads"][args.workload],
    }
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    print(f"\n{'metric':40} {'value':>16} {'unit':>8} {'samples':>9}")
    for name, m in report["metrics"].items():
        print(f"{name:40} {m['value']:16.6g} {m['unit']:>8} {m['samples']:9d}")
    print(f"context: {json.dumps(report['context'], sort_keys=True)}")
    print(f"full report: {os.path.relpath(report_path, ROOT)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        measured = report["metrics"].get(m["name"])
        if measured is None:
            die(f"the harness did not measure {m['name']}")
        if measured["unit"] != m["unit"]:
            die(f"{m['name']} is measured in {measured['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": measured["value"], "unit": m["unit"]}
    correct = bool(report["checks_ok"])
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
