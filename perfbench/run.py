#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ler_d11 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2   # every workload

Run from the root of a source checkout. The first run configures and
builds perfbench/ (a CMake package of its own that compiles ../src)
into .bench_build/perfbench; later runs only re-check the build. The
statistics self-tests run before every measurement. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics, holding the BENCHMARK.json end_to_end metrics
(--trace 0) or per_layer metrics (--trace 1). The exit code is 0 only
when the build, the self-tests and every correctness gate passed.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_revision():
    """git sha when the checkout is a repository, else a tree hash."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then bring the build up to date (locked, so
    concurrent runs in one checkout do not race)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "3"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))


def select_metrics(result, spec, trace):
    """Exactly the BENCHMARK.json metrics of this mode, unit-checked."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    produced = result.get("metrics", {})
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = produced.get(name)
        if got is None:
            fail("benchmark did not produce metric %s" % name)
        if got.get("unit") != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, got.get("unit"), unit))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s has no finite value" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_all(spec, args):
    """Every workload in turn; the last line merges their results,
    with each metric keyed workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            fail("workload %s exited %d without a result line"
                 % (workload, run.returncode))
        merged["correct"] = merged["correct"] and result["correct"] and \
            run.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = metric
    for name, metric in merged["metrics"].items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a BENCHMARK.json workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "qec", "qec.hpp")):
        fail("library sources (src/qec) not found next to perfbench/; "
             "run from the root of a full source checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload == "all":
        run_all(spec, args)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)

    build()
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("statistics self-tests failed")

    env = dict(os.environ, PERFBENCH_SOURCE_SHA=source_revision())
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        fail("workload %s exited %d without a result line"
             % (args.workload, run.returncode))

    correct = bool(result.get("correct")) and run.returncode == 0
    if int(result.get("attempted", 0)) < 1:
        fail("workload %s attempted no operations" % args.workload)
    final = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result.get("failed", 0)),
        "metrics": select_metrics(result, spec, args.trace),
    }
    record = dict(final, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  wall_s=round(time.monotonic() - started, 3),
                  host=json.loads(lines[0][len("host "):])
                  if lines[0].startswith("host ") else None,
                  all_metrics=result.get("metrics"))
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(final))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
