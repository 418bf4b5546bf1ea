#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_runner from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|scale1024|native_kv|mck \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload + traced run

The first call configures and builds the benchmark (the clof library from src/ plus the
runner and its unit tests) under .bench_build/perfbench. Every call then runs the
benchmark's unit tests, runs the workload, prints every metric the runner measured by
name and unit, and ends with one JSON line holding exactly the metrics that
BENCHMARK.json names for the mode: the end-to-end metrics untraced (--trace 0), the
per-layer metrics traced (--trace 1). A full record of the run, with the host
fingerprint, is written to .bench_build/perfbench/results/.

Exit status: 0 when every check passed, 1 when a check failed, a metric is missing, or
the benchmark cannot be built (then no result line is printed), 2 on bad arguments.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import subprocess
import sys
import time

# The workloads, metric names and units, and the default --seconds are read from
# BENCHMARK.json at the root of the checkout; this file holds none of its own.
SPEC_PATH = "BENCHMARK.json"
# Runnable by name and part of --all, but not in BENCHMARK.json: its raw pass time
# spread 12-22% across ten seeds on a shared 4-vCPU host, and a fourth workload would
# lengthen a full check of the benchmark by a quarter. The traced run still reports its
# layers (mck.*).
UNLISTED_WORKLOADS = ["mck"]

# Never used while the benchmark or a change was tuned: a later change confirms a
# claimed gain on this seed before it is accepted.
HOLDOUT_SEED = 7919

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def runner_timeout_s(seconds):
    """A run measures for `seconds`, then finishes its last pass; set-up and the traced
    run's fixed work (about 20 s on a 4-vCPU VM) come on top."""
    return 2 * seconds + 140


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; the flock serialises concurrent callers."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout carries only the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def read_steal():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "Model", "Hardware"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_runner(workload, seed, seconds, trace):
    """Runs one workload; returns (human lines, raw result dict or None, host dict)."""
    steal_before = read_steal()
    started = time.time()
    timeout = runner_timeout_s(seconds)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_runner"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=timeout)
        out = proc.stdout
    except subprocess.TimeoutExpired as e:
        log(f"error: {workload} did not finish within {timeout} s")
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return out.splitlines(), None, {}
    steal_after = read_steal()
    host = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": build_type(),
        "wall_s": round(time.time() - started, 3),
    }
    if steal_before and steal_after:
        steal = steal_after[0] - steal_before[0]
        total = steal_after[1] - steal_before[1]
        host["steal_jiffies"] = steal
        host["steal_frac"] = steal / total if total > 0 else 0.0
    lines = out.splitlines()
    raw = None
    if lines:
        try:
            raw = json.loads(lines[-1])
        except json.JSONDecodeError:
            raw = None
    return lines[:-1] if raw is not None else lines, raw, host


def contract_result(raw, names_units):
    """Exactly the metrics the mode promises; `correct` also demands each is present,
    finite and in its declared unit."""
    metrics = {}
    problems = []
    for name, unit in names_units:
        m = raw.get("metrics", {}).get(name)
        if m is None:
            problems.append(f"metric {name} missing")
            continue
        if m.get("unit") != unit or not math.isfinite(m.get("value", float("nan"))):
            problems.append(f"metric {name} has unit {m.get('unit')} value {m.get('value')}")
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    result = {
        "correct": bool(raw.get("correct")) and not problems,
        "attempted": int(raw.get("attempted", 0)) or 1,
        "failed": int(raw.get("failed", 0)) + len(problems),
        "metrics": metrics,
    }
    return result, problems


def run_one(spec, workload, seed, seconds, trace):
    """Runs and reports one workload; returns the exit status."""
    lines, raw, host = run_runner(workload, seed, seconds, trace)
    for line in lines:
        print(line)
    if raw is None:
        log(f"error: {workload} produced no result")
        return 1
    names_units = [(m["name"], m["unit"])
                   for m in spec["per_layer" if trace else "end_to_end"]]
    result, problems = contract_result(raw, names_units)
    for problem in problems:
        log(f"error: {problem}")
    host.update({"seed": seed, "holdout_seed": HOLDOUT_SEED, "workload": workload,
                 "trace": trace, "seconds": seconds})
    print("host " + json.dumps(host, sort_keys=True))

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(raw, host=host)
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"error: cannot read {SPEC_PATH} (run from the repository root): {e}")
        return 1
    workloads = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then the traced run")
    args = parser.parse_args()

    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    if not os.path.isdir("src") or not build():
        log("error: the benchmark could not be built (run from the repository root)")
        return 1
    if not args.all:
        return run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in workloads:
        print(f"== {name} (untraced)", flush=True)
        status |= run_one(spec, name, args.seed, args.seconds, 0)
    print("== traced run", flush=True)
    status |= run_one(spec, workloads[0], args.seed, args.seconds, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
