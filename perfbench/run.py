#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark program and
the library in Release into .bench_build/perfbench (its own build tree; the
repository's build files are not used), generates the workload's dataset
from the seed in a separate process, then runs the workload as one process
with DMS_THREADS=1. It prints a provenance line and, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics when --trace 0 and the per-layer metrics (plus a
Chrome trace under .bench_build/traces) when --trace 1. Exits non-zero,
without a result line, if the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "data")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "dms_perfbench")
WORKLOADS = ("train-replicated", "train-partitioned", "serve-open", "sample-n2v")
THREADS = "1"  # see README: fork-join jitter at >1 thread swamps the bounds
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release tree; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def source_revision():
    """The git commit when the checkout is a repository, else a digest of the
    sources the build reads: the library, the figure benches' shared header
    directory and the benchmark (benchmark checkouts carry no .git)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(args, env):
    res = subprocess.run([BINARY] + args, env=env, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        log("perfbench: dms_perfbench exited with %d: %s" % (res.returncode, " ".join(args)))
        return None
    return res.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 1
    if not build():
        return 1

    env = dict(os.environ, DMS_THREADS=THREADS)
    os.makedirs(DATA_DIR, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tag = "%s-%d" % (opt.workload, opt.seed)
    data = os.path.join(DATA_DIR, tag + ".dms")
    trace = os.path.join(TRACE_DIR, tag + ".json")
    common = ["--workload", opt.workload, "--seed", str(opt.seed)]
    try:
        if run_binary(["gen"] + common + ["--out", data], env) is None:
            return 1
        out = run_binary(["run"] + common + ["--seconds", repr(opt.seconds),
                                             "--trace", str(opt.trace),
                                             "--data", data, "--trace-out", trace], env)
    except subprocess.TimeoutExpired:
        log("perfbench: dms_perfbench timed out")
        return 1
    finally:
        if os.path.exists(data):
            os.remove(data)
    if out is None:
        return 1
    lines = out.strip().splitlines()
    if not lines:
        log("perfbench: dms_perfbench printed no result")
        return 1
    run = json.loads(lines[-1])
    for failure in run["failures"]:
        log("perfbench: CHECK FAILED: " + failure)

    print("provenance: commit=%s host=%s nproc=%d DMS_THREADS=%s build=%s "
          "compiler=%s seed=%d workload=%s seconds=%g trace=%d" % (
              source_revision(), platform.node(), os.cpu_count() or 0, THREADS,
              run["build_type"], run["compiler"].replace(" ", "-"), opt.seed,
              opt.workload, opt.seconds, opt.trace))
    if opt.trace:
        print("trace: %s" % os.path.relpath(trace, ROOT))
        # End-to-end figures of the traced run, for the tracing overhead.
        print("traced_end_to_end: %s" % json.dumps(
            {k: v["value"] for k, v in run["end_to_end"].items()}))
    metrics = run["per_layer"] if opt.trace else run["end_to_end"]
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
