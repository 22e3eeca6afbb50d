#!/usr/bin/env python3
"""Steadiness check for the perfbench workloads.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the repository root. Runs two interleaved sets of each workload
(set A on seeds 1..N, set B on seeds 101..100+N, alternating A and B run by
run), then prints, per workload and end-to-end metric, each set's median and
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and
whether the two sets agree within the metric's bound from BENCHMARK.json:
the medians of set A and set B differ by at most the bound, in either
direction, and every spread stays within it. An A+B row gives the quartiles
of both sets together. It also compares the failed share of the two sets.
Last, it runs every workload once, traced, on CHECK_SEED, which neither set
uses, so the output checks run on an unseen seed too. Exits non-zero if any
comparison or check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SET_A_FIRST_SEED = 1
SET_B_FIRST_SEED = 101
CHECK_SEED = 7919


def run_once(workload, seed, seconds, trace):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(res.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    opt = ap.parse_args()
    workloads = opt.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    seeds = {"A": [SET_A_FIRST_SEED + i for i in range(opt.runs)],
             "B": [SET_B_FIRST_SEED + i for i in range(opt.runs)]}
    results = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(opt.runs):
        for w in workloads:
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                results[(w, s)].append(run_once(w, seeds[s][i], opt.seconds, 0))
        print("round %d/%d done" % (i + 1, opt.runs), file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs per set, %gs each)" % (w, opt.runs, opt.seconds))
        print("%-15s %5s %12s %12s %12s %7s %6s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, m in metrics.items():
            med = {}
            for s in "AB":
                vals = [r["metrics"][name]["value"] for r in results[(w, s)]]
                q1, md, q3 = quartiles(vals)
                med[s] = md
                spread = (q3 - q1) / md if md else float("inf")
                verdict = ""
                if spread > m["bound"]:
                    verdict, ok = "SPREAD>BOUND", False
                elif spread > m["bound"] / 3:
                    verdict = "spread>bound/3"
                print("%-15s %5s %12.6g %12.6g %12.6g %7.3f %6.2f  %s" % (
                    name, s, md, q1, q3, spread, m["bound"], verdict))
            q1, md, q3 = quartiles([r["metrics"][name]["value"]
                                    for s in "AB" for r in results[(w, s)]])
            print("%-15s %5s %12.6g %12.6g %12.6g %7.3f %6.2f" % (
                name, "A+B", md, q1, q3, (q3 - q1) / md if md else float("inf"), m["bound"]))
            # Signed for display (positive: B is worse); the test is two-sided.
            shift = (med["B"] - med["A"]) / med["A"]
            worse = -shift if m["better"] == "higher" else shift
            agree = abs(shift) <= m["bound"]
            ok = ok and agree
            print("%-15s %5s %+11.3f%% %s" % (name, "B/A", 100 * worse,
                                              "agree" if agree else "DISAGREE"))
        share = {s: sum(r["failed"] for r in results[(w, s)]) /
                 sum(r["attempted"] for r in results[(w, s)]) for s in "AB"}
        correct = all(r["correct"] for s in "AB" for r in results[(w, s)])
        ok = ok and share["A"] == share["B"] and correct
        print("failed share A=%g B=%g %s; all runs correct: %s" % (
            share["A"], share["B"], "same" if share["A"] == share["B"] else "DIFFER", correct))

    print("\n== checks on unseen seed %d (traced)" % CHECK_SEED)
    for w in workloads:
        r = run_once(w, CHECK_SEED, opt.seconds, 1)
        print("%-18s correct=%s attempted=%d failed=%d per-layer metrics=%d" % (
            w, r["correct"], r["attempted"], r["failed"], len(r["metrics"])))
        ok = ok and r["correct"]
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
