#!/usr/bin/env python3
"""Run the benchmark repeatedly on one commit and check that it is steady.

Reads BENCHMARK.json from the current directory (the repository root) and
runs its command the way the driver does:

    <command> --workload W --seed N --seconds <run_seconds> --trace 0

For each of --sets sets it makes --runs runs per workload, each with another
seed, and prints per (workload, metric) the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.

Exit status is 1 when an end-to-end metric is unresolved at its own bound:
its spread exceeds the bound (setup_s excepted), or the median of a later set
is worse than that of the first set by more than the bound. Such a metric
needs a steadier workload (longer window, larger sample floor), not a wider
bound. A spread above a third of the bound is marked "wide" as a warning.

    python3 benchmark/repeat.py                 # 2 sets x 10 runs x 4 workloads, ~35 min
    python3 benchmark/repeat.py --runs 3 --workload point_read
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit status {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result, {res['failed']} of {res['attempted']} failed")
    return {name: m["value"] for name, m in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set, each with another seed")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs whose medians are compared")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: repeat the traced run (no bounds apply)")
    ap.add_argument("--raw", help="also write every run's values to this JSON file")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    # values[workload][metric][set] = list of run values
    values = {w: {d["name"]: [[] for _ in range(args.sets)] for d in defs} for w in workloads}
    seed = args.seed
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                got = run_once(bench, w, seed, args.trace)
                seed += 1
                for d in defs:
                    values[w][d["name"]][s].append(got[d["name"]])
                print(f"set {s + 1} {w} seed {seed - 1} done", file=sys.stderr)

    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(values, f, indent=1)

    unresolved = 0
    print(f"{'workload':15} {'metric':36} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for d in defs:
            bound = d.get("bound")
            first = None
            for s, xs in enumerate(values[w][d["name"]]):
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med if med else 0.0
                verdict = "ok"
                if bound is not None:
                    if d["name"] != "setup_s" and spread > bound:
                        verdict = "UNRESOLVED: spread above bound"
                    elif d["name"] != "setup_s" and spread > bound / 3:
                        verdict = "wide: spread above bound/3"
                    if first is None:
                        first = med
                    else:
                        worse = (med - first) / first if d["better"] == "lower" else (first - med) / first
                        if worse > bound:
                            verdict = f"UNRESOLVED: median {worse:+.1%} worse than set 1"
                    if verdict.startswith("UNRESOLVED"):
                        unresolved += 1
                b = f"{bound:6.2f}" if bound is not None else "     -"
                print(f"{w:15} {d['name']:36} {s + 1:>3} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.1%} {b}  {verdict}")
    if unresolved:
        print(f"{unresolved} (workload, metric, set) unresolved", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
