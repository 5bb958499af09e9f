#!/usr/bin/env python3
"""Runs the benchmark on one or more workloads over several seeds and
prints, for each metric, the median and the quartile spread (Q3 - Q1) as
a share of the median: the figure a metric's bound in BENCHMARK.json must
stay above. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 pipe-ingest point-mix

It reads the bounds from BENCHMARK.json and marks each spread against a
third of its metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    cmd = bench["command"]
    seconds = str(bench["run_seconds"])

    ok = True
    values = {w: {} for w in args.workloads}
    # Seeds run round-robin over the workloads, so a slow spell of the
    # host lands on every workload alike.
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in args.workloads:
            out = subprocess.run(
                cmd + ["--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
    for w in args.workloads:
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else "WIDE"
                if name != "setup_s" and spread > bound:
                    ok = False
            print(f"  {w:15s} {name:28s} median {med:12.6g}  spread {spread:7.2%}  bound {bound}  {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
