#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with its own --seed,
and print every metric's median and interquartile spread (the distance
between the first and third quartile as a share of the median).

    python3 perfbench/spread.py --runs 10 [--trace 0|1] [--workload NAME ...]

Run it from the repository root. Each run's result line is appended to
--log (default _perfbench_spread.jsonl) so the figures can be re-read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--log", default="_perfbench_spread.jsonl")
    args = ap.parse_args()
    spec = bench()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with open(os.path.join(ROOT, args.log), "a") as log:
        for w in workloads:
            results = []
            for i in range(args.runs):
                seed = args.first_seed + i
                r = run_once(spec, w, seed, args.trace)
                log.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                      "result": r}) + "\n")
                log.flush()
                if not r["correct"] or r["failed"]:
                    print(f"{w} seed {seed}: incorrect result", file=sys.stderr)
                results.append(r)
            print(f"== {w} ({args.runs} runs, trace {args.trace})")
            for name in results[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "  ABOVE bound/3"
                print(f"  {name:34s} median {med:<14.6g} spread {spread:7.4f}"
                      f"  min {min(vals):<12.6g} max {max(vals):<12.6g}"
                      + (f"  bound {bound}" if bound is not None else "") + flag)


if __name__ == "__main__":
    main()
