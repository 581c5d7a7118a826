#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts with the same settings and
summarise each metric's median and quartiles per checkout and workload.

    python3 perfbench/compare.py --checkout . --seeds 1-10 --out runs.json
    python3 perfbench/compare.py --checkout ../parent --checkout . \
        --workloads replay-fair --seeds 1-10 --out pair.json

With several checkouts the runs alternate: for each seed and workload
every checkout runs once, and the order rotates from seed to seed. Each
checkout runs its own copy of ``perfbench/run.py``, so give every
checkout the same benchmark files. Medians, quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median are
what the acceptance rule for this benchmark reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - started
    result["fails"] = [line.strip() for line in lines
                       if line.strip().startswith("FAIL")]
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload "
                             "in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = [os.path.abspath(c) for c in args.checkout]
    with open(os.path.join(checkouts[0], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in declared["workloads"]])
    seconds = declared["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs = {c: {w: [] for w in workloads} for c in checkouts}
    for index, seed in enumerate(seeds):
        order = checkouts[index % len(checkouts):] + \
            checkouts[:index % len(checkouts)]
        for workload in workloads:
            for checkout in order:
                result = run_once(checkout, workload, seed, seconds,
                                  args.trace)
                result["seed"] = seed
                runs[checkout][workload].append(result)
                print(f"{os.path.basename(checkout) or checkout} {workload} "
                      f"seed {seed}: correct={result.get('correct')} "
                      f"exit={result['exit']} "
                      f"{result['elapsed_s']:.1f}s", flush=True)

    summary = {}
    for checkout in checkouts:
        summary[checkout] = {}
        for workload in workloads:
            results = runs[checkout][workload]
            metrics = {}
            for result in results:
                for name, metric in result.get("metrics", {}).items():
                    metrics.setdefault(name, []).append(metric["value"])
            summary[checkout][workload] = {
                "all_correct": all(r.get("correct") and r["exit"] == 0
                                   for r in results),
                "seeds": [r["seed"] for r in results],
                "fails": sorted({f for r in results for f in r["fails"]}),
                "metrics": {name: summarise(values)
                            for name, values in metrics.items()},
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": seconds, "trace": args.trace,
                   "summary": summary, "runs": runs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    for checkout in checkouts:
        for workload in workloads:
            block = summary[checkout][workload]
            print(f"== {checkout} {workload} all_correct="
                  f"{block['all_correct']}")
            for name, stats in block["metrics"].items():
                spread = stats["spread"]
                print(f"   {name:<16} median {stats['median']:12.5g}  "
                      f"spread {spread if spread is None else round(spread, 3)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
