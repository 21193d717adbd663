"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``. For every metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median. With
``--out`` the summary and every value are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
        for name, m in metrics.items():
            print(f"{workload:13s} {name:28s} median {m['median']:.6g} "
                  f"spread {m['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
