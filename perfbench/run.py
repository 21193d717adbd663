"""The bqnet benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Steps, each in a fresh process:

1. set-up probes (``setup_probe.py``), several times, for ``setup_s``;
2. the workload's timed passes (``worker.py``), every output checked;
3. the known-failing inputs, once, with their outcome reported.

Prints one line per metric, then, as the last line of stdout, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Exits non-zero, printing no result, when the checkout has
no ``bqnet`` sources or a step fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS

SETUP_PROBES = 5
#: Timeout of each step, beyond ``--seconds`` for the timed worker.
STEP_TIMEOUT_S = 60


def _run_json(script, args, cwd, timeout):
    """Run a benchmark script in a fresh interpreter; parse its last line."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bqnet" / "__init__.py").is_file():
        raise SystemExit(f"no bqnet sources under {SRC}")

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True)
    try:
        probes = [_run_json("setup_probe.py", ["--workload", args.workload],
                            ROOT, STEP_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        run = _run_json("worker.py", ["--workload", args.workload,
                                      "--seed", str(args.seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)],
                        out_dir, args.seconds + STEP_TIMEOUT_S)
        known = _run_json("worker.py", ["--known-failures"], out_dir,
                          STEP_TIMEOUT_S)["known_failures"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = run["problems"] + [f"{k['op']}: {msg}" for k in known
                                  for msg in k["problems"]]
    setup = [p["import_s"] + p["load_s"] + p["build_s"] for p in probes]
    if args.trace:
        values = dict(run["layers"])
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["known_failures.failed"] = sum(1 for k in known
                                              if k["error"] or k["problems"])
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": run["wall_s"], "peak_rss_mib": run["peak_rss_mib"]}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    passes = run["pass_seconds"]
    print(f"workload {args.workload}, seed {args.seed}: {run['passes']} untraced "
          f"and {run.get('traced_passes', 0)} traced passes; {run['attempted']} ops, "
          f"{run['failed']} failed")
    print(f"raw untraced pass time: min {min(passes):.4f} s, median "
          f"{statistics.median(passes):.4f} s, max {max(passes):.4f} s; speed factor "
          f"median {statistics.median(run['pass_scales']):.4f} (pass times below "
          f"are scaled by it, set-up times are not)")
    for line in run["errors"] + problems:
        print(f"  {line}")
    for k in known:
        outcome = k["error"] or ("; ".join(k["problems"]) or "answered correctly")
        print(f"known-failing input {k['op']}: {outcome} after {k['seconds']:.3f} s")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
