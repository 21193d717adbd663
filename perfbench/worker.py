"""Run one workload's timed passes in this process and print the result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --known-failures

The process first caps its own address space, so an op that asks for
gigabytes fails with MemoryError instead of exhausting the machine. It
then imports `bqnet` from the checkout's ``src`` and calls
``bqnet.cli.main(argv)`` for every op, exactly as a user's CLI call, with
outputs written to the current directory. Each op's outputs are checked
after its timer stops. The last line of stdout is one JSON document.

With ``--trace 1`` untraced and traced passes alternate: the untraced
ones give the per-kind op times and the tracing overhead, the traced ones
the per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed
from workloads import KNOWN_FAILURES, REFERENCE, SRC, WORKLOADS, ops

#: Address-space cap in bytes, far above the workloads' ~200 MiB peak RSS.
MEMORY_CAP = 2 << 30
#: Traced self times must add up to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.10

KIND_METRICS = {"pmf": "ops.pmf_s", "pgf": "ops.point_s", "zero-prob": "ops.point_s",
                "moments": "ops.point_s", "ergodicity": "ops.ergodicity_s",
                "simulate": "ops.simulate_s"}


def import_bqnet():
    """Import `bqnet` from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import bqnet
    if Path(bqnet.__file__).resolve().parent != (SRC / "bqnet").resolve():
        raise SystemExit(f"imported bqnet from {bqnet.__file__}, not {SRC}")
    return bqnet


def run_op(op, stem, tracer=None):
    """One CLI call. Returns (seconds, error or None, captured stdout)."""
    from bqnet import cli
    from tracer import traced
    out, err = io.StringIO(), io.StringIO()
    scope = nullcontext() if tracer is None else traced(tracer)
    with redirect_stdout(out), redirect_stderr(err), scope:
        start = time.perf_counter()
        try:
            code = cli.main(op.argv(stem))
        except Exception as exc:  # a crash is a failed op, not a bench failure
            code = type(exc).__name__
        seconds = time.perf_counter() - start
    error = None
    if code != 0:
        error = code if isinstance(code, str) else f"exit code {code}"
    return seconds, error, out.getvalue()


def run_and_check(op, stem, reference, tables, tracer=None):
    seconds, error, stdout = run_op(op, stem, tracer)
    problems = []
    if error is None:
        problems = checks.check(op, checks.read_outputs(op, stem, stdout),
                                reference, tables)
    return {"op": op.key, "kind": op.kind, "seconds": seconds, "error": error,
            "problems": problems, "reps": op.reps if op.kind == "simulate" else 0}


def run_pass(op_list, reference, tables, tracer=None):
    """All ops once, each after two runs of the calibration loop."""
    records, calibration = [], []
    for i, op in enumerate(op_list):
        calibration += [speed.calibrate(), speed.calibrate()]
        records.append(run_and_check(op, f"op{i}", reference, tables, tracer))
    return {"seconds": sum(r["seconds"] for r in records), "records": records,
            "tracer": tracer, "scale": speed.scale(calibration)}


def _typical_pass(passes):
    """Sum over ops of each op's median scaled time across passes.

    A burst of load from elsewhere on the machine slows one op of one pass;
    the per-op median drops it, where a median of pass totals would not.
    """
    per_op = zip(*([r["seconds"] * p["scale"] for r in p["records"]] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def _per_kind(passes):
    """Median over passes of each op kind's scaled time, and sim throughput."""
    out = {}
    for metric in sorted(set(KIND_METRICS.values())):
        out[metric] = statistics.median(
            p["scale"] * sum(r["seconds"] for r in p["records"]
                             if KIND_METRICS[r["kind"]] == metric)
            for p in passes)
    sims = [(r, p["scale"]) for p in passes for r in p["records"]
            if r["kind"] == "simulate" and r["error"] is None]
    sim_s = sum(r["seconds"] * scale for r, scale in sims)
    out["simulate.reps_per_s"] = sum(r["reps"] for r, _ in sims) / sim_s if sim_s else 0.0
    return out


def _layers(traced_passes, untraced_passes):
    """Per-layer metrics: medians over traced passes, plus the overhead."""
    layers = {}
    per_pass = [{**{k: v * p["scale"] for k, v in p["tracer"].self_times().items()},
                 **p["tracer"].count_metrics()}
                for p in traced_passes]
    for name in per_pass[0]:
        # counts repeat from pass to pass; median_low keeps them whole
        pick = statistics.median if name.endswith("_s") else statistics.median_low
        layers[name] = pick(d[name] for d in per_pass)
    layers["trace.wall_s"] = _typical_pass(traced_passes)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - _typical_pass(untraced_passes)
    layers.update(_per_kind(untraced_passes))
    return layers


def self_time_problems(traced_passes):
    problems = []
    for p in traced_passes:
        total = sum(p["tracer"].self_times().values())
        if abs(total - p["seconds"]) > SELF_TIME_TOLERANCE * p["seconds"]:
            problems.append(f"traced self times add up to {total:.4f} s, "
                            f"pass wall time is {p['seconds']:.4f} s")
    return problems


def measure(workload, seed, seconds, trace):
    from tracer import Tracer
    reference = json.loads(REFERENCE.read_text())
    tables = checks.write_reference_tables(reference, ".")
    op_list = ops(workload, seed)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or (trace and len(passes) < 2):
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(op_list, reference, tables, tracer))
    untraced = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    records = [r for p in passes for r in p["records"]]
    problems = [f"{r['op']}: {msg}" for r in records for msg in r["problems"]]
    result = {
        "passes": len(untraced),
        "pass_seconds": [p["seconds"] for p in untraced],
        "pass_scales": [p["scale"] for p in untraced],
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"] or r["problems"]),
        "errors": sorted({f"{r['op']}: {r['error']}" for r in records if r["error"]}),
        "problems": problems,
        "wall_s": _typical_pass(untraced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["traced_passes"] = len(traced)
        result["layers"] = _layers(traced, untraced)
        result["problems"] += self_time_problems(traced)
    return result


def known_failures():
    """Run each known-failing input once; report its error or its check."""
    reference = json.loads(REFERENCE.read_text())
    tables = checks.write_reference_tables(reference, ".")
    outcomes = [run_and_check(op, f"known{i}", reference, tables)
                for i, op in enumerate(KNOWN_FAILURES)]
    return {"known_failures": [{k: r[k] for k in ("op", "seconds", "error", "problems")}
                               for r in outcomes]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import_bqnet()
    if args.known_failures:
        result = known_failures()
    else:
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
