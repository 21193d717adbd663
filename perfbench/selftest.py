"""Quick self-test of the benchmark's tracer and output checks (~10 s).

    python3 perfbench/selftest.py

Runs a few cheap ops untraced and traced, and fails unless:

* traced and untraced outputs both pass their checks;
* every wrapper is restored after each traced op, also when the op fails;
* traced self times add up to the traced wall time within 10%;
* a second traced pass gives exactly the same counts;
* the checks reject a perturbed PMF entry and a wrong vivax verdict.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import checks
import worker
from tracer import Tracer, patch_targets
from workloads import REFERENCE, ROOT, Op, z_grid

OPS = [
    Op("pmf", "mm_infty", "3", 20),
    Op("pgf", "tandem_batch", "3", z=z_grid("tandem_batch")[0]),
    Op("zero-prob", "tandem_batch", "3"),
    Op("moments", "tandem_batch", "3"),
    Op("ergodicity", "mm_infty"),
    Op("simulate", "mm_infty", "3", reps=20_000, seed=12345),
]


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def main():
    worker.import_bqnet()
    scratch = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.chdir(scratch)
    try:
        run_checks()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch)
    print("selftest passed")


def run_checks():
    reference = json.loads(REFERENCE.read_text())
    tables = checks.write_reference_tables(reference, ".")
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patch_targets()]

    def restored():
        return all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    plain = worker.run_pass(OPS, reference, tables)
    traced = [worker.run_pass(OPS, reference, tables, Tracer()) for _ in range(2)]
    for p in [plain] + traced:
        for r in p["records"]:
            require(r["error"] is None and not r["problems"],
                    f"{r['op']}: {r['error'] or r['problems']}")
    require(restored(), "a wrapper was left in place")
    require(not worker.self_time_problems(traced),
            "; ".join(worker.self_time_problems(traced)))
    counts = [p["tracer"].count_metrics() for p in traced]
    require(counts[0] == counts[1], f"counts differ between passes: {counts}")
    for name in ("kernels.rows_calls", "tables.simplex_builds", "quadrature.rules",
                 "batch.pgf_gap_calls", "batch.sample_calls", "service.draws",
                 "ergodicity.panels"):
        require(counts[0][name] > 0, f"{name} was never counted")
    require(0 < counts[0]["quadrature.useful_ratio"] <= 1, "useful ratio out of (0, 1]")

    failing = worker.run_and_check(Op("moments", "piecewise_mm", "3"), "fail",
                                   reference, tables, Tracer())
    require(failing["error"] == "exit code 3", f"piecewise moments: {failing['error']}")
    require(restored(), "a wrapper was left in place after a failing op")

    pmf_op = OPS[0]
    wrong = copy.deepcopy(reference[pmf_op.key])
    wrong["probs"][3] *= 1 + 1e-5
    require(checks.check(pmf_op, wrong, reference, tables),
            "a perturbed PMF entry passed its check")
    verdict = {"verdict": "ergodic", "expected_batch_time": 1.0}
    require(checks.check(Op("ergodicity", "vivax"), verdict, reference, tables),
            "an ergodic vivax verdict passed its check")


if __name__ == "__main__":
    main()
