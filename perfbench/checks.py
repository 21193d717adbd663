"""Reading each op's output files and checking them against references.

The reference outputs in ``reference.json`` were produced by the seed
commit's code (``make_reference.py``). A value passes when

    |value - reference| <= REL_TOL * |reference| + ABS_TOL

with both tolerances 100 times the configs' quadrature tolerances (rtol
1e-8, atol 1e-12): loose enough for any correct reimplementation of the
refinement, tight enough to catch a wrong lattice entry. The tolerances
were fixed before any timing was taken.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Op

REL_TOL = 100 * 1e-8
ABS_TOL = 100 * 1e-12

#: Simulated tallies are compared with these analytic tables, whose cap is
#: the config's own, so both tables cover the same lattice.
SIM_COMPARE = {"tandem_batch": Op("pmf", "tandem_batch", "3", 25),
               "mm_infty": Op("pmf", "mm_infty", "3", 20)}
#: A correct simulator exceeds the TV tolerance with probability below this.
SIM_FALSE_ALARM = 1e-9

PIECEWISE_MEAN = (math.exp(-3.0) * (math.exp(1.3) - 1.0)
                  + 2.0 * (1.0 - math.exp(-1.7)))


def close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_table(path):
    """(vectors, probs) of an occupancy CSV, read without bqnet."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    J = sum(1 for name in rows[0] if name.startswith("n_"))
    vectors = [[int(x) for x in row[:J]] for row in rows[1:] if row]
    probs = [float(row[J]) for row in rows[1:] if row]
    return vectors, probs


def read_outputs(op: Op, stem, stdout):
    """The op's results as plain data, from the files the CLI wrote."""
    if op.kind == "pmf":
        vectors, probs = _read_table(f"{stem}.out")
        meta = _read_json(f"{stem}.meta.json")
        return {"vectors": vectors, "probs": probs, "tail_mass": meta["tail_mass"]}
    if op.kind == "simulate":
        emitted = json.loads(stdout)
        meta = _read_json(emitted["meta"])
        return {"csv": emitted["csv"], "meta": meta}
    doc = _read_json(f"{stem}.out")
    if op.kind in ("pgf", "zero-prob"):
        return {"value": doc["value"]}
    if op.kind == "moments":
        return {"mean": doc["mean"], "covariance": doc["covariance"]}
    return {"verdict": doc["verdict"],
            "expected_batch_time": doc["expected_batch_time"]}


def _close_array(name, values, refs):
    if values is None or len(values) != len(refs):
        return [f"{name}: shape differs from the reference"]
    bad = [i for i, (v, r) in enumerate(zip(values, refs)) if not close(v, r)]
    if bad:
        i = bad[0]
        return [f"{name}: {len(bad)} entries off, first [{i}] {values[i]!r} "
                f"vs reference {refs[i]!r}"]
    return []


def _flat(matrix):
    return None if matrix is None else [x for row in matrix for x in row]


def _check_pmf(out, ref):
    if out["vectors"] != ref["vectors"]:
        return ["pmf: lattice vectors differ from the reference"]
    problems = _close_array("pmf", out["probs"], ref["probs"])
    if not close(out["tail_mass"], ref["tail_mass"]):
        problems.append(f"pmf: tail mass {out['tail_mass']!r} "
                        f"vs reference {ref['tail_mass']!r}")
    return problems


def _check_ergodicity(op, out, ref):
    if op.config == "vivax":
        # absorbing queues are reachable, so "ergodic" is wrong; the seed's
        # "inconclusive" and a certified "non-ergodic" are both sound
        ok = out["verdict"] in ("inconclusive", "non-ergodic")
        return [] if ok else [f"ergodicity: vivax judged {out['verdict']!r}"]
    if out["verdict"] != ref["verdict"]:
        return [f"ergodicity: {out['verdict']!r} vs reference {ref['verdict']!r}"]
    ew, ew_ref = out["expected_batch_time"], ref["expected_batch_time"]
    if isinstance(ew_ref, float) and not (isinstance(ew, float) and close(ew, ew_ref)):
        return [f"ergodicity: E[W] {ew!r} vs reference {ew_ref!r}"]
    return []


def sim_tv_tolerance(probs, reps):
    """TV distance a correct simulator stays below, but for SIM_FALSE_ALARM.

    E|p_hat - p| <= min(2p, sqrt(p(1-p)/R)) per cell bounds the mean TV;
    one replication moves TV by at most 1/R, so McDiarmid's inequality
    adds sqrt(ln(1/alarm) / 2R).
    """
    mean_bound = 0.5 * sum(min(2.0 * p, math.sqrt(p * (1.0 - p) / reps))
                           for p in probs)
    return mean_bound + math.sqrt(math.log(1.0 / SIM_FALSE_ALARM) / (2.0 * reps))


def _check_simulate(op, out, reference_tables):
    meta = out["meta"]
    problems = []
    if meta["replications"] != op.reps:
        problems.append(f"simulate: {meta['replications']} replications, "
                        f"asked for {op.reps}")
    for s, table in enumerate(meta["tables"]):
        tallied = sum(row[-1] for row in table) + meta["overflow"][s]
        if tallied != op.reps:
            problems.append(f"simulate: t={meta['times'][s]} tallies {tallied} "
                            f"of {op.reps} replications")
    pmf_op = SIM_COMPARE.get(op.config)
    compare_t = None if pmf_op is None else float(pmf_op.t)
    if compare_t in meta["times"]:
        from bqnet.cli import compare_outputs
        ref_csv, probs = reference_tables[op.config]
        sim_csv = out["csv"][meta["times"].index(compare_t)]
        tol = sim_tv_tolerance(probs, op.reps)
        report = compare_outputs(ref_csv, sim_csv, tol)
        if not report["pass"]:
            problems.append(f"simulate: t={compare_t} TV {report['tv']:.4g} "
                            f"(tol {tol:.4g}), max |z| {report['max_abs_z']}")
    return problems


def check(op: Op, out, reference, reference_tables):
    """Problems with one op's outputs; empty when they are right."""
    if op.kind == "simulate":
        return _check_simulate(op, out, reference_tables)
    if op.config == "piecewise_mm":
        # Poisson occupancy: mean and variance have a closed form
        return (_close_array("moments mean", out["mean"], [PIECEWISE_MEAN])
                + _close_array("moments covariance", _flat(out["covariance"]),
                               [PIECEWISE_MEAN]))
    ref = reference.get(op.key)
    if ref is None:
        return [f"no reference output for {op.key}"]
    if op.kind == "pmf":
        return _check_pmf(out, ref)
    if op.kind in ("pgf", "zero-prob"):
        return _close_array(op.kind, [out["value"]], [ref["value"]])
    if op.kind == "moments":
        return (_close_array("moments mean", out["mean"], ref["mean"])
                + _close_array("moments covariance", _flat(out["covariance"]),
                               _flat(ref["covariance"])))
    return _check_ergodicity(op, out, ref)


def write_reference_tables(reference, directory):
    """Analytic tables the simulated tallies are compared against.

    Returns {config: (csv path, probabilities)}.
    """
    tables = {}
    for config, pmf_op in SIM_COMPARE.items():
        ref = reference[pmf_op.key]
        path = Path(directory) / f"reference_{config}.csv"
        J = len(ref["vectors"][0])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"n_{k}" for k in range(1, J + 1)] + ["prob"])
            for vec, p in zip(ref["vectors"], ref["probs"]):
                writer.writerow(vec + [repr(p)])
        tables[config] = (str(path), ref["probs"])
    return tables
