"""Command-line front end: analyze a model config, simulate it, compare tables.

Subcommands: pgf, pmf, zero-prob, moments, ergodicity, simulate, compare.
Exit codes: 0 ok, 1 domain error or failed comparison, 2 validation,
3 quadrature non-convergence, 66 missing input file. The environment
variable ``BQNET_SEED`` overrides the config seed (an explicit --seed
flag beats both).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import bundled_config_path, load_config
from .errors import (BqnetError, ConvergenceError, MISSING_FILE_EXIT,
                     ValidationError)
from .ergodicity import classify_ergodicity
from .quadrature import QuadratureSpec
from .simulate import SimulationPlan, run_simulation
from .tables import canonical_json, dump_json, read_occupancy_csv
from .transient import (transient_moments, transient_pgf, transient_pmf,
                        transient_zero_prob)

Z_SCORE_LIMIT = 5.0
DEFAULT_MIN_EXPECTED = 5.0


def _resolve_config(value):
    path = Path(value)
    if path.exists():
        return path
    if not value.endswith(".json") or "/" not in value:
        bundled = bundled_config_path(value)
        if bundled.exists():
            return bundled
    raise FileNotFoundError(value)


def _parse_z(text, J):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != J:
        raise ValidationError(f"--z needs {J} comma-separated values")
    return parts


def _parse_times(text):
    try:
        times = sorted(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"--t could not be parsed as times: {text!r}")
    return times


def _quad(model):
    return QuadratureSpec(rtol=model.analysis.rtol)


def _seed(args, model):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BQNET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"BQNET_SEED must be an integer, got {env!r}")
    return model.analysis.seed


def _emit(doc, out_path=None):
    text = canonical_json(doc)
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def compare_outputs(analytic_path, empirical_path, tol,
                    min_expected=DEFAULT_MIN_EXPECTED):
    """Total-variation distance and per-cell z-scores between two tables.

    z-scores use the first table's probabilities as the null and the
    second table's replication count, and are only computed for cells
    whose expected count is at least ``min_expected`` (the normal
    approximation is meaningless further out; those cells still count
    toward the TV distance). Fails on TV > tol or any |z| > 5.
    """
    J_a, probs_a, _ = read_occupancy_csv(analytic_path)
    J_e, probs_e, extras = read_occupancy_csv(empirical_path)
    if J_a != J_e:
        raise ValidationError(
            f"tables have different dimensions ({J_a} vs {J_e})")
    support = set(probs_a) | set(probs_e)
    tv = 0.5 * sum(abs(probs_a.get(v, 0.0) - probs_e.get(v, 0.0))
                   for v in support)
    reps = extras.get("replications")
    max_abs_z = None
    z_cells = 0
    if reps:
        R = next(iter(reps.values()))
        max_abs_z = 0.0
        for v in support:
            p = probs_a.get(v, 0.0)
            expected = p * R
            if expected < min_expected or (1.0 - p) * R < min_expected:
                continue
            z = (probs_e.get(v, 0.0) - p) / math.sqrt(p * (1.0 - p) / R)
            z_cells += 1
            max_abs_z = max(max_abs_z, abs(z))
    ok = tv <= tol and (max_abs_z is None or max_abs_z <= Z_SCORE_LIMIT)
    return {
        "kind": "compare",
        "tv": tv,
        "max_abs_z": max_abs_z,
        "z_cells": z_cells,
        "cells": len(support),
        "tol": tol,
        "pass": ok,
    }


def _cmd_pgf(args):
    model = load_config(_resolve_config(args.config))
    kernel = model.build_kernel()
    z = _parse_z(args.z, model.J)
    value = transient_pgf(model, kernel, args.t, z, _quad(model))
    _emit({"kind": "pgf", "t": args.t, "z": z, "value": value}, args.output)
    return 0


def _cmd_zero_prob(args):
    model = load_config(_resolve_config(args.config))
    kernel = model.build_kernel()
    value = transient_zero_prob(model, kernel, args.t, _quad(model))
    _emit({"kind": "zero-prob", "t": args.t, "value": value}, args.output)
    return 0


def _cmd_moments(args):
    model = load_config(_resolve_config(args.config))
    kernel = model.build_kernel()
    result = transient_moments(model, kernel, args.t, _quad(model))
    doc = {
        "kind": "moments",
        "t": args.t,
        "mean": None if result.mean is None else [float(x) for x in result.mean],
        "covariance": None if result.covariance is None
        else [[float(x) for x in row] for row in result.covariance],
        "undefined_reason": result.undefined_reason,
    }
    _emit(doc, args.output)
    return 0


def _cmd_pmf(args):
    config_path = _resolve_config(args.config)
    model = load_config(config_path)
    kernel = model.build_kernel()
    cap = args.cap if args.cap is not None else model.analysis.cap
    pmf = transient_pmf(model, kernel, args.t, cap, _quad(model))
    stem = Path(config_path).stem
    csv_path = args.output or f"{stem}_pmf_t{args.t:g}.csv"
    meta_path = args.meta or f"{stem}_pmf_t{args.t:g}.json"
    pmf.to_csv(csv_path)
    pmf.to_json(meta_path)
    _emit({"kind": "pmf-artifacts", "csv": str(csv_path), "meta": str(meta_path),
           "tail_mass": pmf.tail_mass, "cap": cap, "t": args.t})
    return 0


def _cmd_ergodicity(args):
    model = load_config(_resolve_config(args.config))
    kernel = model.build_kernel()
    verdict = classify_ergodicity(model, kernel,
                                  polynomial_tail_alpha=args.tail_alpha)
    _emit(verdict.to_json_dict(), args.output)
    return 0


def _cmd_simulate(args):
    config_path = _resolve_config(args.config)
    model = load_config(config_path)
    times = _parse_times(args.t)
    cap = args.cap if args.cap is not None else model.analysis.cap
    plan = SimulationPlan(model=model, times=tuple(times),
                          replications=args.reps, seed=_seed(args, model),
                          cap=cap)
    estimate = run_simulation(plan, workers=args.workers)
    stem = Path(config_path).stem
    csv_paths = []
    for idx, t in enumerate(times):
        path = (args.output if args.output and len(times) == 1
                else f"{stem}_sim_t{t:g}.csv")
        estimate.to_csv(path, idx)
        csv_paths.append(str(path))
    meta_path = args.meta or f"{stem}_sim.json"
    estimate.to_json(meta_path)
    _emit({"kind": "simulate-artifacts", "csv": csv_paths,
           "meta": str(meta_path), "seed": plan.seed,
           "replications": plan.replications,
           "overflow": list(estimate.overflow)})
    return 0


def _cmd_compare(args):
    for path in (args.analytic, args.empirical):
        if not Path(path).exists():
            raise FileNotFoundError(path)
    report = compare_outputs(args.analytic, args.empirical, args.tol,
                             min_expected=args.min_expected)
    _emit(report, args.output)
    return 0 if report["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bqnet",
        description="Transient analysis and simulation of infinite-server "
                    "queueing networks with batch Poisson arrivals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True,
                       help="model config path or bundled config name")
        p.add_argument("-o", "--output", default=None, help="output file")

    p = sub.add_parser("pgf", help="transient PGF at a point")
    add_config(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z", required=True, help="comma-separated z vector")
    p.set_defaults(func=_cmd_pgf)

    p = sub.add_parser("pmf", help="transient occupancy PMF table")
    add_config(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--meta", default=None, help="JSON metadata path")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("zero-prob", help="empty-network probability")
    add_config(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_zero_prob)

    p = sub.add_parser("moments", help="transient mean and covariance")
    add_config(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("ergodicity", help="stability classification")
    add_config(p)
    p.add_argument("--tail-alpha", type=float, default=None,
                   help="caller-asserted polynomial tail exponent")
    p.set_defaults(func=_cmd_ergodicity)

    p = sub.add_parser("simulate", help="Monte Carlo occupancy estimate")
    add_config(p)
    p.add_argument("--t", required=True, help="comma-separated snapshot times")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--meta", default=None, help="JSON metadata path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="compare two occupancy tables")
    p.add_argument("analytic")
    p.add_argument("empirical")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--min-expected", type=float, default=DEFAULT_MIN_EXPECTED,
                   help="minimum expected cell count for z-scores")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return MISSING_FILE_EXIT
    except ValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for failure in exc.failures:
            print(f"  - {failure}", file=sys.stderr)
        return exc.exit_code
    except ConvergenceError as exc:
        with np.printoptions(threshold=6):      # vector estimates print abridged
            print(f"convergence failure: {exc} "
                  f"(last estimates: {exc.last_estimates})", file=sys.stderr)
        return exc.exit_code
    except BqnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
