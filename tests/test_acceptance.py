"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) so the gate can be audited at a glance. The A2 model artifacts
(analytic lattice + million-replication simulation) are computed once and
shared by A2, A3, and A9.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from bqnet import (ArrivalProcess, BatchLaw, MarkovKernel, NetworkModel,
                   ServiceLaw, ServiceNode, SimulationPlan, UnivariateLaw,
                   classify_ergodicity, expected_batch_occupancy,
                   poisson_multinomial_pmf, recompute_with_pivot,
                   run_simulation, transient_pgf, transient_pmf,
                   transient_zero_prob)
from bqnet.compound import CompoundSnapshot, compound_pmf

from conftest import brute_force_iid_compound, truncation_support


def report(name, ok, detail=""):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def a2_setup():
    """J=2 Markov tandem, iid Poisson(2) batch into node 1, sinusoidal rate."""
    nodes = [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0, 0.0]),
             ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])]
    model = NetworkModel(
        J=2, arrival=ArrivalProcess.sinusoidal(1.0, 0.5, 1.0),
        batch=BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [1.0, 0.0]),
        nodes=nodes)
    kernel = MarkovKernel(nodes, 2)
    start = time.perf_counter()
    pmf = transient_pmf(model, kernel, 3.0, 25)
    plan = SimulationPlan(model=model, times=(3.0,), replications=1_000_000,
                          seed=7041776, cap=25)
    estimate = run_simulation(plan, workers=4)
    elapsed = time.perf_counter() - start
    return model, kernel, pmf, estimate, elapsed


def test_a01_mg_infinity_reduction(mm_model, mm_kernel):
    start = time.perf_counter()
    pmf = transient_pmf(mm_model, mm_kernel, 1.0, 20)
    elapsed = time.perf_counter() - start
    mean = 1.0 - math.exp(-1.0)
    worst = max(abs(pmf.prob((n,)) - stats.poisson.pmf(n, mean))
                for n in range(21))
    report("A1", worst <= 1e-6 and elapsed < 1.0,
           f"max abs err {worst:.2e} (<=1e-6), runtime {elapsed:.2f}s (<1s)")


def test_a02_analytic_vs_simulation(a2_setup):
    model, kernel, pmf, estimate, elapsed = a2_setup
    reps = estimate.replications
    support = {v for v, _ in pmf.items()} | set(estimate.counts[0])
    tv = 0.5 * sum(abs(pmf.prob(v) - estimate.counts[0].get(v, 0) / reps)
                   for v in support)
    tv += 0.5 * estimate.overflow[0] / reps
    max_z = 0.0
    for v in support:
        p = pmf.prob(v)
        if p * reps < 5.0 or (1.0 - p) * reps < 5.0:
            continue
        z = (estimate.counts[0].get(v, 0) / reps - p) / math.sqrt(
            p * (1.0 - p) / reps)
        max_z = max(max_z, abs(z))
    report("A2", tv <= 0.005 and max_z <= 5.0 and elapsed < 600.0,
           f"TV {tv:.4f} (<=0.005), max|z| {max_z:.2f} (<=5), "
           f"runtime {elapsed:.0f}s (<600s)")


def test_a03_pgf_pmf_duality(a2_setup):
    model, kernel, pmf, _, _ = a2_setup
    z = np.array([0.5, 0.5])
    total = sum(p * z[0] ** v[0] * z[1] ** v[1] for v, p in pmf.items())
    pgf = transient_pgf(model, kernel, 3.0, z)
    gap = abs(total - pgf)
    report("A3", gap <= pmf.tail_mass + 1e-6,
           f"|sum - pgf| {gap:.2e} (<= tail {pmf.tail_mass:.2e} + 1e-6)")


def test_a04_closed_form_compound_laws():
    # each row's last weight is the exit's, implied by the queue columns
    rows = np.array([[0.30, 0.25, 0.15, 0.30],
                     [0.10, 0.40, 0.20, 0.30],
                     [0.05, 0.15, 0.60, 0.20]])[:, :3]

    class Frozen:
        representation = "tabulated"
        J = 3

        def placement_rows(self, t):
            return rows

    laws = [UnivariateLaw.binomial(8, 0.45),
            UnivariateLaw.poisson(2.3),
            UnivariateLaw.negative_binomial(1.8, 1.1),
            UnivariateLaw.logarithmic(0.55)]
    entry = [0.5, 0.3, 0.2]
    worst_overall = 0.0
    for law in laws:
        batch = BatchLaw.iid_assignment(law, entry)
        snap = CompoundSnapshot(batch, Frozen(), 1.0)
        qvec = batch.entry_probs @ snap.rows
        n_top = truncation_support(law, 1.0 - 1e-16)
        worst = 0.0
        for i in itertools.product(range(11), repeat=3):
            if sum(i) > 10:
                continue
            want = brute_force_iid_compound(law, qvec, i, n_top)
            worst = max(worst, abs(compound_pmf(snap, i) - want))
        worst_overall = max(worst_overall, worst)
        assert worst <= 1e-8, f"{law.family}: {worst:.2e}"
    report("A4", worst_overall <= 1e-8,
           f"max abs err over 4 families {worst_overall:.2e} (<=1e-8)")


def test_a05_poisson_multinomial_exact():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for m in range(1, 5):
        for J in range(1, 4):
            rows = rng.dirichlet(np.ones(J + 1), size=m)
            pm = poisson_multinomial_pmf(rows)
            acc = {}
            for combo in itertools.product(range(J + 1), repeat=m):
                p = 1.0
                vec = [0] * J
                for c, cat in enumerate(combo):
                    p *= rows[c][cat]
                    if cat < J:
                        vec[cat] += 1
                key = tuple(vec)
                acc[key] = acc.get(key, 0.0) + p
            worst = max(worst, max(abs(pm.prob(v) - p) for v, p in acc.items()))
    report("A5", worst <= 1e-10, f"max abs err {worst:.2e} (<=1e-10)")


def test_a06_harmonic_sum_identity(single_exp_node, mm_kernel):
    def series(law):
        top = truncation_support(law, 1.0 - 1e-15)
        ns = np.arange(1, top + 1)
        return float(np.sum(law.pmf(ns) * np.cumsum(1.0 / ns)))

    cases = [("constant 2", BatchLaw.constant([2]),
              series(UnivariateLaw.degenerate(2))),
             ("geometric 0.5",
              BatchLaw.iid_assignment(UnivariateLaw.geometric(0.5), [1.0]),
              series(UnivariateLaw.geometric(0.5))),
             ("poisson 2",
              BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [1.0]),
              series(UnivariateLaw.poisson(2.0)))]
    worst = 0.0
    for name, batch, want in cases:
        model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                             batch=batch, nodes=[single_exp_node])
        ew = expected_batch_occupancy(model, mm_kernel)
        assert ew.is_finite, name
        worst = max(worst, abs(ew.value - want))
    report("A6", worst <= 1e-6, f"max |quad - series| {worst:.2e} (<=1e-6)")


def test_a07_ergodicity_ladder(single_exp_node, mm_kernel):
    def model_with(batch):
        return NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                            batch=batch, nodes=[single_exp_node])

    zeta = classify_ergodicity(
        model_with(BatchLaw.iid_assignment(UnivariateLaw.zeta(1.5), [1.0])),
        mm_kernel)
    heavy = classify_ergodicity(
        model_with(BatchLaw.iid_assignment(UnivariateLaw.log_weighted_tail(),
                                           [1.0])), mm_kernel)
    unit = classify_ergodicity(model_with(BatchLaw.constant([1])), mm_kernel)
    ok = (zeta.verdict == "ergodic" and zeta.criterion == "log-moment"
          and heavy.verdict == "non-ergodic"
          and heavy.criterion == "divergent-log-moment"
          and unit.verdict == "ergodic"
          and unit.criterion == "finite-mean-batch")
    report("A7", ok,
           f"zeta(1.5) -> {zeta.verdict}/{zeta.criterion}, "
           f"log-weighted-tail -> {heavy.verdict}/{heavy.criterion}, "
           f"unit -> {unit.verdict}/{unit.criterion}")


def test_a08_empty_network_limit(single_exp_node, mm_kernel):
    model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                         batch=BatchLaw.constant([2]), nodes=[single_exp_node])
    got = transient_zero_prob(model, mm_kernel, 40.0)
    want = math.exp(-1.5)
    report("A8", abs(got - want) <= 1e-3,
           f"|P(empty at 40) - exp(-1.5)| = {abs(got - want):.2e} (<=1e-3)")


def test_a09_pivot_invariance(a2_setup):
    _, _, pmf, _, _ = a2_setup
    rng = np.random.default_rng(123)
    candidates = [v for v, _ in pmf.items() if sum(v) >= 1]
    picks = rng.choice(len(candidates), size=100, replace=False)
    worst = 0.0
    for pos in picks:
        n = candidates[int(pos)]
        pivots = [k for k in range(2) if n[k] >= 1]
        pivot = pivots[int(rng.integers(len(pivots)))]
        worst = max(worst, abs(recompute_with_pivot(pmf, n, pivot)
                               - pmf.prob(n)))
    report("A9", worst <= 1e-9,
           f"max |alternative pivot - stored| {worst:.2e} (<=1e-9) over 100 entries")


def test_a10_simulation_determinism(batch_tandem_model):
    plan = SimulationPlan(model=batch_tandem_model, times=(1.0, 3.0),
                          replications=50_000, seed=20240901, cap=25)
    runs = {w: run_simulation(plan, workers=w) for w in (1, 4, 8)}
    ok = all(runs[1].counts == runs[w].counts
             and runs[1].overflow == runs[w].overflow for w in (4, 8))
    report("A10", ok, "identical tallies across 1, 4, and 8 workers")
