import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from bqnet import (ArrivalProcess, BatchLaw, ConvergenceError, MarkovKernel,
                   NetworkModel, QuadratureSpec, ServiceLaw, ServiceNode,
                   SimulationPlan, UnivariateLaw, ValidationError,
                   recompute_with_pivot, bundled_config_path, load_config,
                   run_simulation, transient_moments, transient_pgf,
                   transient_pmf, transient_zero_prob)
from bqnet import ergodicity as ergodicity_module
from bqnet import transient as transient_module
from bqnet.ergodicity import expected_batch_occupancy
from bqnet.tables import LatticePMF
from conftest import oracle_iid_batch_pgf, oracle_pgf_inversion

MM_MEAN = 1.0 - math.exp(-1.0)
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def bench_or_bundled(name):
    path = BENCH_CONFIGS / f"{name}.json"
    return load_config(path if path.exists() else bundled_config_path(name))


class TestTransientPGF:
    def test_normalisation(self, batch_tandem_model, tandem_kernel):
        assert transient_pgf(batch_tandem_model, tandem_kernel, 2.0,
                             [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_mm_infinity_at_zero(self, mm_model, mm_kernel):
        want = math.exp(-MM_MEAN)
        got = transient_pgf(mm_model, mm_kernel, 1.0, [0.0])
        assert got == pytest.approx(want, abs=1e-7)

    def test_matches_pmf_sum(self, batch_tandem_model, tandem_kernel):
        z = np.array([0.5, 0.5])
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 3.0, 25)
        total = sum(p * z[0] ** v[0] * z[1] ** v[1] for v, p in pmf.items())
        pgf = transient_pgf(batch_tandem_model, tandem_kernel, 3.0, z)
        assert abs(total - pgf) <= pmf.tail_mass + 1e-4

    def test_time_zero(self, mm_model, mm_kernel):
        assert transient_pgf(mm_model, mm_kernel, 0.0, [0.3]) == 1.0

    def test_rejects_bad_z(self, mm_model, mm_kernel):
        with pytest.raises(ValidationError):
            transient_pgf(mm_model, mm_kernel, 1.0, [1.5])


# every batch-size family, as a one-queue iid batch, and the other variants
_PGF_BATCHES = {
    "binomial": BatchLaw.iid_assignment(UnivariateLaw.binomial(4, 0.3), [1.0]),
    "poisson": BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [1.0]),
    "negative-binomial": BatchLaw.iid_assignment(
        UnivariateLaw.negative_binomial(2.0, 0.5), [1.0]),
    "logarithmic": BatchLaw.iid_assignment(UnivariateLaw.logarithmic(0.5), [1.0]),
    "geometric": BatchLaw.iid_assignment(UnivariateLaw.geometric(0.5), [1.0]),
    "zeta": BatchLaw.iid_assignment(UnivariateLaw.zeta(2.5), [1.0]),
    "finite-table": BatchLaw.iid_assignment(
        UnivariateLaw.finite_table({1: 0.5, 3: 0.5}), [1.0]),
    "log-weighted-tail": BatchLaw.iid_assignment(UnivariateLaw.log_weighted_tail(), [1.0]),
    "constant": BatchLaw.constant([2]),
    "batch-finite-table": BatchLaw.finite_table({(1,): 0.5, (2,): 0.5}, 1),
    "independent-marginals": BatchLaw.independent([UnivariateLaw.poisson(1.0)]),
}


@pytest.mark.parametrize("name", list(_PGF_BATCHES))
def test_pgf_argument_above_one_is_refused(name, single_exp_node):
    # the unit box is closed at 1 and ends there, for every family: the
    # closed forms would answer past 1 and the zeta gap raise DomainError
    model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                         batch=_PGF_BATCHES[name], nodes=[single_exp_node])
    kernel = MarkovKernel([single_exp_node], 1)
    assert transient_pgf(model, kernel, 3.0, [1.0]) == 1.0
    for pgf in (lambda z: transient_pgf(model, kernel, 3.0, z), model.batch.pgf):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            pgf([1.0005])


class TestTransientPMF:
    def test_mm_infinity_poisson(self, mm_model, mm_kernel):
        pmf = transient_pmf(mm_model, mm_kernel, 1.0, 20)
        worst = max(abs(pmf.prob((n,)) - stats.poisson.pmf(n, MM_MEAN))
                    for n in range(21))
        assert worst <= 1e-6

    def test_point_mass_at_time_zero(self, mm_model, mm_kernel):
        pmf = transient_pmf(mm_model, mm_kernel, 0.0, 5)
        assert pmf.prob((0,)) == 1.0
        assert pmf.tail_mass == 0.0

    def test_normalisation(self, batch_tandem_model, tandem_kernel):
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 3.0, 25)
        assert pmf.assigned_mass + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)
        assert pmf.tail_mass >= -1e-9

    def test_constant_batch_tandem_vs_simulation(self, tandem_nodes):
        model = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.constant([2, 0]),
                             nodes=tandem_nodes)
        kernel = MarkovKernel(tandem_nodes, 2)
        pmf = transient_pmf(model, kernel, 2.0, 12)
        plan = SimulationPlan(model=model, times=(2.0,), replications=1_000_000,
                              seed=424242, cap=12)
        est = run_simulation(plan, workers=4)
        support = {v for v, _ in pmf.items()} | set(est.counts[0])
        tv = 0.5 * sum(abs(pmf.prob(v) - est.counts[0].get(v, 0) / plan.replications)
                       for v in support)
        tv += 0.5 * est.overflow[0] / plan.replications
        assert tv <= 0.005

    def test_monotone_refinement(self, batch_tandem_model, tandem_kernel):
        # one extra doubling beyond convergence moves entries within tolerance
        spec = QuadratureSpec()
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 2.0, 15, spec)
        m = pmf.meta["quadrature_nodes"]
        # rtol = atol = 1 accepts the first doubling: the rule with 2m - 1 nodes
        finer = transient_pmf(batch_tandem_model, tandem_kernel, 2.0, 15,
                              QuadratureSpec(initial_nodes=m, rtol=1.0, atol=1.0)).values
        delta = np.abs(finer - pmf.values)
        assert np.all(delta <= spec.rtol * np.abs(finer) + 10 * spec.atol)

    def test_pivot_invariance(self, batch_tandem_model, tandem_kernel):
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 2.0, 12)
        rng = np.random.default_rng(5)
        candidates = [v for v, _ in pmf.items() if v[0] >= 1 and v[1] >= 1]
        picks = rng.choice(len(candidates), size=20, replace=False)
        for pos in picks:
            n = candidates[pos]
            for pivot in (0, 1):
                alt = recompute_with_pivot(pmf, n, pivot)
                assert abs(alt - pmf.prob(n)) <= 1e-9

    def test_degenerate_network_nonhomogeneous(self, single_exp_node):
        # J=1, single arrivals, sinusoidal rate: N(t) is Poisson with mean
        # int_0^t lambda(tau) Q(t - tau) dtau
        model = NetworkModel(J=1, arrival=ArrivalProcess.sinusoidal(1.0, 0.5, 1.0),
                             batch=BatchLaw.constant([1]),
                             nodes=[single_exp_node])
        kernel = MarkovKernel([single_exp_node], 1)
        t = 2.5
        mean, err = integrate.quad(
            lambda tau: model.arrival.rate(tau) * math.exp(-(t - tau)), 0.0, t,
            epsabs=1e-12, epsrel=1e-12)
        pmf = transient_pmf(model, kernel, t, 20)
        worst = max(abs(pmf.prob((n,)) - stats.poisson.pmf(n, mean))
                    for n in range(21))
        assert worst <= 1e-6

    def test_recursion_pgf_consistency_random_z(self, batch_tandem_model,
                                                tandem_kernel):
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 3.0, 25)
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = rng.uniform(0.0, 1.0, 2)
            total = sum(p * z[0] ** v[0] * z[1] ** v[1] for v, p in pmf.items())
            pgf = transient_pgf(batch_tandem_model, tandem_kernel, 3.0, z)
            assert total <= pgf + 1e-9
            assert pgf - total <= pmf.tail_mass + 1e-6

    def test_tail_warning(self, batch_tandem_model, tandem_kernel):
        with pytest.warns(UserWarning, match="tail mass"):
            transient_pmf(batch_tandem_model, tandem_kernel, 3.0, 2)

    @pytest.mark.filterwarnings("ignore:occupancy cap")
    def test_series_tail_bound(self):
        # closed-form families run no series; the zeta family's series stops
        # at a relative cutoff and reports a small positive bound
        bounds = {}
        for name, cap in (("tandem_batch", 6), ("zeta_batch", 6)):
            model = load_config(bundled_config_path(name))
            pmf = transient_pmf(model, model.build_kernel(), 3.0, cap)
            bounds[name] = pmf.meta["series_tail_bound"]
            assert "series_tail_bound" not in pmf.to_json_dict()
        assert bounds["tandem_batch"] == 0.0
        assert 0.0 < bounds["zeta_batch"] < 1e-12

    def test_recursion_runs_once_per_estimate(self, monkeypatch):
        # D doublings compare D + 1 estimates, and the returned lattice is the
        # last one's: tandem_batch at cap 25 settles after 3 doublings
        runs = []
        recursion = transient_module._run_recursion

        def counting(*args):
            runs.append(1)
            return recursion(*args)

        monkeypatch.setattr(transient_module, "_run_recursion", counting)
        model = load_config(bundled_config_path("tandem_batch"))
        pmf = transient_pmf(model, model.build_kernel(), 3.0, 25)
        nodes = QuadratureSpec().initial_nodes
        doublings = round(math.log2((pmf.meta["quadrature_nodes"] - 1) / (nodes - 1)))
        assert len(runs) == doublings + 1 == 4
        np.testing.assert_array_equal(pmf.values, recursion(
            pmf.index, pmf.meta["displacement_integrals"], float(pmf.values[0])))


class TestZeroProb:
    def test_time_zero(self, mm_model, mm_kernel):
        assert transient_zero_prob(mm_model, mm_kernel, 0.0) == 1.0

    def test_mm_infinity_stationary(self, mm_model, mm_kernel):
        got = transient_zero_prob(mm_model, mm_kernel, 30.0)
        assert abs(got - math.exp(-1)) <= 1e-6

    def test_pair_batch_stationary(self, single_exp_node):
        model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.constant([2]),
                             nodes=[single_exp_node])
        kernel = MarkovKernel([single_exp_node], 1)
        got = transient_zero_prob(model, kernel, 40.0)
        assert abs(got - math.exp(-1.5)) <= 1e-4

    def test_query_time_on_a_rate_breakpoint(self):
        # the rate is 1 on [0, 1.3) and 2 after: on [0, 1.3] it is 1 throughout,
        # the node at tau = 1.3 included, and the integrals are analytic
        model = bench_or_bundled("piecewise_mm")
        kernel = model.build_kernel()
        quad = QuadratureSpec(rtol=model.analysis.rtol)
        mean = 1.0 - math.exp(-1.3)
        assert abs(transient_zero_prob(model, kernel, 1.3, quad) - math.exp(-mean)) <= 1e-9
        moments = transient_moments(model, kernel, 1.3, quad)
        assert moments.quadrature_rule == "simpson-romberg"
        assert abs(moments.mean[0] - mean) <= 1e-9
        assert abs(moments.covariance[0, 0] - mean) <= 1e-9

    @pytest.mark.parametrize("config, t", [
        ("mm_infty", 1.0), ("tandem_batch", 3.0), ("zeta_batch", 3.0), ("vivax", 10.0),
        ("renewal_tandem", 4.0)])
    def test_is_the_pgf_at_zero(self, config, t):
        model = bench_or_bundled(config)
        kernel = model.build_kernel()
        quad = QuadratureSpec(rtol=model.analysis.rtol)
        assert (transient_zero_prob(model, kernel, t, quad)
                == transient_pgf(model, kernel, t, np.zeros(model.J), quad))


class TestMoments:
    def test_mm_infinity_mean(self, mm_model, mm_kernel):
        result = transient_moments(mm_model, mm_kernel, 1.0)
        assert result.mean[0] == pytest.approx(MM_MEAN, abs=1e-8)

    def test_mm_infinity_poisson_variance(self, mm_model, mm_kernel):
        result = transient_moments(mm_model, mm_kernel, 1.0)
        assert abs(result.covariance[0, 0] - result.mean[0]) <= 1e-8

    def test_mean_matches_pgf_finite_differences(self, batch_tandem_model,
                                                 tandem_kernel):
        # the PGF argument lies in the unit box, so the slope at z = 1 is the
        # second-order one-sided difference (3 G(1) - 4 G(1 - h) + G(1 - 2h)) / 2h,
        # whose error is O(h^2) like the central difference's
        t, h = 2.0, 1e-5
        result = transient_moments(batch_tandem_model, tandem_kernel, t)
        quad = QuadratureSpec(rtol=1e-10)
        for k in range(2):
            g = []
            for step in (0.0, h, 2 * h):
                z = np.ones(2)
                z[k] -= step
                g.append(transient_pgf(batch_tandem_model, tandem_kernel, t, z, quad))
            fd = (3 * g[0] - 4 * g[1] + g[2]) / (2 * h)
            assert fd == pytest.approx(result.mean[k], rel=1e-4)

    def test_undefined_moment_signal(self, single_exp_node):
        model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.iid_assignment(
                                 UnivariateLaw.zeta(1.5), [1.0]),
                             nodes=[single_exp_node])
        kernel = MarkovKernel([single_exp_node], 1)
        result = transient_moments(model, kernel, 1.0)
        assert result.mean is None
        assert result.undefined_reason is not None

    def test_integrand_is_the_einsum_form_at_j8(self, monkeypatch):
        # vivax, J = 8: the per-node q^T f2 q of the integrand against the
        # three-operand einsum that it replaced
        model = load_config(bundled_config_path("vivax"))
        kernel = model.build_kernel()
        integrands = []

        def captured(f, *args, **kwargs):
            integrands.append(f)
            return refine(f, *args, **kwargs)

        refine = transient_module.simpson_refine
        monkeypatch.setattr(transient_module, "simpson_refine", captured)
        t, J = 10.0, model.J
        assert transient_moments(model, kernel, t).covariance is not None
        tau = np.linspace(0.0, t, 33)
        q = kernel.placement_rows_many(t - tau)
        f1 = model.batch.factorial_moments(1)
        f2 = model.batch.factorial_moments(2)
        mean = np.einsum("j,mjk->mk", f1, q)
        second = (np.einsum("mjk,jl,mln->mkn", q, f2, q)
                  + np.einsum("mk,kn->mkn", mean, np.eye(J)))
        want = model.arrival.rate(tau)[:, None] * np.concatenate(
            [mean, second.reshape(tau.size, J * J)], axis=1)
        np.testing.assert_allclose(integrands[0](tau), want, rtol=1e-14, atol=0.0)

    def test_covariance_vs_simulation(self, batch_tandem_model, tandem_kernel):
        result = transient_moments(batch_tandem_model, tandem_kernel, 3.0)
        plan = SimulationPlan(model=batch_tandem_model, times=(3.0,),
                              replications=200_000, seed=99, cap=60)
        est = run_simulation(plan, workers=4)
        total = est.replications
        mean = np.zeros(2)
        for vec, count in est.counts[0].items():
            mean += np.array(vec) * count
        mean /= total
        cov = np.zeros((2, 2))
        for vec, count in est.counts[0].items():
            d = np.array(vec) - mean
            cov += np.outer(d, d) * count
        cov /= total
        assert np.allclose(mean, result.mean, atol=4 * np.sqrt(
            np.diag(result.covariance) / total) + 1e-3)
        assert np.allclose(cov, result.covariance, atol=0.05)


# -- the PGF-inversion oracle ------------------------------------------------------

# J = 2 finite batch table whose sizes jump from 2 to 9: (1, 0), (0, 2), (5, 4)
GAPPED_TABLE = {(1, 0): 0.5, (0, 2): 0.3, (5, 4): 0.2}


def _gapped_pgf(y):
    return sum(p * y[..., 0] ** a * y[..., 1] ** b for (a, b), p in GAPPED_TABLE.items())


IID_LAWS = {"iid_binomial": UnivariateLaw.binomial(6, 0.4),
            "iid_negative_binomial": UnivariateLaw.negative_binomial(1.5, 1.2)}


def _oracle_case(name):
    """(model, rate, generator, batch PGF, t, cap): the model for bqnet, and
    the same model written out for the oracle."""
    if name == "tandem_batch":
        # lambda = 1 + 0.5 sin(tau); Poisson(2) batches into node 1; mu = (1, 2) in tandem
        return (load_config(bundled_config_path(name)), lambda tau: 1.0 + 0.5 * np.sin(tau),
                np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, 0.0]]),
                lambda y: np.exp(2.0 * (y[..., 0] - 1.0)), 3.0, 25)
    if name in ("mm_infty", "piecewise_mm"):
        # piecewise_mm at its breakpoint 1.3: [0, t] is the first piece alone
        t = 3.0 if name == "mm_infty" else 1.3
        return (bench_or_bundled(name), np.ones_like,
                np.array([[-1.0, 1.0], [0.0, 0.0]]), lambda y: y[..., 0], t, 20)
    if name == "zeta_batch":
        # zeta(1.5) batches, P(B = n) = n^-s / zeta(s), into one M/M/inf node:
        # G(y) = Li_s(y) / zeta(s)
        polylog = np.vectorize(lambda y: mpmath.fp.polylog(1.5, y), otypes=[complex])
        return (load_config(bundled_config_path(name)), np.ones_like,
                np.array([[-1.0, 1.0], [0.0, 0.0]]),
                lambda y: polylog(y[..., 0]) / mpmath.fp.zeta(1.5), 3.0, 15)
    if name in IID_LAWS:
        # members split 0.7 / 0.3 between node 1 (mu = 1, half to node 2)
        # and node 2 (mu = 2)
        law, entry = IID_LAWS[name], [0.7, 0.3]
        model = NetworkModel(
            J=2, arrival=ArrivalProcess.constant(1.0),
            batch=BatchLaw.iid_assignment(law, entry),
            nodes=[ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.5, 0.5]),
                   ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])])
        return (model, np.ones_like,
                np.array([[-1.0, 0.5, 0.5], [0.0, -2.0, 2.0], [0.0, 0.0, 0.0]]),
                oracle_iid_batch_pgf(law, entry), 3.0, 20)
    model = NetworkModel(
        J=2, arrival=ArrivalProcess.sinusoidal(1.5, 0.5, 2.0),
        batch=BatchLaw.finite_table(list(GAPPED_TABLE.items()), 2),
        nodes=[ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.5, 0.5]),
               ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])])
    return (model, lambda tau: 1.5 + 0.5 * np.sin(2.0 * tau),
            np.array([[-1.0, 0.5, 0.5], [0.0, -2.0, 2.0], [0.0, 0.0, 0.0]]),
            _gapped_pgf, 3.0, 20)


@pytest.mark.filterwarnings("ignore:occupancy cap")       # zeta's heavy tail at cap 15
@pytest.mark.parametrize("name", ["tandem_batch", "mm_infty", "gapped_table",
                                  "piecewise_mm", *IID_LAWS, "zeta_batch"])
def test_pmf_matches_pgf_inversion(name):
    model, rate, generator, batch_pgf, t, cap = _oracle_case(name)
    pmf = transient_pmf(model, model.build_kernel(), t, cap)
    assert pmf.meta["quadrature_rule"] == "simpson-romberg"
    # zeta's heavy tail aliases back onto the lattice from past the torus
    # at the default radius, r^N = 10^-6.5; a smaller one keeps it out
    gamma = 20.0 if name == "zeta_batch" else 13.0
    want = oracle_pgf_inversion(rate, generator, batch_pgf, t, cap,
                                gamma=gamma)[tuple(pmf.index.array.T)]
    np.testing.assert_allclose(pmf.values, want, rtol=1e-8, atol=1e-11)


# -- which rule each integral takes ------------------------------------------------


def _rules_taken(monkeypatch, module):
    """The ``extrapolate`` argument of every simpson_refine call in ``module``."""
    taken = []
    refine = module.simpson_refine

    def recording(*args, extrapolate=False, **kwargs):
        taken.append(extrapolate)
        return refine(*args, extrapolate=extrapolate, **kwargs)

    monkeypatch.setattr(module, "simpson_refine", recording)
    return taken


@pytest.mark.filterwarnings("ignore:occupancy cap")
@pytest.mark.parametrize("name, t, analytic", [
    ("tandem_batch", 3.0, True), ("mm_infty", 3.0, True),
    # a grid kernel's rows are piecewise linear in t
    ("renewal_tandem", 4.0, False),
    # the rate jumps at 1.3: two pieces at t = 3, one at t = 1
    ("piecewise_mm", 3.0, False), ("piecewise_mm", 1.0, True)])
def test_extrapolates_only_analytic_integrands(monkeypatch, name, t, analytic):
    model = bench_or_bundled(name)
    kernel = model.build_kernel()
    taken = _rules_taken(monkeypatch, transient_module)
    # the rule depends on the kernel and the rate alone; a loose spec keeps
    # Simpson across the jump short
    quad = QuadratureSpec(rtol=1e-6, max_doublings=4)
    results = []
    for op in (lambda: transient_pmf(model, kernel, t, 4, quad),
               lambda: transient_moments(model, kernel, t, quad),
               lambda: transient_pgf(model, kernel, t, np.full(model.J, 0.5), quad)):
        try:
            results.append(op())
        except ConvergenceError:
            results.append(None)
    assert taken == [analytic] * 3
    rule = "simpson-romberg" if analytic else "simpson"
    pmf, moments, _ = results
    if pmf is not None:
        assert pmf.meta["quadrature_rule"] == rule
        assert LatticePMF.from_json_dict(pmf.to_json_dict()).meta["quadrature_rule"] == rule
    if moments is not None:
        assert moments.quadrature_rule == rule
    assert (pmf is None and moments is None) == (name == "piecewise_mm" and t == 3.0)


@pytest.mark.parametrize("name", ["mm_infty", "renewal_tandem"])
def test_expected_batch_occupancy_extrapolates_on_analytic_kernels(monkeypatch, name):
    model = bench_or_bundled(name)
    kernel = model.build_kernel()
    taken = _rules_taken(monkeypatch, ergodicity_module)
    assert expected_batch_occupancy(model, kernel).is_finite
    assert set(taken) == {kernel.analytic_in_time}
    assert kernel.analytic_in_time == (name == "mm_infty")


def test_piecewise_moments_still_fail_across_the_jump():
    # Simpson across the rate jump at 1.3 never settles at rtol 1e-8
    model = bench_or_bundled("piecewise_mm")
    with pytest.raises(ConvergenceError):
        transient_moments(model, model.build_kernel(), 3.0,
                          QuadratureSpec(rtol=model.analysis.rtol))


def _plain_simpson_pmf(model, t, cap, rtol):
    kernel = model.build_kernel()
    kernel.analytic_in_time = False
    pmf = transient_pmf(model, kernel, t, cap, QuadratureSpec(rtol=rtol))
    assert pmf.meta["quadrature_rule"] == "simpson"
    return pmf


def _zeta_model(s):
    node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
    return NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                        batch=BatchLaw.iid_assignment(UnivariateLaw.zeta(s), [1.0]),
                        nodes=[node])


@pytest.mark.filterwarnings("ignore:occupancy cap")
@pytest.mark.parametrize("name, t, cap", [
    ("tandem_batch", 3.0, 25), ("mm_infty", 3.0, 20),
    *[(f"zeta {s}", t, 15) for s in (1.05, 1.5, 2.5) for t in (1.0, 3.0, 6.0)]])
def test_default_pmf_is_near_converged(name, t, cap):
    # at the default rtol 1e-8 the extrapolated PMF sits within 5e-11 of plain
    # Simpson at rtol 1e-12 (Simpson at 1e-8 is up to ~9e-10 away)
    model = (_zeta_model(float(name.split()[1])) if name.startswith("zeta")
             else load_config(bundled_config_path(name)))
    pmf = transient_pmf(model, model.build_kernel(), t, cap)
    converged = _plain_simpson_pmf(model, t, cap, 1e-12).values
    big = converged > 1e-6
    assert np.max(np.abs(pmf.values - converged)[big] / converged[big]) <= 5e-11
