import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from bqnet import (ArrivalProcess, BatchLaw, MarkovKernel, NetworkModel,
                   QuadratureSpec, ServiceLaw, ServiceNode, SimulationPlan,
                   UnivariateLaw, ValidationError, recompute_with_pivot,
                   bundled_config_path, load_config, run_simulation,
                   transient_moments, transient_pgf, transient_pmf,
                   transient_zero_prob)
from bqnet import transient as transient_module

MM_MEAN = 1.0 - math.exp(-1.0)
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


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

    @pytest.mark.parametrize("config, t", [
        ("mm_infty", 1.0), ("tandem_batch", 3.0), ("zeta_batch", 3.0), ("vivax", 10.0),
        ("renewal_tandem", 4.0)])
    def test_is_the_pgf_at_zero(self, config, t):
        path = BENCH_CONFIGS / f"{config}.json"
        model = load_config(path if path.exists() else bundled_config_path(config))
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
        t, h = 2.0, 1e-5
        result = transient_moments(batch_tandem_model, tandem_kernel, t)
        quad = QuadratureSpec(rtol=1e-10)
        for k in range(2):
            z_hi = np.ones(2)
            z_lo = np.ones(2)
            z_hi[k] += h
            z_lo[k] -= h
            fd = (transient_pgf(batch_tandem_model, tandem_kernel, t, z_hi, quad)
                  - transient_pgf(batch_tandem_model, tandem_kernel, t, z_lo, quad)) / (2 * h)
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
        q = kernel.placement_rows_many(t - tau)[:, :, :J]
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
