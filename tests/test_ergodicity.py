import math

import numpy as np
import pytest

from bqnet import (ArrivalProcess, BatchLaw, DomainError, MarkovKernel,
                   NetworkModel, ServiceLaw, ServiceNode, TabulatedKernel,
                   UnivariateLaw, bundled_config_path, classify_ergodicity,
                   expected_batch_occupancy, load_config, transient_zero_prob)

from conftest import truncation_support


def model_for(batch, node=None):
    node = node or ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
    return NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                        batch=batch, nodes=[node])


def harmonic_series_ew(law, mu=1.0, tol=1e-14):
    """Independent oracle: E[W] = sum_j P(S=j) H_j / mu."""
    top = truncation_support(law, 1.0 - 1e-15)
    ns = np.arange(1, top + 1)
    H = np.cumsum(1.0 / ns)
    return float(np.sum(law.pmf(ns) * H)) / mu


@pytest.fixture(scope="module")
def exp_kernel():
    return MarkovKernel(
        [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])], 1)


class TestExpectedBatchOccupancy:
    def test_single_customer(self, exp_kernel):
        ew = expected_batch_occupancy(model_for(BatchLaw.constant([1])), exp_kernel)
        assert ew.is_finite
        assert ew.value == pytest.approx(1.0, abs=1e-8)

    def test_pair_batch_harmonic(self, exp_kernel):
        ew = expected_batch_occupancy(model_for(BatchLaw.constant([2])), exp_kernel)
        assert ew.value == pytest.approx(1.5, abs=1e-8)

    def test_geometric_series_oracle(self, exp_kernel):
        law = UnivariateLaw.geometric(0.5)
        model = model_for(BatchLaw.iid_assignment(law, [1.0]))
        ew = expected_batch_occupancy(model, exp_kernel)
        want = harmonic_series_ew(law)
        assert ew.value == pytest.approx(want, abs=1e-6)
        # closed form for this batch law: 2 log 2
        assert ew.value == pytest.approx(2.0 * math.log(2.0), abs=1e-6)

    @pytest.mark.parametrize("law", [
        UnivariateLaw.degenerate(2),
        UnivariateLaw.geometric(0.5),
        UnivariateLaw.poisson(2.0),
    ], ids=lambda l: l.family)
    def test_harmonic_sum_identity(self, law, exp_kernel):
        model = model_for(BatchLaw.iid_assignment(law, [1.0]))
        ew = expected_batch_occupancy(model, exp_kernel)
        assert ew.value == pytest.approx(harmonic_series_ew(law), abs=1e-6)

    def test_each_time_is_evaluated_once(self):
        # the horizon's integrand value is the end of its panel's first rule
        # and the start of the next panel's, never a call of its own
        model = load_config(bundled_config_path("mm_infty"))
        kernel = model.build_kernel()
        times = []
        survival = kernel.survival_vectors

        def counted(taus):
            times.extend(np.asarray(taus).tolist())
            return survival(taus)

        kernel.survival_vectors = counted
        ew = expected_batch_occupancy(model, kernel)
        assert ew.is_finite
        assert len(times) == len(set(times))

    def test_divergence_probe_never_reports_finite(self, exp_kernel):
        model = model_for(BatchLaw.iid_assignment(
            UnivariateLaw.log_weighted_tail(), [1.0]))
        ew = expected_batch_occupancy(model, exp_kernel)
        assert ew.status in ("infinite", "inconclusive")
        assert not ew.is_finite
        # partial integrals keep growing through the probe
        assert all(b > a for a, b in zip(ew.partials, ew.partials[1:]))
        # measured decay exponent sits at the slow-decay boundary
        assert ew.decay_exponent == pytest.approx(1.0, abs=0.05)

    def test_series_divergence_oracle(self):
        # the harmonic-sum representation grows without bound
        law = UnivariateLaw.log_weighted_tail()
        partials = []
        total = 0.0
        prev_n = 1
        for stop in [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]:
            ns = np.arange(prev_n + 1, stop + 1)
            mask = ns >= 2
            H = np.log(ns[mask]) + 0.5772156649015329
            total += float(np.sum(law.pmf(ns[mask]) * H))
            partials.append(total)
            prev_n = stop
        growth = np.diff(partials)
        assert np.all(growth > 0.05)
        # double-log divergence: decade increments shrink like
        # Delta(log log N), far slower than any convergent series
        lnln = np.log(np.log([10 ** 4, 10 ** 5, 10 ** 6]))
        predicted = 0.4739914265443749 * np.diff(np.log(np.log(
            [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])))
        assert np.all(growth >= 0.8 * predicted)
        assert growth[-1] >= 0.6 * growth[0]


def tabulated_occupancy(times, survival):
    """E[W] of one customer on a one-queue tabulated kernel with this
    survival curve, linear between the knots."""
    times = np.asarray(times, dtype=float)
    kernel = TabulatedKernel(times, np.asarray(survival, dtype=float)[:, None, None])
    model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                         batch=BatchLaw.constant([1]), nodes=None,
                         kernel_spec={"representation": "tabulated"})
    return expected_batch_occupancy(model, kernel)


def trapezoid_partials(times, survival, horizons):
    """The integral of the linear interpolant up to each horizon, which
    composite Simpson gets exactly on panels between knots."""
    cumulative = np.concatenate(([0.0], np.cumsum(
        np.diff(times) * (np.asarray(survival[:-1]) + np.asarray(survival[1:])) / 2)))
    return [float(cumulative[list(times).index(h)]) for h in horizons]


class TestOccupancyExits:
    """Every field of each inconclusive exit of the E[W] quadrature."""

    def test_underflow_while_decaying_slowly(self):
        # tau^-1.5 at the powers of two up to 64, then exactly 0 at 128
        times = [0.0] + [2.0 ** k for k in range(8)]
        survival = [1.0] + [2.0 ** (-1.5 * k) for k in range(7)] + [0.0]
        ew = tabulated_occupancy(times, survival)
        assert ew.status == "inconclusive" and math.isnan(ew.value)
        assert ew.horizon == 128.0
        assert ew.decay_exponent == pytest.approx(1.5, rel=1e-12)
        want = trapezoid_partials(times, survival, [2.0 ** k for k in range(7)])
        assert ew.partials == pytest.approx(want, rel=1e-12)
        assert ew.detail == "integrand underflowed while decaying slowly"

    def test_growth_between_horizons(self):
        times, survival = [0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.25, 0.5]
        ew = tabulated_occupancy(times, survival)
        assert ew.status == "inconclusive" and math.isnan(ew.value)
        assert ew.horizon == 4.0
        assert ew.decay_exponent == pytest.approx(-1.0, rel=1e-12)
        assert ew.partials == pytest.approx([0.75, 1.125, 1.875], rel=1e-12)
        assert ew.detail == "integrand grew between doublings"

    def test_horizon_budget_exhausted(self):
        # tau^-1.2 converges, but too slowly for the panels to settle by
        # 2^48, and is unmeasurably small long before
        times = [0.0] + [2.0 ** k for k in range(50)]
        survival = [1.0] + [2.0 ** (-1.2 * k) for k in range(50)]
        ew = tabulated_occupancy(times, survival)
        assert ew.status == "inconclusive" and math.isnan(ew.value)
        assert ew.horizon == 2.0 ** 48
        assert ew.decay_exponent == math.inf
        want = trapezoid_partials(times, survival, [2.0 ** k for k in range(49)])
        assert ew.partials == pytest.approx(want, rel=1e-12)
        assert ew.detail == "horizon budget exhausted without a verdict"

    def test_kernel_horizon_exhausted(self):
        ew = tabulated_occupancy([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3])
        assert ew.status == "inconclusive" and math.isnan(ew.value)
        assert ew.horizon == 2.0
        assert ew.decay_exponent is None
        assert ew.partials == []
        assert ew.detail == ("kernel horizon exhausted: tabulated kernel covers "
                             "[0, 3.0]; asked for 4.0")

    def test_stalled_panel(self):
        # a drop from 1 to 0 within 1e-12 of tau = 0.3 is a jump to every rule
        ew = tabulated_occupancy([0.0, 0.3, 0.3 + 1e-12, 1.0], [1.0, 1.0, 0.0, 0.0])
        assert ew.status == "inconclusive" and math.isnan(ew.value)
        assert ew.horizon == 1.0
        assert ew.decay_exponent is None
        assert ew.partials == []
        assert ew.detail == ("panel quadrature stalled: batch occupancy panel did "
                             "not converge after 12 doublings")


class TestClassification:
    def test_finite_mean_batch(self, exp_kernel):
        verdict = classify_ergodicity(model_for(BatchLaw.constant([1])), exp_kernel)
        assert verdict.verdict == "ergodic"
        assert verdict.criterion == "finite-mean-batch"
        assert verdict.expected_batch_time is not None
        assert math.isfinite(verdict.expected_batch_time)

    def test_zeta_log_moment(self, exp_kernel):
        model = model_for(BatchLaw.iid_assignment(UnivariateLaw.zeta(1.5), [1.0]))
        verdict = classify_ergodicity(model, exp_kernel)
        assert verdict.verdict == "ergodic"
        assert verdict.criterion == "log-moment"
        assert math.isfinite(verdict.expected_batch_time)

    def test_log_weighted_tail_divergent(self, exp_kernel):
        model = model_for(BatchLaw.iid_assignment(
            UnivariateLaw.log_weighted_tail(), [1.0]))
        verdict = classify_ergodicity(model, exp_kernel)
        assert verdict.verdict == "non-ergodic"
        assert verdict.criterion == "divergent-log-moment"
        assert verdict.expected_batch_time == math.inf

    def test_fractional_moment_with_asserted_tail(self):
        # tabulated service carries no certificates, so only the asserted
        # polynomial tail can classify the heavy-tailed batch symbolically
        times = np.linspace(0.0, 12.0, 121)
        values = 1.0 - np.exp(-times)
        node = ServiceNode(ServiceLaw.tabulated(times, values), [0.0, 1.0])
        model = model_for(BatchLaw.iid_assignment(UnivariateLaw.zeta(1.4), [1.0]),
                          node=node)
        kernel = model.build_kernel()
        verdict = classify_ergodicity(model, kernel, polynomial_tail_alpha=4.0)
        assert verdict.verdict == "ergodic"
        assert verdict.criterion == "fractional-moment"

    def test_quadrature_fallback(self):
        # a tabulated kernel carries no certificates, so even a trivially
        # stable model can only be classified through the E[W] quadrature
        times = np.linspace(0.0, 64.0, 1 << 15)
        table = np.exp(-times)[:, None, None]
        kernel = TabulatedKernel(times, table)
        model = NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.constant([1]), nodes=None,
                             kernel_spec={"representation": "tabulated"})
        verdict = classify_ergodicity(model, kernel)
        assert verdict.verdict == "ergodic"
        assert verdict.criterion == "finite-E[W]-quadrature"
        assert verdict.expected_batch_time == pytest.approx(1.0, abs=1e-6)

    def test_absorbing_network_is_non_ergodic(self):
        node = ServiceNode(ServiceLaw.absorbing())
        model = model_for(BatchLaw.constant([1]), node=node)
        kernel = MarkovKernel([node], 1)
        verdict = classify_ergodicity(model, kernel)
        assert verdict.verdict == "non-ergodic"
        assert verdict.criterion == "absorbing-reachable"
        assert verdict.expected_batch_time == math.inf
        # the quadrature agrees, but only the certificate may say so
        assert expected_batch_occupancy(model, kernel).status == "infinite"

    @pytest.mark.parametrize("batch,rate", [
        (BatchLaw.constant([1, 0]), 1.0),        # absorbing node 2 never reached
        (BatchLaw.constant([0, 1]), 0.0),        # reached, but nothing arrives
    ], ids=["unreachable", "zero-rate"])
    def test_absorbing_certificate_needs_a_reachable_absorbing_node(self, batch, rate):
        nodes = [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.0, 1.0]),
                 ServiceNode(ServiceLaw.absorbing())]
        model = NetworkModel(J=2, arrival=ArrivalProcess.constant(rate),
                             batch=batch, nodes=nodes)
        verdict = classify_ergodicity(model, MarkovKernel(nodes, 2))
        assert verdict.criterion != "absorbing-reachable"
        if rate > 0:
            assert verdict.verdict == "ergodic"
            assert verdict.expected_batch_time == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("batch", [
        BatchLaw.independent([UnivariateLaw.poisson(1.0), UnivariateLaw.poisson(1e-17)]),
        BatchLaw.iid_assignment(UnivariateLaw.binomial(3, 1e-17), [0.5, 0.5]),
    ], ids=["independent-poisson", "iid-binomial"])
    def test_tiny_entry_mass_reaches_absorbing_node(self, batch):
        # P(S_2 = 0) rounds to 1.0, but customers do reach the absorbing node
        nodes = [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.0, 1.0]),
                 ServiceNode(ServiceLaw.absorbing())]
        model = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                             batch=batch, nodes=nodes)
        verdict = classify_ergodicity(model, MarkovKernel(nodes, 2))
        assert verdict.verdict == "non-ergodic"
        assert verdict.criterion == "absorbing-reachable"

    def test_vivax_is_non_ergodic(self):
        # hypnozoites reach the absorbing queues D, C and PC
        model = load_config(bundled_config_path("vivax"))
        verdict = classify_ergodicity(model, model.build_kernel())
        assert verdict.verdict == "non-ergodic"
        assert verdict.criterion == "absorbing-reachable"
        assert verdict.to_json_dict()["expected_batch_time"] == "infinity"

    def test_requires_homogeneous_arrivals(self, exp_kernel):
        model = NetworkModel(J=1, arrival=ArrivalProcess.sinusoidal(1.0, 0.5, 1.0),
                             batch=BatchLaw.constant([1]),
                             nodes=[ServiceNode(ServiceLaw.exponential(1.0),
                                                [0.0, 1.0])])
        with pytest.raises(DomainError):
            classify_ergodicity(model, exp_kernel)

    def test_empty_network_consistency(self, exp_kernel):
        # for an ergodic homogeneous model, P(N(t)=0) -> exp(-lambda E[W])
        model = model_for(BatchLaw.constant([2]))
        verdict = classify_ergodicity(model, exp_kernel)
        assert verdict.verdict == "ergodic"
        limit = math.exp(-1.0 * verdict.expected_batch_time)
        got = transient_zero_prob(model, exp_kernel, 40.0)
        assert abs(got - limit) <= 1e-3

    def test_verdict_serialisation(self, exp_kernel):
        verdict = classify_ergodicity(model_for(BatchLaw.constant([1])), exp_kernel)
        doc = verdict.to_json_dict()
        assert doc["verdict"] == "ergodic"
        assert "criterion" in doc and "diagnostics" in doc
        inf_verdict = classify_ergodicity(
            model_for(BatchLaw.iid_assignment(UnivariateLaw.log_weighted_tail(),
                                              [1.0])), exp_kernel)
        assert inf_verdict.to_json_dict()["expected_batch_time"] == "infinity"
