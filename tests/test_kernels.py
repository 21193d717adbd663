import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from bqnet import (ArrivalProcess, BatchLaw, KernelDomainError, MarkovKernel,
                   NetworkModel, RefinementRequiredError, RenewalKernel,
                   ServiceLaw, ServiceNode, TabulatedKernel, TimeGrid,
                   UnsupportedRepresentationError, ValidationError,
                   bundled_config_path, load_config, load_tabulated_kernel_csv,
                   transient_pgf, transient_pmf)
from bqnet import kernels as kernels_module
from bqnet.compound import ROW_TOL, checked_rows
from bqnet.kernels import (POISSON_TAIL, UNIFORMIZATION_MAX_A, _poisson_head,
                           _poisson_weights)
from bqnet.service import ERLANG_SUM_MAX_SHAPE

from conftest import (oracle_grid_rows, oracle_jump_matrix, oracle_renewal_solve,
                      oracle_renewal_step_solve, oracle_uniformization)

BUNDLED_MARKOV = ["mm_infty", "tandem_batch", "zeta_batch", "vivax"]

LN2 = math.log(2.0)


def scalar_uniformization(kernel, t):
    """The path chain's (J+1, J+1) transition matrix at one time, exit
    state included, one Poisson term at a time, on the kernel's own weights."""
    a = kernel.uniformization_rate * t
    if a == 0.0:
        return np.eye(kernel.J + 1)
    head = _poisson_head(a)
    weights = head / head.sum()
    jump = oracle_jump_matrix(kernel)
    power = np.eye(kernel.J + 1)
    out = weights[0] * power
    for n in range(1, len(weights)):
        power = power @ jump
        out = out + weights[n] * power
    return np.clip(out, 0.0, 1.0)


# J <= 3 general-service networks: a tandem with a deterministic delay, a
# feedback loop, an absorbing node, and a service law with an atom at 0
RENEWAL_NETWORKS = {
    "tandem": [ServiceNode(ServiceLaw.erlang(2, 2.0), [0.0, 1.0, 0.0]),
               ServiceNode(ServiceLaw.deterministic(0.5), [0.0, 0.0, 1.0])],
    "feedback": [ServiceNode(ServiceLaw.erlang(3, 3.0), [0.2, 0.5, 0.3]),
                 ServiceNode(ServiceLaw.exponential(2.0), [0.4, 0.0, 0.6])],
    "absorbing": [ServiceNode(ServiceLaw.erlang(2, 4.0), [0.0, 0.6, 0.3, 0.1]),
                  ServiceNode(ServiceLaw.deterministic(0.3), [0.1, 0.0, 0.5, 0.4]),
                  ServiceNode(ServiceLaw.absorbing())],
    "atom": [ServiceNode(ServiceLaw.tabulated([0.0, 0.5, 1.0, 2.0],
                                              [0.3, 0.5, 0.9, 1.0]), [0.4, 0.3, 0.3]),
             ServiceNode(ServiceLaw.exponential(1.5), [0.5, 0.0, 0.5])],
}


def _chain(laws):
    """Nodes in series, the last one leaving the network."""
    J = len(laws)
    return [ServiceNode(law, [0.0] * (j + 1) + [1.0] + [0.0] * (J - j - 1))
            for j, law in enumerate(laws)]


# the renewal networks plus sparse kernels, whose exact zeros the blocked
# solve must keep, and a J = 8 chain, whose leaf blocks are shorter
BLOCKED_NETWORKS = dict(RENEWAL_NETWORKS, **{
    "deterministic-tandem": _chain([ServiceLaw.deterministic(0.5),
                                    ServiceLaw.deterministic(0.3)]),
    "deterministic-feedback": [
        ServiceNode(ServiceLaw.deterministic(0.5), [0.0, 0.5, 0.5]),
        ServiceNode(ServiceLaw.deterministic(0.3), [0.7, 0.0, 0.3])],
    "chain8": _chain([ServiceLaw.erlang(2, 4.0), ServiceLaw.deterministic(0.25),
                      ServiceLaw.exponential(3.0)] * 2
                     + [ServiceLaw.erlang(3, 6.0), ServiceLaw.deterministic(0.1)]),
})


class TestArrivals:
    def test_constant(self):
        p = ArrivalProcess.constant(1.5)
        assert p.rate(3.0) == 1.5
        assert p.cumulative(2.0) == 3.0
        assert p.segments(10.0) == [(0.0, 10.0, 1.5)]

    def test_piecewise(self):
        p = ArrivalProcess.piecewise([0.0, 1.0, 2.5], [1.0, 3.0, 0.5])
        assert p.rate(0.5) == 1.0
        assert p.rate(1.7) == 3.0
        assert p.rate(5.0) == 0.5
        assert p.cumulative(2.0) == pytest.approx(1.0 + 3.0)
        assert p.segments(0.5) == [(0.0, 0.5, 1.0)]
        assert p.segments(2.0) == [(0.0, 1.0, 1.0), (1.0, 2.0, 3.0)]

    def test_piecewise_rate_reads_the_piece_that_covers_each_time(self):
        # on [0, 2.5] the breakpoint 1.0 starts the second piece, while 2.5
        # ends it: the third piece is not on [0, 2.5]
        p = ArrivalProcess.piecewise([0.0, 1.0, 2.5], [1.0, 3.0, 0.5])
        times = np.array([0.0, 1.0, 2.0, 2.5])
        assert list(p.rate(times)) == [1.0, 3.0, 3.0, 0.5]
        assert list(p.rate(times, horizon=2.5)) == [1.0, 3.0, 3.0, 3.0]
        assert p.rate(1.0, horizon=1.0) == 1.0
        assert p.rate(0.0, horizon=0.0) == 1.0
        assert [piece[2] for piece in p.segments(2.5)] == [1.0, 3.0]
        q = ArrivalProcess.sinusoidal(1.0, 0.5, 1.0)
        assert q.rate(2.0, horizon=2.0) == q.rate(2.0)

    def test_sinusoidal(self):
        p = ArrivalProcess.sinusoidal(1.0, 0.5, 1.0)
        assert p.rate(math.pi / 2) == pytest.approx(1.5)
        assert p.cumulative(2.0) == pytest.approx(2.0 - 0.5 * (math.cos(2.0) - 1.0))
        assert p.segments(100.0) == [(0.0, 100.0, 1.5)]
        assert not p.is_homogeneous()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ArrivalProcess.constant(-1.0)
        with pytest.raises(ValidationError):
            ArrivalProcess.sinusoidal(1.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            ArrivalProcess.piecewise([1.0, 2.0], [1.0, 1.0])


class TestMarkovKernel:
    def test_tandem_closed_form(self, tandem_kernel):
        # q^1_1(t) = e^-t and q^1_2(t) = e^-t - e^-2t for mu = (1, 2)
        rows = tandem_kernel.placement_rows(LN2)
        assert rows[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert rows[0, 1] == pytest.approx(0.25, abs=1e-10)

    def test_identity_at_zero(self, tandem_kernel):
        np.testing.assert_array_equal(tandem_kernel.placement_rows(0.0), np.eye(2))

    def test_single_node_decay(self, mm_kernel):
        assert mm_kernel.placement_rows(1.0)[0, 0] == pytest.approx(math.exp(-1),
                                                                   abs=1e-12)

    def test_survival_examples(self, tandem_kernel, mm_kernel):
        assert tandem_kernel.survival_vectors([0.0])[0, 0] == 1.0
        assert tandem_kernel.survival_vectors([LN2])[0, 0] == pytest.approx(0.75,
                                                                            abs=1e-10)
        absorbing = MarkovKernel([ServiceNode(ServiceLaw.absorbing())], 1)
        for t in [0.0, 1.0, 50.0]:
            assert absorbing.survival_vectors([t])[0, 0] == 1.0

    def test_rejects_non_exponential(self):
        node = ServiceNode(ServiceLaw.deterministic(1.0), [0.0, 1.0])
        with pytest.raises(UnsupportedRepresentationError):
            MarkovKernel([node], 1)

    def test_rejects_bad_routing(self):
        with pytest.raises(ValidationError):
            ServiceNode(ServiceLaw.exponential(1.0), [0.3, 0.3, 0.3])

    def test_chapman_kolmogorov(self, tandem_kernel):
        # exit is absorbing, so q alone is a semigroup: q(s + t) = q(s) q(t)
        rng = np.random.default_rng(7)
        for _ in range(6):
            s, t = rng.uniform(0.05, 3.0, 2)
            left = tandem_kernel.placement_rows(s + t)
            right = tandem_kernel.placement_rows(s) @ tandem_kernel.placement_rows(t)
            assert np.max(np.abs(left - right)) <= 1e-9

    def test_row_substochastic_dense_grid(self, tandem_kernel):
        ts = np.linspace(0.0, 8.0, 201)
        rows = tandem_kernel.placement_rows_many(ts)
        sums = rows.sum(axis=2)
        assert np.all(sums >= -1e-10)
        assert np.all(sums <= 1.0 + 1e-10)

    def test_large_time_matches_expm_crossover(self, tandem_kernel):
        # r t = 9,800 is one series, 10,200 that series at half the time squared
        from scipy.linalg import expm
        for t in [4900.0, 5100.0]:
            got = tandem_kernel.placement_rows(t)
            want = expm(tandem_kernel.generator * t)
            assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("name", BUNDLED_MARKOV)
    def test_mixed_stack_is_each_part_alone(self, name):
        # times on both sides of the series limit, one of them twice: each
        # side computes the same bits as it would alone, and the squared
        # side is the matrix exponential to roundoff
        from scipy.linalg import expm
        nodes = load_config(bundled_config_path(name)).nodes
        J = len(nodes)
        kernel = MarkovKernel(nodes, J)
        crossover = UNIFORMIZATION_MAX_A / kernel.uniformization_rate
        ts = [0.3, 1.5 * crossover, 2.0, 0.3, 1.1 * crossover]
        small, large = [0, 2, 3], [1, 4]
        got = kernel.placement_rows_many(ts)
        alone = MarkovKernel(nodes, J).placement_rows_many([ts[i] for i in small])
        assert np.array_equal(got[small], alone)
        assert np.array_equal(got[0], got[3])
        for i in large:
            want = np.clip(expm(kernel.generator * ts[i]), 0.0, 1.0)
            assert np.max(np.abs(got[i] - want)) <= 1e-10
            assert np.array_equal(got[i], MarkovKernel(nodes, J).placement_rows(ts[i]))

    def test_generator_matches_entrywise_formula(self):
        from bqnet.ergodicity import _service_certificates
        from bqnet.service import generator
        nodes = [ServiceNode(ServiceLaw.exponential(1.3), [0.1, 0.5, 0.0, 0.4]),
                 ServiceNode(ServiceLaw.exponential(0.7), [0.3, 0.2, 0.25, 0.25]),
                 ServiceNode(ServiceLaw.exponential(2.9), [0.0, 0.6, 0.0, 0.4])]
        J = 3
        # the sub-generator: the exit column is not a state
        want = np.zeros((J, J))
        for j, node in enumerate(nodes):
            mu, row = node.service.rate, node.routing
            for k in range(J):
                want[j, k] = mu * row[k]
            want[j, j] = -mu * (1.0 - row[j])
        assert np.array_equal(generator(nodes, J), want)
        assert np.array_equal(MarkovKernel(nodes, J).generator, want)
        delta = float(-np.max(np.linalg.eigvals(want).real))
        assert _service_certificates(nodes, J)["delta"] == delta
        absorbing = [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.5, 0.5]),
                     ServiceNode(ServiceLaw.absorbing())]
        assert generator(absorbing, 2).tolist() == [[-1.0, 0.5], [0.0, 0.0]]

    @pytest.mark.parametrize("name", ["mm_infty", "tandem_batch", "zeta_batch",
                                      "vivax"])
    def test_single_time_is_the_scalar_series(self, name):
        # one time asked for alone, in a stack of one, or summed term by
        # term as a scalar Poisson series of the chain with its exit
        # state: the same bits
        nodes = load_config(bundled_config_path(name)).nodes
        J = len(nodes)
        for t in (0.0, 0.01, 0.37, 1.0, 3.0, 10.0, 64.0):
            stacked = MarkovKernel(nodes, J).placement_rows_many([t])[0]
            assert np.array_equal(MarkovKernel(nodes, J).placement_rows(t), stacked)
            scalar = scalar_uniformization(MarkovKernel(nodes, J), t)
            assert np.array_equal(scalar[:J, :J], stacked)

    def test_poisson_truncation_and_weights_are_scipy_stats(self):
        # the cut, read off the tail summed from the top, is poisson.isf's;
        # the weights, exp(n log a - log n! - a), carry the rounding of their
        # three terms: a few ulps of their magnitudes, relative to the weight
        a = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 241)])
        eps = np.finfo(float).eps
        n = np.arange(int(stats.poisson.isf(POISSON_TAIL, a[-1])) + 2)[:, None]
        log_terms = np.abs(n * np.log(np.where(a > 0, a, 1.0))) + special.gammaln(n + 1) + a
        want = stats.poisson.pmf(n, a)
        assert _poisson_head(0.0).tolist() == [1.0]
        for k, a_k in enumerate(a[1:], start=1):
            head = _poisson_head(float(a_k))
            assert len(head) - 2 == stats.poisson.isf(POISSON_TAIL, a_k)
            assert np.all(np.abs(head - want[: len(head), k])
                          <= 4 * eps * log_terms[: len(head), k] * want[: len(head), k]
                          + 1e-300)
        weights = _poisson_weights(a, len(_poisson_head(float(a[-1]))) - 1)
        assert weights.shape == n.shape[:1] + a.shape
        assert np.all(np.abs(weights - want / want.sum(axis=0))
                      <= 8 * eps * log_terms * want + 1e-300)

    @pytest.mark.parametrize("name", BUNDLED_MARKOV)
    def test_cached_powers_match_per_term_series(self, name):
        # one kernel, stacks of growing length and horizon: every call
        # extends the power cache and sums the same bits as the per-term loop
        nodes = load_config(bundled_config_path(name)).nodes
        J = len(nodes)
        kernel = MarkovKernel(nodes, J)
        for size, end in ((1, 0.3), (17, 2.0), (257, 12.0)):
            ts = np.linspace(0.0, end, size + 1)[1:]
            got = kernel.placement_rows_many(ts)
            assert np.array_equal(got, oracle_uniformization(kernel, ts)[:, :J, :J])

    @pytest.mark.parametrize("name", BUNDLED_MARKOV)
    def test_budgeted_time_chunks_match_per_term_series(self, name, monkeypatch):
        nodes = load_config(bundled_config_path(name)).nodes
        J = len(nodes)
        kernel = MarkovKernel(nodes, J)
        ts = np.linspace(0.0, 5.0, 40)
        n_max = len(_poisson_head(kernel.uniformization_rate * 5.0)) - 1
        # room for the powers and three times' products at once
        monkeypatch.setattr(kernels_module, "UNIFORMIZATION_BUDGET",
                            3 * (n_max + 1) * J ** 2 * 8)
        assert np.array_equal(kernel.placement_rows_many(ts),
                              oracle_uniformization(kernel, ts)[:, :J, :J])

    @pytest.mark.parametrize("name", BUNDLED_MARKOV)
    def test_squaring_beyond_the_power_budget(self, name, monkeypatch):
        nodes = load_config(bundled_config_path(name)).nodes
        J = len(nodes)
        ts = np.linspace(0.0, 6.0, 25)
        want = MarkovKernel(nodes, J).placement_rows_many(ts)
        # too small for even P^0: the series stops at r t = 1, its 16
        # powers, and every later time is that series squared
        monkeypatch.setattr(kernels_module, "UNIFORMIZATION_BUDGET", 8)
        kernel = MarkovKernel(nodes, J)
        got = kernel.placement_rows_many(ts)
        assert len(kernel._powers) <= len(_poisson_head(1.0)) == 16
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_construction_builds_no_powers(self, tandem_nodes):
        kernel = MarkovKernel(tandem_nodes, 2)
        assert len(kernel._powers) == 0
        kernel.placement_rows(0.5)
        assert len(kernel._powers) > 0

    def test_vectorised_path_matches_scalar(self, tandem_kernel):
        ts = np.linspace(0.0, 3.0, 17)
        fresh = MarkovKernel(tandem_kernel.nodes, 2)
        many = fresh.placement_rows_many(ts)
        for pos, t in enumerate(ts):
            single = tandem_kernel.placement_rows(float(t))
            assert np.max(np.abs(many[pos] - single)) <= 1e-13


@st.composite
def markov_networks(draw):
    """J <= 6 exponential networks with absorbing nodes and sparse routing,
    exit probabilities from 0 (a closed class) to 1, some leaking slowly."""
    J = draw(st.integers(1, 6))
    nodes = []
    for _ in range(J):
        if draw(st.integers(0, 4)) == 0:
            nodes.append(ServiceNode(ServiceLaw.absorbing()))
            continue
        inner = [draw(st.sampled_from([0.0, 0.0, 1.0])) * draw(st.floats(0.01, 1.0))
                 for _ in range(J)]
        exit_weight = draw(st.sampled_from([0.0, 1e-4, 0.01, 0.3, 1.0]))
        row = np.array(inner + [exit_weight if sum(inner) else 1.0])
        nodes.append(ServiceNode(ServiceLaw.exponential(draw(st.floats(0.1, 10.0))),
                                 row / row.sum()))
    return nodes


@given(nodes=markov_networks(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_markov_rows_are_the_exit_chain_and_squared_past_the_limit(nodes, data):
    # within the series limit the rows are [:J, :J] of the chain with its
    # exit state, bit for bit; past it, the squared series is expm
    from scipy.linalg import expm
    J = len(nodes)
    kernel = MarkovKernel(nodes, J)
    r = kernel.uniformization_rate or 1.0
    a = data.draw(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=5))
    ts = np.array(a) / r
    got = kernel.placement_rows_many(ts)
    assert np.array_equal(got, oracle_uniformization(kernel, ts)[:, :J, :J])
    far = data.draw(st.floats(1.01, 100.0)) * UNIFORMIZATION_MAX_A / r
    want = np.clip(expm(kernel.generator * far), 0.0, 1.0)
    assert np.max(np.abs(kernel.placement_rows(far) - want)) <= 1e-10


def test_erlang_cdf_is_the_regularised_incomplete_gamma():
    # the finite sum, and below x = shape its complementary series, within
    # 1e-15 absolute and 1e-13 relative of scipy.special.gammainc and of
    # 30-digit mpmath. gammainc is itself off the exact values by up to
    # 1.4e-13 relative on this grid (shape 30, x near 3e-8), so its
    # relative bound is doubled.
    x = np.concatenate([[0.0], np.geomspace(1e-8, 500.0, 241)])
    for shape in range(1, 31):
        got = ServiceLaw.erlang(shape, 1.0).cdf(x)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.gammainc(shape, 0, mpmath.mpf(v),
                                                    regularized=True)) for v in x])
        for want, rel in ((exact, 1e-13), (special.gammainc(shape, x), 2e-13)):
            err = np.abs(got - want)
            assert np.all(err <= 1e-15)
            normal = want >= 1e-290
            assert np.all(err[normal] <= rel * want[normal])
        assert got[0] == 0.0
    law = ServiceLaw.erlang(3, 2.0)
    assert law.cdf(-1.0) == 0.0 and law.cdf(math.inf) == 1.0
    assert math.isnan(law.cdf(math.nan))


@pytest.mark.parametrize("shape", [100, ERLANG_SUM_MAX_SHAPE, ERLANG_SUM_MAX_SHAPE + 1, 1000])
def test_erlang_cdf_large_shapes(shape):
    # on both sides of the float64 sum's largest shape: near the mean, where
    # the CDF is ~1/2, and past x = 708, where e^-x is subnormal or 0
    x = np.concatenate([shape + math.sqrt(shape) * np.linspace(-6.0, 6.0, 13),
                        [700.0, 710.0, 750.0, 2000.0]])
    got = ServiceLaw.erlang(shape, 1.0).cdf(x)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.gammainc(shape, 0, mpmath.mpf(v),
                                                regularized=True)) for v in x])
    err = np.abs(got - exact)
    assert np.all(err <= 4e-15)
    normal = exact >= 1e-290
    assert np.all(err[normal] <= 1e-12 * exact[normal])


class TestRenewalKernel:
    def test_deterministic_step(self):
        node = ServiceNode(ServiceLaw.deterministic(1.0), [0.0, 1.0])
        kern = RenewalKernel([node], 1, TimeGrid(end=2.0, nodes=201))
        assert kern.survival_vectors([0.5])[0, 0] == 1.0
        assert kern.survival_vectors([1.5])[0, 0] == 0.0

    def test_exponential_matches_closed_form(self):
        node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
        kern = RenewalKernel([node], 1, TimeGrid(end=1.0, nodes=1001))
        assert abs(kern.survival_vectors([1.0])[0, 0] - math.exp(-1)) <= 1e-5

    def test_agreement_with_uniformization(self, tandem_nodes, tandem_kernel):
        kern = RenewalKernel(tandem_nodes, 2, TimeGrid(end=3.0, nodes=3001))
        for t in np.linspace(0.0, 3.0, 31):
            delta = np.abs(kern.placement_rows(t) - tandem_kernel.placement_rows(t))
            assert np.max(delta) <= 1e-5

    def test_erlang_tandem_vs_trajectory_oracle(self):
        from bqnet.simulate import _block_rng, _walk
        nodes = [ServiceNode(ServiceLaw.erlang(2, 2.0), [0.0, 1.0, 0.0]),
                 ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])]
        kern = RenewalKernel(nodes, 2, TimeGrid(end=3.0, nodes=3001))
        reps = 1_000_000
        rng = _block_rng(2024, 0)
        offsets = np.array([0.5, 1.0, 2.0])
        counts = _walk(nodes, 2, np.zeros(reps, dtype=np.int64), np.zeros(reps),
                       np.zeros(reps, dtype=np.int64), offsets, rng, 2)
        for col, t in enumerate(offsets):
            want = kern.placement_rows(float(t))[0, 1]
            got = counts[col, 1] / reps
            se = math.sqrt(want * (1.0 - want) / reps)
            assert abs(got - want) <= 3.0 * se + 2e-4

    def test_refinement_required(self):
        node = ServiceNode(ServiceLaw.exponential(10.0), [0.0, 1.0])
        with pytest.raises(RefinementRequiredError):
            RenewalKernel([node], 1, TimeGrid(end=8.0, nodes=201))

    def test_lazy_extension(self):
        node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
        kern = RenewalKernel([node], 1, TimeGrid(end=2.0, nodes=257))
        assert abs(kern.survival_vectors([6.0])[0, 0] - math.exp(-6)) <= 1e-4

    def test_identity_at_zero(self, tandem_nodes):
        kern = RenewalKernel(tandem_nodes, 2, TimeGrid(end=1.0, nodes=257))
        np.testing.assert_array_equal(kern.placement_rows(0.0), np.eye(2))


    @pytest.mark.parametrize("name", sorted(RENEWAL_NETWORKS))
    def test_matches_per_node_oracle(self, name):
        nodes = RENEWAL_NETWORKS[name]
        J = len(nodes)
        kern = RenewalKernel(nodes, J, TimeGrid(end=2.0, nodes=513))
        times, want = oracle_renewal_solve(nodes, J, 2.0, 513)
        assert np.array_equal(kern._times, times)
        assert np.max(np.abs(kern._table - want)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(RENEWAL_NETWORKS))
    def test_extension_continues_the_solved_prefix(self, name):
        nodes = RENEWAL_NETWORKS[name]
        J = len(nodes)
        kern = RenewalKernel(nodes, J, TimeGrid(end=2.0, nodes=257))
        times, table = kern._times.copy(), kern._table.copy()
        kern.placement_rows(7.0)                   # two doublings, to t = 8
        assert kern._table.shape == (1025, J, J)
        assert np.array_equal(kern._times[:257], times)
        assert np.array_equal(kern._table[:257], table)
        fresh = RenewalKernel(nodes, J, TimeGrid(end=8.0, nodes=1025))
        assert np.array_equal(kern._times, fresh._times)
        assert np.max(np.abs(kern._table - fresh._table)) <= 1e-13

    @pytest.mark.parametrize("m", [1001, 3001])
    @pytest.mark.parametrize("name", sorted(BLOCKED_NETWORKS))
    def test_blocked_solve_matches_step_oracle(self, name, m):
        # m - 1 is not a multiple of any leaf size
        nodes = BLOCKED_NETWORKS[name]
        J = len(nodes)
        kern = RenewalKernel(nodes, J, TimeGrid(end=2.0, nodes=m))
        want = oracle_renewal_step_solve(nodes, J, kern._times)
        assert np.max(np.abs(kern._table - want)) <= 1e-13
        assert np.all(kern._table[want == 0.0] == 0.0)

    @pytest.mark.parametrize("name", sorted(BLOCKED_NETWORKS))
    def test_extension_off_a_block_boundary_matches_step_oracle(self, name):
        nodes = BLOCKED_NETWORKS[name]
        J = len(nodes)
        kern = RenewalKernel(nodes, J, TimeGrid(end=2.0, nodes=1001))
        prefix = kern._table.copy()
        kern.placement_rows(3.5)                   # one doubling, to t = 4
        assert kern._table.shape == (2001, J, J)
        assert np.array_equal(kern._table[:1001], prefix)
        want = oracle_renewal_step_solve(nodes, J, kern._times, prefix)
        assert np.max(np.abs(kern._table - want)) <= 1e-13
        assert np.all(kern._table[want == 0.0] == 0.0)

    def test_long_extension_keeps_the_prefix(self):
        nodes = RENEWAL_NETWORKS["tandem"]
        kern = RenewalKernel(nodes, 2, TimeGrid(end=1.0, nodes=16385))
        prefix = kern._table.copy()
        kern.placement_rows(3.0)                   # two doublings, to t = 4
        assert kern._table.shape == (65537, 2, 2)
        assert np.array_equal(kern._table[:16385], prefix)
        assert np.all(np.isfinite(kern._table))

    def test_zero_time_loop_fails_before_any_solve(self, monkeypatch):
        # a mixed three-node loop: the renewal system is singular, though
        # not exactly enough for a matrix inverse to raise
        rows = [[0.0, 0.3, 0.7, 0.0], [0.6, 0.0, 0.4, 0.0], [0.2, 0.8, 0.0, 0.0]]
        nodes = [ServiceNode(ServiceLaw.deterministic(0.0), row) for row in rows]
        monkeypatch.setattr(RenewalKernel, "_solve", None)
        with pytest.raises(ValidationError, match="instantaneous routing loop"):
            RenewalKernel(nodes, 3, TimeGrid(end=1.0, nodes=257))


class TestTabulatedKernel:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_roundtrip(self, tmp_path, mm_kernel):
        ts = np.linspace(0.0, 2.0, 41)
        lines = ["t,q_1_1"]
        for t in ts:
            lines.append(f"{t},{mm_kernel.placement_rows(float(t))[0, 0]}")
        path = tmp_path / "kernel.csv"
        self._write(path, lines)
        kern = load_tabulated_kernel_csv(path)
        assert kern.representation == "tabulated"
        assert abs(kern.survival_vectors([1.0])[0, 0] - math.exp(-1)) <= 1e-3

    def test_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "0.5,0.6", "0.4,0.7"])
        with pytest.raises(ValidationError):
            load_tabulated_kernel_csv(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "1.0,1.4"])
        with pytest.raises(ValidationError):
            load_tabulated_kernel_csv(path)

    @pytest.mark.parametrize("row", ["1.0,nan", "nan,0.5", "inf,0.5"])
    def test_rejects_non_finite_cells(self, tmp_path, row):
        # each check asks for the values it accepts, which NaN never is
        path = tmp_path / "bad.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", row])
        with pytest.raises(ValidationError):
            load_tabulated_kernel_csv(path)

    def test_rejects_a_header_without_kernel_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["t", "0.0", "1.0"])
        with pytest.raises(ValidationError, match="q_j_k"):
            load_tabulated_kernel_csv(path)

    def test_beyond_grid_raises(self, tmp_path):
        path = tmp_path / "k.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "1.0,0.5"])
        kern = load_tabulated_kernel_csv(path)
        with pytest.raises(KernelDomainError):
            kern.placement_rows(2.0)

    def test_rows_just_above_one_serve_every_transient_law(self):
        # row sums of 1 + 5e-11 pass the kernel's 1e-10 check; the PMF's
        # placement rows are checked to 1e-12 and must pass too
        times = np.linspace(0.0, 4.0, 41)
        table = np.zeros((41, 2, 2))
        table[:, 0, 0] = np.exp(-times)
        table[:, 0, 1] = 1.0 - np.exp(-times) + 5e-11
        table[:, 1, 1] = 1.0
        table[0] = np.eye(2)
        kernel = TabulatedKernel(times, table)
        assert np.max(np.abs(kernel.placement_rows_many(times).sum(axis=2) - 1)) <= 1e-15
        model = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.constant([1, 0]), nodes=None,
                             kernel_spec={"representation": "tabulated"})
        pmf = transient_pmf(model, kernel, 2.0, 12)
        for z in ([0.0, 0.0], [0.5, 0.7]):
            series = sum(p * z[0] ** n[0] * z[1] ** n[1] for n, p in pmf.items())
            # the lattice leaves out the tail, where every z^n is below 0.7^13
            assert abs(series - transient_pgf(model, kernel, 2.0, z)) <= (
                1e-12 + pmf.tail_mass * 0.7 ** 13)


# -- grid kernels: stored knot rows and cell slopes --------------------------------

RENEWAL_TANDEM = (Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                  / "renewal_tandem.json")


def _tabulated_with_zeros():
    """J = 2 on an uneven grid: q^1_1 falls from 0.35 to exactly 0 over the
    last cell, and q^2_1 is 0 throughout."""
    times = np.array([0.0, 0.1, 0.25, 0.7, 1.0, 1.6, 1.7, 2.0])
    table = np.zeros((times.size, 2, 2))
    table[:, 0, 0] = [1.0, 0.9, 0.8, 0.6, 0.5, 0.4, 0.35, 0.0]
    table[:, 0, 1] = 0.5 * (1.0 - table[:, 0, 0]) * np.exp(-times)
    table[:, 1, 1] = np.exp(-2.0 * times)
    return TabulatedKernel(times, table)


def _grid_samples(times, rng):
    """t = 0, the grid end, every knot, every midpoint and random times."""
    mids = 0.5 * (times[1:] + times[:-1])
    return np.concatenate([[0.0, times[-1]], times, mids,
                           rng.uniform(0.0, times[-1], 400)])


def _check_two_knot_oracle(kern, rng):
    """The rows at sampled times against the two-knot interpolation of the
    stored table; returns the samples, the rows and where both knots of a
    sample's cell are 0."""
    times, table = kern._times, kern._table
    ts = _grid_samples(times, rng)
    got = kern.placement_rows_many(ts)
    assert np.max(np.abs(got - oracle_grid_rows(times, table, ts))) <= 4e-16
    knot_rows = oracle_grid_rows(times, table, times)
    # the stored row, bit for bit, at every knot, the grid end included
    at_knots = kern.placement_rows_many(times)
    assert np.array_equal(at_knots, knot_rows)
    assert np.array_equal(at_knots, table)
    cell = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
    both_zero = (knot_rows[cell] == 0.0) & (knot_rows[cell + 1] == 0.0)
    assert np.all(got[both_zero] == 0.0)
    return ts, got, both_zero


class TestGridKnots:
    def test_renewal_tandem_matches_the_two_knot_oracle(self):
        kern = load_config(RENEWAL_TANDEM).build_kernel()
        rng = np.random.default_rng(24)
        for end in (8.0, 16.0):                    # before and after an extension
            assert kern._times[-1] == end
            ts, got, both_zero = _check_two_knot_oracle(kern, rng)
            # q^2_1 = 0: a customer entering node 2 never visits node 1
            assert np.all(both_zero[:, 1, 0])
            # node 2 holds its customer for exactly 0.5: no exit before, so
            # its row sums to 1 exactly
            below = ts < 0.5 - kern._times[1]
            assert np.all(got[below, 1].sum(axis=1) == 1.0)
            kern.placement_rows(12.0)

    @pytest.mark.parametrize("name", sorted(RENEWAL_NETWORKS))
    def test_renewal_networks_match_the_two_knot_oracle(self, name):
        nodes = RENEWAL_NETWORKS[name]
        kern = RenewalKernel(nodes, len(nodes), TimeGrid(end=2.0, nodes=257))
        rng = np.random.default_rng(7)
        _check_two_knot_oracle(kern, rng)
        kern.placement_rows(3.0)                   # one doubling, to t = 4
        _check_two_knot_oracle(kern, rng)

    def test_tabulated_matches_the_two_knot_oracle(self):
        kern = _tabulated_with_zeros()
        _, _, both_zero = _check_two_knot_oracle(kern, np.random.default_rng(3))
        assert np.all(both_zero[:, 1, 0])

    def test_no_entry_rounds_below_zero(self):
        # q^1_1 falls to 0 over the last cell, where 0.35 plus the cell's
        # slope times its width rounds to -5.6e-17; the grid end reads the
        # last knot instead, and inside a cell the product stays short of it
        kern = _tabulated_with_zeros()
        times = kern._times
        assert kern.placement_rows(times[-1])[0, 0] == 0.0
        assert np.all(kern.placement_rows_many(np.nextafter(times[1:], 0.0)) >= 0.0)

    @pytest.mark.parametrize("name", sorted(RENEWAL_NETWORKS))
    def test_extension_keeps_the_old_cells(self, name):
        nodes = RENEWAL_NETWORKS[name]
        J = len(nodes)
        kern = RenewalKernel(nodes, J, TimeGrid(end=2.0, nodes=257))
        _, _, rows, slopes = kern._grid
        rows, slopes = rows.copy(), slopes.copy()
        kern.placement_rows(7.0)                   # two doublings, to t = 8
        _, _, new_rows, new_slopes = kern._grid
        assert new_rows.shape == new_slopes.shape == (1025, J, J)
        # the old knots' rows and the old cells' slopes
        assert np.array_equal(new_rows[:257], rows)
        assert np.array_equal(new_slopes[:256], slopes[:256])
        # the table is the rows, not a second copy
        assert kern._table is new_rows


@pytest.fixture(params=["renewal", "markov", "tabulated"])
def kernel(request, tandem_nodes):
    """A J = 2 kernel of each kind, covering [0, 2] at least."""
    if request.param == "renewal":
        return RenewalKernel(RENEWAL_NETWORKS["tandem"], 2,
                             TimeGrid(end=2.0, nodes=257))
    if request.param == "markov":
        return MarkovKernel(tandem_nodes, 2)
    return _tabulated_with_zeros()


class TestContract:
    def test_rows_are_q(self, kernel):
        # (len(ts), J, J) rows of q, with the exit 1 - Q_j(t) implied: entries
        # in [0, 1], row sums at most 1 + ROW_TOL, the empty stack included
        J = kernel.J
        assert kernel.placement_rows_many([]).shape == (0, J, J)
        ts = np.concatenate([np.linspace(0.0, 2.0, 41),
                             np.random.default_rng(5).uniform(0.0, 2.0, 40)])
        rows = kernel.placement_rows_many(ts)
        assert rows.shape == (ts.size, J, J)
        assert np.all((rows >= 0.0) & (rows <= 1.0))
        assert np.all(rows.sum(axis=2) <= 1.0 + ROW_TOL)
        assert np.array_equal(checked_rows(rows), rows)
        # one time is the stack of one, and Q is the row sum, bit for bit
        for t in ts:
            assert np.array_equal(kernel.placement_rows(t), kernel.placement_rows_many([t])[0])
        assert np.array_equal(kernel.survival_vectors(ts),
                              np.clip(rows.sum(axis=2), 0.0, 1.0))


class TestTimeDomain:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_time_is_a_domain_error(self, kernel, t):
        with pytest.raises(KernelDomainError, match="finite and >= 0"):
            kernel.placement_rows(t)
        with pytest.raises(KernelDomainError, match="finite and >= 0"):
            kernel.placement_rows_many([0.5, t, 1.0])
        with pytest.raises(KernelDomainError, match="finite and >= 0"):
            kernel.survival_vectors([t])

    def test_renewal_nan_solves_nothing(self, monkeypatch):
        kern = RenewalKernel(RENEWAL_NETWORKS["tandem"], 2, TimeGrid(end=2.0, nodes=257))
        grid = kern._grid
        monkeypatch.setattr(RenewalKernel, "_solve", None)
        for t in (math.nan, math.inf):
            with pytest.raises(KernelDomainError):
                kern.placement_rows(t)
        assert kern._grid is grid

    def test_empty_stack(self, kernel):
        assert kernel.placement_rows_many([]).shape == (0, 2, 2)
