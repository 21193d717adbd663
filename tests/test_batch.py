import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bqnet import BatchLaw, DomainError, UnivariateLaw, ValidationError
from bqnet.batch import _safe_outer

from conftest import truncation_support

AB_FAMILIES = [
    UnivariateLaw.binomial(10, 0.3),
    UnivariateLaw.poisson(2.0),
    UnivariateLaw.negative_binomial(2.5, 1.5),
    UnivariateLaw.logarithmic(0.5),
    UnivariateLaw.geometric(0.5),
]


ZETA_GAP_EPS = [1e-300, 1e-100, 1e-12, 1e-6, 0.01, 0.3, 0.4999, 0.5, 0.9, 1.0]


def _polylog_gap(s, eps):
    """1 - Li_s(1 - eps) / zeta(s) with enough digits to hold 1 - eps."""
    if eps == 0.0:
        return 0.0
    with mpmath.workdps(60 + max(0, int(-math.log10(eps)))):
        return float(1 - mpmath.polylog(s, 1 - mpmath.mpf(eps)) / mpmath.zeta(s))


def _ab_recursion_pmf(law, n_max):
    """P(S = n), n = 0..n_max, from the (a, b) recursion P(n) = P(n-1) (a + b/n)
    started at the first support point n0 with probability p0."""
    if law.family == "binomial":
        alpha = law.prob
        a, b = -alpha / (1 - alpha), (law.count + 1) * alpha / (1 - alpha)
        n0, p0 = 0, (1 - alpha) ** law.count
    elif law.family == "poisson":
        a, b, n0, p0 = 0.0, law.mu, 0, math.exp(-law.mu)
    elif law.family == "negative-binomial":
        a = law.scale / (1.0 + law.scale)
        b, n0, p0 = (law.shape - 1.0) * a, 0, (1.0 + law.scale) ** (-law.shape)
    elif law.family == "logarithmic":
        a, b, n0, p0 = law.rho, -law.rho, 1, -law.rho / math.log1p(-law.rho)
    else:
        assert law.family == "geometric"
        a, b, n0, p0 = law.beta, 0.0, 1, 1.0 - law.beta
    out = np.zeros(n_max + 1)
    out[n0] = p0
    for n in range(n0 + 1, n_max + 1):
        out[n] = out[n - 1] * (a + b / n)
        if law.family == "binomial" and n > law.count:
            out[n] = 0.0
    return out


class TestUnivariate:
    def test_logarithmic_pmf_value(self):
        # P(S=1) = -rho / log(1-rho) for rho = 0.5
        law = UnivariateLaw.logarithmic(0.5)
        assert law.pmf(1) == pytest.approx(0.7213475204444817, abs=1e-12)

    def test_geometric_matches_harmonic_convention(self):
        # support {1, 2, ...} with P(S=n) = (1-beta) beta^(n-1)
        law = UnivariateLaw.geometric(0.5)
        for n in range(1, 8):
            assert law.pmf(n) == pytest.approx(0.5 ** n, abs=1e-15)
        assert law.pmf(0) == 0.0

    @pytest.mark.parametrize("law", AB_FAMILIES, ids=lambda l: l.family)
    def test_ab_recursion_matches_closed_form(self, law):
        via_ab = _ab_recursion_pmf(law, 100)
        direct = law.pmf(np.arange(101))
        assert np.max(np.abs(via_ab - direct)) <= 1e-12

    @pytest.mark.parametrize("law", AB_FAMILIES + [UnivariateLaw.degenerate(3)],
                             ids=lambda l: l.family)
    def test_truncated_pmf_normalises(self, law):
        top = truncation_support(law)
        total = float(law.pmf(np.arange(top + 1)).sum())
        assert abs(total - 1.0) <= 1e-10

    def test_zeta_truncation_is_analytic_bound(self):
        law = UnivariateLaw.zeta(1.5)
        top = truncation_support(law)
        # tail bound at the analytic quantile stays below the tolerance
        tail = top ** (1.0 - 1.5) / ((1.5 - 1.0) * 2.6123753486854883)
        assert tail <= 1.1e-12

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.5, 4.0])
    def test_zeta_pmf_matches_scipy_zipf(self, s):
        n = np.unique(np.concatenate([np.arange(1, 1001),
                                      np.geomspace(1e3, 1e6, 400).astype(np.int64)]))
        law = UnivariateLaw.zeta(s)
        np.testing.assert_allclose(law.pmf(n), stats.zipf.pmf(n, s),
                                   rtol=1e-14, atol=0.0)
        assert law.pmf(0) == 0.0 and law.pmf(-3) == 0.0

    def test_zeta_pgf_matches_polylog(self):
        law = UnivariateLaw.zeta(1.5)
        for z in [0.2, 0.7, 0.95, 0.999]:
            with mpmath.workdps(40):
                want = float(mpmath.polylog(1.5, z) / mpmath.zeta(1.5))
            assert law.pgf(z) == pytest.approx(want, rel=1e-10)

    def test_zeta_gap_deep_tail(self):
        law = UnivariateLaw.zeta(1.5)
        for eps in [1e-12, 1e-100, 1e-300]:
            with mpmath.workdps(450):
                want = float(1 - mpmath.polylog(1.5, 1 - mpmath.mpf(eps))
                             / mpmath.zeta(1.5))
            assert law.pgf_gap(eps) == pytest.approx(want, rel=1e-9)

    # 2, 3, 4, 7: integer exponents take the harmonic/log term; 45 is an
    # integer above the series' term count, whose log term is dropped
    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 12.5, 45.0])
    def test_zeta_gap_matches_polylog_grid(self, s):
        eps = [e for e in ZETA_GAP_EPS if s != 45.0 or e >= 1e-6]
        law = UnivariateLaw.zeta(s)
        want = [_polylog_gap(s, e) for e in eps]
        np.testing.assert_allclose(law.pgf_gap(np.array(eps)), want, rtol=1e-13, atol=0.0)
        assert law.pgf_gap(0.0) == 0.0

    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_zeta_gap_stack_is_each_entry_alone(self, s):
        law = UnivariateLaw.zeta(s)
        eps = np.array([0.3, 0.0, 1e-300, 0.75, 0.4999, 1e-8, 0.5, 1.0, 0.0, 1e-3])
        assert law.pgf_gap(eps).tolist() == [law.pgf_gap(float(e)) for e in eps]

    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_zeta_gap_rejects_a_negative_entry(self, s):
        with pytest.raises(DomainError):
            UnivariateLaw.zeta(s).pgf_gap(np.array([0.2, 0.0, -1e-300, 0.7]))

    def test_log_weighted_tail_normaliser(self):
        # frozen against a direct sum to n = 1e9 plus the exact integral tail
        law = UnivariateLaw.log_weighted_tail()
        assert law._lwt_c * 2.109742801236895 == pytest.approx(1.0, abs=1e-9)

    def test_log_weighted_tail_gap_frozen_oracle(self):
        # values frozen from a split-summation oracle (body to 60/eps, exact
        # Euler-Maclaurin remainder)
        law = UnivariateLaw.log_weighted_tail()
        assert law.pgf_gap(0.1) == pytest.approx(3.963030457984e-01, rel=1e-9)
        assert law.pgf_gap(1e-3) == pytest.approx(8.128636092795e-02, rel=1e-9)
        assert law.pgf_gap(1e-6) == pytest.approx(3.620858641909e-02, rel=1e-9)

    def test_moment_signals(self):
        assert UnivariateLaw.zeta(1.5).mean() == math.inf
        assert UnivariateLaw.zeta(2.5).mean() < math.inf
        assert UnivariateLaw.zeta(1.5).log_moment_finite()
        assert not UnivariateLaw.log_weighted_tail().log_moment_finite()
        assert UnivariateLaw.zeta(1.5).fractional_moment_finite(3.0)
        assert not UnivariateLaw.zeta(1.5).fractional_moment_finite(1.5)
        assert not UnivariateLaw.log_weighted_tail().fractional_moment_finite(2.0)

    def test_zeta_moments_match_mpmath(self):
        with mpmath.workdps(40):
            mean = float(mpmath.zeta(1.5) / mpmath.zeta(2.5))
            second = float((mpmath.zeta(2.5) - mpmath.zeta(3.5)) / mpmath.zeta(4.5))
        assert UnivariateLaw.zeta(2.5).mean() == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert UnivariateLaw.zeta(4.5).second_factorial() == pytest.approx(
            second, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [4.5, 7.0, 12.5, 20.0])
    def test_zeta_second_factorial_matches_mpmath(self, s):
        # about 2^(1-s): (zeta(s - 2) - zeta(s - 1)) / zeta(s) in float64
        # cancels ~s bits of it
        with mpmath.workdps(60):
            want = float((mpmath.zeta(s - 2) - mpmath.zeta(s - 1)) / mpmath.zeta(s))
        assert UnivariateLaw.zeta(s).second_factorial() == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            UnivariateLaw.logarithmic(1.2)
        with pytest.raises(ValidationError):
            UnivariateLaw.zeta(1.0)
        with pytest.raises(ValidationError):
            UnivariateLaw.binomial(0, 0.5)

    @pytest.mark.parametrize("law", [UnivariateLaw.finite_table({3: 1.0}),
                                     UnivariateLaw.degenerate(3)],
                             ids=["one-point-table", "degenerate"])
    def test_one_point_law_draws_nothing(self, law):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        draws = law.sample(rng, 5)
        assert draws.dtype == np.int64
        assert draws.tolist() == [3] * 5
        assert rng.bit_generator.state == before

    def test_two_point_table_draws(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        UnivariateLaw.finite_table({3: 0.5, 4: 0.5}).sample(rng, 5)
        assert rng.bit_generator.state != before

    @pytest.mark.parametrize("table", [{3: 1.0}, {0: 0.2, 2: 0.5, 5: 0.3}])
    def test_finite_gap_is_the_one_row_batch_gap(self, table):
        # one formula serves univariate and multivariate finite tables
        eps = np.array([0.0, 1e-300, 0.3, 1.0])
        law = UnivariateLaw.finite_table(table)
        batch = BatchLaw.finite_table({(n,): p for n, p in table.items()}, 1)
        assert np.array_equal(law.pgf_gap(eps), batch.pgf_gap(eps[:, None]))


class TestScipyStatsClosedForms:
    """The pmfs and samplers are the formulas and Generator calls that
    ``scipy.stats`` uses, without importing it."""

    N = np.arange(-2, 201)

    @pytest.mark.parametrize("mu", [0.0, 1e-17, 1e-3, 0.5, 1.0, 2.0, 7.3, 50.0, 150.0])
    def test_poisson_pmf_is_scipy_stats(self, mu):
        got = UnivariateLaw.poisson(mu).pmf(self.N)
        assert np.array_equal(got, stats.poisson.pmf(self.N, mu))

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.1, 0.5, 0.9, 0.999])
    def test_geometric_pmf_is_scipy_stats(self, beta):
        got = UnivariateLaw.geometric(beta).pmf(self.N)
        assert np.array_equal(got, stats.geom.pmf(self.N, 1.0 - beta))

    @pytest.mark.parametrize("rho", [1e-9, 0.1, 0.5, 0.9, 0.999])
    def test_logarithmic_pmf_is_scipy_stats(self, rho):
        got = UnivariateLaw.logarithmic(rho).pmf(self.N)
        assert np.array_equal(got, stats.logser.pmf(self.N, rho))

    @pytest.mark.parametrize("count", [1, 5, 40, 200])
    @pytest.mark.parametrize("prob", [0.0, 1e-17, 0.3, 0.5, 0.97, 1.0])
    def test_binomial_pmf_matches_scipy_stats(self, count, prob):
        got = UnivariateLaw.binomial(count, prob).pmf(self.N)
        np.testing.assert_allclose(got, stats.binom.pmf(self.N, count, prob),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("scale", [0.01, 0.5, 1.5, 20.0])
    def test_negative_binomial_pmf_matches_scipy_stats(self, shape, scale):
        got = UnivariateLaw.negative_binomial(shape, scale).pmf(self.N)
        want = stats.nbinom.pmf(self.N, shape, 1.0 / (1.0 + scale))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("law,dist", [
        (UnivariateLaw.logarithmic(0.1), stats.logser(0.1)),
        (UnivariateLaw.logarithmic(0.95), stats.logser(0.95)),
        (UnivariateLaw.zeta(1.5), stats.zipf(1.5)),
        (UnivariateLaw.zeta(4.0), stats.zipf(4.0)),
    ], ids=["logser-0.1", "logser-0.95", "zipf-1.5", "zipf-4"])
    def test_samples_are_scipy_stats_draws(self, law, dist):
        def rng():
            key = np.array([20240901, 3], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        got = law.sample(rng(), 5000)
        want = dist.rvs(size=5000, random_state=rng())
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestBatchLaw:
    def test_pgf_normalisation_all_variants(self):
        laws = [
            BatchLaw.constant([2, 1]),
            BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4]),
            BatchLaw.independent([UnivariateLaw.poisson(1.0),
                                  UnivariateLaw.geometric(0.3)]),
            BatchLaw.finite_table({(1, 0): 0.25, (0, 2): 0.75}, 2),
        ]
        for law in laws:
            assert law.pgf([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_entry_mask_all_variants(self):
        cases = [
            (BatchLaw.constant([2, 0, 1]), [True, False, True]),
            (BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.0, 0.4]),
             [True, False, True]),
            (BatchLaw.iid_assignment(UnivariateLaw.poisson(0.0), [0.6, 0.0, 0.4]),
             [False, False, False]),
            (BatchLaw.independent([UnivariateLaw.degenerate(0),
                                   UnivariateLaw.zeta(1.5),
                                   UnivariateLaw.binomial(3, 0.0)]),
             [False, True, False]),
            (BatchLaw.finite_table({(1, 0, 0): 0.25, (0, 2, 0): 0.75,
                                    (0, 0, 4): 0.0}, 3), [True, True, False]),
        ]
        for law, want in cases:
            assert law.entry_mask().tolist() == want

    def test_entry_mask_counts_tiny_entry_mass(self):
        # P(S_j = 0) rounds to 1.0 here, yet P(S_j > 0) > 0
        assert UnivariateLaw.poisson(1e-17).pmf(0) == 1.0
        assert UnivariateLaw.binomial(3, 1e-17).pmf(0) == 1.0
        laws = [BatchLaw.independent([UnivariateLaw.poisson(1.0),
                                      UnivariateLaw.poisson(1e-17)]),
                BatchLaw.iid_assignment(UnivariateLaw.binomial(3, 1e-17), [0.5, 0.5])]
        for law in laws:
            assert law.entry_mask().tolist() == [True, True]

    def test_support_ignores_zero_probability_points(self):
        assert UnivariateLaw.binomial(3, 0.0).support_max() == 0
        assert UnivariateLaw.binomial(3, 1e-17).support_max() == 3
        law = UnivariateLaw.finite_table({0: 0.0, 2: 0.4, 3: 0.6, 5: 0.0})
        assert (law.support_min(), law.support_max()) == (2, 3)

    @pytest.mark.parametrize("law,oracle", [
        (BatchLaw.constant([2, 0, 1]),
         lambda e: 1 - (1 - e[0]) ** 2 * (1 - e[2])),
        (BatchLaw.iid_assignment(UnivariateLaw.zeta(1.5), [0.5, 0.0, 0.5]),
         lambda e: UnivariateLaw.zeta(1.5).pgf_gap(0.5 * e[0] + 0.5 * e[2])),
        (BatchLaw.independent([UnivariateLaw.poisson(1.0), UnivariateLaw.degenerate(0),
                               UnivariateLaw.geometric(0.3)]),
         lambda e: 1 - math.exp(-e[0]) * (1 - e[2] / (0.7 + 0.3 * e[2]))),
        (BatchLaw.finite_table({(1, 0, 0): 0.25, (0, 2, 3): 0.75}, 3),
         lambda e: 1 - 0.25 * (1 - e[0]) - 0.75 * (1 - e[1]) ** 2 * (1 - e[2]) ** 3),
    ], ids=["constant", "iid", "independent", "finite-table"])
    def test_pgf_gap_takes_a_stack(self, law, oracle):
        # rows with eps = 1 (z = 0) and eps = 0 exercise the log 0 branches
        eps = np.array([[0.3, 0.1, 0.7], [1.0, 0.0, 0.2], [0.0, 0.0, 0.0],
                        [1.0, 1.0, 1.0], [1e-12, 0.5, 1.0]])
        stacked = law.pgf_gap(eps)
        assert stacked.shape == (5,)
        singles = [law.pgf_gap(row) for row in eps]
        assert all(isinstance(g, float) for g in singles)
        np.testing.assert_allclose(stacked, singles, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(stacked, [oracle(row) for row in eps],
                                   rtol=1e-14, atol=1e-15)
        assert law.pgf_gap(eps[:0]).shape == (0,)
        with pytest.raises(ValidationError):
            law.pgf_gap(eps[:, :2])

    def test_independent_gap_of_zero_marginals_is_zero(self):
        law = BatchLaw.independent([UnivariateLaw.degenerate(0),
                                    UnivariateLaw.poisson(0.0)])
        assert law.pgf_gap(np.array([[0.3, 1.0], [0.0, 0.5]])).tolist() == [0.0, 0.0]

    def test_constant_monomial(self):
        law = BatchLaw.constant([2, 1])
        assert law.pgf([0.5, 0.4]) == pytest.approx(0.1, abs=1e-12)

    def test_iid_poisson_at_zero(self):
        law = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        assert law.pgf([0.0, 0.0]) == pytest.approx(math.exp(-2), abs=1e-9)

    def test_constant_pmf(self):
        law = BatchLaw.constant([2, 0])
        assert law.pmf([2, 0]) == 1.0
        assert law.pmf([1, 1]) == 0.0

    def test_iid_binomial_pmf(self):
        law = BatchLaw.iid_assignment(UnivariateLaw.binomial(2, 0.5), [1.0])
        assert law.pmf([1]) == pytest.approx(0.5, abs=1e-12)

    def test_iid_multinomial_split(self):
        law = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        # P(S=(1,1)) = P(total=2) * 2 * 0.6 * 0.4
        want = math.exp(-2) * 2.0 * 2 * 0.6 * 0.4
        assert law.pmf([1, 1]) == pytest.approx(want, rel=1e-12)

    def test_factorial_moments_iid(self):
        law = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        np.testing.assert_allclose(law.factorial_moments(1), [1.2, 0.8])

    def test_factorial_moments_constant(self):
        law = BatchLaw.constant([2, 1])
        np.testing.assert_allclose(law.factorial_moments(2),
                                   [[2.0, 2.0], [2.0, 0.0]])

    def test_infinite_moment_signal(self):
        law = BatchLaw.iid_assignment(UnivariateLaw.zeta(1.5), [1.0])
        assert law.factorial_moments(1)[0] == math.inf
        assert not law.mean_is_finite()

    def test_infinite_mean_leaves_unentered_queue_at_zero(self):
        # inf * 0 would be nan and a RuntimeWarning
        law = BatchLaw.iid_assignment(UnivariateLaw.zeta(1.5), [0.5, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.factorial_moments(1).tolist() == [math.inf, math.inf, 0.0]
            assert law.factorial_moments(2)[2].tolist() == [0.0, 0.0, 0.0]

    def test_independent_second_moments_with_infinite_means(self):
        # off the diagonal, E[S_j] E[S_k] with inf * 0 read as 0
        laws = [UnivariateLaw.zeta(1.5), UnivariateLaw.degenerate(0),
                UnivariateLaw.poisson(2.0), UnivariateLaw.zeta(2.5)]
        means = [math.inf, 0.0, 2.0, UnivariateLaw.zeta(2.5).mean()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = BatchLaw.independent(laws).factorial_moments(2)
        for j, k in np.ndindex(4, 4):
            if j != k:
                want = 0.0 if 0.0 in (means[j], means[k]) else means[j] * means[k]
                assert out[j, k] == want
        assert out.diagonal().tolist() == [law.second_factorial() for law in laws]

    def test_safe_outer_matches_the_loop(self):
        values = np.array([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e-300])
        want = np.empty((values.size, values.size))
        for i, x in enumerate(values):
            for j, y in enumerate(values):
                want[i, j] = 0.0 if (x == 0.0 or y == 0.0) else x * y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _safe_outer(values, values)
        assert got.tobytes() == want.tobytes()
        assert _safe_outer(values[:3], values[2:]).tobytes() == want[:3, 2:].tobytes()

    @pytest.mark.parametrize("make", [
        lambda: BatchLaw.finite_table({(1.5, 0): 1.0}, 2),
        lambda: BatchLaw.finite_table({(1, 0): 0.5, (0, 2.5): 0.5}, 2),
        lambda: BatchLaw.finite_table({(1, math.nan): 1.0}, 2),
        lambda: BatchLaw.constant([1.5, 0]),
    ])
    def test_non_integer_table_entries_rejected(self, make):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            make()

    def test_one_row_table_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        draws = BatchLaw.constant([2, 0, 1]).sample_many(rng, 4)
        assert draws.tolist() == [[2, 0, 1]] * 4
        assert rng.bit_generator.state == before

    def test_dimension_mismatch(self):
        law = BatchLaw.constant([1, 2])
        with pytest.raises(ValidationError):
            law.pgf([0.5])
        with pytest.raises(ValidationError):
            law.pmf([1])

    def test_finite_table_requires_unit_mass(self):
        with pytest.raises(ValidationError):
            BatchLaw.finite_table({(1, 0): 0.5, (0, 1): 0.45}, 2)

    @given(z1=st.floats(0.0, 0.99), z2=st.floats(0.0, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_pgf_pmf_consistency(self, z1, z2):
        law = BatchLaw.iid_assignment(UnivariateLaw.poisson(1.5), [0.7, 0.3])
        z = np.array([z1, z2])
        partial = 0.0
        for a in range(20):
            for b in range(20 - a):
                partial += law.pmf([a, b]) * z1 ** a * z2 ** b
        full = law.pgf(z)
        tail = 1.0 - float(UnivariateLaw.poisson(1.5).pmf(np.arange(20)).sum())
        assert partial <= full + 1e-9
        assert full - partial <= tail + 1e-9

    @given(z1=st.floats(0.0, 1.0), z2=st.floats(0.0, 1.0),
           bump=st.floats(0.0, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_pgf_monotone_in_each_coordinate(self, z1, z2, bump):
        law = BatchLaw.independent([UnivariateLaw.geometric(0.4),
                                    UnivariateLaw.poisson(0.7)])
        base = law.pgf([z1, z2])
        assert law.pgf([min(z1 + bump, 1.0), z2]) >= base - 1e-12
        assert law.pgf([z1, min(z2 + bump, 1.0)]) >= base - 1e-12
