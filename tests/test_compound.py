import itertools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bqnet import (BatchLaw, CompoundSnapshot, MarkovKernel,
                   ResourceBudgetError, ServiceLaw, ServiceNode,
                   UnivariateLaw, ValidationError, compound_lattice, compound_pgf,
                   compound_pmf, poisson_multinomial_pmf)
from bqnet import compound as compound_module
from bqnet import logmath
from bqnet import transient as transient_module
from bqnet.compound import (ROW_TOL, _closed_log_derivatives, _log_weight, _placement,
                            _series_log_derivatives, checked_rows, lattice_stack)
from bqnet.quadrature import QuadratureSpec
from bqnet.tables import SimplexIndex, simplex_index
from bqnet.transient import transient_pmf

import conftest
from conftest import (brute_force_iid_compound, oracle_binomial_log_derivatives,
                      oracle_iid_lattice, oracle_log_weight, oracle_placement,
                      oracle_series_log_derivatives, truncation_support)


class FixedRowKernel:
    """Test double: a kernel frozen at explicit (J, J) placement rows q."""

    representation = "tabulated"

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.J = self.rows.shape[0]

    def placement_rows(self, t):
        return self.rows if t > 0 else np.eye(self.J)


def snap_for(batch, rows, t=1.0):
    return CompoundSnapshot(batch, FixedRowKernel(rows), t)


class TestCheckedRows:
    # rows of q, the exit 1 - sum_k q_k implied: each check is stated on q
    def test_accepts_a_row_that_mostly_exits(self):
        rows = [[0.1, 0.2], [0.0, 0.0]]
        assert np.array_equal(checked_rows(rows), rows)

    @pytest.mark.parametrize("rows", [
        [[0.3, 0.2, 0.5], [0.1, 0.6, 0.3]],                  # a leftover exit column
        [[0.3, 0.7 + 2 * ROW_TOL], [0.1, 0.6]],
        [[0.3, -2 * ROW_TOL], [0.1, 0.6]],
    ], ids=["exit-column", "sum-above-one", "negative-entry"])
    def test_refuses(self, rows):
        with pytest.raises(ValidationError):
            checked_rows(rows)


class TestCompoundPGF:
    def test_normalisation(self):
        snap = snap_for(BatchLaw.constant([2, 0]), [[0.3, 0.2], [0.1, 0.6]])
        assert compound_pgf(snap, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_customer_row(self):
        # batch = one customer at node 1: PGF = 1 - Q_1 + sum_k z_k q^1_k
        rows = [[0.3, 0.2], [0.1, 0.6]]
        snap = snap_for(BatchLaw.constant([1, 0]), rows)
        z = np.array([0.7, 0.4])
        want = 0.5 + 0.7 * 0.3 + 0.4 * 0.2
        assert compound_pgf(snap, z) == pytest.approx(want, abs=1e-12)

    def test_two_customers_at_zero(self):
        snap = snap_for(BatchLaw.constant([2, 0]), [[0.3, 0.2], [0.0, 0.0]])
        assert compound_pgf(snap, [0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)


class TestCompoundPMF:
    def test_single_customer_reduction(self):
        # Binomial(1, 1) iid batch: P(C = e_k) = q_k(t)
        rows = [[0.3, 0.2], [0.1, 0.6]]
        batch = BatchLaw.iid_assignment(UnivariateLaw.binomial(1, 1.0), [1.0, 0.0])
        snap = snap_for(batch, rows)
        assert compound_pmf(snap, [1, 0]) == pytest.approx(0.3, abs=1e-12)
        assert compound_pmf(snap, [0, 1]) == pytest.approx(0.2, abs=1e-12)
        assert compound_pmf(snap, [0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_poisson_thinning(self):
        rows = [[0.3, 0.2], [0.3, 0.2]]
        batch = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.5, 0.5])
        snap = snap_for(batch, rows)
        assert compound_pmf(snap, [0, 0]) == pytest.approx(math.exp(-1), abs=1e-12)
        # independent thinned Poissons with means 0.6 and 0.4
        want = math.exp(-1) * 0.6 ** 2 / 2 * 0.4
        assert compound_pmf(snap, [2, 1]) == pytest.approx(want, rel=1e-12)

    def test_constant_batch_enumeration(self):
        rows = [[0.3, 0.2], [0.0, 0.0]]
        snap = snap_for(BatchLaw.constant([2, 0]), rows)
        assert compound_pmf(snap, [1, 1]) == pytest.approx(0.12, abs=1e-10)

    @pytest.mark.parametrize("law", [
        UnivariateLaw.binomial(6, 0.4),
        UnivariateLaw.poisson(1.7),
        UnivariateLaw.negative_binomial(2.5, 0.8),
        UnivariateLaw.logarithmic(0.6),
    ], ids=lambda l: l.family)
    def test_closed_forms_match_brute_force(self, law):
        rows = [[0.35, 0.25], [0.10, 0.55]]
        batch = BatchLaw.iid_assignment(law, [0.7, 0.3])
        snap = snap_for(batch, rows)
        qvec = batch.entry_probs @ snap.rows
        n_top = truncation_support(law, 1.0 - 1e-16)
        for i in itertools.product(range(7), repeat=2):
            if sum(i) > 6:
                continue
            want = brute_force_iid_compound(law, qvec, i, n_top)
            assert compound_pmf(snap, i) == pytest.approx(want, abs=1e-8)

    def test_series_fallback_matches_brute_force(self):
        # geometric has no closed-form branch: exercised via the series path
        law = UnivariateLaw.geometric(0.5)
        rows = [[0.35, 0.25], [0.10, 0.55]]
        batch = BatchLaw.iid_assignment(law, [0.7, 0.3])
        snap = snap_for(batch, rows)
        qvec = batch.entry_probs @ snap.rows
        for i in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            want = brute_force_iid_compound(law, qvec, i, 300)
            assert compound_pmf(snap, i) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("q", [0.001, 0.3, 0.999])
    def test_gapped_table_keeps_the_mass_past_the_gap(self, q):
        # a gap wider than a chunk of series terms: the mass at 600 is in
        # every P(C = i), for the table alone and as a marginal
        law = UnivariateLaw.finite_table({1: 0.5, 600: 0.5})
        (values, idx), tail = compound_lattice(
            snap_for(BatchLaw.iid_assignment(law, [1.0]), [[q]]), 6)
        want = [brute_force_iid_compound(law, [q], i, 600) for i in idx.array]
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)
        assert tail == 0.0
        poisson = UnivariateLaw.poisson(1.0)
        rows = np.array([[0.6 * q, 0.4 * q], [0.1, 0.5]])
        (values, idx), tail = compound_lattice(
            snap_for(BatchLaw.independent([law, poisson]), rows), 4)
        first = [brute_force_iid_compound(law, rows[0], i, 600) for i in idx.array]
        second = [brute_force_iid_compound(poisson, rows[1], i, 60) for i in idx.array]
        want = idx.convolve(np.array(first), np.array(second))
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)
        assert tail == 0.0

    def test_independent_marginals_product(self):
        rows = [[0.5, 0.2], [0.1, 0.4]]
        batch = BatchLaw.independent([UnivariateLaw.poisson(1.0),
                                      UnivariateLaw.degenerate(1)])
        snap = snap_for(batch, rows)
        # brute force: queue-1 contribution thinned Poisson, queue-2 one customer
        def q2_contrib(v):
            return {(0, 0): 0.5, (1, 0): 0.1, (0, 1): 0.4}[v]
        want = 0.0
        for v in [(0, 0), (1, 0), (0, 1)]:
            rest = (1 - v[0], 1 - v[1])
            if min(rest) < 0:
                continue
            p1 = brute_force_iid_compound(UnivariateLaw.poisson(1.0),
                                          np.array([0.5, 0.2]), rest, 60)
            want += p1 * q2_contrib(v)
        assert compound_pmf(snap, [1, 1]) == pytest.approx(want, rel=1e-9)

    def test_independent_all_zero_marginals(self):
        batch = BatchLaw.independent([UnivariateLaw.degenerate(0),
                                      UnivariateLaw.poisson(0.0)])
        snap = snap_for(batch, [[0.5, 0.2], [0.1, 0.4]])
        (values, idx), tail = compound_lattice(snap, 3)
        assert values[0] == 1.0 and not values[1:].any() and tail == 0.0

    def test_finite_table_batch(self):
        rows = [[0.5, 0.2], [0.1, 0.4]]
        batch = BatchLaw.finite_table({(1, 0): 0.4, (0, 2): 0.6}, 2)
        snap = snap_for(batch, rows)
        # (1,0) batch -> one customer with row 1; (0,2) -> two customers row 2
        want_10 = 0.4 * 0.5 + 0.6 * 2 * 0.1 * 0.5
        assert compound_pmf(snap, [1, 0]) == pytest.approx(want_10, rel=1e-12)

    def test_zero_time_reduces_to_batch_pmf(self):
        batch = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        snap = snap_for(batch, [[0.3, 0.2], [0.1, 0.6]], t=0.0)
        for i in itertools.product(range(4), repeat=2):
            assert compound_pmf(snap, i) == pytest.approx(batch.pmf(i), rel=1e-10)

    def test_duality_with_pgf(self):
        rows = [[0.35, 0.25], [0.10, 0.55]]
        batch = BatchLaw.iid_assignment(UnivariateLaw.binomial(5, 0.5), [0.7, 0.3])
        snap = snap_for(batch, rows)
        rng = np.random.default_rng(3)
        (values, idx), _ = compound_lattice(snap, 5)
        for _ in range(5):
            z = rng.uniform(0.0, 1.0, 2)
            total = sum(p * z[0] ** v[0] * z[1] ** v[1]
                        for v, p in zip(idx.array, values))
            assert total == pytest.approx(compound_pgf(snap, z), abs=1e-10)

    def test_mass_conservation_bounded(self):
        rows = [[0.35, 0.25], [0.10, 0.55]]
        snap = snap_for(BatchLaw.finite_table({(2, 1): 0.5, (0, 3): 0.5}, 2), rows)
        (values, idx), _ = compound_lattice(snap, 3)
        assert abs(values.sum() - 1.0) <= 1e-9


class TestPoissonMultinomial:
    def test_single_categorical(self):
        pm = poisson_multinomial_pmf(np.array([[0.3, 0.2, 0.5]]))
        assert pm.prob((0, 0)) == pytest.approx(0.5, abs=1e-12)
        assert pm.prob((1, 0)) == pytest.approx(0.3, abs=1e-12)
        assert pm.prob((0, 1)) == pytest.approx(0.2, abs=1e-12)

    def test_two_identical_rows(self):
        pm = poisson_multinomial_pmf(np.array([[0.3, 0.2, 0.5]] * 2))
        assert pm.prob((2, 0)) == pytest.approx(0.09, abs=1e-12)
        assert pm.prob((1, 1)) == pytest.approx(0.12, abs=1e-12)

    @pytest.mark.parametrize("m,J", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_heterogeneous_vs_enumeration(self, m, J):
        rng = np.random.default_rng(100 + m + 10 * J)
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
        worst = max(abs(pm.prob(v) - p) for v, p in acc.items())
        assert worst <= 1e-10
        assert abs(sum(pm.values) - 1.0) <= 1e-9

    def test_budget_error(self):
        rows = np.full((40, 5), 0.2)
        with pytest.raises(ResourceBudgetError):
            poisson_multinomial_pmf(rows, budget=10_000)

    def test_masses_align_with_simplex(self):
        rows = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.8, 0.1]])
        pm = poisson_multinomial_pmf(rows)
        assert pm.cap == 3
        assert isinstance(pm.index, SimplexIndex)
        assert abs(pm.assigned_mass - 1.0) <= 1e-9


# Every univariate family, with parameters that reach each closed-form edge
# case (zero mean, zero success probability, a size-0 degenerate law).
ALL_FAMILIES = [
    UnivariateLaw.binomial(6, 0.4), UnivariateLaw.binomial(3, 0.0),
    UnivariateLaw.poisson(1.7), UnivariateLaw.poisson(0.0),
    UnivariateLaw.negative_binomial(2.5, 0.8), UnivariateLaw.logarithmic(0.6),
    UnivariateLaw.geometric(0.5), UnivariateLaw.zeta(1.5), UnivariateLaw.zeta(3.5),
    UnivariateLaw.degenerate(3), UnivariateLaw.degenerate(0),
    UnivariateLaw.finite_table({0: 0.1, 1: 0.9}),
    UnivariateLaw.finite_table({2: 0.5, 5: 0.5}),
    UnivariateLaw.log_weighted_tail(),
]


@st.composite
def placement_rows(draw, J):
    """(J, J) placement rows q: J+1 small integer weights per row, the last
    one the exit's, normalised and dropped, so zero columns, qbar = 0 (all
    weight on exit) and qbar = 1 (none) all occur."""
    rows = []
    for _ in range(J):
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=J + 1,
                                   max_size=J + 1)), dtype=float)
        if not w.any():
            w[-1] = 1.0
        rows.append(w[:J] / w.sum())
    return np.array(rows)


class TestOneFormulaLattice:
    @given(data=st.data(), J=st.integers(1, 3), cap=st.integers(0, 8),
           law=st.sampled_from(ALL_FAMILIES))
    @settings(max_examples=80, deadline=None)
    def test_iid_matches_per_position_oracle(self, data, J, cap, law):
        rows = data.draw(placement_rows(J))
        entry = np.zeros(J)
        entry[0] = 1.0
        snap = snap_for(BatchLaw.iid_assignment(law, entry), rows)
        (values, idx), tail = compound_lattice(snap, cap)
        want, want_tail = oracle_iid_lattice(law, entry @ snap.rows, idx.array)
        err = np.abs(values - want)
        assert np.all((err <= 1e-13 * np.abs(want)) | (err <= 1e-16))
        assert abs(tail - want_tail) <= 1e-12 * want_tail

    @given(data=st.data(), J=st.integers(1, 3), cap=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_constant_matches_poisson_multinomial(self, data, J, cap):
        rows = data.draw(placement_rows(J))
        vector = data.draw(st.lists(st.integers(0, 3), min_size=J, max_size=J))
        (values, idx), tail = compound_lattice(snap_for(BatchLaw.constant(vector),
                                                        rows), cap)
        assert tail == 0.0
        m = sum(vector)
        if m == 0:
            assert values[0] == 1.0 and not values[1:].any()
            return
        # each customer's categorical row: its queue columns and the exit
        categorical = np.hstack([rows, 1.0 - rows.sum(axis=1, keepdims=True)])
        want = poisson_multinomial_pmf(np.repeat(categorical, vector, axis=0))
        expected = np.array([want.prob(v) for v in idx.array])
        assert np.max(np.abs(values - expected)) <= 1e-15

    def test_independent_is_convolution_of_placements(self):
        rows = np.array([[0.5, 0.2], [0.1, 0.4]])
        laws = [UnivariateLaw.zeta(2.5), UnivariateLaw.negative_binomial(1.0, 2.0)]
        (values, idx), tail = compound_lattice(
            snap_for(BatchLaw.independent(laws), rows), 6)
        first, tail0 = oracle_iid_lattice(laws[0], rows[0], idx.array)
        second, _ = oracle_iid_lattice(laws[1], rows[1], idx.array)
        np.testing.assert_allclose(values, idx.convolve(first, second),
                                   rtol=1e-13, atol=1e-16)
        assert tail == pytest.approx(tail0, rel=1e-12)

    def test_series_tail_is_zero_when_nobody_leaves(self):
        # qbar = 1: past degree m's first term every term carries
        # (1 - qbar)^(n - m) = 0, so the series ends with no tail at all
        law = UnivariateLaw.log_weighted_tail()
        idx = simplex_index(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (values,), (tail,) = _placement(law, np.array([[1.0, 0.0]]), idx)
        assert tail == 0.0
        want = [law.pmf(v[0]) if v[1] == 0 else 0.0 for v in idx.array]
        np.testing.assert_allclose(values, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("law,count", [(UnivariateLaw.binomial(3, 0.4), 3),
                                           (UnivariateLaw.degenerate(2), 2),
                                           (UnivariateLaw.degenerate(0), 0)],
                             ids=["binomial", "one-point", "one-point-zero"])
    def test_closed_form_is_exactly_zero_above_count(self, law, count):
        # log (count - m)! is +inf for every degree m > count: those
        # positions are exact zeros, the rest hold all the mass, and no
        # warning leaks, also when nobody leaves (qbar = 1) or all do
        idx = simplex_index(2, 6)
        rows = np.array([[0.3, 0.5], [0.6, 0.4], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, tails = _placement(law, rows, idx)
        degree = idx.array.sum(axis=1)
        assert np.all(values[:, degree > count] == 0.0)
        assert not tails.any()
        np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("law", [
        UnivariateLaw.degenerate(0), UnivariateLaw.degenerate(1),
        UnivariateLaw.degenerate(7), UnivariateLaw.degenerate(2 ** 40),
        UnivariateLaw.degenerate(2 ** 62), UnivariateLaw.binomial(6, 0.4),
        UnivariateLaw.binomial(3, 0.0), UnivariateLaw.binomial(10 ** 12, 1e-12)],
        ids=repr)
    def test_one_point_sum_is_the_binomial_form(self, law):
        # over one point the exact sum is its only term, bit for bit
        qbar = np.array([0.0, 2.0 ** -53, 1e-8, 0.3, 0.5, 0.95, 1.0 - 1e-12, 1.0])
        for cap in (0, 1, 15):
            got = _closed_log_derivatives(law, qbar, cap)
            assert np.array_equal(got, oracle_binomial_log_derivatives(law, qbar, cap))

    def test_long_table_sums_in_blocks(self, monkeypatch):
        # 10,000 points beside 17 nodes at cap 6 take several blocks of
        # points; the sum does not depend on where the blocks end
        n = np.arange(1, 10_001)
        p = 1.0 / n ** 2
        law = UnivariateLaw.finite_table(dict(zip(n.tolist(), (p / p.sum()).tolist())))
        qbar = np.linspace(0.0, 1.0, 17)
        cap = 6
        assert compound_module._nodes_per_chunk(len(qbar) * (cap + 1)) < n.size / 4
        blocked = _closed_log_derivatives(law, qbar, cap)
        monkeypatch.setattr(compound_module, "LATTICE_BUDGET", 1 << 40)
        whole = _closed_log_derivatives(law, qbar, cap)
        # G(0) = P(N = 0) = 0 is the one -inf
        finite = np.isfinite(whole)
        assert finite.sum() == finite.size - 1 and np.array_equal(finite, np.isfinite(blocked))
        assert np.all(np.abs(blocked[finite] - whole[finite]) <= 1e-14)

    def test_count_past_the_factorial_table_leaves_it_alone(self):
        # a binomial count far past the shared log-factorial table neither
        # grows the table nor moves the law off its Poisson limit by more
        # than the O(cap^2 / count) they differ by; at 10^9 and 10^12 a
        # difference of two log-factorials, or log(1 - qbar / count), would
        # cancel the digits that difference needs
        cap = 5
        rows = np.array([[0.3, 0.5]])
        idx = simplex_index(2, cap)
        idx.log_factorial   # the simplex's own factorials come from the table
        limit, _ = _placement(UnivariateLaw.poisson(1.0), rows, idx)
        for count in (10 ** 7, 10 ** 9, 10 ** 12):
            assert count > logmath.LOG_FACTORIAL_TABLE_MAX
            before = len(logmath.log_factorial_table(0))
            values, _ = _placement(UnivariateLaw.binomial(count, 1.0 / count), rows, idx)
            assert len(logmath.log_factorial_table(0)) == before
            np.testing.assert_allclose(values, limit, rtol=cap ** 2 / count)


@st.composite
def batch_laws(draw, J):
    """One batch law of dimension J from every variant: iid assignment of a
    closed-form or series family, independent marginals, a finite table
    and a constant vector."""
    variant = draw(st.sampled_from(["iid", "independent", "table", "constant"]))
    if variant == "iid":
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=J, max_size=J)),
                           dtype=float)
        return BatchLaw.iid_assignment(draw(st.sampled_from(ALL_FAMILIES)),
                                       weights / weights.sum())
    if variant == "independent":
        return BatchLaw.independent(draw(st.lists(st.sampled_from(ALL_FAMILIES),
                                                  min_size=J, max_size=J)))
    vector = st.tuples(*[st.integers(0, 3)] * J)
    if variant == "constant":
        return BatchLaw.constant(list(draw(vector)))
    vectors = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=len(vectors),
                                     max_size=len(vectors))), dtype=float)
    return BatchLaw.finite_table(dict(zip(vectors, weights / weights.sum())), J)


def vivax_like_stack(nodes=7):
    """A J=3 independent-marginal batch (a series and a closed-form family)
    with one (3, 3) row matrix per node."""
    batch = BatchLaw.independent([UnivariateLaw.zeta(2.5), UnivariateLaw.degenerate(0),
                                  UnivariateLaw.negative_binomial(1.0, 3.0)])
    rng = np.random.default_rng(7)
    rows = rng.random((nodes, 3, 4))
    return batch, (rows / rows.sum(axis=2, keepdims=True))[:, :, :3]


class TestLatticeStack:
    @given(data=st.data(), J=st.integers(1, 3), cap=st.integers(0, 6),
           nodes=st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_each_node_is_its_snapshot_lattice(self, data, J, cap, nodes):
        batch = data.draw(batch_laws(J))
        rows = np.stack([data.draw(placement_rows(J)) for _ in range(nodes)])
        idx = simplex_index(J, cap)
        values, tails = lattice_stack(batch, checked_rows(rows), idx)
        assert values.shape == (nodes, len(idx)) and tails.shape == (nodes,)
        for k in range(nodes):
            (want, _), want_tail = compound_lattice(snap_for(batch, rows[k]), cap)
            err = np.abs(values[k] - want)
            assert np.all((err <= 1e-13 * np.abs(want)) | (err <= 1e-300))
            assert abs(tails[k] - want_tail) <= 1e-13 * want_tail

    def test_chunked_stack_is_the_unchunked_stack(self, monkeypatch):
        batch, rows = vivax_like_stack()
        idx = simplex_index(3, 6)
        whole, whole_tails = lattice_stack(batch, rows, idx)
        # room for one node per chunk
        monkeypatch.setattr(compound_module, "LATTICE_BUDGET", 1)
        chunked, chunked_tails = lattice_stack(batch, rows, idx)
        assert np.array_equal(whole, chunked)
        assert np.array_equal(whole_tails, chunked_tails)
        assert whole_tails.max() > 0.0

    def test_stack_writes_into_out(self):
        batch, rows = vivax_like_stack(3)
        idx = simplex_index(3, 4)
        out = np.full((3, len(idx) + 2), -1.0)
        want, _ = lattice_stack(batch, rows, idx)
        values, _ = lattice_stack(batch, rows, idx, out[:, 1:-1])
        assert np.array_equal(out[:, 1:-1], want)
        assert np.all(out[:, [0, -1]] == -1.0)

    @pytest.mark.filterwarnings("ignore:occupancy cap")
    def test_pmf_computes_one_stack_per_doubling(self, batch_tandem_model,
                                                 tandem_kernel, monkeypatch):
        calls = []

        def counted(batch, rows, idx, out=None):
            calls.append(len(rows))
            return lattice_stack(batch, rows, idx, out)

        def refused(*args, **kwargs):
            raise AssertionError("transient_pmf built a CompoundSnapshot")

        monkeypatch.setattr(transient_module, "lattice_stack", counted)
        monkeypatch.setattr(compound_module.CompoundSnapshot, "__init__", refused)
        quad = QuadratureSpec(initial_nodes=17)
        pmf = transient_pmf(batch_tandem_model, tandem_kernel, 2.0, 8, quad)
        m = pmf.meta["quadrature_nodes"]
        doublings = int(math.log2((m - 1) // (quad.initial_nodes - 1)))
        assert len(calls) == 1 + doublings
        assert sum(calls) == m


# -- the series as one product per chunk of terms -------------------------------------

SERIES_FAMILIES = [UnivariateLaw.zeta(1.05), UnivariateLaw.zeta(1.5), UnivariateLaw.zeta(2.0),
                   UnivariateLaw.zeta(3.7), UnivariateLaw.geometric(0.7),
                   UnivariateLaw.log_weighted_tail()]
# 1 - qbar, one node each: nobody leaves, leaving at the float's resolution,
# rarely, half, mostly, and all but one customer in 10^12
LEAVE_PROBS = [0.0, 2.0 ** -53, 1e-8, 0.5, 0.95, 1.0 - 1e-12]


def one_queue_offsets(qbar, cap):
    """The degree offsets of a J = 1 placement, log(qbar^m / m!)."""
    m = np.arange(cap + 1)
    with np.errstate(divide="ignore"):
        return m * np.log(qbar)[:, None] - logmath.log_factorial(m)


def exact_table_sum(law, qbar, offset):
    """A finite table's log G^(m)(1 - qbar) in 60-digit arithmetic."""
    points = [(n, p) for n, p in zip(law.support.tolist(), law.probs.tolist()) if p > 0]
    with mpmath.workdps(60):
        logs = [[float(mpmath.log(mpmath.fsum(
            p * mpmath.ff(n, m) * (1 - mpmath.mpf(q)) ** (n - m) for n, p in points if n >= m)))
            for m in range(offset.shape[1])] for q in qbar.tolist()]
    return np.array(logs), np.zeros(len(qbar))


def assert_series_match(law, leave, cap, routine=_series_log_derivatives,
                        reference=oracle_series_log_derivatives):
    qbar = 1.0 - np.asarray(leave, dtype=float)
    offset = one_queue_offsets(qbar, cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_tails = routine(law, qbar, offset)
    want, want_tails = reference(law, qbar, offset)
    # the oracle sums in units of P(C = i), so its terms and sums are exact
    # to 1e-13 only while they are normal floats; below that both sides are 0
    with np.errstate(invalid="ignore"):
        scaled = np.where(np.isfinite(offset), np.exp(want + offset), 0.0)
        got_scaled = np.where(np.isfinite(offset), np.exp(got + offset), 0.0)
    # 1e-13 relative, or one float64 step of a log past 512, which is coarser
    normal = scaled >= 1e-290
    step = np.spacing(np.abs(want[normal]))
    assert np.all(np.abs(got[normal] - want[normal]) <= np.maximum(1e-13, step))
    assert np.all(got_scaled[~normal] < 1e-280)
    assert np.all(np.abs(got_tails - want_tails) <= 1e-12 * want_tails)
    return got_tails


def index_under(J, cells=4000):
    """A strategy for simplex indexes of dimension J with at most about
    ``cells`` vectors times J."""
    top = max(c for c in range(40) if J * math.comb(c + J, J) <= cells)
    return st.integers(0, top).map(lambda cap: simplex_index(J, cap))


@pytest.mark.parametrize("law", ALL_FAMILIES)
def test_row_summing_to_one_plus_an_ulp(law):
    # (0, 1/9, 4/9, 1/9, 1/9, 1/9, 1/9) sums to 1 + 2.2e-16: checked_rows
    # lets it through, and its exit mass is 0, so P(C = 0) = P(N = 0), not
    # the NaN of a log of a negative number
    q = np.array([0.0, 1 / 9, 4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9])
    assert q.sum() > 1.0
    rows = np.zeros((2, 7, 7))
    rows[:, 0] = q
    rows[1, 0, 2] -= 2.2e-16
    assert rows[1, 0].sum() <= 1.0
    batch = BatchLaw.iid_assignment(law, np.eye(7)[0])
    values, _ = lattice_stack(batch, checked_rows(rows), simplex_index(7, 2))
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values[0] - values[1])) <= 1e-15


class TestCoordinateMajor:
    """The coordinate-by-coordinate sums against the full reductions over a
    length-J last axis that they replaced: the same bits at every J."""

    @given(data=st.data(), J=st.integers(1, 9), nodes=st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_log_weight_matches_full_reduction(self, data, J, nodes):
        idx = data.draw(index_under(J))
        # exact zeros and ones in every row position
        entries = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-300, 1.0))
        q = data.draw(hnp.arrays(np.float64, (nodes, J), elements=entries))
        got = _log_weight(q, idx)
        assert np.array_equal(got, oracle_log_weight(q, idx))
        assert got.shape == (nodes, len(idx))

    @given(data=st.data(), J=st.integers(1, 9), nodes=st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_lattice_matches_full_reduction(self, data, J, nodes):
        idx = data.draw(index_under(J, cells=1500))
        batch = data.draw(batch_laws(J))
        rows = checked_rows(np.stack([data.draw(placement_rows(J)) for _ in range(nodes)]))
        values, tails = lattice_stack(batch, rows, idx)
        with mock.patch.object(compound_module, "_placement", oracle_placement):
            want, want_tails = lattice_stack(batch, rows, idx)
        assert np.array_equal(values, want)
        assert np.array_equal(tails, want_tails)


class TestSeriesProduct:
    """The series against its per-degree chunk loop (``conftest``)."""

    @pytest.mark.parametrize("cap", [0, 1, 2, 15, 40])
    @pytest.mark.parametrize("law", SERIES_FAMILIES, ids=repr)
    def test_matches_the_per_degree_loop(self, law, cap, monkeypatch):
        # a node that leaves with probability 1 - 1e-12 runs a heavy-tailed
        # series to the term budget; a smaller budget on both sides keeps
        # that stop, and the tail it adds, at a tenth of a second
        monkeypatch.setattr(compound_module, "_SERIES_MAX_TERMS", 5_000)
        monkeypatch.setattr(conftest, "SERIES_MAX_TERMS", 5_000)
        assert_series_match(law, LEAVE_PROBS, cap)

    def test_term_budget_stop_matches(self):
        tails = assert_series_match(UnivariateLaw.zeta(1.5), [1.0 - 1e-12], 1)
        assert tails[0] > 0.0

    @pytest.mark.parametrize("cap,leave", [(60, 0.99), (100, 0.98)])
    def test_row_scaling_over_a_long_heavy_tail(self, cap, leave):
        # a zeta 1.05 law with most customers leaving: P(N = n) n!/(n - m)!
        # spans hundreds of orders of magnitude across a chunk of terms, and
        # past degree ~90 it overflows a float unless each row is scaled
        assert_series_match(UnivariateLaw.zeta(1.05), [leave], cap)

    @pytest.mark.parametrize("low", [10 ** 9, 2 ** 40])
    @pytest.mark.parametrize("cap", [1, 15])
    def test_table_far_from_zero(self, low, cap):
        # the exact sum over a table's points sums log n!/(n - m)! term by
        # term, which keeps the digits a support starting at 10^9 or 2^40
        # needs; the per-degree loop takes it as a difference of two
        # log-factorials, off by up to a step of log n! (2e-3 at 2^40), so
        # the reference is the sum in 60 digits
        def exact_sum(law, qbar, offset):
            return _closed_log_derivatives(law, qbar, cap), np.zeros(len(qbar))

        law = UnivariateLaw.finite_table({low: 0.5, low + 1: 0.5})
        assert_series_match(law, LEAVE_PROBS, cap, exact_sum, exact_table_sum)

    @pytest.mark.parametrize("low", [10 ** 9, 2 ** 40])
    @pytest.mark.parametrize("cap", [1, 15])
    def test_table_far_from_zero_at_a_tiny_qbar(self, low, cap):
        # the stay factor 1 - qbar is raised to the power n ~ low: rounding
        # 1 - 1e-12 to a float would cost n * 1.1e-16 of relative error
        # (2.4e-5 in the log at 2^40), where log1p(-qbar) keeps every digit
        law = UnivariateLaw.finite_table({low: 0.5, low + 1: 0.5})
        qbar = np.array([1e-12])
        got = _closed_log_derivatives(law, qbar, cap)
        want, _ = exact_table_sum(law, qbar, np.zeros((1, cap + 1)))
        assert np.all(np.abs(got - want) <= np.maximum(1e-13, np.spacing(np.abs(want))))

    def test_node_values_do_not_depend_on_the_stack(self):
        law = UnivariateLaw.zeta(1.5)
        qbar = 1.0 - np.array(LEAVE_PROBS[:-1])
        offset = one_queue_offsets(qbar, 15)
        whole, whole_tails = _series_log_derivatives(law, qbar, offset)
        for k in range(len(qbar)):
            alone, alone_tail = _series_log_derivatives(law, qbar[k:k + 1], offset[k:k + 1])
            assert np.array_equal(alone[0], whole[k])
            assert alone_tail[0] == whole_tails[k]
