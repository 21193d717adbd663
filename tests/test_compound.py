import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqnet import (BatchLaw, CompoundSnapshot, MarkovKernel,
                   ResourceBudgetError, ServiceLaw, ServiceNode,
                   UnivariateLaw, compound_lattice, compound_pgf,
                   compound_pmf, poisson_multinomial_pmf)
from bqnet import compound as compound_module
from bqnet import transient as transient_module
from bqnet.compound import _placement, checked_rows, lattice_stack
from bqnet.quadrature import QuadratureSpec
from bqnet.tables import SimplexIndex, simplex_index
from bqnet.transient import transient_pmf

from conftest import (brute_force_iid_compound, oracle_iid_lattice,
                      truncation_support)


class FixedRowKernel:
    """Test double: a kernel frozen at explicit placement rows."""

    representation = "tabulated"

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.J = self.rows.shape[0]

    def placement_rows(self, t):
        return self.rows if t > 0 else np.hstack([np.eye(self.J),
                                                  np.zeros((self.J, 1))])


def snap_for(batch, rows, t=1.0):
    return CompoundSnapshot(batch, FixedRowKernel(rows), t)


class TestCompoundPGF:
    def test_normalisation(self):
        snap = snap_for(BatchLaw.constant([2, 0]), [[0.3, 0.2, 0.5],
                                                    [0.1, 0.6, 0.3]])
        assert compound_pgf(snap, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_customer_row(self):
        # batch = one customer at node 1: PGF = 1 - Q_1 + sum_k z_k q^1_k
        rows = [[0.3, 0.2, 0.5], [0.1, 0.6, 0.3]]
        snap = snap_for(BatchLaw.constant([1, 0]), rows)
        z = np.array([0.7, 0.4])
        want = 0.5 + 0.7 * 0.3 + 0.4 * 0.2
        assert compound_pgf(snap, z) == pytest.approx(want, abs=1e-12)

    def test_two_customers_at_zero(self):
        snap = snap_for(BatchLaw.constant([2, 0]), [[0.3, 0.2, 0.5],
                                                    [0.0, 0.0, 1.0]])
        assert compound_pgf(snap, [0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)


class TestCompoundPMF:
    def test_single_customer_reduction(self):
        # Binomial(1, 1) iid batch: P(C = e_k) = q_k(t)
        rows = [[0.3, 0.2, 0.5], [0.1, 0.6, 0.3]]
        batch = BatchLaw.iid_assignment(UnivariateLaw.binomial(1, 1.0), [1.0, 0.0])
        snap = snap_for(batch, rows)
        assert compound_pmf(snap, [1, 0]) == pytest.approx(0.3, abs=1e-12)
        assert compound_pmf(snap, [0, 1]) == pytest.approx(0.2, abs=1e-12)
        assert compound_pmf(snap, [0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_poisson_thinning(self):
        rows = [[0.3, 0.2, 0.5], [0.3, 0.2, 0.5]]
        batch = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.5, 0.5])
        snap = snap_for(batch, rows)
        assert compound_pmf(snap, [0, 0]) == pytest.approx(math.exp(-1), abs=1e-12)
        # independent thinned Poissons with means 0.6 and 0.4
        want = math.exp(-1) * 0.6 ** 2 / 2 * 0.4
        assert compound_pmf(snap, [2, 1]) == pytest.approx(want, rel=1e-12)

    def test_constant_batch_enumeration(self):
        rows = [[0.3, 0.2, 0.5], [0.0, 0.0, 1.0]]
        snap = snap_for(BatchLaw.constant([2, 0]), rows)
        assert compound_pmf(snap, [1, 1]) == pytest.approx(0.12, abs=1e-10)

    @pytest.mark.parametrize("law", [
        UnivariateLaw.binomial(6, 0.4),
        UnivariateLaw.poisson(1.7),
        UnivariateLaw.negative_binomial(2.5, 0.8),
        UnivariateLaw.logarithmic(0.6),
    ], ids=lambda l: l.family)
    def test_closed_forms_match_brute_force(self, law):
        rows = [[0.35, 0.25, 0.40], [0.10, 0.55, 0.35]]
        batch = BatchLaw.iid_assignment(law, [0.7, 0.3])
        snap = snap_for(batch, rows)
        qvec = (batch.entry_probs @ snap.rows)[:2]
        n_top = truncation_support(law, 1.0 - 1e-16)
        for i in itertools.product(range(7), repeat=2):
            if sum(i) > 6:
                continue
            want = brute_force_iid_compound(law, qvec, i, n_top)
            assert compound_pmf(snap, i) == pytest.approx(want, abs=1e-8)

    def test_series_fallback_matches_brute_force(self):
        # geometric has no closed-form branch: exercised via the series path
        law = UnivariateLaw.geometric(0.5)
        rows = [[0.35, 0.25, 0.40], [0.10, 0.55, 0.35]]
        batch = BatchLaw.iid_assignment(law, [0.7, 0.3])
        snap = snap_for(batch, rows)
        qvec = (batch.entry_probs @ snap.rows)[:2]
        for i in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            want = brute_force_iid_compound(law, qvec, i, 300)
            assert compound_pmf(snap, i) == pytest.approx(want, abs=1e-10)

    def test_independent_marginals_product(self):
        rows = [[0.5, 0.2, 0.3], [0.1, 0.4, 0.5]]
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
        snap = snap_for(batch, [[0.5, 0.2, 0.3], [0.1, 0.4, 0.5]])
        (values, idx), tail = compound_lattice(snap, 3)
        assert values[0] == 1.0 and not values[1:].any() and tail == 0.0

    def test_finite_table_batch(self):
        rows = [[0.5, 0.2, 0.3], [0.1, 0.4, 0.5]]
        batch = BatchLaw.finite_table({(1, 0): 0.4, (0, 2): 0.6}, 2)
        snap = snap_for(batch, rows)
        # (1,0) batch -> one customer with row 1; (0,2) -> two customers row 2
        want_10 = 0.4 * 0.5 + 0.6 * 2 * 0.1 * 0.5
        assert compound_pmf(snap, [1, 0]) == pytest.approx(want_10, rel=1e-12)

    def test_zero_time_reduces_to_batch_pmf(self):
        batch = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        snap = snap_for(batch, [[0.3, 0.2, 0.5], [0.1, 0.6, 0.3]], t=0.0)
        for i in itertools.product(range(4), repeat=2):
            assert compound_pmf(snap, i) == pytest.approx(batch.pmf(i), rel=1e-10)

    def test_duality_with_pgf(self):
        rows = [[0.35, 0.25, 0.40], [0.10, 0.55, 0.35]]
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
        rows = [[0.35, 0.25, 0.40], [0.10, 0.55, 0.35]]
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
    """(J, J+1) probability rows from small integer weights, so zero
    columns, qbar = 0 (all weight on exit) and qbar = 1 (none) all occur."""
    rows = []
    for _ in range(J):
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=J + 1,
                                   max_size=J + 1)), dtype=float)
        if not w.any():
            w[-1] = 1.0
        rows.append(w / w.sum())
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
        want, want_tail = oracle_iid_lattice(law, (entry @ snap.rows)[:J], idx.array)
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
        want = poisson_multinomial_pmf(np.repeat(rows, vector, axis=0))
        expected = np.array([want.prob(v) for v in idx.array])
        assert np.max(np.abs(values - expected)) <= 1e-15

    def test_independent_is_convolution_of_placements(self):
        rows = np.array([[0.5, 0.2, 0.3], [0.1, 0.4, 0.5]])
        laws = [UnivariateLaw.zeta(2.5), UnivariateLaw.negative_binomial(1.0, 2.0)]
        (values, idx), tail = compound_lattice(
            snap_for(BatchLaw.independent(laws), rows), 6)
        first, tail0 = oracle_iid_lattice(laws[0], rows[0, :2], idx.array)
        second, _ = oracle_iid_lattice(laws[1], rows[1, :2], idx.array)
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
            (values,), (tail,) = _placement(law, np.array([[1.0, 0.0, 0.0]]), idx)
        assert tail == 0.0
        want = [law.pmf(v[0]) if v[1] == 0 else 0.0 for v in idx.array]
        np.testing.assert_allclose(values, want, rtol=1e-13, atol=0.0)


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
    with one row matrix per node."""
    batch = BatchLaw.independent([UnivariateLaw.zeta(2.5), UnivariateLaw.degenerate(0),
                                  UnivariateLaw.negative_binomial(1.0, 3.0)])
    rng = np.random.default_rng(7)
    rows = rng.random((nodes, 3, 4))
    return batch, rows / rows.sum(axis=2, keepdims=True)


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
