"""The simplex engine against brute-force oracles.

The oracles are the loop implementations the engine replaced: the
recursive graded-lex enumeration, the truncated convolution over every
split of every vector, and one Panjer entry summed over the box below it.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bqnet import (ArrivalProcess, BatchLaw, CompoundSnapshot, LatticePMF,
                   NetworkModel, ResourceBudgetError, ServiceLaw, ServiceNode,
                   bundled_config_path, compound_lattice, load_config,
                   recompute_with_pivot, transient_pmf)
from bqnet.tables import SimplexIndex, simplex_index, simplex_rank
from bqnet.transient import _run_recursion

from conftest import oracle_iid_lattice


def oracle_compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in oracle_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def oracle_vectors(J, cap):
    out = []
    for total in range(cap + 1):
        out.extend(oracle_compositions(total, J))
    return out


def vectors_of(idx):
    """The index's vectors as tuples, in position order."""
    return [tuple(v) for v in idx.array.tolist()]


def oracle_convolve(x, y, vectors):
    position = {v: i for i, v in enumerate(vectors)}
    out = np.zeros(len(vectors))
    for pos, n in enumerate(vectors):
        acc = 0.0
        for part in itertools.product(*(range(v + 1) for v in n)):
            rest = tuple(a - b for a, b in zip(n, part))
            acc += x[position[part]] * y[position[rest]]
        out[pos] = acc
    return out


def oracle_entry(values, A, vectors, n, pivot):
    position = {v: i for i, v in enumerate(vectors)}
    acc = 0.0
    for i in itertools.product(*(range(c + 1) for c in n)):
        if i[pivot] == 0:
            continue
        rest = tuple(x - y for x, y in zip(n, i))
        acc += i[pivot] * values[position[rest]] * A[position[i]]
    return acc / n[pivot]


def oracle_recursion(vectors, A, p0):
    values = np.zeros(len(vectors))
    values[0] = p0
    for pos, n in enumerate(vectors[1:], start=1):
        pivot = max(k for k, c in enumerate(n) if c > 0)
        values[pos] = oracle_entry(values, A, vectors, n, pivot)
    return values


shapes = st.tuples(st.integers(1, 4), st.integers(0, 6))


def draw_values(data, size, top=1.0):
    return data.draw(hnp.arrays(np.float64, size,
                                elements=st.floats(0.0, top, allow_subnormal=False)))


@pytest.mark.parametrize("J", [1, 2, 3, 4])
def test_order_matches_recursive_graded_lex(J):
    for cap in range(7):
        idx = SimplexIndex(J, cap)
        want = oracle_vectors(J, cap)
        assert vectors_of(idx) == want
        assert idx.array.tolist() == [list(v) for v in want]
        assert np.array_equal(simplex_rank(idx.array), np.arange(len(want)))
        totals = idx.array.sum(axis=1)
        for d in range(cap + 1):
            lo, hi = idx.degree_start[d], idx.degree_start[d + 1]
            assert np.all(totals[lo:hi] == d)
        assert idx.degree_start[cap + 1] == len(want) == math.comb(cap + J, J)


def test_index_is_shared_read_only_and_released():
    idx = simplex_index(3, 5)
    assert simplex_index(3, 5) is idx
    with pytest.raises(ValueError):
        idx.array[0, 0] = 1
    with pytest.raises(ValueError):
        idx.pairs.part[0] = 1
    # shared only while in use: the registry keeps no index alive
    ref = weakref.ref(idx)
    del idx
    gc.collect()
    assert ref() is None


@given(shape=shapes, data=st.data())
@settings(max_examples=60, deadline=None)
def test_convolution_matches_oracle(shape, data):
    J, cap = shape
    idx = simplex_index(J, cap)
    x = draw_values(data, len(idx))
    y = draw_values(data, len(idx))
    assert len(idx.pairs) == math.comb(cap + 2 * J, 2 * J)
    np.testing.assert_allclose(idx.convolve(x, y),
                               oracle_convolve(x, y, vectors_of(idx)),
                               rtol=1e-13, atol=0.0)


@given(shape=shapes, data=st.data())
@settings(max_examples=60, deadline=None)
def test_recursion_matches_oracle(shape, data):
    J, cap = shape
    idx = simplex_index(J, cap)
    A = draw_values(data, len(idx))
    p0 = data.draw(st.floats(1e-3, 1.0))
    np.testing.assert_allclose(_run_recursion(idx, A, p0),
                               oracle_recursion(vectors_of(idx), A, p0),
                               rtol=1e-13, atol=0.0)


@given(shape=shapes, data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_pivot_matches_oracle_entry(shape, data):
    # with A >= 0 and p0 = exp(-sum A) the recursion yields a compound
    # Poisson law, so every admissible pivot gives the same entry
    J, cap = shape
    idx = simplex_index(J, cap)
    A = draw_values(data, len(idx), top=0.5)
    A[0] = 0.0
    values = _run_recursion(idx, A, math.exp(-A.sum()))
    pmf = LatticePMF(J, cap, values, meta={"displacement_integrals": A})
    vectors = vectors_of(idx)
    for n in vectors[1:]:
        for pivot in (k for k, c in enumerate(n) if c > 0):
            got = recompute_with_pivot(pmf, n, pivot)
            want = oracle_entry(pmf.values, A, vectors, n, pivot)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
            assert abs(got - pmf.prob(n)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_simplex_rank_is_the_position_at_every_cap(J, data):
    rows = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(0, 12)), J),
                                elements=st.integers(0, 3)))
    top = int(rows.sum(axis=1).max()) if len(rows) else 0
    ranks = simplex_rank(rows).tolist()
    for cap in (top, top + data.draw(st.integers(1, 3))):
        position = {v: i for i, v in enumerate(vectors_of(SimplexIndex(J, cap)))}
        assert ranks == [position[tuple(r)] for r in rows.tolist()]


def test_simplex_rank_budget_at_int64():
    J = 8
    # the largest total whose positions all fit in int64
    top = next(d for d in range(2000) if math.comb(d + 1 + J, J) >= 1 << 63)
    last = np.zeros((1, J), dtype=np.int64)
    last[0, -1] = top
    assert simplex_rank(last).tolist() == [math.comb(top + J, J) - 1]
    over = np.zeros((2, J), dtype=np.int64)
    over[1, 0] = top + 1
    with pytest.raises(ResourceBudgetError):
        simplex_rank(over)


def test_pair_table_budget():
    with pytest.raises(ResourceBudgetError):
        SimplexIndex(1, 5000).pairs


def test_pivot_audit_j3_finite_table():
    nodes = [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.5, 0.3, 0.2]),
             ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 0.6, 0.4]),
             ServiceNode(ServiceLaw.exponential(1.5), [0.2, 0.0, 0.0, 0.8])]
    batch = BatchLaw.finite_table({(1, 0, 0): 0.3, (2, 1, 0): 0.5,
                                   (0, 0, 2): 0.2}, 3)
    model = NetworkModel(J=3, arrival=ArrivalProcess.constant(1.0),
                         batch=batch, nodes=nodes)
    pmf = transient_pmf(model, model.build_kernel(), 2.0, 10)
    worst = 0.0
    for n in vectors_of(pmf.index)[1:]:
        for pivot in (k for k, c in enumerate(n) if c > 0):
            worst = max(worst, abs(recompute_with_pivot(pmf, n, pivot)
                                   - pmf.prob(n)))
    assert worst <= 1e-9


@pytest.mark.parametrize("t", [1.0, 4.0, 10.0])
def test_vivax_lattice_matches_oracle_convolution(t):
    model = load_config(bundled_config_path("vivax"))
    snap = CompoundSnapshot(model.batch, model.build_kernel(), t)
    (values, idx), _ = compound_lattice(snap, 4)
    assert model.J == 8
    want = None
    for j, law in enumerate(model.batch.laws):
        marginal, _ = oracle_iid_lattice(law, snap.rows[j, : model.J], idx.array)
        want = marginal if want is None else oracle_convolve(want, marginal,
                                                             vectors_of(idx))
    assert np.max(np.abs(values - want)) <= 1e-13
