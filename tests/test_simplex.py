"""The simplex engine against brute-force oracles.

The oracles are the loop implementations the engine replaced: the
recursive graded-lex enumeration, the truncated convolution over every
split of every vector, and one Panjer entry summed over the box below it.
"""

import gc
import itertools
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bqnet import (ArrivalProcess, BatchLaw, CompoundSnapshot, LatticePMF,
                   NetworkModel, ResourceBudgetError, ServiceLaw, ServiceNode,
                   ValidationError, bundled_config_path, compound_lattice,
                   load_config, recompute_with_pivot, transient_pmf)
from bqnet.cli import main
from bqnet.tables import (SIMPLEX_BUDGET, SimplexIndex, coordinate_sum, simplex_index,
                          simplex_rank)
from bqnet.transient import _run_recursion

from conftest import oracle_iid_lattice, oracle_pair_table


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


@pytest.mark.parametrize("J", [*range(1, 21), 64, 127, 128, 129, 136, 255, 256, 257, 300, 1000])
def test_coordinate_sum_is_numpys_reduction(J):
    # NumPy reduces a contiguous last axis pairwise: eight lanes from
    # J = 8, halves split at a multiple of 8 above 128
    rng = np.random.default_rng(J)
    x = rng.standard_normal((40, J)) * 10.0 ** rng.integers(-12, 12, (40, J))
    x[rng.random(x.shape) < 0.2] = 0.0
    assert np.array_equal(coordinate_sum(lambda k: x[:, k], J), x.sum(axis=1))
    stacked = x.reshape(4, 10, J)
    assert np.array_equal(coordinate_sum(lambda k: stacked[..., k], J),
                          stacked.sum(axis=-1))
    ints = rng.integers(0, 50, (40, J))
    assert np.array_equal(coordinate_sum(lambda k: ints[:, k], J), ints.sum(axis=1))


def assert_pairs_match_oracle(idx):
    pairs = idx.pairs
    got = (pairs.part, pairs.rest, pairs.total, pairs.degree_start,
           pairs.total_start, pairs.pivot_weight)
    for have, want in zip(got, oracle_pair_table(idx)):
        assert np.array_equal(have, want) and have.dtype == want.dtype


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.data())
def test_pair_table_matches_lexsort_oracle(J, data):
    # caps whose table stays under 10^5 rows, far below PAIR_TABLE_BUDGET,
    # so that the oracle's per-degree build stays quick
    top = max(c for c in range(500) if math.comb(c + 2 * J, 2 * J) <= 100_000)
    assert_pairs_match_oracle(SimplexIndex(J, data.draw(st.integers(0, top))))


@pytest.mark.parametrize("J, cap", [(2, 25), (4, 10), (8, 6)])
def test_pair_table_matches_lexsort_oracle_at_bench_sizes(J, cap):
    assert_pairs_match_oracle(SimplexIndex(J, cap))


def test_pair_table_budget():
    with pytest.raises(ResourceBudgetError):
        SimplexIndex(1, 5000).pairs


def test_cap_must_be_a_nonnegative_integer():
    # 2.5 would build a cap-2 lattice and True a cap-1 one; NaN has no int
    model = load_config(bundled_config_path("tandem_batch"))
    kernel = model.build_kernel()
    snap = CompoundSnapshot(model.batch, kernel, 1.0)
    for cap in (2.5, 2.0, True, math.nan, -1, "3", None):
        with pytest.raises(ValidationError, match="cap must be an integer >= 0"):
            transient_pmf(model, kernel, 1.0, cap)
        with pytest.raises(ValidationError, match="cap must be an integer >= 0"):
            compound_lattice(snap, cap)
    assert compound_lattice(snap, np.int64(2))[0][1] is simplex_index(2, 2)


def test_simplex_budget_fails_fast(tmp_path, monkeypatch):
    # cap 40000 at J=2 is 800,060,001 vectors, 5.96 GiB for the index alone;
    # the document asks for 10^9 queues
    model = load_config(bundled_config_path("tandem_batch"))
    kernel = model.build_kernel()
    monkeypatch.chdir(tmp_path)
    huge = {"kind": "occupancy-pmf", "J": 10 ** 9, "cap": 10 ** 12,
            "tail_mass": 0.0, "entries": []}
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="lower the cap"):
        transient_pmf(model, kernel, 1.0, 40000)
    with pytest.raises(ResourceBudgetError, match="lower the cap"):
        LatticePMF.from_json_dict(huge)
    assert main(["pmf", "--config", "tandem_batch", "--t", "1", "--cap", "40000"]) == 1
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert seconds < 0.5 and peak < 1 << 20
    # the budget counts coordinates, J C(cap + J, J): J (J + 1) at cap 1
    wide = next(J for J in itertools.count(1) if (J + 1) * (J + 2) > SIMPLEX_BUDGET)
    assert len(SimplexIndex(wide, 1)) == wide + 1
    for J, cap in [(wide + 1, 1), (1, SIMPLEX_BUDGET), (20, 20), (21, 21)]:
        with pytest.raises(ResourceBudgetError):
            SimplexIndex(J, cap)


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
    # a pivot is an integer coordinate in [0, J): -1 is not the last one
    for pivot in (3, -1, 1.5, True, np.float64(1.0), None):
        with pytest.raises(ValidationError, match=r"pivot must be an integer in \[0, 3\)"):
            recompute_with_pivot(pmf, (1, 1, 1), pivot)
    assert recompute_with_pivot(pmf, (1, 1, 1), np.int64(2)) == recompute_with_pivot(
        pmf, (1, 1, 1), 2)


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
