import tracemalloc

import numpy as np
import pytest

from bqnet import ConvergenceError, QuadratureSpec
from bqnet.quadrature import converged_elementwise, simpson_nodes, simpson_refine


def smooth(x):
    return np.exp(-0.3 * x) * np.sin(2.0 * x) + 1.0


def rules(spec, m_final):
    m = spec.initial_nodes
    while m <= m_final:
        yield m
        m = 2 * m - 1


def stop_after(doublings):
    """A convergence test that holds at the given doubling and not before."""
    calls = []

    def converged(previous, current, spec):
        calls.append(current)
        return len(calls) == doublings

    return converged


@pytest.mark.parametrize("extrapolate", [False, True])
def test_each_node_evaluated_once(extrapolate):
    spec = QuadratureSpec(initial_nodes=5, rtol=1e-12)
    seen = []

    def counting(x):
        seen.append(np.array(x))
        return smooth(x)

    value, m = simpson_refine(counting, 0.0, 3.0, spec, extrapolate=extrapolate)
    nodes = np.concatenate(seen)
    assert nodes.size == m
    np.testing.assert_array_equal(np.sort(nodes), np.linspace(0.0, 3.0, m))
    assert isinstance(value, float)


def test_given_initial_values_are_not_evaluated_again():
    spec = QuadratureSpec(initial_nodes=5, rtol=1e-12)
    x, _ = simpson_nodes(0.0, 3.0, spec.initial_nodes)
    seen = []

    def counting(nodes):
        seen.append(np.array(nodes))
        return smooth(nodes)

    got = simpson_refine(counting, 0.0, 3.0, spec, values=smooth(x))
    assert not np.isin(x, np.concatenate(seen)).any()
    assert got == simpson_refine(smooth, 0.0, 3.0, spec)


def test_nested_estimates_match_full_rules():
    spec = QuadratureSpec(initial_nodes=3, rtol=1e-12)
    estimates = []

    def recording(previous, current, spec):
        if not estimates:
            estimates.append(previous)
        estimates.append(current)
        return converged_elementwise(previous, current, spec)

    value, m = simpson_refine(smooth, 0.5, 4.0, spec, converged=recording)
    sizes = list(rules(spec, m))
    assert len(sizes) == len(estimates) > 2
    for size, estimate in zip(sizes, estimates):
        x, w = simpson_nodes(0.5, 4.0, size)
        # the initial rule is its weighted sum bit for bit; later rules come
        # from running sums of the values, equal up to rounding
        if size == spec.initial_nodes:
            assert estimate == float(w @ smooth(x))
        assert estimate == pytest.approx(float(w @ smooth(x)), rel=1e-15, abs=0.0)
    assert value == estimates[-1]


def test_vector_integrand_custom_test_agrees_with_default():
    spec = QuadratureSpec(initial_nodes=5, rtol=1e-10)

    def stacked(x):
        return np.stack([smooth(x), x ** 2, np.cos(x)], axis=1)

    def max_slack(previous, current, spec):
        slack = np.abs(current - previous) - spec.rtol * np.abs(current)
        return float(np.max(slack)) <= spec.atol

    default, m_default = simpson_refine(stacked, 0.0, 2.0, spec)
    custom, m_custom = simpson_refine(stacked, 0.0, 2.0, spec, converged=max_slack)
    assert default.shape == (3,)
    assert m_custom == m_default
    np.testing.assert_array_equal(custom, default)
    # the vector stops at the rule where its slowest component settles
    per_component = [simpson_refine(lambda x, k=k: stacked(x)[:, k], 0.0, 2.0, spec)[1]
                     for k in range(3)]
    assert m_default == max(per_component)


def test_convergence_error_carries_last_two_estimates():
    spec = QuadratureSpec(initial_nodes=3, rtol=1e-12, atol=0.0, max_doublings=4)

    def step(x):
        return np.where(x < 1.3, 1.0, 2.0)

    with pytest.raises(ConvergenceError) as info:
        simpson_refine(step, 0.0, 3.0, spec, "step integral")
    previous, current = info.value.last_estimates
    m_last = 2 ** spec.max_doublings * (spec.initial_nodes - 1) + 1
    for m, estimate in [((m_last + 1) // 2, previous), (m_last, current)]:
        x, w = simpson_nodes(0.0, 3.0, m)
        assert estimate == float(w @ step(x))
    assert previous != current


@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["scalar", "vector"])
def test_empty_interval_is_zero_in_the_integrand_shape(shape):
    seen = []

    def integrand(x):
        seen.append(np.array(x))
        return -np.ones(x.shape + shape)

    value, m = simpson_refine(integrand, 1.5, 1.5, QuadratureSpec())
    assert m == 0
    # one evaluation, at the interval's point, for the shape alone
    assert len(seen) == 1 and seen[0].tolist() == [1.5]
    if shape:
        assert isinstance(value, np.ndarray) and value.shape == shape
    else:
        assert isinstance(value, float)
    # +0.0 everywhere, not the -0.0 a product with the values could give
    assert np.all(value == 0.0) and not np.any(np.signbit(value))


def test_romberg_estimates_are_the_textbook_diagonal():
    # Romberg's table from trapezoid sums on 1, 2, 4, ... panels, R[k][j] =
    # R[k][j-1] + (R[k][j-1] - R[k-1][j-1]) / (4^j - 1): a 5-node initial rule
    # (4 panels) starts at R[2][2], and each doubling is one more diagonal entry
    a, b = 0.5, 4.0
    spec = QuadratureSpec(initial_nodes=5, rtol=1e-13, atol=0.0)
    estimates = []

    def recording(previous, current, spec):
        if not estimates:
            estimates.append(previous)
        estimates.append(current)
        return converged_elementwise(previous, current, spec)

    value, m = simpson_refine(smooth, a, b, spec, converged=recording, extrapolate=True)
    table = []
    for k in range(len(estimates) + 2):
        x = np.linspace(a, b, 2 ** k + 1)
        row = [(b - a) / 2 ** k * (smooth(x).sum() - 0.5 * (smooth(x[0]) + smooth(x[-1])))]
        for j in range(1, k + 1):
            row.append(row[-1] + (row[-1] - table[-1][j - 1]) / (4 ** j - 1))
        table.append(row)
    assert m == 2 ** (len(estimates) + 1) + 1
    for k, estimate in enumerate(estimates, start=2):
        assert estimate == pytest.approx(table[k][k], rel=1e-14, abs=0.0)
    # far past Simpson's own accuracy on as many nodes
    exact = 3.5 + (np.exp(-0.15) * (0.3 * np.sin(1.0) + 2.0 * np.cos(1.0))
                   - np.exp(-1.2) * (0.3 * np.sin(8.0) + 2.0 * np.cos(8.0))) / 4.09
    x, w = simpson_nodes(a, b, m)
    assert abs(value - exact) < 1e-4 * abs(float(w @ smooth(x)) - exact)
    assert value == estimates[-1]


@pytest.mark.parametrize("initial_nodes, doublings", [(33, 2), (9, 3), (7, 2)])
def test_romberg_weights_are_positive(initial_nodes, doublings):
    # the estimate of a one-hot integrand is that node's weight: every weight
    # is positive, so a nonnegative integrand has a nonnegative integral, and
    # the weights integrate constants exactly
    a, b = 1.0, 4.0
    m = (initial_nodes - 1) * 2 ** doublings + 1
    spec = QuadratureSpec(initial_nodes=initial_nodes)

    def one_hot(x):
        out = np.zeros((x.size, m))
        out[np.arange(x.size), np.rint((x - a) / (b - a) * (m - 1)).astype(int)] = 1.0
        return out

    weights, used = simpson_refine(one_hot, a, b, spec, converged=stop_after(doublings),
                                   extrapolate=True)
    assert used == m
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(b - a, rel=1e-14)
    value, _ = simpson_refine(smooth, a, b, spec, converged=stop_after(doublings),
                              extrapolate=True)
    assert value == pytest.approx(float(weights @ smooth(np.linspace(a, b, m))), rel=1e-14)


def test_romberg_is_deterministic_for_a_fixed_node_count():
    spec = QuadratureSpec(initial_nodes=17)
    x = np.linspace(0.0, 3.0, spec.initial_nodes)
    runs = [simpson_refine(smooth, 0.0, 3.0, spec, converged=stop_after(3),
                           extrapolate=True) for _ in range(2)]
    runs.append(simpson_refine(smooth, 0.0, 3.0, spec, converged=stop_after(3),
                               values=smooth(x), extrapolate=True))
    assert runs[0][1] == 129
    assert runs[0] == runs[1] == runs[2]


def test_refinement_keeps_sums_not_rows():
    # 33 -> 4097 nodes of a 3000-column integrand: the largest array alive is
    # the last doubling's 2048 new rows, not the (4097, 3000) rule
    columns, m = 3000, 4097
    scale = np.linspace(1.0, 2.0, columns)

    def wide(x):
        out = np.multiply.outer(-x, scale)
        return np.exp(out, out=out)

    tracemalloc.start()
    try:
        value, used = simpson_refine(wide, 0.0, 1.0, QuadratureSpec(max_doublings=7),
                                     converged=stop_after(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used == m
    assert peak < m * columns * 8
    np.testing.assert_allclose(value, -np.expm1(-scale) / scale, rtol=1e-13)
