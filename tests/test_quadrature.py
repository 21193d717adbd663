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


def test_each_node_evaluated_once():
    spec = QuadratureSpec(initial_nodes=5, rtol=1e-12)
    seen = []

    def counting(x):
        seen.append(np.array(x))
        return smooth(x)

    value, m = simpson_refine(counting, 0.0, 3.0, spec)
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
        assert estimate == float(w @ smooth(x))
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
