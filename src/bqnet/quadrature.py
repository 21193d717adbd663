"""Composite Simpson quadrature with nested doubling refinement.

Every time integral in the analytic modules runs through
:func:`simpson_refine`, so refinement behaviour (and therefore
determinism) is uniform: a rule with M nodes is refined to 2M-1 nodes.
The finer rule's even nodes are the coarser rule's nodes bit for bit, so
each doubling evaluates the integrand only at the M-1 new midpoints and
reuses the values it already has. The driver keeps three running sums of
those values (the two ends, the odd nodes and the interior even nodes),
not the values themselves, so its memory does not grow with the rule. An
empty interval is integrated like any other: its integral is zero, in the
integrand's shape, from no nodes.

Where the caller knows the integrand is analytic in the variable of
integration, ``extrapolate`` turns the Simpson estimates of successive
doublings into Romberg's Richardson table (the Simpson column is the
table's first extrapolation of the trapezoid rule), whose diagonal
converges far faster than Simpson on the same nodes; its weights are all
positive (Bauer, Rutishauser & Stiefel 1963), so a nonnegative integrand
keeps a nonnegative integral. The table is seeded from the initial rule's
own values at strides 1, 2, 4, ..., so it costs no integrand call, and
both rules evaluate the same nodes in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement settings shared by the transient operations.

    ``initial_nodes`` must be odd and at least 3; refinement doubles the
    panel count (M -> 2M-1) until two successive estimates (Simpson's, or
    their Romberg extrapolation) agree to ``rtol``/``atol``, giving up
    after ``max_doublings`` doublings.
    """

    initial_nodes: int = 33
    rtol: float = 1e-8
    atol: float = 1e-12
    max_doublings: int = 12

    def __post_init__(self):
        if self.initial_nodes < 3 or self.initial_nodes % 2 == 0:
            raise ValidationError("quadrature node count must be odd and >= 3")
        if self.rtol <= 0 or self.atol < 0:
            raise ValidationError("quadrature tolerances must be positive")


SIMPSON = "simpson"
SIMPSON_ROMBERG = "simpson-romberg"


def _simpson_weights(m: int, h: float) -> np.ndarray:
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def simpson_nodes(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the nodes and weights of composite Simpson with ``m`` nodes."""
    if m < 3 or m % 2 == 0:
        raise ValidationError("Simpson rule needs an odd node count >= 3")
    return np.linspace(a, b, m), _simpson_weights(m, (b - a) / (m - 1))


def converged_elementwise(previous, current, spec):
    """Elementwise |current - previous| <= rtol * |current| + atol."""
    return bool(np.all(np.abs(current - previous)
                       <= spec.rtol * np.abs(current) + spec.atol))


def _estimate(w, values):
    return _as_result(np.tensordot(w, values, axes=1))


def _as_result(out):
    return float(out) if np.ndim(out) == 0 else out


def _richardson(row, simpson, extrapolate):
    """The Romberg row after ``row``, whose first entry is ``simpson``.

    Entry j removes the h^(2j+2) error term: R_j = R_{j-1} + (R_{j-1} -
    R'_{j-1}) / (4^(j+1) - 1), R' being the previous row. Without
    ``extrapolate`` the row is the Simpson estimate alone.
    """
    new = [simpson]
    if extrapolate:
        for j, old in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - old) / (4.0 ** (j + 1) - 1.0))
    return new


def simpson_refine(f, a: float, b: float, spec: QuadratureSpec,
                   description: str = "integral", converged=converged_elementwise,
                   values=None, extrapolate=False):
    """Integrate ``f`` on [a, b], refining until two estimates agree.

    ``f`` maps a node array to its values with the node axis first, so
    the integrand may be scalar (shape (m,)) or vector-valued (shape
    (m, ...)); the estimate is the weighted sum over the node axis.
    Refinement stops at the first doubling where ``converged(previous,
    current, spec)`` holds, by default the elementwise
    |current - previous| <= rtol * |current| + atol. ``values``, when
    given, are ``f`` at ``np.linspace(a, b, spec.initial_nodes)``, the
    initial rule's nodes, already evaluated by the caller.

    With ``extrapolate`` the estimates are the diagonal of the Romberg
    table on the same nodes, for integrands analytic on [a, b]: the
    initial row comes from Simpson on the initial values at strides 1, 2,
    4, ... (while the stride leaves an even panel count of at least 2),
    and each doubling adds one column.

    Returns ``(value, nodes_used)``, the value a float for a scalar
    integrand and an array otherwise. On an empty interval (``b == a``)
    the integrand is evaluated once at ``a`` for its shape, and the result
    is zeros of that shape from 0 nodes. Raises :class:`ConvergenceError`
    carrying the last two estimates if doubling never settles.
    """
    if b < a:
        raise ValidationError("integration interval is reversed")
    if b == a:
        return _estimate(np.zeros(0), np.asarray(f(np.array([a], dtype=float)))[:0]), 0
    m = spec.initial_nodes
    x, _ = simpson_nodes(a, b, m)
    values = np.asarray(f(x) if values is None else values, dtype=float)
    h = (b - a) / (m - 1)
    strides = [1]
    while extrapolate and (m - 1) // strides[-1] % 4 == 0:
        strides.append(2 * strides[-1])
    row = []
    for stride in reversed(strides):
        w = _simpson_weights((m - 1) // stride + 1, h * stride)
        row = _richardson(row, _estimate(w, values[::stride]), extrapolate)
    # running sums by Simpson weight class: the ends (weight 1), the interior
    # even nodes (2) and the odd nodes (4); a doubling's new nodes are all odd
    ends, even, odd = (values[0] + values[-1], values[2:-1:2].sum(axis=0),
                       values[1::2].sum(axis=0))
    previous = current = row[-1]
    for _ in range(spec.max_doublings):
        m, h = 2 * m - 1, h / 2.0
        # the rule's nodes from simpson_nodes, as every rule's are, so that a
        # traced run (perfbench/tracer.py) counts each rule once
        x, _ = simpson_nodes(a, b, m)
        even = even + odd
        odd = np.asarray(f(x[1::2]), dtype=float).sum(axis=0)
        row = _richardson(row, _as_result((h / 3.0) * (ends + 4.0 * odd + 2.0 * even)),
                          extrapolate)
        previous, current = current, row[-1]
        if converged(previous, current, spec):
            return current, m
    raise ConvergenceError(
        f"{description} did not converge after {spec.max_doublings} doublings",
        last_estimates=(previous, current),
    )
