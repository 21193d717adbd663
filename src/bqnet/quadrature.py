"""Composite Simpson quadrature with nested doubling refinement.

Every time integral in the analytic modules runs through
:func:`simpson_refine`, so refinement behaviour (and therefore
determinism) is uniform: a rule with M nodes is refined to 2M-1 nodes.
The finer rule's even nodes are the coarser rule's nodes bit for bit, so
each doubling evaluates the integrand only at the M-1 new midpoints and
reuses the values it already has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-Simpson settings shared by the transient operations.

    ``initial_nodes`` must be odd and at least 3; refinement doubles the
    panel count (M -> 2M-1) until two successive estimates agree to
    ``rtol``/``atol``, giving up after ``max_doublings`` doublings.
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


def simpson_nodes(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the nodes and weights of composite Simpson with ``m`` nodes."""
    if m < 3 or m % 2 == 0:
        raise ValidationError("Simpson rule needs an odd node count >= 3")
    x = np.linspace(a, b, m)
    h = (b - a) / (m - 1)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


def converged_elementwise(previous, current, spec):
    """Elementwise |current - previous| <= rtol * |current| + atol."""
    return bool(np.all(np.abs(current - previous)
                       <= spec.rtol * np.abs(current) + spec.atol))


def _estimate(w, values):
    out = np.tensordot(w, values, axes=1)
    return float(out) if out.ndim == 0 else out


def simpson_refine(f, a: float, b: float, spec: QuadratureSpec,
                   description: str = "integral", converged=converged_elementwise):
    """Integrate ``f`` on [a, b], refining until two estimates agree.

    ``f`` maps a node array to its values with the node axis first, so
    the integrand may be scalar (shape (m,)) or vector-valued (shape
    (m, ...)); the estimate is the weighted sum over the node axis.
    Refinement stops at the first doubling where ``converged(previous,
    current, spec)`` holds, by default the elementwise
    |current - previous| <= rtol * |current| + atol.

    Returns ``(value, nodes_used)``, the value a float for a scalar
    integrand and an array otherwise. Raises :class:`ConvergenceError`
    carrying the last two estimates if doubling never settles.
    """
    if b < a:
        raise ValidationError("integration interval is reversed")
    if b == a:
        return 0.0, spec.initial_nodes
    m = spec.initial_nodes
    x, w = simpson_nodes(a, b, m)
    values = np.asarray(f(x), dtype=float)
    previous = current = _estimate(w, values)
    for _ in range(spec.max_doublings):
        previous = current
        m = 2 * m - 1
        x, w = simpson_nodes(a, b, m)
        finer = np.empty((m,) + values.shape[1:])
        finer[::2] = values
        finer[1::2] = f(x[1::2])
        values = finer
        current = _estimate(w, values)
        if converged(previous, current, spec):
            return current, m
    raise ConvergenceError(
        f"{description} did not converge after {spec.max_doublings} doublings",
        last_estimates=(previous, current),
    )
