"""Composite Simpson quadrature with doubling refinement.

All time integrals in the analytic modules run through this helper so
that refinement behaviour (and therefore determinism) is uniform: a rule
with M nodes is refined to 2M-1 nodes. The finer rule contains every node
of the coarser one, but each doubling evaluates the integrand at all of
its nodes again; nothing from the coarser rule is reused.
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


def simpson_refine(f, a: float, b: float, spec: QuadratureSpec,
                   description: str = "integral") -> tuple[float, int]:
    """Integrate ``f`` (vectorised over a node array) on [a, b].

    Returns ``(value, nodes_used)``. Raises :class:`ConvergenceError`
    carrying the last two estimates if doubling never settles.
    """
    if b < a:
        raise ValidationError("integration interval is reversed")
    if b == a:
        return 0.0, spec.initial_nodes
    m = spec.initial_nodes
    x, w = simpson_nodes(a, b, m)
    previous = float(w @ np.asarray(f(x), dtype=float))
    for _ in range(spec.max_doublings):
        m = 2 * m - 1
        x, w = simpson_nodes(a, b, m)
        current = float(w @ np.asarray(f(x), dtype=float))
        if abs(current - previous) <= spec.rtol * abs(current) + spec.atol:
            return current, m
        previous = current
    raise ConvergenceError(
        f"{description} did not converge after {spec.max_doublings} doublings",
        last_estimates=(previous, current),
    )
