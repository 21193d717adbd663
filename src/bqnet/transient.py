"""Transient occupancy law of the whole network.

The occupancy vector N(t) is a Poisson-random sum of independent batch
displacements, so its PGF is the exponential of a time integral of the
single-batch displacement PGF; P(N = 0) is that PGF at z = 0
(:func:`transient_zero_prob`). The PMF follows from a multivariate
Panjer recursion over the occupancy simplex (Sundt 1999). With the
displacement integrals

    A(i) = int_0^t lambda(tau) P[C(t - tau) = i] dtau,

computed once per displacement vector i on quadrature nodes shared with
the empty-network base case,
P(N = 0) = exp(-int_0^t lambda(tau) P[C(t - tau) != 0] dtau) and, for
n != 0 and any coordinate p with n_p >= 1,

    n_p P(N = n) = sum_{0 < i <= n} i_p A(i) P(N = n - i).

Every term on the right has a smaller total than n, so the recursion runs
one total degree at a time: all entries of degree d come from one gather
over the simplex pair table (:class:`bqnet.tables.PairTable`) and one
``np.bincount``. The stored entries use p = the last nonzero coordinate
of n; :func:`recompute_with_pivot` re-derives an entry with another p.
Terms are added in a fixed order, and every time integral (the PGF
exponent, the displacement integrals and the moments) runs through
:func:`bqnet.quadrature.simpson_refine`, whose nested doubling evaluates
each node once, so results are bit-deterministic for a fixed node count.
The integrand is analytic in tau when the kernel is
(``kernel.analytic_in_time``, the uniformization kernel) and the arrival
rate is one smooth piece on [0, t]; there the integrals take Romberg's
extrapolation on Simpson's nodes (rule ``"simpson-romberg"``), which
settles in a fraction of the nodes. Grid kernels, whose rows are only
piecewise linear in t, and rates with breakpoints inside [0, t] keep
composite Simpson (``"simpson"``). ``meta["quadrature_rule"]`` and
:attr:`TransientMoments.quadrature_rule` name the rule used.
At t = 0 each integral is the empty one: zero from 0 nodes, so the PGF is
1, the PMF is the point mass at n = 0 and both moments are 0.

The PMF's integrand takes each doubling's new nodes as one stack: it
checks their placement rows once and calls
:func:`bqnet.compound.lattice_stack` once, so every displacement lattice
of the doubling comes from one pass. Beside the lattice and
lambda P[C != 0] it integrates lambda times each node's series tail
bound, reported as ``meta["series_tail_bound"]`` (0 for closed-form
batch families); the convergence test does not read that column, and it
is not serialised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .batch import check_pgf_argument
from .compound import checked_rows, lattice_stack
from .errors import ValidationError
from .quadrature import (SIMPSON, SIMPSON_ROMBERG, QuadratureSpec,
                         converged_elementwise, simpson_refine)
from .tables import LatticePMF, simplex_index, simplex_rank

DEFAULT_QUAD = QuadratureSpec()
TAIL_WARNING = 0.01


def _check_time(t):
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("time must be finite and >= 0")
    return float(t)


def _extrapolates(model, kernel, t):
    """Whether the time integrals at ``t`` are analytic in tau: an analytic
    kernel and one arrival-rate piece on [0, t]."""
    return kernel.analytic_in_time and len(model.arrival.segments(t)) == 1


def transient_pgf(model, kernel, t, z, quad: QuadratureSpec = DEFAULT_QUAD):
    """E[prod z_k^{N_k(t)}] for z in the unit box."""
    t = _check_time(t)
    one_minus_z = 1.0 - check_pgf_argument(z, model.J)

    def integrand(tau):
        # lambda(tau) [1 - G_C(t - tau)(z)], the exponent's integrand
        gaps = model.batch.pgf_gap(kernel.placement_rows_many(t - tau) @ one_minus_z)
        return np.asarray(model.arrival.rate(tau, horizon=t), dtype=float) * gaps

    exponent, _ = simpson_refine(integrand, 0.0, t, quad, "transient PGF quadrature",
                                 extrapolate=_extrapolates(model, kernel, t))
    return math.exp(-exponent)


def transient_zero_prob(model, kernel, t, quad: QuadratureSpec = DEFAULT_QUAD):
    """P(N(t) = 0): the transient PGF at z = 0."""
    return transient_pgf(model, kernel, t, np.zeros(model.J), quad)


def _run_recursion(index, A, p0):
    """Panjer recursion, one total degree at a time, pivot = last nonzero coordinate."""
    pairs = index.pairs
    values = np.zeros(len(index))
    values[0] = p0
    for d in range(1, index.cap + 1):
        lo, hi = index.degree_start[d], index.degree_start[d + 1]
        rows = slice(pairs.degree_start[d], pairs.degree_start[d + 1])
        terms = (pairs.pivot_weight[rows] * values[pairs.rest[rows]]
                 * A[pairs.part[rows]])
        values[lo:hi] = (np.bincount(pairs.total[rows] - lo, terms, minlength=hi - lo)
                         / index.pivot_count[lo:hi])
    return values


def transient_pmf(model, kernel, t, cap, quad: QuadratureSpec = DEFAULT_QUAD):
    """P(N(t) = n) for every n with sum(n) <= cap, as a :class:`LatticePMF`.

    The refinement loop doubles the shared quadrature rule until every
    lattice entry moves by at most rtol * entry + atol. ``meta`` carries
    the node count and the rule (``"quadrature_nodes"``,
    ``"quadrature_rule"``), and the displacement integrals A, aligned with
    the lattice's index, for :func:`recompute_with_pivot`.
    """
    t = _check_time(t)
    index = simplex_index(model.J, cap)

    def integrand(tau):
        # per node: lambda * lattice, lambda * P[C(t - tau) != 0] and
        # lambda * the lattice's series tail bound
        rows = checked_rows([kernel.placement_rows(float(u)) for u in t - tau])
        out = np.empty((tau.size, len(index) + 2))
        _, tails = lattice_stack(model.batch, rows, index, out[:, :-2])
        out[:, -2] = 1.0 - out[:, 0]
        out[:, -1] = tails
        out *= np.asarray(model.arrival.rate(tau, horizon=t), dtype=float)[:, None]
        return out

    # the lattice of the latest estimate: the next doubling's ``previous`` is
    # this doubling's ``current``, so each estimate runs the recursion once
    latest = (None, None)

    def recursion(estimate):
        nonlocal latest
        if latest[0] is not estimate:
            latest = (estimate, _run_recursion(index, estimate[:-2],
                                               math.exp(-estimate[-2])))
        return latest[1]

    def settled(previous, current, spec):
        return converged_elementwise(recursion(previous), recursion(current), spec)

    extrapolate = _extrapolates(model, kernel, t)
    estimate, m = simpson_refine(integrand, 0.0, t, quad, "PMF quadrature", settled,
                                 extrapolate=extrapolate)
    pmf = LatticePMF(model.J, cap, recursion(estimate),
                     meta={"t": t, "quadrature_nodes": m,
                           "quadrature_rule": SIMPSON_ROMBERG if extrapolate else SIMPSON,
                           "displacement_integrals": estimate[:-2],
                           "series_tail_bound": float(estimate[-1])})
    if pmf.tail_mass > TAIL_WARNING:
        warnings.warn(
            f"occupancy cap {cap} leaves tail mass {pmf.tail_mass:.3g} "
            f"(> {TAIL_WARNING}); raise the cap for tighter coverage",
            stacklevel=2)
    return pmf


def recompute_with_pivot(pmf: LatticePMF, n, pivot):
    """Re-derive one PMF entry using an alternative admissible pivot.

    The recursion identity holds for any coordinate with n_pivot >= 1, so
    this should reproduce the stored entry to roundoff; it exists so that
    pivot invariance can be audited. ``pivot`` is an integer in [0, J).
    """
    A = pmf.meta.get("displacement_integrals")
    if A is None:
        raise ValidationError("this lattice carries no displacement integrals")
    index = pmf.index
    if not ((type(pivot) is int or isinstance(pivot, np.integer)) and 0 <= pivot < index.J):
        raise ValidationError(f"pivot must be an integer in [0, {index.J}), not {pivot!r}")
    n = tuple(int(v) for v in n)
    if len(n) != index.J or min(n) < 0 or sum(n) > index.cap:
        raise ValidationError(f"{n} is outside the lattice")
    if n[pivot] < 1:
        raise ValidationError(f"pivot {pivot} needs n[pivot] >= 1")
    pos = int(simplex_rank([n])[0])
    pairs = index.pairs
    lo, hi = np.searchsorted(pairs.total, [pos, pos + 1])
    part, rest = pairs.part[lo:hi], pairs.rest[lo:hi]
    terms = index.array[part, pivot] * pmf.values[rest] * A[part]
    return float(terms.sum()) / n[pivot]


@dataclass
class TransientMoments:
    """Mean vector and covariance matrix of N(t); None when undefined.

    ``quadrature_nodes`` and ``quadrature_rule`` say how the moment
    integral was taken; an undefined first moment takes none.
    """

    mean: np.ndarray | None
    covariance: np.ndarray | None
    undefined_reason: str | None = None
    quadrature_nodes: int = 0
    quadrature_rule: str | None = None


def transient_moments(model, kernel, t, quad: QuadratureSpec = DEFAULT_QUAD):
    """First two moments of N(t) from compound-Poisson cumulant formulas."""
    t = _check_time(t)
    J = model.J
    f1 = model.batch.factorial_moments(1)
    if not np.all(np.isfinite(f1)):
        return TransientMoments(None, None,
                                "batch first moment is infinite")
    f2 = model.batch.factorial_moments(2)
    cov_defined = bool(np.all(np.isfinite(f2)))

    def integrand(tau):
        q = kernel.placement_rows_many(t - tau)    # (m, J, J): q[node, j, k]
        mean_term = np.einsum("j,mjk->mk", f1, q)
        terms = [mean_term]
        if cov_defined:
            # q^T f2 q per node as two stacked (J, J) products, then the
            # mean on the diagonal; as one three-operand einsum it runs
            # NumPy's generic loop at O(m J^5)
            second = np.swapaxes(q, 1, 2) @ (f2 @ q)
            second[:, np.arange(J), np.arange(J)] += mean_term
            terms.append(second.reshape(tau.size, J * J))
        lam = np.asarray(model.arrival.rate(tau, horizon=t), dtype=float)
        return lam[:, None] * np.concatenate(terms, axis=1)

    def settled(previous, current, spec):
        scale = max(float(np.max(np.abs(current[:J]))), 1.0)
        return np.max(np.abs(current - previous)) <= spec.rtol * scale + spec.atol

    extrapolate = _extrapolates(model, kernel, t)
    estimate, m = simpson_refine(integrand, 0.0, t, quad, "moment quadrature",
                                 settled, extrapolate=extrapolate)
    return TransientMoments(estimate[:J],
                            estimate[J:].reshape(J, J) if cov_defined else None,
                            None if cov_defined else "batch second moment is infinite",
                            quadrature_nodes=m,
                            quadrature_rule=SIMPSON_ROMBERG if extrapolate else SIMPSON)
