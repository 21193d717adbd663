"""Transient occupancy law of the whole network.

The occupancy vector N(t) is a Poisson-random sum of independent batch
displacements, so its PGF is the exponential of a time integral of the
single-batch displacement PGF. The PMF follows from a multivariate
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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compound import CompoundSnapshot, compound_lattice
from .errors import ValidationError
from .quadrature import QuadratureSpec, converged_elementwise, simpson_refine
from .tables import LatticePMF, simplex_index

DEFAULT_QUAD = QuadratureSpec()
TAIL_WARNING = 0.01


def _check_time(t):
    if t < 0:
        raise ValidationError("time must be >= 0")
    return float(t)


def _check_z(model, z):
    z = np.asarray(z, dtype=float)
    if z.shape != (model.J,):
        raise ValidationError(f"PGF argument must have length {model.J}")
    if np.any(z < 0.0) or np.any(z > 1.0 + 1e-3):
        raise ValidationError("PGF argument entries must lie in [0, 1]")
    return z


def _gap_integrand(model, kernel, t, one_minus_z):
    """tau -> lambda(tau) [1 - G_C(t-tau)(z)], the PGF exponent's integrand."""
    def integrand(tau):
        rows = kernel.placement_rows_many(t - tau)
        eps = rows[:, :, : model.J] @ one_minus_z
        gaps = np.array([model.batch.pgf_gap(e) for e in eps])
        return np.asarray(model.arrival.rate(tau), dtype=float) * gaps
    return integrand


def transient_pgf(model, kernel, t, z, quad: QuadratureSpec = DEFAULT_QUAD):
    """E[prod z_k^{N_k(t)}] for z in the unit box."""
    t = _check_time(t)
    z = _check_z(model, z)
    if t == 0.0:
        return 1.0
    exponent, _ = simpson_refine(_gap_integrand(model, kernel, t, 1.0 - z),
                                 0.0, t, quad, "transient PGF quadrature")
    return math.exp(-exponent)


def transient_zero_prob(model, kernel, t, quad: QuadratureSpec = DEFAULT_QUAD):
    """P(N(t) = 0) = transient PGF at z = 0."""
    t = _check_time(t)
    if t == 0.0:
        return 1.0
    exponent, _ = simpson_refine(_gap_integrand(model, kernel, t, np.ones(model.J)),
                                 0.0, t, quad,
                                 "empty-network probability quadrature")
    return math.exp(-exponent)


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


def transient_pmf(model, kernel, t, cap, quad: QuadratureSpec = DEFAULT_QUAD,
                  tail_warning=TAIL_WARNING):
    """P(N(t) = n) for every n with sum(n) <= cap, as a :class:`LatticePMF`.

    The refinement loop doubles the shared quadrature rule until every
    lattice entry moves by at most rtol * entry + atol.
    """
    t = _check_time(t)
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    index = simplex_index(model.J, cap)
    if t == 0.0:
        values = np.zeros(len(index))
        values[0] = 1.0
        return LatticePMF(model.J, cap, values,
                          meta={"_index": index, "t": 0.0, "quadrature_nodes": 0,
                                "displacement_integrals": {}})

    def integrand(tau):
        # per node: lambda * lattice, then lambda * P[C(t - tau) != 0]
        out = np.empty((tau.size, len(index) + 1))
        for row, (u, lam) in enumerate(zip(t - tau, model.arrival.rate(tau))):
            snap = CompoundSnapshot(model.batch, kernel, float(u))
            (vals, _), _tail = compound_lattice(snap, index.cap)
            out[row, :-1] = lam * vals
            out[row, -1] = lam * (1.0 - vals[0])
        return out

    def recursion(estimate):
        return _run_recursion(index, estimate[:-1], math.exp(-estimate[-1]))

    def settled(previous, current, spec):
        return converged_elementwise(recursion(previous), recursion(current), spec)

    estimate, m = simpson_refine(integrand, 0.0, t, quad, "PMF quadrature", settled)
    A, current = estimate[:-1], recursion(estimate)
    integrals = {vec: float(a) for vec, a in zip(index.vectors, A)}
    pmf = LatticePMF(model.J, cap, current,
                     meta={"_index": index, "t": t, "quadrature_nodes": m,
                           "displacement_integrals": integrals})
    if pmf.tail_mass > tail_warning:
        warnings.warn(
            f"occupancy cap {cap} leaves tail mass {pmf.tail_mass:.3g} "
            f"(> {tail_warning}); raise the cap for tighter coverage",
            stacklevel=2)
    return pmf


def recompute_with_pivot(pmf: LatticePMF, n, pivot):
    """Re-derive one PMF entry using an alternative admissible pivot.

    The recursion identity holds for any coordinate with n_pivot >= 1, so
    this should reproduce the stored entry to roundoff; it exists so that
    pivot invariance can be audited.
    """
    integrals = pmf.meta.get("displacement_integrals")
    if not integrals:
        raise ValidationError("this lattice carries no displacement integrals")
    index = pmf.index
    n = tuple(int(v) for v in n)
    pos = index.position.get(n)
    if pos is None:
        raise ValidationError(f"{n} is outside the lattice")
    if n[pivot] < 1:
        raise ValidationError(f"pivot {pivot} needs n[pivot] >= 1")
    A = np.zeros(len(index))
    for vec, a in integrals.items():
        A[index.position[vec]] = a
    pairs = index.pairs
    lo, hi = np.searchsorted(pairs.total, [pos, pos + 1])
    part, rest = pairs.part[lo:hi], pairs.rest[lo:hi]
    terms = index.array[part, pivot] * pmf.values[rest] * A[part]
    return float(terms.sum()) / n[pivot]


@dataclass
class TransientMoments:
    """Mean vector and covariance matrix of N(t); None when undefined."""

    mean: np.ndarray | None
    covariance: np.ndarray | None
    undefined_reason: str | None = None
    quadrature_nodes: int = 0


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
    if t == 0.0:
        zero = np.zeros(J)
        return TransientMoments(zero, np.zeros((J, J)) if cov_defined else None,
                                None if cov_defined else
                                "batch second moment is infinite")

    def integrand(tau):
        rows = kernel.placement_rows_many(t - tau)
        q = rows[:, :, :J]                      # (m, J, J): q[node, j, k]
        mean_term = np.einsum("j,mjk->mk", f1, q)
        terms = [mean_term]
        if cov_defined:
            second = (np.einsum("mjk,jl,mln->mkn", q, f2, q)
                      + np.einsum("mk,kn->mkn", mean_term, np.eye(J)))
            terms.append(second.reshape(tau.size, J * J))
        lam = np.asarray(model.arrival.rate(tau), dtype=float)
        return lam[:, None] * np.concatenate(terms, axis=1)

    def settled(previous, current, spec):
        scale = max(float(np.max(np.abs(current[:J]))), 1.0)
        return np.max(np.abs(current - previous)) <= spec.rtol * scale + spec.atol

    estimate, m = simpson_refine(integrand, 0.0, t, quad, "moment quadrature",
                                 settled)
    return TransientMoments(estimate[:J],
                            estimate[J:].reshape(J, J) if cov_defined else None,
                            None if cov_defined else "batch second moment is infinite",
                            quadrature_nodes=m)
