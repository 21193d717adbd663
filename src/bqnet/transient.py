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
Terms are added in a fixed order, and all quadrature runs on composite
Simpson rules refined by node doubling, so results are bit-deterministic
for a fixed node count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compound import CompoundSnapshot, compound_lattice
from .errors import ConvergenceError, ValidationError
from .quadrature import QuadratureSpec, simpson_nodes
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


def _gap_exponent(model, kernel, t, one_minus_z, m):
    """int_0^t lambda(tau) [1 - G_C(t-tau)(z)] dtau on an m-node Simpson rule."""
    tau, w = simpson_nodes(0.0, t, m)
    u = t - tau
    rows = kernel.placement_rows_many(u)
    eps = rows[:, :, : model.J] @ one_minus_z
    gaps = np.array([model.batch.pgf_gap(e) for e in eps])
    lam = np.asarray(model.arrival.rate(tau), dtype=float)
    return float(w @ (lam * gaps))


def _refine_exponent(model, kernel, t, one_minus_z, quad, description):
    m = quad.initial_nodes
    previous = _gap_exponent(model, kernel, t, one_minus_z, m)
    for _ in range(quad.max_doublings):
        m = 2 * m - 1
        current = _gap_exponent(model, kernel, t, one_minus_z, m)
        if abs(current - previous) <= quad.rtol * abs(current) + quad.atol:
            return current, m
        previous = current
    raise ConvergenceError(
        f"{description} quadrature did not converge after "
        f"{quad.max_doublings} doublings",
        last_estimates=(previous, current))


def transient_pgf(model, kernel, t, z, quad: QuadratureSpec = DEFAULT_QUAD):
    """E[prod z_k^{N_k(t)}] for z in the unit box."""
    t = _check_time(t)
    z = _check_z(model, z)
    if t == 0.0:
        return 1.0
    exponent, _ = _refine_exponent(model, kernel, t, 1.0 - z, quad, "transient PGF")
    return math.exp(-exponent)


def transient_zero_prob(model, kernel, t, quad: QuadratureSpec = DEFAULT_QUAD):
    """P(N(t) = 0) = transient PGF at z = 0."""
    t = _check_time(t)
    if t == 0.0:
        return 1.0
    exponent, _ = _refine_exponent(model, kernel, t, np.ones(model.J), quad,
                                   "empty-network probability")
    return math.exp(-exponent)


def _pmf_values(model, kernel, t, index, m):
    """Base probability and displacement integrals on an m-node rule."""
    tau, w = simpson_nodes(0.0, t, m)
    u = t - tau
    lam = np.asarray(model.arrival.rate(tau), dtype=float)
    A = np.zeros(len(index))
    base_exponent = 0.0
    for node in range(m):
        snap = CompoundSnapshot(model.batch, kernel, float(u[node]))
        (vals, _), _tail = compound_lattice(snap, index.cap)
        coeff = w[node] * lam[node]
        A += coeff * vals
        base_exponent += coeff * (1.0 - vals[0])
    values = _run_recursion(index, A, math.exp(-base_exponent))
    return values, A


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
    m = quad.initial_nodes
    previous, _ = _pmf_values(model, kernel, t, index, m)
    for _ in range(quad.max_doublings):
        m = 2 * m - 1
        current, A = _pmf_values(model, kernel, t, index, m)
        if np.all(np.abs(current - previous)
                  <= quad.rtol * np.abs(current) + quad.atol):
            break
        previous = current
    else:
        raise ConvergenceError(
            f"PMF quadrature did not converge after {quad.max_doublings} doublings",
            last_estimates=(float(previous.sum()), float(current.sum())))
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

    def assemble(m):
        tau, w = simpson_nodes(0.0, t, m)
        u = t - tau
        rows = kernel.placement_rows_many(u)
        lam = np.asarray(model.arrival.rate(tau), dtype=float)
        q = rows[:, :, :J]                      # (m, J, J): q[node, j, k]
        mean_term = np.einsum("j,mjk->mk", f1, q)
        mean = np.einsum("m,mk->k", w * lam, mean_term)
        cov = None
        if cov_defined:
            second = (np.einsum("mjk,jl,mln->mkn", q, f2, q)
                      + np.einsum("mk,kn->mkn", mean_term, np.eye(J)))
            cov = np.einsum("m,mkn->kn", w * lam, second)
        return mean, cov

    m = quad.initial_nodes
    prev_mean, prev_cov = assemble(m)
    for _ in range(quad.max_doublings):
        m = 2 * m - 1
        mean, cov = assemble(m)
        delta = np.max(np.abs(mean - prev_mean))
        if cov_defined:
            delta = max(delta, float(np.max(np.abs(cov - prev_cov))))
        scale = max(float(np.max(np.abs(mean))), 1.0)
        if delta <= quad.rtol * scale + quad.atol:
            return TransientMoments(mean, cov,
                                    None if cov_defined else
                                    "batch second moment is infinite",
                                    quadrature_nodes=m)
        prev_mean, prev_cov = mean, cov
    raise ConvergenceError(
        f"moment quadrature did not converge after {quad.max_doublings} doublings",
        last_estimates=(float(np.max(prev_mean)), float(np.max(mean))))
