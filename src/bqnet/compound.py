"""The displacement law of one batch a time t after it arrived.

Conditional on entering node j, each customer sits in node k with
probability q^j_k(t) and has left with probability 1 - Q_j(t), so the
batch displacement C(t) is the batch size compounded with multinomial
placement. The PGF is a one-liner through the batch PGF; the PMF
dispatches on the batch representation:

* iid assignment with binomial / Poisson / negative-binomial /
  logarithmic batch size: closed forms (evaluated in log space);
* constant batches: exact Poisson-multinomial via characteristic
  function and multidimensional DFT;
* finite batch tables and independent marginals: exact enumeration and
  lattice convolution;
* remaining unbounded families: truncated series with a recorded tail
  bound.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import batch as batchmod
from .errors import DomainError, ResourceBudgetError, ValidationError
from .tables import LatticePMF, simplex_index

ROW_TOL = 1e-12
NEGATIVE_CLAMP = 1e-10
MASS_TOL = 1e-9
POISSON_MULTINOMIAL_BUDGET = 1 << 26
_SERIES_CUTOFF = 1e-18
_SERIES_MAX_TERMS = 1_000_000

_CLOSED_FORM_FAMILIES = (batchmod.BINOMIAL, batchmod.POISSON,
                         batchmod.NEG_BINOMIAL, batchmod.LOGARITHMIC,
                         batchmod.DEGENERATE)


class CompoundSnapshot:
    """Batch law + kernel rows frozen at one elapsed time."""

    def __init__(self, batch, kernel, t):
        if t < 0:
            raise ValidationError("elapsed time must be >= 0")
        if batch.J != kernel.J:
            raise ValidationError("batch dimension does not match the kernel")
        rows = np.array(kernel.placement_rows(t), dtype=float)
        if np.any(rows < -ROW_TOL) or np.any(np.abs(rows.sum(axis=1) - 1.0) > ROW_TOL):
            raise ValidationError("kernel placement rows are not probability vectors")
        rows = np.clip(rows, 0.0, 1.0)
        self.batch = batch
        self.kernel = kernel
        self.t = float(t)
        self.rows = rows
        self.J = batch.J
        if batch.variant == batchmod.IID_ASSIGNMENT:
            # q_k(t) = sum_j p_j q^j_k(t): the per-customer placement row
            self.mixed_row = batch.entry_probs @ rows
        self.enumeration_tail_bound = 0.0
        self._lattices = {}

    def placement_row(self, j):
        return self.rows[j]


def compound_pgf(snap: CompoundSnapshot, z):
    """E[prod z_k^{C_k(t)}] = G_S(1 + sum_k (z_k - 1) q^j_k(t), ...)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (snap.J,):
        raise ValidationError(f"PGF argument must have length {snap.J}")
    if np.any(z < 0.0) or np.any(z > 1.0 + batchmod.PGF_OVERSHOOT):
        raise ValidationError("PGF argument entries must lie in [0, 1]")
    eps = snap.rows[:, : snap.J] @ (1.0 - z)
    return 1.0 - snap.batch.pgf_gap(eps)


def compound_pmf(snap: CompoundSnapshot, i):
    """P(C(t) = i) for a nonnegative integer vector i."""
    i = np.asarray(i)
    if i.shape != (snap.J,):
        raise ValidationError(f"occupancy vector must have length {snap.J}")
    if np.any(i < 0) or np.any(i != i.astype(np.int64)):
        raise ValidationError("occupancy vector entries must be nonnegative integers")
    i = i.astype(np.int64)
    total = int(i.sum())
    b = snap.batch
    if b.variant == batchmod.IID_ASSIGNMENT and b.law.family in _CLOSED_FORM_FAMILIES:
        idx = np.array([i])
        return float(_iid_closed_values(b.law, snap.mixed_row[: snap.J], idx)[0])
    (values, idx), _ = compound_lattice(snap, total)
    pos = idx.position.get(tuple(int(v) for v in i))
    return 0.0 if pos is None else float(values[pos])


def compound_lattice(snap: CompoundSnapshot, cap):
    """P(C(t) = i) for every i with sum(i) <= cap.

    Returns ``((values, index), tail_bound)`` where ``values`` aligns with
    ``index`` (a :class:`SimplexIndex`). Results are cached per snapshot.
    """
    cached = snap._lattices.get(cap)
    if cached is not None:
        return cached
    b = snap.batch
    idx = simplex_index(snap.J, cap)
    tail = 0.0
    if b.variant == batchmod.CONSTANT:
        values = _constant_lattice(snap, idx)
    elif b.variant == batchmod.IID_ASSIGNMENT:
        qvec = snap.mixed_row[: snap.J]
        if b.law.family in _CLOSED_FORM_FAMILIES:
            values = _iid_closed_values(b.law, qvec, idx.array)
        else:
            values, tail = _iid_series_values(b.law, qvec, idx.array)
            snap.enumeration_tail_bound = max(snap.enumeration_tail_bound, tail)
    elif b.variant == batchmod.FINITE_TABLE:
        values = _finite_table_lattice(snap, idx)
    else:
        values, tail = _independent_lattice(snap, idx)
        snap.enumeration_tail_bound = max(snap.enumeration_tail_bound, tail)
    result = ((values, idx), tail)
    snap._lattices[cap] = result
    return result


# -- Poisson multinomial (constant batches) -------------------------------------


def poisson_multinomial_pmf(rows, budget=POISSON_MULTINOMIAL_BUDGET):
    """Exact law of a sum of independent categorical vectors.

    ``rows`` is an (m, J+1) array: one probability vector per customer
    over the J queues plus an exit category. The characteristic function
    is evaluated on the (m+1)^J frequency lattice and inverted with a
    multidimensional DFT; negative roundoff above -1e-10 is clamped.
    """
    box, clamped = _poisson_multinomial_box(rows, budget)
    J, m = box.ndim, box.shape[0] - 1
    idx = simplex_index(J, m)
    return LatticePMF(J, m, box[tuple(idx.array.T)], tail_mass=0.0,
                      meta={"_index": idx, "clamped_entries": clamped})


def _poisson_multinomial_box(rows, budget):
    """P(C = i) for every i in {0..m}^J, and the number of clamped entries."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise ValidationError("need an (m, J+1) array of probability rows")
    if np.any(rows < -ROW_TOL) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
        raise ValidationError("each customer row must be a probability vector")
    m, J = rows.shape[0], rows.shape[1] - 1
    cost = m * (m + 1) ** J
    if cost > budget:
        raise ResourceBudgetError(
            f"DFT grid would cost {cost} > budget {budget}; "
            "fall back to direct enumeration")
    root = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
    phi = np.ones((m + 1,) * J, dtype=complex)
    for c in range(m):
        factor = np.full((m + 1,) * J, rows[c, J], dtype=complex)
        for k in range(J):
            shape = [1] * J
            shape[k] = m + 1
            factor = factor + rows[c, k] * root.reshape(shape)
        phi *= factor
    box = np.fft.fftn(phi).real / (m + 1) ** J
    bad = box < -NEGATIVE_CLAMP
    if np.any(bad):
        raise DomainError(
            f"DFT produced a negative mass {box.min()} beyond the clamp threshold")
    clamped = int(np.sum(box < 0))
    box = np.maximum(box, 0.0)
    # the law lives on the box positions whose total is at most m
    total_of = sum(np.arange(m + 1).reshape((-1,) + (1,) * (J - 1 - k))
                   for k in range(J))
    total = float(box[total_of <= m].sum())
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError(f"DFT masses sum to {total}, not 1")
    return box, clamped


def _constant_lattice(snap, idx):
    s = snap.batch.vector
    m = int(s.sum())
    values = np.zeros(len(idx))
    if m == 0:
        values[0] = 1.0
        return values
    rows = np.repeat(snap.rows, s, axis=0)
    box, _ = _poisson_multinomial_box(rows, POISSON_MULTINOMIAL_BUDGET)
    # positions of total <= min(m, cap): a prefix, and all inside the box
    shared = idx.degree_start[min(m, idx.cap) + 1]
    values[:shared] = box[tuple(idx.array[:shared].T)]
    return values


# -- iid assignment ----------------------------------------------------------------


def _log_power_term(qvec, idx_array):
    """log prod_k q_k^{i_k} with the 0 * log 0 = 0 convention."""
    with np.errstate(divide="ignore"):
        lq = np.log(qvec)
    contrib = idx_array * np.where(np.isfinite(lq), lq, 0.0)[None, :]
    impossible = (~np.isfinite(lq))[None, :] & (idx_array > 0)
    return np.where(impossible, -np.inf, contrib).sum(axis=1)


def _iid_closed_values(law, qvec, idx_array):
    """Closed-form P(C = i) for the tractable univariate batch families."""
    m = idx_array.sum(axis=1)
    logqpow = _log_power_term(qvec, idx_array)
    logfact = special.gammaln(idx_array + 1.0).sum(axis=1)
    qbar = float(qvec.sum())
    fam = law.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam == batchmod.POISSON:
            if law.mu == 0.0:
                return (m == 0).astype(float)
            logp = (-law.mu * qbar + m * math.log(law.mu) + logqpow - logfact)
            out = np.exp(logp)
            out[m == 0] = math.exp(-law.mu * qbar)
        elif fam == batchmod.BINOMIAL:
            N, alpha = law.count, law.prob
            stay = 1.0 - alpha * qbar
            log_stay = math.log(stay) if stay > 0 else -math.inf
            tail_pow = np.where(N - m > 0, (N - m) * log_stay, 0.0)
            logp = (special.gammaln(N + 1.0) - special.gammaln(N - m + 1.0)
                    - logfact + m * (math.log(alpha) if alpha > 0 else -math.inf)
                    + logqpow + tail_pow)
            out = np.where(m <= N, np.exp(logp), 0.0)
            if alpha == 0.0:
                out = (m == 0).astype(float)
        elif fam == batchmod.NEG_BINOMIAL:
            r, nu = law.shape, law.scale
            logp = (special.gammaln(r + m) - special.gammaln(r) - logfact
                    + m * math.log(nu) + logqpow
                    - (r + m) * math.log1p(nu * qbar))
            out = np.exp(logp)
        elif fam == batchmod.LOGARITHMIC:
            rho = law.rho
            base = 1.0 - rho * (1.0 - qbar)
            norm = -math.log1p(-rho)
            logp = (-math.log(norm) + special.gammaln(m.astype(float))
                    + m * math.log(rho) + logqpow - logfact
                    - m * math.log(base))
            out = np.where(m >= 1, np.exp(logp), 0.0)
            zero = math.log(base) / math.log1p(-rho)
            out[m == 0] = zero
        elif fam == batchmod.DEGENERATE:
            n = law.value
            leave = 1.0 - qbar
            log_leave = math.log(leave) if leave > 0 else -math.inf
            tail_pow = np.where(n - m > 0, (n - m) * log_leave, 0.0)
            logp = (special.gammaln(n + 1.0) - special.gammaln(n - m + 1.0)
                    - logfact + logqpow + tail_pow)
            out = np.where(m <= n, np.exp(logp), 0.0)
        else:
            raise DomainError(f"no closed form for family {fam}")
    return np.where(np.isfinite(out), out, 0.0)


def _iid_series_values(law, qvec, idx_array):
    """Truncated compounding sum for families without a closed form."""
    qbar = float(qvec.sum())
    leave = 1.0 - qbar
    log_leave = math.log(leave) if leave > 0 else -math.inf
    logqpow = _log_power_term(qvec, idx_array)
    logfact = special.gammaln(idx_array + 1.0).sum(axis=1)
    m = idx_array.sum(axis=1)
    out = np.zeros(idx_array.shape[0])
    tail_bound = 0.0
    top = law.support_max()
    for pos in range(idx_array.shape[0]):
        mm = int(m[pos])
        if mm == 0:
            out[pos] = 1.0 - law.pgf_gap(qbar)
            continue
        if not math.isfinite(logqpow[pos]):
            continue
        start = max(mm, law.support_min())
        stop = top
        acc = 0.0
        n = start
        chunk = 256
        while True:
            end = n + chunk if stop is None else min(n + chunk, stop + 1)
            if end <= n:
                break
            ns = np.arange(n, end, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lw = (special.gammaln(ns + 1.0) - special.gammaln(ns - mm + 1.0)
                      - logfact[pos] + logqpow[pos]
                      + np.where(ns - mm > 0, (ns - mm) * log_leave, 0.0))
            terms = law.pmf(ns.astype(np.int64)) * np.exp(lw)
            acc += float(terms.sum())
            n = end
            if stop is not None and n > stop:
                break
            last = float(terms[-1])
            if last < _SERIES_CUTOFF * max(acc, 1e-300) and terms[-1] <= terms[0]:
                # geometric-style bound on the rest of the series
                ratio = float(terms[-1] / terms[0]) ** (1.0 / max(len(terms) - 1, 1))
                tail_bound = max(tail_bound,
                                 last * ratio / max(1.0 - ratio, 1e-6))
                break
            if n - start > _SERIES_MAX_TERMS:
                tail_bound = max(tail_bound, last)
                break
        out[pos] = acc
    return out, tail_bound


# -- finite tables and independent marginals ------------------------------------


def _multinomial_lattice_values(count, row, idx):
    """Placement law of ``count`` iid categorical customers on the simplex."""
    J = idx.J
    values = np.zeros(len(idx))
    if count == 0:
        values[idx.position[(0,) * J]] = 1.0
        return values
    qvec = row[:J]
    exit_p = row[J]
    m = idx.array.sum(axis=1)
    logqpow = _log_power_term(qvec, idx.array)
    logfact = special.gammaln(idx.array + 1.0).sum(axis=1)
    log_exit = math.log(exit_p) if exit_p > 0 else -math.inf
    with np.errstate(invalid="ignore"):
        lw = (special.gammaln(count + 1.0) - special.gammaln(count - m + 1.0)
              - logfact + logqpow
              + np.where(count - m > 0, (count - m) * log_exit, 0.0))
        vals = np.where(m <= count, np.exp(lw), 0.0)
    return np.where(np.isfinite(vals), vals, 0.0)


def _finite_table_lattice(snap, idx):
    values = np.zeros(len(idx))
    for vec, p in zip(snap.batch.vectors, snap.batch.probs):
        part = None
        for j, count in enumerate(vec):
            contrib = _multinomial_lattice_values(int(count), snap.rows[j], idx)
            part = contrib if part is None else idx.convolve(part, contrib)
        values += p * part
    return values


def _independent_lattice(snap, idx):
    values = None
    tail = 0.0
    for j, law in enumerate(snap.batch.laws):
        if law.support_max() == 0:
            # no customer ever enters queue j: its factor is the unit
            continue
        qvec = snap.rows[j, : snap.J]
        if law.family in _CLOSED_FORM_FAMILIES:
            contrib = _iid_closed_values(law, qvec, idx.array)
        else:
            contrib, t = _iid_series_values(law, qvec, idx.array)
            tail += t
        values = contrib if values is None else idx.convolve(values, contrib)
    if values is None:
        values = np.zeros(len(idx))
        values[0] = 1.0
    return values, tail
