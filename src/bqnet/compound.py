"""The displacement law of one batch a time t after it arrived.

Conditional on entering node j, each customer sits in node k with
probability q^j_k(t) and has left with probability 1 - Q_j(t), so the PGF
of the batch displacement C(t) is the batch PGF G_S evaluated at
1 + sum_k (z_k - 1) q^j_k(t) (:func:`compound_pgf`).

Its PMF comes from one formula. Place N customers independently by one
row q = (q_1, ..., q_J), where N is a univariate batch size with PGF G_N.
The displacement PGF is G_N(1 - qbar + sum_k q_k z_k), qbar = sum_k q_k,
and Taylor's theorem at z = 0 gives its coefficients

    P(C = i) = q^i / i! * G_N^(m)(1 - qbar),    m = |i|

(multinomial compounding; Johnson, Kotz & Balakrishnan 1997, *Discrete
Multivariate Distributions*). :func:`_placement` evaluates this in log
space at every position of the simplex. Only the vector of
log G_N^(m)(1 - qbar), m = 0..cap, depends on the family of N:

* the Poisson, binomial, negative-binomial, logarithmic and degenerate
  PGFs are differentiated in closed form;
* for every other family, G_N^(m)(s) = sum_{n >= m} P(N = n) n!/(n - m)!
  s^(n - m) is summed once per degree m until its terms drop below a
  relative cutoff; a geometric bound on the rest is the tail bound.

Every batch variant is built from such placements:

* iid assignment: the batch size placed by the mixed row sum_j p_j q^j(t);
* independent marginals: the convolution over queues of S_j placed by
  q^j(t);
* finite tables: the mixture over table vectors s of the convolution over
  queues of the degenerate size s_j placed by q^j(t);
* constant batches: the finite table with one vector.

:func:`poisson_multinomial_pmf` computes the constant-batch law another
way, by inverting its characteristic function with a DFT.
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
_SERIES_CHUNK = 256

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
    (values, idx), _ = compound_lattice(snap, int(i.sum()))
    return float(values[idx.position[tuple(i.tolist())]])


def compound_lattice(snap: CompoundSnapshot, cap):
    """P(C(t) = i) for every i with sum(i) <= cap.

    Returns ``((values, index), tail_bound)`` where ``values`` aligns with
    ``index`` (a :class:`SimplexIndex`) and ``tail_bound`` bounds what the
    truncated series left out (0 when none ran).
    """
    b = snap.batch
    idx = simplex_index(snap.J, cap)
    if b.variant == batchmod.IID_ASSIGNMENT:
        values, tail = _placement(b.law, snap.mixed_row, idx)
    elif b.variant == batchmod.INDEPENDENT:
        # a marginal whose support is {0} places the unit of convolution
        placed = [_placement(law, row, idx)
                  for law, row in zip(b.laws, snap.rows) if law.support_max() != 0]
        values = _convolve_all(idx, [v for v, _ in placed])
        tail = sum((t for _, t in placed), 0.0)
    else:
        if b.variant == batchmod.CONSTANT:
            table = [(b.vector, 1.0)]
        else:
            table = zip(b.vectors, b.probs)
        values, tail = 0.0, 0.0
        for vec, p in table:
            values = values + p * _convolve_all(idx, [
                _placement(batchmod.UnivariateLaw.degenerate(int(n)), row, idx)[0]
                for n, row in zip(vec, snap.rows) if n > 0])
    return (values, idx), tail


def _convolve_all(idx, lattices):
    """Truncated convolution of the lattices in order; the unit for none."""
    if not lattices:
        unit = np.zeros(len(idx))
        unit[0] = 1.0
        return unit
    out = lattices[0]
    for other in lattices[1:]:
        out = idx.convolve(out, other)
    return out


# -- one placement -----------------------------------------------------------------


def _placement(law, row, idx):
    """Law on ``idx`` of N ~ ``law`` customers placed iid by ``row``.

    ``row`` is (q_1, ..., q_J[, exit]); the exit column is not read. Returns
    ``(values, tail_bound)`` with values exp(log q^i - log i! +
    log G^(|i|)(1 - qbar)), exactly 0 where some q_k = 0 < i_k.
    """
    q = np.asarray(row[: idx.J], dtype=float)
    # log(q^i / i!) with 0 * log 0 = 0; -inf marks an impossible position
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(idx.array > 0, idx.array * np.log(q), 0.0)
    log_weight = log_power.sum(axis=1) - idx.log_factorial
    qbar = float(q.sum())
    if law.family in _CLOSED_FORM_FAMILIES:
        log_g, tail = _closed_log_derivatives(law, qbar, idx.cap), 0.0
    else:
        # each degree's series is scaled by its largest log(q^i / i!)
        offset = np.maximum.reduceat(log_weight, idx.degree_start[:-1])
        log_g, tail = _series_log_derivatives(law, qbar, offset)
    degree = np.repeat(np.arange(idx.cap + 1), np.diff(idx.degree_start))
    with np.errstate(invalid="ignore"):
        values = np.exp(log_weight + log_g[degree])
    return np.where(np.isneginf(log_weight), 0.0, values), tail


def _closed_log_derivatives(law, qbar, cap):
    """log G^(m)(1 - qbar) for m = 0..cap, for the closed-form families."""
    m = np.arange(cap + 1.0)
    fam = law.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam == batchmod.POISSON:
            # G(s) = exp(mu (s - 1))
            return special.xlogy(m, law.mu) - law.mu * qbar
        if fam == batchmod.NEG_BINOMIAL:
            # G(s) = (1 + nu (1 - s))^-r
            r, nu = law.shape, law.scale
            return (special.gammaln(r + m) - special.gammaln(r) + m * math.log(nu)
                    - (r + m) * math.log1p(nu * qbar))
        if fam == batchmod.LOGARITHMIC:
            # G(s) = log(1 - rho s) / log(1 - rho)
            rho = law.rho
            base = 1.0 - rho * (1.0 - qbar)
            out = (special.gammaln(m) + m * math.log(rho) - m * math.log(base)
                   - math.log(-math.log1p(-rho)))
            out[0] = np.log(math.log(base) / math.log1p(-rho))
            return out
        # G(s) = (1 - alpha + alpha s)^count; degenerate is alpha = 1
        if fam == batchmod.BINOMIAL:
            count, alpha = law.count, law.prob
        elif fam == batchmod.DEGENERATE:
            count, alpha = law.value, 1.0
        else:
            raise DomainError(f"no closed form for family {fam}")
        stay = max(1.0 - alpha * qbar, 0.0)
        out = (special.gammaln(count + 1.0) - special.gammaln(count - m + 1.0)
               + special.xlogy(m, alpha) + special.xlogy(count - m, stay))
        return np.where(m <= count, out, -np.inf)


def _series_log_derivatives(law, qbar, offset):
    """log G^(m)(1 - qbar) for m = 0..cap by truncated series, and a tail bound.

    The degree-m series is scaled by ``offset[m]``, that degree's largest
    log(q^i / i!), so its terms are those of P(C = i) at the degree's
    largest position: the cutoff is relative and the tail bound is that
    position's. Degrees with no possible position are skipped.
    """
    leave = 1.0 - qbar
    log_leave = math.log(leave) if leave > 0 else -math.inf
    out = np.full(offset.size, -np.inf)
    with np.errstate(divide="ignore"):
        out[0] = np.log(1.0 - law.pgf_gap(qbar))
    tail_bound = 0.0
    top = law.support_max()
    for m in range(1, offset.size):
        if not math.isfinite(offset[m]):
            continue
        start = n = max(m, law.support_min())
        acc = 0.0
        while True:
            end = n + _SERIES_CHUNK if top is None else min(n + _SERIES_CHUNK, top + 1)
            if end <= n:
                break
            ns = np.arange(n, end, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lw = (special.gammaln(ns + 1.0) - special.gammaln(ns - m + 1.0)
                      + offset[m] + np.where(ns - m > 0, (ns - m) * log_leave, 0.0))
            terms = law.pmf(ns.astype(np.int64)) * np.exp(lw)
            acc += float(terms.sum())
            n = end
            if top is not None and n > top:
                break
            last = float(terms[-1])
            if last < _SERIES_CUTOFF * max(acc, 1e-300) and terms[-1] <= terms[0]:
                # geometric-style bound on the rest of the series; a first
                # term of 0 is (1 - qbar)^(n - m) = 0, and so is the rest
                if terms[0] > 0:
                    ratio = float(terms[-1] / terms[0]) ** (1.0 / max(len(terms) - 1, 1))
                    tail_bound = max(tail_bound, last * ratio / max(1.0 - ratio, 1e-6))
                break
            if n - start > _SERIES_MAX_TERMS:
                tail_bound = max(tail_bound, last)
                break
        with np.errstate(divide="ignore"):
            out[m] = np.log(acc) - offset[m]
    return out, tail_bound


# -- Poisson multinomial by DFT -----------------------------------------------------


def poisson_multinomial_pmf(rows, budget=POISSON_MULTINOMIAL_BUDGET):
    """Exact law of a sum of independent categorical vectors.

    ``rows`` is an (m, J+1) array: one probability vector per customer
    over the J queues plus an exit category. The characteristic function
    is evaluated on the (m+1)^J frequency lattice and inverted with a
    multidimensional DFT; negative roundoff above -1e-10 is clamped.
    """
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
    idx = simplex_index(J, m)
    values = box[tuple(idx.array.T)]
    total = float(values.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError(f"DFT masses sum to {total}, not 1")
    return LatticePMF(J, m, values, tail_mass=0.0,
                      meta={"_index": idx, "clamped_entries": clamped})
