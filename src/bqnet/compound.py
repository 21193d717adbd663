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
space at every position of the simplex, for a stack of rows at once (one
row per quadrature node). Only the log G_N^(m)(1 - qbar), m = 0..cap, one
row of them per node, depend on the family of N:

* the Poisson, binomial, negative-binomial and logarithmic PGFs are
  differentiated in closed form, and a finite table's
  G_N^(m)(s) = sum_{n >= m} P(N = n) n!/(n - m)! s^(n - m) is summed
  exactly over its support;
* for the infinite supports (geometric, zeta, log-weighted tail), that
  sum is taken in chunks of terms until they drop below a
  relative cutoff; a geometric bound on the rest is the tail bound. A
  chunk's terms factor into P(N = n) n!/(n - m)!, a Hankel-like table of
  degree by term shared by every node, times s^kappa for the term's place
  kappa in the chunk, one row per node: one round of chunks, every degree
  at once, is one matrix product per node
  (:func:`_series_log_derivatives`). Each node stops each degree at its
  own cutoff.

Every batch variant is built from such placements:

* iid assignment: the batch size placed by the mixed row sum_j p_j q^j(t);
* independent marginals: the convolution over queues of S_j placed by
  q^j(t);
* finite tables: the mixture over table vectors s of the convolution over
  queues of the one-point size s_j placed by q^j(t);
* constant batches: the finite table with one vector.

:func:`lattice_stack` is the one lattice routine. It takes the placement
rows of m nodes, an (m, J, J) array of q, and returns the (m, |index|)
lattices and the m series tail bounds; convolutions run on node stacks
through the simplex pair table. Nodes go in chunks under the fixed
``LATTICE_BUDGET`` of working memory, and no node's values depend on the
chunk it lands in, save for rounding where a finite table is too long to
sum in one block of points. :class:`CompoundSnapshot` is the single-time
view: :func:`compound_lattice`, :func:`compound_pmf` and
:func:`compound_pgf` read one elapsed time's rows, and the lattice is the
stack of one.

:func:`poisson_multinomial_pmf` computes the constant-batch law another
way, by inverting its characteristic function with a DFT.
"""

from __future__ import annotations

import math

import numpy as np

from . import batch as batchmod
from .errors import DomainError, ResourceBudgetError, ValidationError
from .logmath import log_factorial, xlogy
from .tables import MASS_TOL, LatticePMF, coordinate_sum, simplex_index, simplex_rank

ROW_TOL = 1e-12
NEGATIVE_CLAMP = 1e-10
POISSON_MULTINOMIAL_BUDGET = 1 << 26
_SERIES_CUTOFF = 1e-18
_SERIES_MAX_TERMS = 1_000_000
_SERIES_CHUNK = 256
# Bytes of working arrays per chunk of nodes in lattice_stack (and per
# block of a finite table's points), and the bytes each node needs per
# working cell: one pair-table row of a convolution (two gathers and their
# product), one term of a table, or J per position of a placement. A
# placement's sums run one coordinate slice at a time and hold fewer cells
# than that, but the count fixes how many nodes share a chunk, and with it
# how a long finite table's points are blocked and summed, so it stays.
LATTICE_BUDGET = 1 << 22
_BYTES_PER_CELL = 24

_CLOSED_FORM_FAMILIES = (batchmod.BINOMIAL, batchmod.POISSON,
                         batchmod.NEG_BINOMIAL, batchmod.LOGARITHMIC, batchmod.FINITE)


class CompoundSnapshot:
    """Batch law + kernel rows frozen at one elapsed time."""

    def __init__(self, batch, kernel, t):
        if t < 0:
            raise ValidationError("elapsed time must be >= 0")
        if batch.J != kernel.J:
            raise ValidationError("batch dimension does not match the kernel")
        rows = checked_rows(kernel.placement_rows(t))
        self.batch = batch
        self.kernel = kernel
        self.t = float(t)
        self.rows = rows
        self.J = batch.J


def checked_rows(rows):
    """Placement rows q, (..., J, J), as floats clipped to [0, 1].

    Raises :class:`ValidationError` unless the last two axes are equal,
    every entry is >= -``ROW_TOL`` and every row sums to at most
    1 + ``ROW_TOL``: the exit probability 1 - sum_k q_k it implies is a
    probability to within ``ROW_TOL``.
    """
    rows = np.array(rows, dtype=float)
    J = rows.shape[-1]
    if (J != rows.shape[-2] or np.any(rows < -ROW_TOL)
            or np.any(coordinate_sum(lambda k: rows[..., k], J) > 1.0 + ROW_TOL)):
        raise ValidationError("kernel placement rows are not (J, J) substochastic rows")
    return np.clip(rows, 0.0, 1.0)


def compound_pgf(snap: CompoundSnapshot, z):
    """E[prod z_k^{C_k(t)}] = G_S(1 + sum_k (z_k - 1) q^j_k(t), ...)."""
    z = batchmod.check_pgf_argument(z, snap.J)
    eps = snap.rows @ (1.0 - z)
    return 1.0 - snap.batch.pgf_gap(eps)


def compound_pmf(snap: CompoundSnapshot, i):
    """P(C(t) = i) for a nonnegative integer vector i."""
    i = batchmod.check_occupancy_vector(i, snap.J)
    (values, _), _ = compound_lattice(snap, int(i.sum()))
    return float(values[simplex_rank(i[None])[0]])


def compound_lattice(snap: CompoundSnapshot, cap):
    """P(C(t) = i) for every i with sum(i) <= cap: :func:`lattice_stack`
    for a stack of one node.

    Returns ``((values, index), tail_bound)`` where ``values`` aligns with
    ``index`` (a :class:`SimplexIndex`) and ``tail_bound`` bounds what the
    truncated series left out (0 when none ran).
    """
    idx = simplex_index(snap.J, cap)
    values, tails = lattice_stack(snap.batch, snap.rows[None], idx)
    return (values[0], idx), float(tails[0])


def lattice_stack(batch, rows, idx, out=None):
    """Displacement laws on ``idx`` for a stack of placement-row matrices.

    ``rows`` is an (m, J, J) array of checked rows (:func:`checked_rows`),
    one matrix per node. Returns ``(values, tails)``: ``values[k]`` is
    P(C = i) at every position i of ``idx`` when the rows are ``rows[k]``,
    written into ``out`` when given, and ``tails[k]`` bounds what node k's
    truncated series left out. Nodes are taken in chunks whose working
    arrays stay under ``LATTICE_BUDGET`` bytes.

    Every sum over the J coordinates, of a row (qbar) or of the log
    weights, adds J slices, one per coordinate
    (:func:`bqnet.tables.coordinate_sum`): NumPy reduces a length-J last
    axis about 13x slower, and the slices give the same bits. A mixture
    of weight 1, as every iid or independent batch and a one-vector table
    is, goes to ``values`` as it is, not as 0.0 + 1.0 * its lattice.
    """
    m = rows.shape[0]
    if batch.variant == batchmod.IID_ASSIGNMENT:
        # one placement by q_k = sum_j p_j q^j_k, the per-customer row
        rows = (batch.entry_probs @ rows)[:, None]
        mixtures = [(1.0, [(batch.law, 0)])]
    elif batch.variant == batchmod.INDEPENDENT:
        # a marginal whose support is {0} places the unit of convolution
        mixtures = [(1.0, [(law, j) for j, law in enumerate(batch.laws)
                           if law.support_max() != 0])]
    else:
        mixtures = [(p, [(batchmod.UnivariateLaw.degenerate(int(n)), j)
                         for j, n in enumerate(vec) if n > 0])
                    for vec, p in zip(batch.vectors, batch.probs)]
    step = _nodes_per_chunk(len(idx) * idx.J)
    values = np.empty((m, len(idx))) if out is None else out
    tails = np.zeros(m)
    for lo in range(0, m, step):
        chunk = rows[lo:lo + step]
        mixed = None
        for p, parts in mixtures:
            placed = [_placement(law, chunk[:, j], idx) for law, j in parts]
            term = _convolve_all(idx, [v for v, _ in placed], len(chunk))
            # probabilities are never -0.0, so 0.0 + 1.0 * term is term
            term = term if p == 1.0 else p * term
            mixed = term if mixed is None else mixed + term
            for _, tail in placed:
                tails[lo:lo + step] += tail
        values[lo:lo + step] = mixed
    return values, tails


def _nodes_per_chunk(cells):
    """Nodes per chunk when each node needs ``cells`` working cells."""
    return max(1, LATTICE_BUDGET // (_BYTES_PER_CELL * cells))


def _convolve_all(idx, stacks, m):
    """Truncated convolution of the node stacks in order; the unit for none.

    Each convolution gathers the whole pair table per node, so it runs in
    chunks of its own.
    """
    if not stacks:
        unit = np.zeros((m, len(idx)))
        unit[:, 0] = 1.0
        return unit
    if len(stacks) == 1:
        return stacks[0]   # without building the pair table
    out = np.empty_like(stacks[0])
    step = _nodes_per_chunk(len(idx.pairs))
    for lo in range(0, m, step):
        part = stacks[0][lo:lo + step]
        for other in stacks[1:]:
            part = idx.convolve(part, other[lo:lo + step])
        out[lo:lo + step] = part
    return out


# -- placements --------------------------------------------------------------------


def _placement(law, q, idx):
    """Law on ``idx`` of N ~ ``law`` customers placed iid by each row of ``q``.

    ``q`` is an (m, J) stack of rows (q_1, ..., q_J). Returns ``(values,
    tails)``, values (m, |idx|) with exp(log q^i - log i! + log G^(|i|)(1 -
    qbar)), exactly 0 where some q_k = 0 < i_k, and tails (m,) the series
    tail bounds.

    Both sums over the J coordinates, the log weights (:func:`_log_weight`)
    and qbar, add J slices, one per coordinate, in NumPy's own order:
    about 13x faster than a reduction over a length-J last axis, and
    bit-identical to it.
    """
    log_weight = _log_weight(q, idx)
    qbar = coordinate_sum(lambda k: q[:, k], idx.J)
    if law.family in _CLOSED_FORM_FAMILIES:
        log_g, tails = _closed_log_derivatives(law, qbar, idx.cap), np.zeros(len(q))
    else:
        # each degree's series is scaled by its largest log(q^i / i!)
        offset = np.maximum.reduceat(log_weight, idx.degree_start[:-1], axis=1)
        log_g, tails = _series_log_derivatives(law, qbar, offset)
    degree = np.repeat(np.arange(idx.cap + 1), np.diff(idx.degree_start))
    with np.errstate(invalid="ignore"):
        values = np.exp(log_weight + log_g[:, degree])
    return np.where(np.isneginf(log_weight), 0.0, values), tails


def _log_weight(q, idx):
    """log(q^i / i!) at every position i of ``idx`` for each row of the
    (m, J) stack ``q``, as (m, |idx|), with 0 log 0 = 0 and -inf at an
    impossible position.

    The sum over coordinates adds J (m, |idx|) slices where(i_k > 0,
    i_k log q_k, 0), one per row of ``idx.columns``, in NumPy's order
    (:func:`bqnet.tables.coordinate_sum`): the same bits as reducing an
    (m, |idx|, J) array over its last axis, about 13x faster. Each node's
    sum runs alone, so a node's values do not depend on the other nodes of
    its chunk.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        return coordinate_sum(
            lambda k: np.where(idx.columns[k] > 0, idx.columns[k] * log_q[:, k, None], 0.0),
            idx.J) - idx.log_factorial


def _closed_log_derivatives(law, qbar, cap):
    """log G^(m)(1 - qbar) as an (nodes, cap+1) array, for the closed-form
    families and finite tables; ``qbar`` holds one value per node. A finite
    table's is the exact sum over its points with P(N = n) > 0, taken by
    log-sum-exp in blocks of points whose (nodes, cap+1, points) arrays
    stay under ``LATTICE_BUDGET``."""
    m = np.arange(cap + 1.0)
    qbar = qbar[:, None]
    fam = law.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam == batchmod.POISSON:
            # G(s) = exp(mu (s - 1))
            return xlogy(m, law.mu) - law.mu * qbar
        if fam == batchmod.NEG_BINOMIAL:
            # G(s) = (1 + nu (1 - s))^-r
            r, nu = law.shape, law.scale
            log_rising = np.array([math.lgamma(v) for v in (r + m).tolist()]) - math.lgamma(r)
            return log_rising + m * math.log(nu) - (r + m) * np.log1p(nu * qbar)
        if fam == batchmod.LOGARITHMIC:
            # G(s) = log(1 - rho s) / log(1 - rho)
            rho = law.rho
            # a checked row may sum to 1 + ROW_TOL; its exit mass is 0, not
            # negative, or G(1 - qbar) would be the log of a negative number
            log_base = np.log(1.0 - rho * (1.0 - np.minimum(qbar, 1.0)))
            out = (log_factorial(m - 1.0) + m * math.log(rho) - m * log_base
                   - math.log(-math.log1p(-rho)))
            out[:, :1] = np.log(log_base / math.log1p(-rho))
            return out
        # sum_n p_n n!/(n - m)! alpha^m stay^(n - m) with stay = 1 - alpha qbar:
        # a table has alpha = 1, the binomial is one point. log n!/(n - m)!
        # is summed term by term and the stay taken by log1p: both
        # differences of nearby numbers would cancel the digits a large n needs
        if fam == batchmod.BINOMIAL:
            points, log_p, alpha = np.array([float(law.count)]), np.zeros(1), law.prob
        else:
            keep = law.probs > 0
            points, log_p, alpha = law.support[keep].astype(float), np.log(law.probs[keep]), 1.0
        log_stay = np.log1p(-np.minimum(alpha * qbar, 1.0))
        # the sum so far is exp(peak) * part, as in the series
        peak = np.full((len(qbar), cap + 1), -np.inf)
        part = np.zeros(peak.shape)
        step = _nodes_per_chunk(peak.size)
        for lo in range(0, points.size, step):
            # (degree, point) arrays, (node, degree, point) terms
            gap = points[lo:lo + step] - m[:, None]
            falling = np.log(np.maximum(gap + 1.0, 1.0))
            falling[0] = 0.0
            base = np.cumsum(falling, axis=0) + xlogy(m, alpha)[:, None] + log_p[lo:lo + step]
            terms = (np.where(gap >= 0, base, -np.inf)
                     + np.where(gap > 0, gap * log_stay[:, :, None], 0.0))
            new_peak = np.maximum(peak, terms.max(axis=2))
            ref = np.where(np.isfinite(new_peak), new_peak, 0.0)
            part = part * np.exp(peak - ref) + np.exp(terms - ref[:, :, None]).sum(axis=2)
            peak = new_peak
        return ref + np.log(part)


def _series_log_derivatives(law, qbar, offset):
    """log G^(m)(1 - qbar) for m = 0..cap by truncated series, for a law of
    infinite support, and tail bounds.

    ``qbar`` holds one value per node and ``offset`` is (nodes, cap+1).
    Node k's degree-m series is scaled by ``offset[k, m]``, that degree's
    largest log(q^i / i!), so its terms are those of P(C = i) at the
    degree's largest position: the cutoff is relative and the tail bound
    is that position's. Degree m's terms n = s_m, s_m + 1, ...,
    s_m = max(m, support_min), are summed in chunks of ``_SERIES_CHUNK``;
    each node stops a degree at its own cutoff, and degrees with no
    possible position are skipped. Returns the (nodes, cap+1) logs and
    the (nodes,) tail bounds.

    The chunks are taken in rounds, every degree's chunk j in round j,
    and a round is one matrix product per node. With L = 1 - qbar and
    n = s_m + 256 j + kappa, kappa = 0..255, a term of degree m factors as

        H[m, kappa] * L^kappa * exp(offset + (s_m - m + 256 j) log L),
        H[m, kappa] = P(N = n) n!/(n - m)!

    H is the same for every node; where s_m = m its P(N = n) factor
    depends on m + kappa alone, a Hankel table. Each row of H is divided
    by its largest entry, so a degree whose terms span hundreds of orders
    of magnitude across the chunk neither overflows nor underflows; the
    scale goes into the last factor, one log per node and degree. L^kappa is one row per node,
    exactly 1 at kappa = 0 (also when L = 0). A round's chunk sums are then
    a (1, 256) @ (256, degrees) product per node, not one product over the
    node stack: its shape depends on no other node, so neither do a node's
    values. Each degree's sum is kept as a log peak times a partial sum,
    so neither a huge G^(m) nor a tiny P(C = i) leaves the float range.
    The chunk boundaries, cutoff, stops and tail bound are those of a
    degree-by-degree loop.
    """
    nodes, degrees = offset.shape
    with np.errstate(divide="ignore"):
        log_leave = np.log(np.maximum(1.0 - qbar, 0.0))
        out = np.full(offset.shape, -np.inf)
        # G(1 - qbar) at qbar = 1 + ROW_TOL would be the log of a negative number
        out[:, 0] = np.log(1.0 - law.pgf_gap(np.minimum(qbar, 1.0)))
    tails = np.zeros(nodes)
    # the series run for degrees m = 1..cap
    m = np.arange(1, degrees)
    offset = offset[:, 1:]
    start = np.maximum(m, law.support_min())
    kappa = np.arange(_SERIES_CHUNK)
    live = np.isfinite(offset)
    # degree m's series so far is exp(peak) * part, peak the log of its
    # largest chunk: the result is peak + log(part), with no offset added
    # and taken away
    peak = np.full(offset.shape, -np.inf)
    part = np.zeros(offset.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.exp(kappa * log_leave[:, None])
        powers[:, 0] = 1.0
        for j in range(_SERIES_MAX_TERMS // _SERIES_CHUNK + 1):
            rows = np.flatnonzero(live.any(axis=1))
            if not rows.size:
                break
            first_n = start + _SERIES_CHUNK * j
            n = first_n[:, None] + kappa
            # the round's n and n - m lie in lo..hi - 1, at most cap + 256
            # wide wherever the support starts
            lo, hi = int((first_n - m).min()), int(n[-1, -1]) + 1
            log_p = np.log(law.pmf(np.arange(lo, hi)))
            log_f = log_factorial(np.arange(lo, hi))
            log_h = log_p[n - lo] + (log_f[n - lo] - log_f[n - lo - m[:, None]])
            scale = log_h.max(axis=1)
            scale[~np.isfinite(scale)] = 0.0
            log_h -= scale[:, None]
            sums = (powers[rows, None, :] @ np.exp(log_h).T)[:, 0]
            leave = log_leave[rows, None]
            shift = first_n - m
            # the log of the chunk's common factor, in the units of G^(m)
            g_unit = scale + np.where(shift > 0, shift * leave, 0.0)
            here = live[rows]
            chunk = np.where(here, g_unit + np.log(sums), -np.inf)
            new_peak = np.maximum(peak[rows], chunk)
            ref = np.where(np.isfinite(new_peak), new_peak, 0.0)
            part[rows] = part[rows] * np.exp(peak[rows] - ref) + np.exp(chunk - ref)
            peak[rows] = new_peak
            # the cutoff and the tail bound are in the units of P(C = i)
            acc = np.exp(offset[rows] + ref + np.log(part[rows]))
            term_unit = g_unit + offset[rows]
            first = np.exp(term_unit + log_h[:, 0])
            last = np.exp(term_unit + log_h[:, -1] + (_SERIES_CHUNK - 1) * leave)
            done = here & (last < _SERIES_CUTOFF * np.maximum(acc, 1e-300))
            done &= last <= first
            # geometric-style bound on the rest of each finished series; a
            # first term of 0 is (1 - qbar)^(n - m) = 0, and so is the rest
            bounded = done & (first > 0)
            ratio = np.where(bounded, last / first, 0.0) ** (1.0 / (_SERIES_CHUNK - 1))
            bound = np.where(bounded, last * ratio / np.maximum(1.0 - ratio, 1e-6), 0.0)
            here &= ~done
            if _SERIES_CHUNK * (j + 1) > _SERIES_MAX_TERMS:
                bound = np.maximum(bound, np.where(here, last, 0.0))
            tails[rows] = np.maximum(tails[rows], bound.max(axis=1))
            live[rows] = here
        out[:, 1:] = np.where(np.isfinite(offset), peak + np.log(part), -np.inf)
    return out, tails


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
                      meta={"clamped_entries": clamped})
