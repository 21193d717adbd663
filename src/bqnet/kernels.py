"""Occupancy kernels: where is a customer a time t after entering node j?

The kernel q^j_k(t) is the probability that a customer who entered the
network at node j sits in node k a time t later; its row sum Q_j(t) is
the probability the customer is still anywhere in the network. Every
analytic formula in this package consumes kernels through one contract:

    placement_rows_many(ts) -> (len(ts), J, J) array, one matrix per time
    whose row j is (q^j_1 ... q^j_J)

and ``placement_rows(t)``, the stack of one, ``placement_rows_many([t])[0]``.
A customer's exit probability 1 - Q_j(t) is implied by the row, not stored.
Every time must be finite and >= 0; any other raises KernelDomainError.
Three interchangeable constructions are provided: uniformization of the
customer-path CTMC without an exit state, squared past a time limit
(all-exponential networks), a Markov-renewal grid solver (general service
laws), and tabulated values loaded from CSV. The two grid kernels store q
at every knot and the slope of every cell, so a time costs one gather and
one multiply-add; rows and slopes take twice the memory of the (M, J, J)
table.
Kernels are immutable after construction and safe to evaluate
concurrently; the uniformization kernel's cache of jump-matrix powers
only ever grows, and a renewal grid only ever extends, its times, rows
and slopes swapped in together by one assignment.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (KernelDomainError, RefinementRequiredError,
                     UnsupportedRepresentationError, ValidationError)
from .logmath import log_factorial_table, xlogy
from .service import (EXPONENTIAL, generator, routing_matrix, validate_nodes,
                      zero_time_loop)

POISSON_TAIL = 1e-12
# Beyond this uniformization rate * t, the Poisson series is longer than
# squaring is worth: a time is halved into it, then squared back.
UNIFORMIZATION_MAX_A = 1e4
# Bytes for the cached jump-matrix powers and for each weighted sum over them.
UNIFORMIZATION_BUDGET = 1 << 23
MAX_GRID_POINTS = 1 << 22
# Leaf blocks of the renewal solve hold at most this many unknown rows (B J)
LEAF_ROWS = 128
_SINGULAR_LOOP = "instantaneous routing loop makes the renewal system singular"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, end] with an odd node count (Simpson-friendly)."""

    end: float
    nodes: int

    def __post_init__(self):
        end, nodes = np.asarray(self.end), np.asarray(self.nodes)
        if not (end.dtype.kind in "iuf" and end.ndim == 0 and np.isfinite(end) and end > 0):
            raise ValidationError("grid end must be a finite number > 0")
        if not (nodes.dtype.kind in "iuf" and nodes.ndim == 0 and float(nodes).is_integer()
                and nodes >= 3 and nodes % 2 == 1):
            raise ValidationError("grid node count must be an odd integer >= 3")
        object.__setattr__(self, "end", float(end))
        object.__setattr__(self, "nodes", int(nodes))

    @property
    def spacing(self):
        return self.end / (self.nodes - 1)

    def times(self):
        return np.linspace(0.0, self.end, self.nodes)


class OccupancyKernel:
    """Shared evaluation contract over the three representations.

    ``analytic_in_time`` says whether the rows are analytic functions of
    t, so that a time integral of them may use a high-order rule.
    ``placement_rows_many`` is the one entry point: it checks the times,
    lets ``_cover`` make the representation reach the largest, and hands
    them to the subclass's ``_rows_at``.
    """

    representation = "abstract"
    analytic_in_time = False

    def __init__(self, J):
        self.J = J

    def placement_rows(self, t):
        """Placement rows at one time, shape (J, J)."""
        return self.placement_rows_many([t])[0]

    def placement_rows_many(self, ts):
        """Stack of placement rows, shape (len(ts), J, J).

        Every time must be finite and >= 0, else :class:`KernelDomainError`.
        """
        ts = np.asarray(ts, dtype=float).ravel()
        if ts.size:
            lo, hi = float(np.minimum.reduce(ts)), float(np.maximum.reduce(ts))
            # each comparison asks for the values it accepts, so NaN fails it
            if not (lo >= 0.0 and hi < math.inf):
                raise KernelDomainError(f"kernel evaluated at time {hi if lo >= 0.0 else lo}; "
                                        "times must be finite and >= 0")
            self._cover(hi)
        return self._rows_at(ts)

    def _cover(self, t):
        """Make the representation reach ``t`` or raise :class:`KernelDomainError`."""

    def _rows_at(self, ts):
        """Placement rows at the checked, covered times ``ts`` (a 1-D array)."""
        raise NotImplementedError

    def survival_vectors(self, ts):
        """Q_j(t) = sum_k q^j_k(t), clamped to [0, 1], shape (len(ts), J).

        Summing q (rather than complementing an exit probability) keeps the
        truncation error one-sided, so Q decays cleanly to zero at large t.
        """
        return np.clip(self.placement_rows_many(ts).sum(axis=2), 0.0, 1.0)


class MarkovKernel(OccupancyKernel):
    """Customer-path CTMC kernel computed by uniformization.

    Exit is absorbing, so q(t) = exp(t G) for the J x J sub-generator G
    (:func:`bqnet.service.generator`); the chain has no exit state. With
    uniformization rate r and jump matrix P = I + G / r, q(t) is the
    Poisson series sum_n Pois(n; r t) P^n, cut where its tail is below
    ``POISSON_TAIL`` and renormalised (:func:`_poisson_head`); the times of
    one call share one series, cut for the largest. A call is one weighted
    sum over the cached powers P^n, reduced in order so that it is the
    term-by-term series bit for bit, in chunks of times under
    ``UNIFORMIZATION_BUDGET`` bytes. The series stops at r t =
    ``UNIFORMIZATION_MAX_A``, halved until its powers fit that budget but
    not below 1; a later time is scaled and squared on its own (Moler &
    Van Loan 2003, *SIAM Review* 45(1)): q(t) = q(t / 2^k)^(2^k) for the
    least k that brings t / 2^k within the limit.
    """

    representation = "markov-uniformization"
    # the rows are exp(t G) of the path chain's sub-generator
    analytic_in_time = True

    def __init__(self, nodes, J):
        super().__init__(J)
        validate_nodes(nodes, J)
        for idx, node in enumerate(nodes):
            if not node.is_absorbing and node.service.kind != EXPONENTIAL:
                raise UnsupportedRepresentationError(
                    f"nodes[{idx}] is {node.service.kind}; uniformization requires "
                    "exponential service at every non-absorbing node")
        self.nodes = list(nodes)
        self.generator = G = generator(nodes, J)
        self.uniformization_rate = r = float(np.max(-np.diag(G))) if J else 0.0
        self._jump_matrix = np.eye(J) + G / r if r > 0 else np.eye(J)
        self._powers = np.empty((0, J, J))
        a = UNIFORMIZATION_MAX_A
        while a > 1.0 and (_poisson_top(a) + 1) * J * J * 8 > UNIFORMIZATION_BUDGET:
            a = max(1.0, a / 2.0)
        self._series_limit = a

    def _rows_at(self, ts):
        r, limit = self.uniformization_rate, self._series_limit
        if r * float(np.maximum.reduce(ts, initial=0.0)) <= limit:
            return self._series(ts)
        near = r * ts <= limit
        out = np.empty((ts.size, self.J, self.J))
        out[near] = self._series(ts[near])
        for i in np.flatnonzero(~near):
            t, k = float(ts[i]), 0
            while r * t > limit:
                t, k = t / 2.0, k + 1
            q = self._series(np.array([t]))[0]
            out[i] = np.clip(np.linalg.matrix_power(q, 2 ** k), 0.0, 1.0)   # k squarings
        return out

    def _series(self, ts):
        """The series at the times ``ts``, all within the limit."""
        a = self.uniformization_rate * ts
        head = _poisson_head(float(np.maximum.reduce(a, initial=0.0)))
        n_max = len(head) - 1
        # one time's column is the head it truncated, renormalised
        weights = ((head / head.sum())[:, None] if ts.size == 1 else
                   _poisson_weights(a, n_max))
        powers = self._jump_powers(n_max)[:, None]
        step = max(1, UNIFORMIZATION_BUDGET // (powers.nbytes or 1))
        out = np.empty((ts.size, self.J, self.J))
        for lo in range(0, ts.size, step):
            out[lo:lo + step] = (weights[:, lo:lo + step, None, None] * powers).sum(axis=0)
        return np.clip(out, 0.0, 1.0, out=out)

    def _jump_powers(self, n):
        """P^0 .. P^n as an (n+1, J, J) array, extending the cache as needed."""
        powers = self._powers
        if len(powers) <= n:
            grown = np.empty((n + 1, self.J, self.J))
            grown[: len(powers)] = powers
            for k in range(len(powers), n + 1):
                grown[k] = grown[k - 1] @ self._jump_matrix if k else np.eye(self.J)
            grown.setflags(write=False)
            self._powers = powers = grown
        return powers[: n + 1]


def _poisson_top(a):
    """Past this n the Poisson(a) tail is below e^-50 (Bernstein's bound)."""
    return int(a + 10.0 * math.sqrt(a)) + 40


def _poisson_head(a):
    """Poisson(a) probabilities of n = 0 .. n_max, a >= 0, unnormalised.

    n_max is one past the truncation point, the least n whose tail
    P(N > n) <= ``POISSON_TAIL`` (Fox & Glynn 1988, *Comm. ACM* 31(4)).
    The probabilities are one ``exp`` over the log-factorial table up to
    :func:`_poisson_top`; the tails are their sums from the top.
    """
    if a == 0.0:
        return np.ones(1)
    top = _poisson_top(a)
    probs = np.exp(np.arange(top + 1.0) * math.log(a)
                   - log_factorial_table(top)[: top + 1] - a)
    # tails[k] = P(N >= top - k), ascending; the cut is top - #{tails <= q}
    tails = probs[::-1].cumsum()
    cut = top - int(tails.searchsorted(POISSON_TAIL, side="right"))
    return probs[: cut + 2]


def _poisson_weights(a, n_max):
    """Uniformization weights for the rates * times ``a``, (n_max + 1, len(a)).

    Column i is Poisson(a_i) over n = 0 .. n_max, renormalised to fold
    the tail back in.
    """
    a = np.asarray(a, dtype=float)
    weights = np.exp(xlogy(np.arange(n_max + 1.0)[:, None], a)
                     - log_factorial_table(n_max)[: n_max + 1, None] - a)
    return weights / weights.sum(axis=0)


class GridKernel(OccupancyKernel):
    """Kernel held on a time grid, linearly interpolated between knots.

    The grid is stored in the form it is read in, as ``_grid = (times,
    times[1:], rows, slopes)``: ``rows`` (M, J, J) is q at every knot, the
    table ``_table``, and ``slopes`` (M, J, J) the slope of each cell,
    (rows[i+1] - rows[i]) / (t_(i+1) - t_i), and 0 at the last knot, which
    starts no cell. A time t reads rows[i] + slopes[i] (t - t_i) for the
    last knot t_i <= t: one ``searchsorted`` over the cells' right ends
    ``times[1:]``, which gives i in [0, M-1] with no clip, one gather and
    one multiply-add. At every knot, the grid end included, that is the
    stored row bit for bit; an entry that is 0 at both ends of its cell
    stays exactly 0, and inside a cell no entry rounds below 0. Rows and
    slopes take twice the memory of the table.

    Subclasses hand the (M, J, J) knot rows to ``_store``, which swaps the
    whole tuple in by one assignment, so a concurrent reader sees one
    consistent grid; they decide, in ``_cover``, what happens to times
    beyond the grid end.
    """

    def _store(self, times, rows):
        """Take the slopes of the knot ``rows`` and swap the grid in."""
        slopes = np.empty_like(rows)
        np.subtract(rows[1:], rows[:-1], out=slopes[:-1])
        slopes[:-1] /= np.diff(times)[:, None, None]
        slopes[-1] = 0.0
        self._grid = (times, times[1:], rows, slopes)

    @property
    def _times(self):
        return self._grid[0]

    @property
    def _table(self):
        return self._grid[2]

    def _rows_at(self, ts):
        times, ends, rows, slopes = self._grid
        i = ends.searchsorted(ts, side="right")
        return rows[i] + slopes[i] * (ts - times[i])[:, None, None]


class RenewalKernel(GridKernel):
    """Grid solution of the Markov-renewal equations for general service.

    Trapezoidal Stieltjes convolution against each node's service CDF on
    a uniform grid; values between grid nodes are linearly interpolated.
    With dF_j[n] = F_j(t_n+1) - F_j(t_n), point i weighs the solved Q[s]
    by the lag weight c_j(i-s) = (dF_j[i-1-s] + dF_j[i-s]) / 2 and Q[0] by
    dF_j[i-1] / 2, and takes the Q[i] term, with any atom at 0, implicitly.

    The weights depend only on the lag, so a leaf of B consecutive points
    is one block lower-triangular Toeplitz system, the same for every
    leaf: its (B J, B J) inverse is built once per solve and each leaf is
    one (B J, B J) @ (B J, J) product, with B J <= ``LEAF_ROWS``. The
    history of earlier leaves arrives by divide and conquer: each solved
    half adds its terms to the next half's right-hand sides through one
    FFT convolution over the lag axis, O(m log^2 m J^2) for m points plus
    O(m B J^3) in the leaves. A second convolution of the 0/1 indicators
    of the terms counts them, and a sum without any nonzero term is set to
    exactly 0, as the direct sum leaves it, not to FFT round-off: kernels
    with deterministic delays keep their exact zeros.

    Times beyond the grid end double the horizon at the same spacing, up
    to a hard point budget; the equations are causal, so the solved rows
    enter the new ones as history and never change.
    """

    representation = "renewal-grid"

    def __init__(self, nodes, J, grid: TimeGrid):
        super().__init__(J)
        validate_nodes(nodes, J)
        if zero_time_loop(nodes, J, np.ones(J, dtype=bool)):
            raise ValidationError(_SINGULAR_LOOP)
        means = [n.service.mean() for n in nodes
                 if not n.is_absorbing and n.service.mean() > 0]
        if means and grid.spacing > min(means) / 4.0:
            raise RefinementRequiredError(
                f"grid spacing {grid.spacing} exceeds a quarter of the smallest "
                f"service mean {min(means)}; refine the grid")
        self.nodes = list(nodes)
        self.grid = grid
        times = grid.times()
        self._store(times, self._solve(times))

    def _solve(self, times, prefix=None):
        """Knot rows Q on ``times``, keeping ``prefix`` (Q on its leading
        points) as is, for ``_store``."""
        J, m = self.J, times.size
        Q = np.empty((m, J, J))
        cdf = np.array([node.service.cdf(times) for node in self.nodes])
        half = 0.5 * np.diff(cdf, axis=1)              # (J, m-1)
        atom0 = cdf[:, 0]                              # mass exactly at 0
        R = routing_matrix(self.nodes, J)
        if prefix is not None:
            Q[: len(prefix)] = prefix
        elif np.any(atom0 > 0):
            Q[0] = _implicit_solver(R, atom0) @ np.diag(1.0 - atom0)
        else:
            Q[0] = np.eye(J)
        # lags[l] weighs Q[i-l] at step i: the implicit Q[i] term with any
        # atom at 0, then the trapezoid (dF_j[l-1] + dF_j[l]) / 2
        lags = np.empty((m - 1, J))
        lags[0] = atom0 + half[:, 0]
        lags[1:] = (half[:, :-1] + half[:, 1:]).T
        # Q[0] carries only half a trapezoid, dF_j[i-1] / 2, so it joins the
        # right-hand side with the delta_jk survival term (row 0 is unused)
        rhs = np.empty((m, J, J))
        rhs[1:] = half.T[:, :, None] * (R @ Q[0])
        rhs[1:, np.arange(J), np.arange(J)] += 1.0 - cdf[:, 1:].T
        _solve_renewal_blocks(Q, 1 if prefix is None else len(prefix), lags, R, rhs)
        return np.clip(Q, 0.0, 1.0, out=Q)

    def _cover(self, t):
        old, _, rows, _ = self._grid
        if t <= old[-1]:
            return
        end, m = old[-1], old.size
        while end < t:
            end *= 2.0
            m = 2 * (m - 1) + 1
            if m > MAX_GRID_POINTS:
                raise KernelDomainError(
                    f"renewal kernel cannot be extended to t={t} within the "
                    f"{MAX_GRID_POINTS}-point grid budget")
        # extend then swap; readers only ever see one consistent grid
        times = np.append(old, np.linspace(0.0, end, m)[old.size:])
        self._store(times, self._solve(times, rows))


def _implicit_solver(R, coeff):
    """(I - diag(coeff) R)^-1, or the singular-loop ValidationError."""
    J = R.shape[0]
    try:
        return np.linalg.inv(np.eye(J) - coeff[:, None] * R)
    except np.linalg.LinAlgError:
        raise ValidationError(_SINGULAR_LOOP)


def _solve_renewal_blocks(Q, start, lags, R, rhs):
    """Fill Q[start:] from the discrete renewal equations, given Q[:start].

    Row i solves Q[i] = rhs[i] + sum_{1 <= s <= i} diag(lags[i-s]) R Q[s],
    the s = i term implicitly. ``rhs`` is overwritten: it accumulates the
    history. Rows are solved in leaf blocks of B points by one shared block
    inverse; the history of every earlier block arrives by divide and
    conquer, one FFT convolution per solved half.
    """
    m, J = Q.shape[0], R.shape[0]
    B = 1 << max(0, (LEAF_ROWS // J).bit_length() - 1)    # B * J <= LEAF_ROWS
    leaf = _leaf_inverse(lags[:min(B, m - start)], R)
    P = np.empty_like(Q)                                   # R Q[s], s >= 1
    np.matmul(R, Q[1:start], out=P[1:start])
    spectra = {}
    if start > 1:                                          # the given rows
        _add_history(rhs, P, lags, 1, start, m, m - 1, spectra)

    def blocks(lo, size):
        hi = min(lo + size, m)
        if size <= B:
            n = (hi - lo) * J
            Q[lo:hi] = (leaf[:n, :n] @ rhs[lo:hi].reshape(n, J)).reshape(-1, J, J)
            np.matmul(R, Q[lo:hi], out=P[lo:hi])
            return
        mid = lo + size // 2
        blocks(lo, size // 2)
        if mid < m:
            _add_history(rhs, P, lags, lo, mid, hi, size, spectra)
            blocks(mid, size // 2)

    size = B
    while start + size < m:
        size *= 2
    blocks(start, size)


def _leaf_inverse(lags, R):
    """Inverse of one leaf's block lower-triangular Toeplitz system.

    Block (a, b) of the system is delta_ab I - diag(lags[a-b]) R for a >= b;
    its inverse is Toeplitz too, with blocks G[0] = (I - diag(lags[0]) R)^-1
    and G[n] = G[0] sum_{1 <= l <= n} diag(lags[l]) R G[n-l]: the step
    solve of a unit impulse, so a sum with only zero terms stays exactly 0.
    Returns the (B J, B J) matrix for B = len(lags).
    """
    B, J = lags.shape
    G = np.empty((B, J, J))
    RG = np.empty((B, J, J))
    G[0] = _implicit_solver(R, lags[0])
    RG[0] = R @ G[0]
    for n in range(1, B):
        G[n] = G[0] @ np.einsum("lj,ljk->jk", lags[n:0:-1], RG[:n])
        RG[n] = R @ G[n]
    a, b = np.tril_indices(B)
    inverse = np.zeros((B, B, J, J))
    inverse[a, b] = G[a - b]
    return inverse.transpose(0, 2, 1, 3).reshape(B * J, B * J)


def _add_history(rhs, P, lags, lo, mid, hi, size, spectra):
    """rhs[i] += sum_{lo <= s < mid} diag(lags[i-s]) P[s] for mid <= i < hi.

    One length-``size`` FFT convolution over the lag axis (size >= hi - lo,
    so no wrapped term lands on an output). A second convolution counts the
    nonzero terms of each sum; sums without any are set to exactly 0, as a
    direct sum would leave them, not to FFT round-off.
    """
    if size not in spectra:
        window = lags[:size]
        spectra[size] = (np.fft.rfft(window, size, axis=0)[:, :, None],
                         np.fft.rfft(window != 0.0, size, axis=0)[:, :, None])
    lag_f, lag_nz = spectra[size]
    src = P[lo:mid]
    part = np.fft.irfft(np.fft.rfft(src, size, axis=0) * lag_f, size, axis=0)
    count = np.fft.irfft(np.fft.rfft(src != 0.0, size, axis=0) * lag_nz, size, axis=0)
    out = slice(mid - lo, hi - lo)
    rhs[mid:hi] += np.where(count[out] < 0.5, 0.0, part[out])


class TabulatedKernel(GridKernel):
    """Kernel given by explicit values on a time grid."""

    representation = "tabulated"

    def __init__(self, times, table):
        times = np.asarray(times, dtype=float)
        table = np.asarray(table, dtype=float)
        if times.ndim != 1 or table.ndim != 3 or table.shape[0] != times.size:
            raise ValidationError("tabulated kernel needs times (M,) and values (M, J, J)")
        J = table.shape[1]
        if table.shape[2] != J:
            raise ValidationError("tabulated kernel values must be square per time")
        super().__init__(J)
        # each check asks for the values it accepts, so that NaN fails it
        if not (times[0] == 0.0 and np.all(np.diff(times) > 0) and np.isfinite(times[-1])):
            raise ValidationError("kernel times must start at 0, increase strictly "
                                  "and stay finite")
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ValidationError("kernel values must lie in [0, 1]")
        if not np.max(np.abs(table[0] - np.eye(J))) <= 1e-12:
            raise ValidationError("kernel at t=0 must be the identity")
        if not np.all(table.sum(axis=2) <= 1.0 + 1e-10):
            raise ValidationError("kernel row sums must not exceed 1")
        q = table.copy()
        q[0] = np.eye(J)
        # rows within the tolerance above 1 are scaled to sum 1, so that every
        # placement row passes the compound layer's tighter check
        q /= np.maximum(q.sum(axis=2, keepdims=True), 1.0)
        self._store(times, q)

    def _cover(self, t):
        if t > self._times[-1]:
            raise KernelDomainError(
                f"tabulated kernel covers [0, {self._times[-1]}]; asked for {t}")


_HEADER_RE = re.compile(r"q_(\d+)_(\d+)$")


def load_tabulated_kernel_csv(path):
    """Load a tabulated kernel from CSV with header t, q_1_1, ..., q_J_J."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise ValidationError("kernel CSV must start with a 't' column")
        pairs = []
        for name in header[1:]:
            m = _HEADER_RE.match(name.strip())
            if not m:
                raise ValidationError(f"unexpected kernel CSV column {name!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        J = max((j for j, _ in pairs), default=0)
        expected = [(j, k) for j in range(1, J + 1) for k in range(1, J + 1)]
        if J == 0 or pairs != expected:
            raise ValidationError(
                "kernel CSV columns must enumerate q_j_k row-major for j,k in 1..J")
        times, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValidationError(f"kernel CSV line {line_no}: non-numeric value")
            if len(values) != 1 + J * J:
                raise ValidationError(f"kernel CSV line {line_no}: wrong column count")
            times.append(values[0])
            rows.append(np.array(values[1:]).reshape(J, J))
    if len(times) < 2:
        raise ValidationError("kernel CSV needs at least two time rows")
    return TabulatedKernel(np.array(times), np.stack(rows))
