"""Occupancy kernels: where is a customer a time t after entering node j?

The kernel q^j_k(t) is the probability that a customer who entered the
network at node j sits in node k a time t later; its row sum Q_j(t) is
the probability the customer is still anywhere in the network. Every
analytic formula in this package consumes kernels through one contract:

    placement_rows_many(ts) -> (len(ts), J, J+1) array, one (J, J+1)
    matrix per time whose row j is (q^j_1 ... q^j_J, 1-Q_j)

and ``placement_rows(t)``, the stack of one, ``placement_rows_many([t])[0]``.
Three interchangeable constructions are provided: uniformization of the
customer-path CTMC (all-exponential networks), a Markov-renewal grid
solver (general service laws), and tabulated values loaded from CSV.
Kernels are immutable after construction and safe to evaluate
concurrently; the uniformization kernel's cache of jump-matrix powers
only ever grows, and a renewal grid only ever extends.
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
# Beyond this uniformization rate * t, the Poisson series is longer than a
# scaling-and-squaring matrix exponential is worth; switch to expm.
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
    """Shared evaluation contract over the three representations."""

    representation = "abstract"

    def __init__(self, J):
        self.J = J

    def placement_rows(self, t):
        """Placement rows at one time, shape (J, J+1)."""
        return self.placement_rows_many([t])[0]

    def placement_rows_many(self, ts):
        """Stack of placement rows, shape (len(ts), J, J+1)."""
        raise NotImplementedError

    def survival_vectors(self, ts):
        """Q_j(t) = sum_k q^j_k(t), clamped to [0, 1], shape (len(ts), J).

        Summing the queue columns (rather than complementing the exit
        column) keeps the truncation error one-sided, so Q decays cleanly
        to zero at large t.
        """
        rows = self.placement_rows_many(ts)
        return np.clip(rows[:, :, : self.J].sum(axis=2), 0.0, 1.0)


class MarkovKernel(OccupancyKernel):
    """Customer-path CTMC kernel computed by uniformization.

    The path chain lives on {queues} + {exit}; node j leaves at rate mu_j
    and routes by its routing row, exit being absorbing. With uniformization
    rate r and jump matrix P, the transition matrix at time t is
    sum_n Pois(n; r t) P^n, the Poisson series truncated so the neglected
    tail is below ``POISSON_TAIL`` and renormalised (:func:`_poisson_head`,
    :func:`_poisson_weights`). All the times of one call share one series,
    truncated for the largest of them.

    The jump-matrix powers P^0, P^1, ... are computed once, on first use,
    and cached, so each call is one weighted sum over the cached powers:
    ``(weights[..., None, None] * powers).sum(axis=0)``. NumPy reduces that
    outer axis in order, so the sum is the term-by-term series bit for
    bit. Times are summed in chunks whose product stays under
    ``UNIFORMIZATION_BUDGET`` bytes. Where the powers a series needs would
    themselves exceed that budget, or beyond r t = ``UNIFORMIZATION_MAX_A``,
    a scaling-and-squaring matrix exponential takes over (the two agree to
    roundoff where they meet); ``scipy.linalg`` is imported only when a
    time first needs it.
    """

    representation = "markov-uniformization"

    def __init__(self, nodes, J):
        super().__init__(J)
        validate_nodes(nodes, J)
        for idx, node in enumerate(nodes):
            if not node.is_absorbing and node.service.kind != EXPONENTIAL:
                raise UnsupportedRepresentationError(
                    f"nodes[{idx}] is {node.service.kind}; uniformization requires "
                    "exponential service at every non-absorbing node")
        self.nodes = list(nodes)
        self.generator = A = generator(nodes, J)
        self.uniformization_rate = float(np.max(-np.diag(A))) if J else 0.0
        if self.uniformization_rate > 0:
            self._jump_matrix = np.eye(J + 1) + A / self.uniformization_rate
        else:
            self._jump_matrix = np.eye(J + 1)
        self._powers = np.empty((0, J + 1, J + 1))

    def placement_rows_many(self, ts):
        return self._transition_matrices(ts)[:, : self.J, :]

    def _transition_matrices(self, ts):
        """(len(ts), J+1, J+1) transition matrices, one per time in ``ts``."""
        ts = np.asarray(ts, dtype=float).ravel().tolist()
        if any(t < 0 for t in ts):
            raise KernelDomainError("kernel evaluated at negative time")
        r = self.uniformization_rate
        small = [i for i, t in enumerate(ts) if r * t <= UNIFORMIZATION_MAX_A]
        head = _poisson_head(r * max([ts[i] for i in small], default=0.0))
        n_max = len(head) - 1
        if (n_max + 1) * (self.J + 1) ** 2 * 8 > UNIFORMIZATION_BUDGET:
            small = []   # the powers alone would not fit the budget
        out = np.empty((len(ts), self.J + 1, self.J + 1))
        for i in set(range(len(ts))).difference(small):
            from scipy.linalg import expm
            out[i] = expm(self.generator * ts[i])
        if small:
            # one time's column is the head it truncated, renormalised
            weights = ((head / head.sum())[:, None] if len(small) == 1 else
                       _poisson_weights(r * np.array([ts[i] for i in small]), n_max))
            powers = self._jump_powers(n_max)[:, None]
            step = max(1, UNIFORMIZATION_BUDGET // (powers.nbytes or 1))
            for lo in range(0, len(small), step):
                out[small[lo:lo + step]] = (weights[:, lo:lo + step, None, None]
                                            * powers).sum(axis=0)
        return np.clip(out, 0.0, 1.0, out=out)

    def _jump_powers(self, n):
        """P^0 .. P^n as an (n+1, J+1, J+1) array, extending the cache as needed."""
        powers = self._powers
        if len(powers) <= n:
            grown = np.empty((n + 1,) + powers.shape[1:])
            grown[: len(powers)] = powers
            power = powers[-1] if len(powers) else None
            for k in range(len(powers), n + 1):
                power = np.eye(self.J + 1) if power is None else power @ self._jump_matrix
                grown[k] = power
            grown.setflags(write=False)
            self._powers = powers = grown
        return powers[: n + 1]


def _poisson_head(a):
    """Poisson(a) probabilities of n = 0 .. n_max, a >= 0, unnormalised.

    n_max is one past the truncation point, the least n whose tail
    P(N > n) <= ``POISSON_TAIL`` (Fox & Glynn 1988, *Comm. ACM* 31(4)).
    The probabilities are one ``exp`` over the log-factorial table up to
    a + 10 sqrt(a) + 40, beyond which the Poisson tail is below e^-50
    (Bernstein's bound); the tails are their sums from the top.
    """
    if a == 0.0:
        return np.ones(1)
    top = int(a + 10.0 * math.sqrt(a)) + 40
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
    """Kernel held as q(t) on a time grid, linearly interpolated between nodes.

    Subclasses set ``_times`` (M,) and ``_table`` (M, J, J) and decide, in
    ``_cover``, what happens to times beyond the grid end.
    """

    def _cover(self, t):
        """Make the grid reach ``t`` or raise :class:`KernelDomainError`."""
        raise NotImplementedError

    def placement_rows_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            if float(np.min(ts)) < 0:
                raise KernelDomainError("kernel evaluated at negative time")
            self._cover(float(np.max(ts)))
        times, table = self._times, self._table
        idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
        frac = (ts - times[idx]) / (times[idx + 1] - times[idx])
        q = table[idx] * (1.0 - frac)[:, None, None] + table[idx + 1] * frac[:, None, None]
        rows = np.empty((ts.size, self.J, self.J + 1))
        rows[:, :, : self.J] = q
        rows[:, :, self.J] = np.clip(1.0 - q.sum(axis=2), 0.0, 1.0)
        return rows


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
        self._times = grid.times()
        self._table = self._solve(self._times)

    def _solve(self, times, prefix=None):
        """Q on ``times``, keeping ``prefix`` (Q on its leading points) as is."""
        J, m = self.J, times.size
        cdf = np.array([node.service.cdf(times) for node in self.nodes])
        half = 0.5 * np.diff(cdf, axis=1)              # (J, m-1)
        atom0 = cdf[:, 0]                              # mass exactly at 0
        R = routing_matrix(self.nodes, J)
        Q = np.empty((m, J, J))
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
        if t <= self._times[-1]:
            return
        end, m = self._times[-1], self._times.size
        while end < t:
            end *= 2.0
            m = 2 * (m - 1) + 1
            if m > MAX_GRID_POINTS:
                raise KernelDomainError(
                    f"renewal kernel cannot be extended to t={t} within the "
                    f"{MAX_GRID_POINTS}-point grid budget")
        # extend then swap; readers only ever see a consistent pair
        times = np.append(self._times, np.linspace(0.0, end, m)[self._times.size:])
        self._times, self._table = times, self._solve(times, self._table)


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
        table = table.copy()
        table[0] = np.eye(J)
        # rows within the tolerance above 1 are scaled to sum 1, so that every
        # placement row passes the compound layer's tighter check
        table /= np.maximum(table.sum(axis=2, keepdims=True), 1.0)
        self._times, self._table = times, table

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
