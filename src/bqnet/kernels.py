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
concurrently; internal caches only ever grow.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np
from scipy import special

from .batch import poisson_pmf
from .errors import (KernelDomainError, RefinementRequiredError,
                     UnsupportedRepresentationError, ValidationError)
from .service import (EXPONENTIAL, generator, routing_matrix, validate_nodes,
                      zero_time_loop)

POISSON_TAIL = 1e-12
# Beyond this uniformization rate * t, the Poisson series is longer than a
# scaling-and-squaring matrix exponential is worth; switch to expm.
UNIFORMIZATION_MAX_A = 1e4
# Bytes for the cached jump-matrix powers and for each weighted sum over them.
UNIFORMIZATION_BUDGET = 1 << 23
MAX_GRID_POINTS = 1 << 22
_SINGULAR_LOOP = "instantaneous routing loop makes the renewal system singular"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, end] with an odd node count (Simpson-friendly)."""

    end: float
    nodes: int

    def __post_init__(self):
        if self.end <= 0:
            raise ValidationError("grid end must be > 0")
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValidationError("grid node count must be odd and >= 3")

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
    tail is below ``POISSON_TAIL`` and renormalised. The truncation point
    and the weights are ``scipy.stats.poisson``'s ``isf`` and ``pmf``,
    bit for bit, evaluated straight from ``scipy.special``. All the times of
    one call share one series, truncated for the largest of them.

    The jump-matrix powers P^0, P^1, ... are computed once, on first use,
    and cached, so each call is one weighted sum over the cached powers:
    ``(weights[..., None, None] * powers).sum(axis=0)``. NumPy reduces that
    outer axis in order, so the sum is the term-by-term series bit for
    bit. Times are summed in chunks whose product stays under
    ``UNIFORMIZATION_BUDGET`` bytes. Where the powers a series needs would
    themselves exceed that budget, or beyond r t = ``UNIFORMIZATION_MAX_A``,
    a scaling-and-squaring matrix exponential takes over (the two agree to
    roundoff where they meet); ``scipy.linalg`` is imported only when a
    time first needs it. Matrices are cached per time.
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
        self._cache = {}

    def placement_rows_many(self, ts):
        mats = self._transition_matrices(ts)
        return np.array(mats).reshape(len(mats), self.J + 1, self.J + 1)[:, : self.J, :]

    def _transition_matrices(self, ts):
        """Read-only (J+1, J+1) transition matrices, one per time in ``ts``."""
        ts = np.asarray(ts, dtype=float).ravel().tolist()
        if any(t < 0 for t in ts):
            raise KernelDomainError("kernel evaluated at negative time")
        pending = [t for t in dict.fromkeys(ts) if t not in self._cache]
        small = [t for t in pending if self.uniformization_rate * t <= UNIFORMIZATION_MAX_A]
        a_max = self.uniformization_rate * max(small, default=0.0)
        n_max = 0 if a_max == 0.0 else int(_poisson_isf(POISSON_TAIL, a_max)) + 1
        if (n_max + 1) * (self.J + 1) ** 2 * 8 > UNIFORMIZATION_BUDGET:
            small = []   # the powers alone would not fit the budget
        series = set(small)
        beyond = [t for t in pending if t not in series]
        fresh = {}
        if beyond:
            from scipy.linalg import expm

            fresh = {t: expm(self.generator * t) for t in beyond}
        if small:
            a = self.uniformization_rate * np.array(small)
            weights = poisson_pmf(np.arange(n_max + 1)[:, None], a)
            weights /= weights.sum(axis=0, keepdims=True)   # fold the tail back in
            powers = self._jump_powers(n_max)[:, None]
            step = max(1, UNIFORMIZATION_BUDGET // (powers.nbytes or 1))
            for lo in range(0, len(small), step):
                acc = (weights[:, lo:lo + step, None, None] * powers).sum(axis=0)
                fresh.update(zip(small[lo:lo + step], acc))
        for t, out in fresh.items():
            out = np.clip(out, 0.0, 1.0)
            out.setflags(write=False)
            self._cache[t] = out
        return [self._cache[t] for t in ts]

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


def _poisson_isf(q, a):
    """``scipy.stats.poisson.isf(q, a)`` for 0 < q < 1 and a > 0."""
    n = np.ceil(special.pdtrik(1.0 - q, a))
    below = max(n - 1.0, 0.0)
    return below if special.pdtr(below, a) >= 1.0 - q else n


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

    Forward time-stepping with trapezoidal Stieltjes convolution against
    each node's service CDF; values between grid nodes are linearly
    interpolated. With dF_j[n] = F_j(t_n+1) - F_j(t_n), step i weighs the
    solved Q[s] by (dF_j[i-1-s] + dF_j[i-s]) / 2 and Q[0] by dF_j[i-1] / 2,
    and solves for the Q[i] term, with any atom at 0, implicitly: one
    (J, i) @ (i, J^2) product per step, O(m^2 J^3) for m points. Times
    beyond the grid end double the horizon at the same spacing, up to a
    hard point budget; the recursion is causal, so only the new points are
    time-stepped and the rows already solved never change.
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
        surv = 1.0 - cdf                               # delta_jk factor
        R = routing_matrix(self.nodes, J)

        def implicit_solver(coeff):
            try:
                return np.linalg.inv(np.eye(J) - coeff[:, None] * R)
            except np.linalg.LinAlgError:
                raise ValidationError(_SINGULAR_LOOP)

        Q = np.empty((m, J, J))
        if prefix is not None:
            Q[: len(prefix)] = prefix
        elif np.any(atom0 > 0):
            Q[0] = implicit_solver(atom0) @ np.diag(1.0 - atom0)
        else:
            Q[0] = np.eye(J)
        step_solver = implicit_solver(atom0 + half[:, 0])
        flat = Q.reshape(m, J * J)
        # weights of Q[1..i-1] at step i: trap[:, m-1-i : m-2], reversed
        trap = np.ascontiguousarray((half[:, :-1] + half[:, 1:])[:, ::-1])
        for i in range(1 if prefix is None else len(prefix), m):
            history = trap[:, m - 1 - i: m - 2] @ flat[1:i] + half[:, i - 1, None] * flat[0]
            history = np.einsum("jl,jlk->jk", R, history.reshape(J, J, J))
            Q[i] = step_solver @ (np.diag(surv[:, i]) + history)
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
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValidationError("kernel times must start at 0 and increase strictly")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValidationError("kernel values must lie in [0, 1]")
        if np.max(np.abs(table[0] - np.eye(J))) > 1e-12:
            raise ValidationError("kernel at t=0 must be the identity")
        if np.any(table.sum(axis=2) > 1.0 + 1e-10):
            raise ValidationError("kernel row sums must not exceed 1")
        table = table.copy()
        table[0] = np.eye(J)
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
        J = max(j for j, _ in pairs)
        expected = [(j, k) for j in range(1, J + 1) for k in range(1, J + 1)]
        if pairs != expected:
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
