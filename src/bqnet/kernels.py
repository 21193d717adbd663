"""Occupancy kernels: where is a customer a time t after entering node j?

The kernel q^j_k(t) is the probability that a customer who entered the
network at node j sits in node k a time t later; its row sum Q_j(t) is
the probability the customer is still anywhere in the network. Every
analytic formula in this package consumes kernels through one contract:

    placement_rows(t) -> (J, J+1) array, row j = (q^j_1 ... q^j_J, 1-Q_j)

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
from scipy import linalg, stats

from .errors import (KernelDomainError, RefinementRequiredError,
                     UnsupportedRepresentationError, ValidationError)
from .service import EXPONENTIAL, routing_matrix, validate_nodes

POISSON_TAIL = 1e-12
# Beyond this uniformization rate * t, the Poisson series is longer than a
# scaling-and-squaring matrix exponential is worth; switch to expm.
UNIFORMIZATION_MAX_A = 1e4
MAX_GRID_POINTS = 1 << 22


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
        raise NotImplementedError

    def placement_rows_many(self, ts):
        """Stack of placement rows, shape (len(ts), J, J+1)."""
        return np.stack([self.placement_rows(t) for t in np.asarray(ts, dtype=float)])

    def transition_matrix(self, t):
        """q^j_k(t) as a (J, J) array."""
        return self.placement_rows(t)[:, : self.J]

    def eval(self, j, k, t):
        """q^j_k(t) for 0-based node indices."""
        if not 0 <= j < self.J or not 0 <= k < self.J:
            raise IndexError(f"node index out of range for J={self.J}")
        return float(self.placement_rows(t)[j, k])

    def survival(self, j, t):
        """Q_j(t) = sum_k q^j_k(t), clamped to [0, 1].

        Summing the queue columns (rather than complementing the exit
        column) keeps the truncation error one-sided, so Q decays cleanly
        to zero at large t.
        """
        if not 0 <= j < self.J:
            raise IndexError(f"node index out of range for J={self.J}")
        return float(np.clip(self.placement_rows(t)[j, : self.J].sum(), 0.0, 1.0))

    def survival_vectors(self, ts):
        rows = self.placement_rows_many(ts)
        return np.clip(rows[:, :, : self.J].sum(axis=2), 0.0, 1.0)


class MarkovKernel(OccupancyKernel):
    """Customer-path CTMC kernel computed by uniformization.

    The path chain lives on {queues} + {exit}; node j leaves at rate mu_j
    and routes by its routing row, exit being absorbing. The Poisson
    series is truncated so the neglected tail is below ``POISSON_TAIL``;
    for very large rate*t products a scaling-and-squaring matrix
    exponential takes over (the two agree to roundoff where they meet).
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
        A = np.zeros((J + 1, J + 1))
        for j, node in enumerate(nodes):
            if node.is_absorbing:
                continue
            mu = node.service.rate
            row = node.routing
            for k in range(J):
                if k != j:
                    A[j, k] = mu * row[k]
            A[j, J] = mu * row[J]
            A[j, j] = -mu * (1.0 - row[j])
        self.generator = A
        self.uniformization_rate = float(np.max(-np.diag(A))) if J else 0.0
        if self.uniformization_rate > 0:
            self._jump_matrix = np.eye(J + 1) + A / self.uniformization_rate
        else:
            self._jump_matrix = np.eye(J + 1)
        self._cache = {}

    def augmented_matrix(self, t):
        """Full (J+1, J+1) transition matrix including the exit state."""
        if t < 0:
            raise KernelDomainError("kernel evaluated at negative time")
        t = float(t)
        cached = self._cache.get(t)
        if cached is not None:
            return cached
        a = self.uniformization_rate * t
        if a == 0.0:
            out = np.eye(self.J + 1)
        elif a > UNIFORMIZATION_MAX_A:
            out = linalg.expm(self.generator * t)
        else:
            n_max = int(stats.poisson.isf(POISSON_TAIL, a)) + 1
            weights = stats.poisson.pmf(np.arange(n_max + 1), a)
            weights /= weights.sum()        # fold the 1e-12 tail back in
            power = np.eye(self.J + 1)
            out = weights[0] * power
            for n in range(1, n_max + 1):
                power = power @ self._jump_matrix
                out = out + weights[n] * power
        out = np.clip(out, 0.0, 1.0)
        out.setflags(write=False)
        self._cache[t] = out
        return out

    def placement_rows(self, t):
        return self.augmented_matrix(t)[: self.J, :]

    def placement_rows_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.J, self.J + 1))
        pending = []
        for pos, t in enumerate(ts):
            cached = self._cache.get(float(t))
            if cached is not None:
                out[pos] = cached[: self.J, :]
            else:
                pending.append(pos)
        if not pending:
            return out
        a_vals = self.uniformization_rate * ts[np.array(pending)]
        small = [p for p, a in zip(pending, a_vals) if a <= UNIFORMIZATION_MAX_A]
        large = [p for p, a in zip(pending, a_vals) if a > UNIFORMIZATION_MAX_A]
        if small:
            a_max = float(self.uniformization_rate * np.max(ts[np.array(small)]))
            if a_max == 0.0:
                n_max = 0
            else:
                n_max = int(stats.poisson.isf(POISSON_TAIL, a_max)) + 1
            weights = stats.poisson.pmf(
                np.arange(n_max + 1)[:, None],
                self.uniformization_rate * ts[np.array(small)][None, :])
            weights /= weights.sum(axis=0, keepdims=True)
            power = np.eye(self.J + 1)
            acc = weights[0][:, None, None] * power
            for n in range(1, n_max + 1):
                power = power @ self._jump_matrix
                acc += weights[n][:, None, None] * power
            acc = np.clip(acc, 0.0, 1.0)
            for row, pos in enumerate(small):
                full = acc[row]
                full.setflags(write=False)
                self._cache[float(ts[pos])] = full
                out[pos] = full[: self.J, :]
        for pos in large:
            out[pos] = self.placement_rows(float(ts[pos]))
        return out


class GridKernel(OccupancyKernel):
    """Kernel held as q(t) on a time grid, linearly interpolated between nodes.

    Subclasses set ``_times`` (M,) and ``_table`` (M, J, J) and decide, in
    ``_cover``, what happens to times beyond the grid end.
    """

    def _cover(self, t):
        """Make the grid reach ``t`` or raise :class:`KernelDomainError`."""
        raise NotImplementedError

    def placement_rows(self, t):
        return self.placement_rows_many([t])[0]

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
    interpolated. Asking for times beyond the grid end transparently
    re-solves on a doubled horizon (same spacing), up to a hard point
    budget.
    """

    representation = "renewal-grid"

    def __init__(self, nodes, J, grid: TimeGrid):
        super().__init__(J)
        validate_nodes(nodes, J)
        means = [n.service.mean() for n in nodes
                 if not n.is_absorbing and n.service.mean() > 0]
        if means and grid.spacing > min(means) / 4.0:
            raise RefinementRequiredError(
                f"grid spacing {grid.spacing} exceeds a quarter of the smallest "
                f"service mean {min(means)}; refine the grid")
        self.nodes = list(nodes)
        self.grid = grid
        self._times, self._table = self._solve(grid.end, grid.nodes)

    def _solve(self, end, m):
        J = self.J
        times = np.linspace(0.0, end, m)
        cdf = np.zeros((J, m))
        for j, node in enumerate(self.nodes):
            cdf[j] = node.service.cdf(times)
        dF = np.diff(cdf, axis=1)                      # (J, m-1)
        atom0 = cdf[:, 0]                              # mass exactly at 0
        surv = 1.0 - cdf                               # delta_jk factor
        R = routing_matrix(self.nodes, J)

        def implicit_solver(coeff):
            M = np.eye(J) - coeff[:, None] * R
            try:
                return np.linalg.inv(M)
            except np.linalg.LinAlgError:
                raise ValidationError(
                    "instantaneous routing loop makes the renewal system singular")

        Q = np.empty((m, J, J))
        if np.any(atom0 > 0):
            Q[0] = implicit_solver(atom0) @ np.diag(1.0 - atom0)
        else:
            Q[0] = np.eye(J)
        step_solver = implicit_solver(atom0 + 0.5 * dF[:, 0])
        for i in range(1, m):
            rhs = np.diag(surv[:, i]).astype(float)
            # trapezoidal Stieltjes convolution, unknown Q[i] term excluded
            recent = Q[i - 1::-1]                      # Q[i-1] ... Q[0]
            for j, node in enumerate(self.nodes):
                if node.routing is None:
                    continue
                K = np.tensordot(dF[j, :i], recent[:i], axes=1)
                if i > 1:
                    K = K + np.tensordot(dF[j, 1:i], recent[: i - 1], axes=1)
                rhs[j] += R[j] @ (0.5 * K)
            Q[i] = step_solver @ rhs
        np.clip(Q, 0.0, 1.0, out=Q)
        return times, Q

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
        # rebuild then swap; readers only ever see a consistent pair
        times, table = self._solve(end, m)
        self._times, self._table = times, table


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


def build_markov_kernel(nodes, J):
    """Uniformization kernel for an all-exponential (or absorbing) network."""
    return MarkovKernel(nodes, J)


def build_renewal_kernel(nodes, J, grid):
    """Markov-renewal grid kernel for general service laws."""
    return RenewalKernel(nodes, J, grid)


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
