"""Per-node service-time laws and routing.

A node holds one service law (exponential, Erlang, deterministic, a
tabulated CDF, or absorbing) and a routing row over the J queues plus an
exit column. Each law kind has exactly one constructor, the
:class:`ServiceLaw` class method of its name, which checks its parameters
and builds the law. Absorbing nodes hold customers forever and carry no
routing row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

ROUTING_TOL = 1e-12
# A zero-time loop is a spectral radius within this of 1.
ZERO_TIME_LOOP_MARGIN = 1e-12

EXPONENTIAL = "exponential"
ERLANG = "erlang"
DETERMINISTIC = "deterministic"
TABULATED = "tabulated"
ABSORBING = "absorbing"


class ServiceLaw:
    """Service-time distribution at a single node, built by its kind's class method."""

    def __init__(self, kind, **fields):
        self.kind = kind
        # one setattr each: vars(self).update would slow every attribute read
        for name, value in fields.items():
            setattr(self, name, value)

    @classmethod
    def exponential(cls, rate):
        if not (math.isfinite(rate) and rate > 0):
            raise ValidationError("exponential rate must be finite and > 0")
        return cls(EXPONENTIAL, rate=float(rate))

    @classmethod
    def erlang(cls, shape, rate):
        if not (float(shape).is_integer() and shape >= 1):
            raise ValidationError("erlang shape must be a positive integer")
        if not (math.isfinite(rate) and rate > 0):
            raise ValidationError("erlang rate must be finite and > 0")
        return cls(ERLANG, shape=int(shape), rate=float(rate))

    @classmethod
    def deterministic(cls, duration):
        if not (math.isfinite(duration) and duration >= 0):
            raise ValidationError("deterministic duration must be finite and >= 0")
        return cls(DETERMINISTIC, duration=float(duration))

    @classmethod
    def tabulated(cls, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
            raise ValidationError("tabulated CDF needs matching time/value arrays")
        if not (times[0] >= 0 and np.all(np.diff(times) > 0) and np.isfinite(times[-1])):
            raise ValidationError("tabulated CDF times must be finite, strictly "
                                  "increasing and >= 0")
        if not np.all(np.diff(values) >= 0):
            raise ValidationError("tabulated CDF must be nondecreasing")
        if not np.all((values >= 0) & (values <= 1)):
            raise ValidationError("tabulated CDF values must lie in [0, 1]")
        return cls(TABULATED, times=times, values=values)

    @classmethod
    def absorbing(cls):
        return cls(ABSORBING)

    def cdf(self, t):
        """P(service time <= t); vectorised. Absorbing laws never complete."""
        t = np.asarray(t, dtype=float)
        if self.kind == EXPONENTIAL:
            out = -np.expm1(-self.rate * np.maximum(t, 0.0))
        elif self.kind == ERLANG:
            out = _erlang_cdf(self.shape, self.rate * np.maximum(t, 0.0))
        elif self.kind == DETERMINISTIC:
            out = (t >= self.duration).astype(float)
        elif self.kind == TABULATED:
            out = np.interp(t, self.times, self.values,
                            left=0.0, right=float(self.values[-1]))
        else:
            out = np.zeros_like(t)
        return out if out.shape else float(out)

    def mean(self):
        """Mean service time; inf for absorbing."""
        if self.kind == EXPONENTIAL:
            return 1.0 / self.rate
        if self.kind == ERLANG:
            return self.shape / self.rate
        if self.kind == DETERMINISTIC:
            return self.duration
        if self.kind == TABULATED:
            # trapezoidal integral of the survival function over the grid,
            # treating the CDF as constant at its last value beyond it
            surv = 1.0 - self.values
            base = float(np.trapezoid(surv, self.times)) + float(self.times[0])
            if self.values[-1] < 1.0:
                return math.inf
            return base
        return math.inf

    def sample(self, rng, size):
        """Draw ``size`` service times. Absorbing laws return +inf."""
        if self.kind == EXPONENTIAL:
            return rng.exponential(1.0 / self.rate, size)
        if self.kind == ERLANG:
            return rng.gamma(self.shape, 1.0 / self.rate, size)
        if self.kind == DETERMINISTIC:
            return np.full(size, self.duration)
        if self.kind == TABULATED:
            # inverse transform on the tabulated grid; mass not covered by
            # the table (if any) maps beyond the last knot, i.e. +inf
            u = rng.uniform(size=size)
            out = np.interp(u, self.values, self.times)
            out[u > self.values[-1]] = np.inf
            return out
        return np.full(size, np.inf)

    def __repr__(self):
        return f"ServiceLaw({self.kind})"


# Largest Erlang shape whose CDF is the float64 sum below. The sum starts
# from e^-x, which is subnormal past x = 708 and 0 past 745; up to this shape
# what it then drops, P(Poisson(708) < 400) < 1e-34 by Chernoff's bound, is
# below rounding. Larger shapes take scipy.special.gammainc, on demand.
ERLANG_SUM_MAX_SHAPE = 400


def _erlang_cdf(shape, x):
    """P(shape, x) = e^-x sum_{k >= shape} x^k / k! for integer shape, x >= 0.

    The regularised incomplete gamma function of integer order is a finite
    sum (DLMF 8.4.10): P = 1 - e^-x sum_{k < shape} x^k / k!. That form
    serves x >= shape; below, where the difference would cancel, the
    complementary series is summed until its terms, whose ratio x / k is
    below 1, fall under 2^-60 of the sum. NaN stays NaN and +inf gives 1.
    Past ``ERLANG_SUM_MAX_SHAPE`` it is ``scipy.special.gammainc``.
    """
    x = np.asarray(x, dtype=float)
    if shape > ERLANG_SUM_MAX_SHAPE:
        from scipy import special
        return special.gammainc(shape, x)
    finite = np.isfinite(x)
    xs = np.where(finite, x, 0.0)
    term = np.exp(-xs)                  # e^-x x^k / k!, from k = 0
    head = np.zeros(xs.shape)
    for k in range(1, shape + 1):
        head += term
        term = term * xs / k
    low = xs < shape
    tail, k = np.zeros(xs.shape), shape
    while np.any(low & (term > 2.0 ** -60 * tail)):
        tail += term
        k += 1
        term = term * xs / k
    out = np.where(low, tail, 1.0 - head)
    return np.where(finite, out, np.where(x > 0, 1.0, x))


class ServiceNode:
    """One infinite-server station: a service law plus a routing row.

    ``routing`` has length J+1; the last entry is the exit probability.
    Absorbing nodes pass ``routing=None``.
    """

    def __init__(self, service: ServiceLaw, routing=None):
        self.service = service
        if service.kind == ABSORBING:
            if routing is not None:
                raise ValidationError("absorbing nodes carry no routing row")
            self.routing = None
            return
        if routing is None:
            raise ValidationError("non-absorbing nodes need a routing row")
        row = np.asarray(routing, dtype=float)
        if row.ndim != 1 or row.size < 2:
            raise ValidationError("routing row must be a vector of length J+1")
        if not np.all(row >= 0):
            raise ValidationError("routing probabilities must be >= 0")
        if not abs(row.sum() - 1.0) <= ROUTING_TOL:
            raise ValidationError(
                f"routing row must sum to 1 within {ROUTING_TOL} (got {row.sum()!r})")
        self.routing = row

    @property
    def is_absorbing(self):
        return self.service.kind == ABSORBING


def validate_nodes(nodes, J):
    """Check a node list against the queue count; raise with all failures."""
    failures = []
    if len(nodes) != J:
        failures.append(f"expected {J} nodes, got {len(nodes)}")
    for idx, node in enumerate(nodes):
        if node.routing is not None and node.routing.size != J + 1:
            failures.append(
                f"nodes[{idx}].routing has length {node.routing.size}, expected {J + 1}")
    if failures:
        raise ValidationError(failures)


def routing_matrix(nodes, J):
    """Internal routing submatrix R (J x J); absorbing rows are zero."""
    R = np.zeros((J, J))
    for j, node in enumerate(nodes):
        if node.routing is not None:
            R[j, :] = node.routing[:J]
    return R


def reachable(nodes, J, start):
    """Boolean J-vector: the nodes reachable through R > 0 from the
    nodes where ``start`` (a boolean J-vector) is true, those included."""
    R = routing_matrix(nodes, J)
    reach = np.array(start, dtype=bool)
    for _ in range(J):
        reach |= (R[reach] > 0).any(axis=0)
    return reach


def zero_time_loop(nodes, J, start):
    """True when customers from the nodes where ``start`` (a boolean
    J-vector) is true can reach a set of nodes that they would never
    leave, each service there taking zero time.

    That is the spectral radius of diag(F_j(0)) R, restricted to the nodes
    reachable through R, reaching 1 (to within roundoff).
    """
    reach = reachable(nodes, J, start)
    zero_time = np.array([node.service.cdf(0.0) for node in nodes])
    loop = (zero_time[:, None] * routing_matrix(nodes, J))[np.ix_(reach, reach)]
    return bool(loop.size) and bool(
        np.max(np.abs(np.linalg.eigvals(loop))) >= 1.0 - ZERO_TIME_LOOP_MARGIN)


def generator(nodes, J):
    """Sub-generator mu_j (R - I) of one customer's path, J x J.

    R is the routing submatrix (:func:`routing_matrix`). Exit is absorbing
    and needs no state: the path chain's transient block is exp(t G).
    Absorbing nodes have zero rows; every other node must be exponential
    (rate mu_j).
    """
    mu = np.array([0.0 if node.is_absorbing else node.service.rate for node in nodes])
    return mu[:, None] * (routing_matrix(nodes, J) - np.eye(J))
