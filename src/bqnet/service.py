"""Per-node service-time laws and routing.

A node holds one service law (exponential, Erlang, deterministic, a
tabulated CDF, or absorbing) and a routing row over the J queues plus an
exit column. Absorbing nodes hold customers forever and carry no routing
row.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ValidationError

ROUTING_TOL = 1e-12

EXPONENTIAL = "exponential"
ERLANG = "erlang"
DETERMINISTIC = "deterministic"
TABULATED = "tabulated"
ABSORBING = "absorbing"


class ServiceLaw:
    """Service-time distribution at a single node."""

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = dict(params)
        if kind == EXPONENTIAL:
            if params["rate"] <= 0:
                raise ValidationError("exponential rate must be > 0")
            self.rate = float(params["rate"])
        elif kind == ERLANG:
            shape, rate = params["shape"], params["rate"]
            if int(shape) != shape or shape < 1:
                raise ValidationError("erlang shape must be a positive integer")
            if rate <= 0:
                raise ValidationError("erlang rate must be > 0")
            self.shape, self.rate = int(shape), float(rate)
        elif kind == DETERMINISTIC:
            if params["duration"] < 0:
                raise ValidationError("deterministic duration must be >= 0")
            self.duration = float(params["duration"])
        elif kind == TABULATED:
            times = np.asarray(params["times"], dtype=float)
            values = np.asarray(params["values"], dtype=float)
            if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
                raise ValidationError("tabulated CDF needs matching time/value arrays")
            if times[0] < 0 or np.any(np.diff(times) <= 0):
                raise ValidationError("tabulated CDF times must be strictly increasing and >= 0")
            if np.any(np.diff(values) < 0):
                raise ValidationError("tabulated CDF must be nondecreasing")
            if np.any(values < 0) or np.any(values > 1):
                raise ValidationError("tabulated CDF values must lie in [0, 1]")
            self.times, self.values = times, values
        elif kind != ABSORBING:
            raise ValidationError(f"unknown service kind {kind!r}")

    @classmethod
    def exponential(cls, rate):
        return cls(EXPONENTIAL, rate=rate)

    @classmethod
    def erlang(cls, shape, rate):
        return cls(ERLANG, shape=shape, rate=rate)

    @classmethod
    def deterministic(cls, duration):
        return cls(DETERMINISTIC, duration=duration)

    @classmethod
    def tabulated(cls, times, values):
        return cls(TABULATED, times=list(times), values=list(values))

    @classmethod
    def absorbing(cls):
        return cls(ABSORBING)

    def cdf(self, t):
        """P(service time <= t); vectorised. Absorbing laws never complete."""
        t = np.asarray(t, dtype=float)
        if self.kind == EXPONENTIAL:
            out = -np.expm1(-self.rate * np.maximum(t, 0.0))
        elif self.kind == ERLANG:
            out = special.gammainc(self.shape, self.rate * np.maximum(t, 0.0))
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
        return f"ServiceLaw({self.kind}, {self.params})"


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
        if np.any(row < 0):
            raise ValidationError("routing probabilities must be >= 0")
        if abs(row.sum() - 1.0) > ROUTING_TOL:
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
