"""Arrival-rate descriptions for the batch arrival stream.

Three rate shapes are supported: constant, piecewise constant, and
sinusoidal. Each exposes the instantaneous rate, the exact cumulative
rate, and an exact finite upper bound usable as a thinning majorant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ValidationError

CONSTANT = "constant"
PIECEWISE = "piecewise-constant"
SINUSOIDAL = "sinusoidal"


class ArrivalProcess:
    """Non-homogeneous Poisson arrival rate lambda(t) on t >= 0."""

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = dict(params)
        if kind == CONSTANT:
            rate = params["rate"]
            if rate < 0:
                raise ValidationError("arrival rate must be >= 0")
            self._rate = float(rate)
        elif kind == PIECEWISE:
            breaks = np.asarray(params["breakpoints"], dtype=float)
            rates = np.asarray(params["rates"], dtype=float)
            if breaks.ndim != 1 or breaks.size == 0 or breaks[0] != 0.0:
                raise ValidationError("breakpoints must start at 0")
            if np.any(np.diff(breaks) <= 0):
                raise ValidationError("breakpoints must be strictly increasing")
            if rates.shape != breaks.shape:
                raise ValidationError("need one rate per breakpoint")
            if np.any(rates < 0):
                raise ValidationError("piecewise rates must be >= 0")
            self._breaks = breaks
            self._rates = rates
            # Cumulative rate at each breakpoint, for O(log n) evaluation.
            seg = rates[:-1] * np.diff(breaks)
            self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        elif kind == SINUSOIDAL:
            a, b = float(params["base"]), float(params["amplitude"])
            w, phi = float(params["frequency"]), float(params.get("phase", 0.0))
            if a <= 0:
                raise ValidationError("sinusoidal base rate must be > 0")
            if abs(b) > a:
                raise ValidationError("sinusoidal amplitude must satisfy |b| <= a")
            self._a, self._b, self._w, self._phi = a, b, w, phi
        else:
            raise ValidationError(f"unknown arrival kind {kind!r}")

    @classmethod
    def constant(cls, rate):
        return cls(CONSTANT, rate=rate)

    @classmethod
    def piecewise(cls, breakpoints, rates):
        return cls(PIECEWISE, breakpoints=list(breakpoints), rates=list(rates))

    @classmethod
    def sinusoidal(cls, base, amplitude, frequency, phase=0.0):
        return cls(SINUSOIDAL, base=base, amplitude=amplitude,
                   frequency=frequency, phase=phase)

    def rate(self, t):
        """Instantaneous rate lambda(t); vectorised over ``t``."""
        t = np.asarray(t, dtype=float)
        if self.kind == CONSTANT:
            out = np.full_like(t, self._rate)
        elif self.kind == PIECEWISE:
            idx = np.clip(np.searchsorted(self._breaks, t, side="right") - 1,
                          0, self._rates.size - 1)
            out = self._rates[idx]
        else:
            out = self._a + self._b * np.sin(self._w * t + self._phi)
        return out if out.shape else float(out)

    def cumulative(self, t):
        """Exact integrated rate Lambda(t) = int_0^t lambda."""
        t = np.asarray(t, dtype=float)
        if self.kind == CONSTANT:
            out = self._rate * t
        elif self.kind == PIECEWISE:
            idx = np.clip(np.searchsorted(self._breaks, t, side="right") - 1,
                          0, self._rates.size - 1)
            out = self._cum[idx] + self._rates[idx] * (t - self._breaks[idx])
        else:
            a, b, w, phi = self._a, self._b, self._w, self._phi
            if w == 0.0:
                out = (a + b * math.sin(phi)) * t
            else:
                out = a * t - (b / w) * (np.cos(w * t + phi) - math.cos(phi))
        return out if out.shape else float(out)

    def max_rate(self, horizon):
        """An exact finite upper bound for lambda on [0, horizon]."""
        if horizon < 0:
            raise DomainError("horizon must be >= 0")
        if self.kind == CONSTANT:
            return self._rate
        if self.kind == PIECEWISE:
            last = np.searchsorted(self._breaks, horizon, side="right")
            return float(np.max(self._rates[:max(last, 1)]))
        return self._a + abs(self._b)

    def is_homogeneous(self):
        if self.kind == CONSTANT:
            return True
        if self.kind == PIECEWISE:
            return self._rates.size == 1 or bool(np.all(self._rates == self._rates[0]))
        return self._b == 0.0

    def segments(self, horizon):
        """(start, end, rate) segments covering [0, horizon] for exact sampling.

        Only meaningful for constant / piecewise-constant processes.
        """
        if self.kind == CONSTANT:
            return [(0.0, horizon, self._rate)]
        if self.kind != PIECEWISE:
            raise DomainError("segments are only defined for piecewise-constant rates")
        out = []
        for i, start in enumerate(self._breaks):
            if start >= horizon:
                break
            end = self._breaks[i + 1] if i + 1 < self._breaks.size else horizon
            out.append((float(start), float(min(end, horizon)), float(self._rates[i])))
        return out

    def __repr__(self):
        return f"ArrivalProcess({self.kind}, {self.params})"
