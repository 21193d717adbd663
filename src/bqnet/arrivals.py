"""Arrival-rate descriptions for the batch arrival stream.

Two rate shapes are supported: piecewise constant (a constant rate is
the one-piece rate, :meth:`ArrivalProcess.constant`) and sinusoidal. Each
kind has exactly one constructor (:meth:`~ArrivalProcess.constant`,
:meth:`~ArrivalProcess.piecewise`, :meth:`~ArrivalProcess.sinusoidal`),
which checks its parameters and builds the rate. Each rate exposes the
instantaneous rate, the exact cumulative rate, and pieces covering
[0, horizon] with an exact finite rate bound on each, the simulator's
thinning majorant (:meth:`ArrivalProcess.segments`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

PIECEWISE = "piecewise-constant"
SINUSOIDAL = "sinusoidal"


class ArrivalProcess:
    """Non-homogeneous Poisson arrival rate lambda(t), built by its kind's class method."""

    def __init__(self, kind, **fields):
        self.kind = kind
        # one setattr each: vars(self).update would slow every attribute read
        for name, value in fields.items():
            setattr(self, name, value)

    @classmethod
    def constant(cls, rate):
        """The rate that is always ``rate``: one piece from time 0."""
        return cls.piecewise([0.0], [rate])

    @classmethod
    def piecewise(cls, breakpoints, rates):
        breaks, rates = np.asarray(breakpoints), np.asarray(rates)
        if breaks.dtype.kind not in "iuf" or rates.dtype.kind not in "iuf":
            raise ValidationError("breakpoints and rates must be numbers")
        breaks, rates = breaks.astype(float), rates.astype(float)
        if breaks.ndim != 1 or breaks.size == 0 or breaks[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        if not (np.all(np.diff(breaks) > 0) and np.isfinite(breaks[-1])):
            raise ValidationError("breakpoints must be finite and strictly increasing")
        if rates.shape != breaks.shape:
            raise ValidationError("need one rate per breakpoint")
        if not np.all((rates >= 0) & np.isfinite(rates)):
            raise ValidationError("arrival rates must be finite and >= 0")
        # Cumulative rate at each breakpoint, for O(log n) evaluation.
        seg = rates[:-1] * np.diff(breaks)
        return cls(PIECEWISE, _breaks=breaks, _rates=rates,
                   _cum=np.concatenate([[0.0], np.cumsum(seg)]))

    @classmethod
    def sinusoidal(cls, base, amplitude, frequency, phase=0.0):
        a, b = float(base), float(amplitude)
        w, phi = float(frequency), float(phase)
        if not (math.isfinite(a) and a > 0):
            raise ValidationError("sinusoidal base rate must be finite and > 0")
        if not abs(b) <= a:
            raise ValidationError("sinusoidal amplitude must satisfy |b| <= a")
        if not (math.isfinite(w) and math.isfinite(phi)):
            raise ValidationError("sinusoidal frequency and phase must be finite")
        return cls(SINUSOIDAL, _a=a, _b=b, _w=w, _phi=phi)

    def rate(self, t, horizon=math.inf):
        """Instantaneous rate lambda(t); vectorised over ``t``.

        Each time in [0, horizon] reads the piece of ``segments(horizon)``
        that covers it: a breakpoint inside belongs to the piece that starts
        there, the horizon itself to the piece that ends there (the left
        limit), since no piece of [0, horizon] starts at the horizon. The
        transient integrals pass their query time, so a rule's last node
        never reads the rate of a piece that starts at that time.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == PIECEWISE:
            last = max(int(np.searchsorted(self._breaks, horizon)) - 1, 0)
            idx = np.clip(np.searchsorted(self._breaks, t, side="right") - 1, 0, last)
            out = self._rates[idx]
        else:
            out = self._a + self._b * np.sin(self._w * t + self._phi)
        return out if out.shape else float(out)

    def cumulative(self, t):
        """Exact integrated rate Lambda(t) = int_0^t lambda."""
        t = np.asarray(t, dtype=float)
        if self.kind == PIECEWISE:
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

    def is_homogeneous(self):
        if self.kind == PIECEWISE:
            return bool(np.all(self._rates == self._rates[0]))
        return self._b == 0.0

    def segments(self, horizon):
        """(start, end, bound) pieces covering [0, horizon], lambda <= bound on each.

        A piecewise-constant rate returns its own pieces, each bounded by its
        own rate; a sinusoidal rate is one piece bounded by a + |b|.
        """
        if self.kind == SINUSOIDAL:
            return [(0.0, horizon, self._a + abs(self._b))]
        out = []
        for i, start in enumerate(self._breaks):
            if start >= horizon:
                break
            end = self._breaks[i + 1] if i + 1 < self._breaks.size else horizon
            out.append((float(start), float(min(end, horizon)), float(self._rates[i])))
        return out

    def __repr__(self):
        return f"ArrivalProcess({self.kind})"
