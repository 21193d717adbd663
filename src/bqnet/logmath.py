"""Log-space special functions on NumPy and ``math`` alone.

The uniformization weights, the placement coefficients of
:mod:`bqnet.compound` and the simplex factorials need only log n! and
x log y. They are computed here so that the default path never imports
``scipy.special``, whose package init is most of a cold start.

* :func:`log_factorial` reads one table of log k!, grown with
  ``math.lgamma`` up to ``LOG_FACTORIAL_TABLE_MAX`` entries and never
  shrunk, and past it takes Stirling's series; it is +inf below 0, where
  Gamma(n + 1) has its poles, as ``scipy.special.gammaln`` is.
* :func:`xlogy` is x log y with its x = 0 entries masked to 0.
"""

from __future__ import annotations

import math

import numpy as np

# Largest table. Past it, Stirling's series to the 1/(12 x) term is within
# two ulps of log n!: the next term, 1/(360 x^3), is below 1e-17.
LOG_FACTORIAL_TABLE_MAX = 1 << 16
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_log_factorials = np.zeros(1)
_log_factorials.flags.writeable = False


def log_factorial_table(top):
    """Read-only log k! for k = 0 .. at least ``top``, one shared table."""
    global _log_factorials
    table = _log_factorials
    if len(table) <= top:
        grown = np.empty(max(top + 1, 2 * len(table)))
        grown[: len(table)] = table
        grown[len(table):] = [math.lgamma(k + 1.0) for k in range(len(table), len(grown))]
        grown.flags.writeable = False
        _log_factorials = table = grown
    return table


def log_factorial(n):
    """log(n!) for integer-valued ``n``, element-wise; +inf where n < 0."""
    n = np.asarray(n).astype(np.int64)
    big = n >= LOG_FACTORIAL_TABLE_MAX
    inside = np.where(big | (n < 0), 0, n)
    out = log_factorial_table(int(inside.max(initial=0)))[inside]
    if big.any():
        x = np.where(big, n, LOG_FACTORIAL_TABLE_MAX) + 1.0
        out = np.where(big, (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + 1.0 / (12.0 * x),
                       out)
    return np.where(n >= 0, out, np.inf)


def xlogy(x, y):
    """x log y, and 0 wherever x == 0 (``scipy.special.xlogy`` for y >= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(x, 0), 0.0, np.multiply(x, np.log(y)))
