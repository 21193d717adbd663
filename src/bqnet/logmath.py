"""Special functions on NumPy and ``math`` alone.

The uniformization weights, the placement coefficients of
:mod:`bqnet.compound` and the simplex factorials need only log n! and
x log y, and the zeta batch law needs the Riemann zeta function. They are
computed here so that neither the default path nor a zeta law imports
``scipy.special``, whose package init is most of a cold start.

* :func:`log_factorial` reads one table of log k!, grown with
  ``math.lgamma`` up to ``LOG_FACTORIAL_TABLE_MAX`` entries and never
  shrunk, and past it takes Stirling's series; it is +inf below 0, where
  Gamma(n + 1) has its poles, as ``scipy.special.gammaln`` is.
* :func:`xlogy` is x log y with its x = 0 entries masked to 0.
* :func:`zeta` is the Riemann zeta function of a real argument. For
  x >= 0 it is Euler-Maclaurin summation at N = 10 with ten
  B_2k / (2k)! terms (DLMF 25.2.9); for x < 0 it is the reflection
  zeta(x) = 2 (2 pi)^(x - 1) sin(pi x / 2) Gamma(1 - x) zeta(1 - x)
  (DLMF 25.4.1), with the sine's argument reduced mod 4. It is exactly 0
  at the negative even integers, -1/2 at 0 and +inf at the pole x = 1.
  :func:`zeta_minus_one` is the same summation from n = 2, for x > 1.
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


# Euler-Maclaurin for zeta: N terms summed, then the tail's corrections
# B_2k / (2k)!, k = 1 .. 10; the first one dropped, (x)_21 N^(-x-21) B_22 / 22!,
# is at most 6e-20 of zeta(x) for x in [0, 200], largest near x = 3.2
_ZETA_N = 10
_ZETA_BERNOULLI = np.array([
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
    43867 / 5109094217170944000, -174611 / 802857662698291200000])
_ZETA_INTEGERS = np.arange(1.0, _ZETA_N + 1.0)
_ZETA_ODD = np.arange(1.0, 2.0 * len(_ZETA_BERNOULLI) - 2.0, 2.0)
_TWO_PI = 2.0 * math.pi


def _zeta_corrections(x):
    """N^-x and the Euler-Maclaurin corrections B_2k/(2k)! (x)_(2k-1) N^(1-x-2k)
    past n = N, for a 1-D array of x >= 0."""
    col = x[:, None]
    # (x)_(2k-1) N^(1-2k) is x / N times prod_(j < k) (x + 2j - 1)(x + 2j) / N^2
    rising = np.cumprod((col + _ZETA_ODD) * (col + (_ZETA_ODD + 1.0)) / _ZETA_N ** 2, axis=1)
    power = _ZETA_N ** -x
    return power, (x / _ZETA_N * power) * (_ZETA_BERNOULLI[0] + rising @ _ZETA_BERNOULLI[1:])


def _zeta_euler_maclaurin(x):
    """zeta(x) for a 1-D array of x >= 0, x != 1 (DLMF 25.2.9)."""
    power, corrections = _zeta_corrections(x)
    # N^(1-x) / (x - 1) as 1 / (x - 1) + expm1((1 - x) log N) / (x - 1): the
    # pole is added last, so zeta(1 + d) - 1/d carries no cancellation
    regular = np.expm1((1.0 - x) * math.log(_ZETA_N)) / (x - 1.0) - 0.5 * power + corrections
    return (_ZETA_INTEGERS ** -x[:, None]).sum(axis=1) + regular + 1.0 / (x - 1.0)


def _gamma_over_two_pi_power(a):
    """Gamma(a) / (2 pi)^a for a > 1; by logs past Gamma's float range."""
    if a < 171.0:
        return math.gamma(a) / _TWO_PI ** a
    log_value = math.lgamma(a) - a * math.log(_TWO_PI)
    return math.exp(log_value) if log_value < 709.0 else math.inf


def zeta(x):
    """Riemann zeta(x) for finite real ``x``, element-wise; +inf at x = 1."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    negative = flat < 0.0
    even = negative & (np.fmod(flat, 2.0) == 0.0)
    left = negative & ~even
    # Euler-Maclaurin at x >= 0 and at 1 - x > 1 for the reflection
    y = np.where(left, 1.0 - flat, flat)
    pole = y == 1.0
    out = _zeta_euler_maclaurin(np.where(pole | even, 2.0, y))
    out[pole] = np.inf
    out[even] = 0.0
    out[flat == 0.0] = -0.5
    if left.any():
        # sin(pi x / 2) from r = x mod 4 in (-4, 0], folded into [-1, 1]
        # by sin(pi r / 2) = sin(pi (r + 4) / 2) = sin(pi (-2 - r) / 2)
        r = np.fmod(flat[left], 4.0)
        r = np.where(r < -3.0, r + 4.0, np.where(r < -1.0, -2.0 - r, r))
        scale = np.array([_gamma_over_two_pi_power(a) for a in y[left].tolist()])
        out[left] *= 2.0 * np.sin(0.5 * math.pi * r) * scale
    return out.reshape(x.shape)


def zeta_minus_one(x):
    """zeta(x) - 1 for real ``x`` > 1, element-wise, summed from n = 2 so
    that a large x loses no digits to the leading 1."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    power, corrections = _zeta_corrections(flat)
    # the tail integral N^(1-x) / (x - 1) as it stands: split at the pole,
    # as zeta has it, its two parts would cancel for large x
    tail = _ZETA_N * power / (flat - 1.0) - 0.5 * power + corrections
    return ((_ZETA_INTEGERS[1:] ** -flat[:, None]).sum(axis=1) + tail).reshape(x.shape)
