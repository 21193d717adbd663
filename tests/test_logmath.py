"""The NumPy/``math`` special functions of :mod:`bqnet.logmath` against
mpmath."""

import math

import mpmath
import numpy as np
import pytest

from bqnet.logmath import zeta, zeta_minus_one

# the zeta batch exponents of the series tests, integers among them, with
# two within 1e-7 of an integer; the series reads zeta(s) and zeta(s - k)
ZETA_EXPONENTS = [1.0001, 1.01, 1.1, 1.33, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 7.0,
                  12.5, 45.0, 60.0, 2.0 + 1e-7, 2.0 - 1e-7]


@pytest.mark.parametrize("s", ZETA_EXPONENTS)
def test_zeta_matches_mpmath_at_every_series_argument(s):
    x = s - np.arange(0, 41)
    got = zeta(x)
    for xi, value in zip(x, got):
        if xi == 1.0:
            continue
        # within 1e-3 of a trivial zero the value is ill-conditioned in x
        if xi < 0 and abs(xi - 2.0 * round(xi / 2.0)) < 1e-3:
            continue
        with mpmath.workdps(40):
            want = float(mpmath.zeta(mpmath.mpf(float(xi))))
        assert value == pytest.approx(want, rel=1e-13, abs=0.0), xi


def test_zeta_exact_values():
    # -2, -4, ..., -40 and the pole without a RuntimeWarning, which pytest
    # turns into an error
    assert zeta(-2.0 * np.arange(1, 21)).tolist() == [0.0] * 20
    assert zeta(0.0) == -0.5
    assert zeta(1.0) == math.inf


def test_zeta_keeps_the_shape():
    x = np.array([[2.0, 4.0], [-1.0, 0.5]])
    got = zeta(x)
    assert got.shape == (2, 2)
    assert zeta(2.0).shape == ()
    np.testing.assert_allclose(got[0], [math.pi ** 2 / 6, math.pi ** 4 / 90], rtol=1e-15)
    assert got[1, 0] == pytest.approx(-1.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("x", [1.0001, 1.5, 2.0, 3.5, 10.0, 18.0, 30.0, 58.0, 100.0])
def test_zeta_minus_one_keeps_its_digits(x):
    # past x ~ 20 zeta(x) - 1 in float64 is mostly rounding of the 1
    with mpmath.workdps(60):
        want = float(mpmath.zeta(x) - 1)
    assert zeta_minus_one(x) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert zeta_minus_one(np.array([[x]])).shape == (1, 1)
