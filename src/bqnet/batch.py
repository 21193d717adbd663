"""Batch-size laws: univariate families and multivariate batch representations.

The multivariate batch law S drives everything downstream, so it comes in
the three shapes that each unlock a different fast path:

* ``finite-table``   -- an explicit map from occupancy vectors to probabilities
* ``iid-assignment`` -- one univariate batch size, each customer independently
                        assigned an entry queue by a probability vector p
* ``independent-marginals`` -- one univariate law per queue, independent

Each family and each variant has exactly one constructor, the
:class:`UnivariateLaw` or :class:`BatchLaw` class method of its name,
which checks its parameters and builds the law. A constant batch
(:meth:`BatchLaw.constant`) is the finite table with one vector, and a
degenerate size (:meth:`UnivariateLaw.degenerate`) the finite table with
one point. One formula, :func:`_finite_table_gap`, gives the PGF gap of
every finite table, univariate or multivariate.

Univariate families include the (a, b)-recursive class (binomial, Poisson,
negative binomial, logarithmic, geometric) plus zeta, finite-table, and a
log-weighted-tail law c/(n log^2 n), n >= 2, whose logarithmic moment
diverges. Moments that do not exist are reported as
``math.inf`` -- a first-class signal, never an exception.

Importing this module loads NumPy and nothing from SciPy. The pmfs are
the closed forms that ``scipy.stats`` evaluates (Poisson, geometric and
logarithmic bit for bit, binomial and negative binomial through its
log-pmf formulas), and those that need ``scipy.special`` import it when
called; the samplers are the ``numpy.random.Generator`` methods its
``rvs`` calls. A zeta law takes its normalising constant, the ``zeta``
values of its float64 PGF series and its moments from
:func:`bqnet.logmath.zeta`, and ``scipy.integrate`` is imported only by
the log-weighted-tail PGF, the first time it is evaluated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SimulationBudgetError, ValidationError
from .logmath import zeta, zeta_minus_one

PROB_SUM_TOL = 1e-12
#: Largest batch size representable in simulation tallies.
MAX_SAMPLE = 1 << 62

BINOMIAL = "binomial"
POISSON = "poisson"
NEG_BINOMIAL = "negative-binomial"
LOGARITHMIC = "logarithmic"
GEOMETRIC = "geometric"
ZETA = "zeta"
FINITE = "finite-table"
LOG_WEIGHTED_TAIL = "log-weighted-tail"

_ZETA_SERIES_TERMS = 40
_ZETA_ORDERS = np.arange(1.0, _ZETA_SERIES_TERMS + 1.0)
_LWT_BODY_MAX = 100_000


class UnivariateLaw:
    """A nonnegative-integer batch-size law, built by its family's class method."""

    def __init__(self, family, **fields):
        self.family = family
        # one setattr each: vars(self).update would slow every attribute read
        for name, value in fields.items():
            setattr(self, name, value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def binomial(cls, count, prob):
        if not (float(count).is_integer() and count >= 1):
            raise ValidationError("binomial count must be a positive integer")
        if not 0.0 <= prob <= 1.0:
            raise ValidationError("binomial probability must lie in [0, 1]")
        return cls(BINOMIAL, count=int(count), prob=float(prob))

    @classmethod
    def poisson(cls, mean):
        if not (math.isfinite(mean) and mean >= 0):
            raise ValidationError("poisson mean must be finite and >= 0")
        return cls(POISSON, mu=float(mean))

    @classmethod
    def negative_binomial(cls, shape, scale):
        if not (math.isfinite(shape) and math.isfinite(scale) and shape > 0 and scale > 0):
            raise ValidationError("negative binomial needs finite shape > 0 and scale > 0")
        return cls(NEG_BINOMIAL, shape=float(shape), scale=float(scale))

    @classmethod
    def logarithmic(cls, rho):
        if not 0.0 < rho < 1.0:
            raise ValidationError("logarithmic parameter must lie in (0, 1)")
        return cls(LOGARITHMIC, rho=float(rho))

    @classmethod
    def geometric(cls, beta):
        if not 0.0 <= beta < 1.0:
            raise ValidationError("geometric ratio must lie in [0, 1)")
        return cls(GEOMETRIC, beta=float(beta))

    @classmethod
    def zeta(cls, exponent):
        if not (math.isfinite(exponent) and exponent > 1.0):
            raise ValidationError("zeta exponent must be finite and > 1")
        law = cls(ZETA, exponent=float(exponent))
        law._zeta_init()
        return law

    @classmethod
    def degenerate(cls, value):
        """The size that is always ``value``: a finite table with one point."""
        return cls.finite_table({value: 1.0})

    @classmethod
    def finite_table(cls, table):
        table = dict(table)
        if not table:
            raise ValidationError("finite table must be non-empty")
        for n, p in table.items():
            if not (float(n).is_integer() and 0 <= n <= MAX_SAMPLE
                    and math.isfinite(p) and p >= 0):
                raise ValidationError("finite table needs nonnegative integer support "
                                      "up to 2^62 and finite probabilities")
        total = float(sum(table.values()))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"finite table probabilities sum to {total}, not 1")
        support = np.array(sorted(table), dtype=np.int64)
        return cls(FINITE, support=support,
                   probs=np.array([table[int(n)] for n in support], dtype=float))

    @classmethod
    def log_weighted_tail(cls):
        law = cls(LOG_WEIGHTED_TAIL)
        law._lwt_init()
        return law

    # -- PMF ---------------------------------------------------------------

    def pmf(self, n):
        """Closed-form P(S = n); vectorised over integer ``n``."""
        scalar = np.isscalar(n)
        n = np.atleast_1d(np.asarray(n))
        out = np.zeros(n.shape, dtype=float)
        nn = n.astype(np.int64, copy=False)
        valid = nn >= 0
        pos = nn >= 1
        if self.family in (BINOMIAL, NEG_BINOMIAL, LOGARITHMIC):
            from scipy import special
        if self.family == BINOMIAL:
            inside = valid & (nn <= self.count)
            k, N, p = nn[inside], self.count, self.prob
            log_choose = special.gammaln(N + 1) - (special.gammaln(k + 1)
                                                   + special.gammaln(N - k + 1))
            out[inside] = np.exp(log_choose + special.xlogy(k, p)
                                 + special.xlog1py(N - k, -p))
        elif self.family == POISSON:
            out[valid] = poisson_pmf(nn[valid], self.mu)
        elif self.family == NEG_BINOMIAL:
            k, r, p = nn[valid], self.shape, 1.0 / (1.0 + self.scale)
            log_coeff = (special.gammaln(r + k) - special.gammaln(k + 1)
                         - special.gammaln(r))
            out[valid] = np.exp(log_coeff + r * np.log(p) + special.xlog1py(k, -p))
        elif self.family == LOGARITHMIC:
            k = nn[pos]
            out[pos] = -np.power(self.rho, k) / k / special.log1p(-self.rho)
        elif self.family == GEOMETRIC:
            p = 1.0 - self.beta
            out[pos] = np.power(1.0 - p, nn[pos] - 1) * p
        elif self.family == ZETA:
            out[pos] = nn[pos].astype(float) ** -self.exponent / self._zeta_norm
        elif self.family == FINITE:
            idx = np.searchsorted(self.support, nn)
            idx = np.clip(idx, 0, self.support.size - 1)
            hit = valid & (self.support[idx] == nn)
            out[hit] = self.probs[idx[hit]]
        else:
            mask = valid & (nn >= 2)
            ln = np.log(nn[mask].astype(float))
            out[mask] = self._lwt_c / (nn[mask] * ln * ln)
        return float(out[0]) if scalar else out

    # -- PGF ---------------------------------------------------------------

    def pgf(self, z):
        """E[z^S] for scalar z in [0, 1] (small overshoot above 1 tolerated
        by the closed-form families, for derivative probes)."""
        return 1.0 - self.pgf_gap(1.0 - z)

    def pgf_gap(self, eps):
        """1 - E[(1 - eps)^S], computed stably for eps down to ~1e-300."""
        scalar = np.isscalar(eps)
        eps = np.atleast_1d(np.asarray(eps, dtype=float))
        if self.family == BINOMIAL:
            out = -np.expm1(self.count * np.log1p(-self.prob * eps))
        elif self.family == POISSON:
            out = -np.expm1(-self.mu * eps)
        elif self.family == NEG_BINOMIAL:
            out = -np.expm1(-self.shape * np.log1p(self.scale * eps))
        elif self.family == LOGARITHMIC:
            out = -np.log1p(self.rho * eps / (1.0 - self.rho)) / math.log1p(-self.rho)
        elif self.family == GEOMETRIC:
            out = eps / (1.0 - self.beta + self.beta * eps)
        elif self.family == FINITE:
            out = _finite_table_gap(eps[:, None], self.support[:, None], self.probs)
        elif self.family == ZETA:
            out = self._zeta_gap(eps)
        else:
            out = np.array([self._lwt_gap(float(e)) for e in eps])
        return float(out[0]) if scalar else out

    # -- zeta internals -----------------------------------------------------

    def _zeta_init(self):
        """The coefficients of Li_s(e^-x) = Gamma(1 - s) x^(s-1)
        + sum_k zeta(s - k) (-x)^k / k!, k >= 0 (DLMF 25.12.12).

        For integer s the Gamma term and the k = s - 1 coefficient are both
        poles; their sum is (-x)^(s-1)/(s-1)! (H_(s-1) - ln x) (Wood 1992,
        *The computation of polylogarithms*, sec. 9), so that coefficient
        becomes H_(s-1) - ln x and the Gamma term goes. A term past the
        truncation is dropped with the rest. The gap takes the k >= 1
        terms as one product of (-x)^k / k! with these coefficients, the
        pole's set to 0, and adds the log term as a column of its own.

        Every zeta value, the normalising constant zeta(s) included, is
        :func:`bqnet.logmath.zeta`, which is +inf at the pole s - k = 1,
        and the Gamma term is ``math.gamma``: building the law imports
        nothing from SciPy.
        """
        s = self.exponent
        values = zeta(s - np.arange(_ZETA_SERIES_TERMS + 1))
        self._zeta_norm = float(values[0])
        self._zeta_coeffs = values[1:]
        self._zeta_direct = np.arange(1, 60) ** s
        self._zeta_log_k = None
        if s.is_integer():
            self._zeta_gamma = 0.0
            if s - 1 <= _ZETA_SERIES_TERMS:
                self._zeta_log_k = int(s) - 1
                self._zeta_harmonic = math.fsum(1.0 / j for j in range(1, int(s)))
                self._zeta_coeffs[self._zeta_log_k - 1] = 0.0
        else:
            self._zeta_gamma = math.gamma(1.0 - s)

    def _zeta_gap(self, eps):
        if np.any(eps < 0):
            raise DomainError("zeta PGF is not evaluable above z = 1")
        out = np.zeros(eps.shape)
        # direct series at z = 1 - eps <= 0.5: geometric convergence
        direct = eps >= 0.5
        if direct.any():
            z = 1.0 - eps[direct]
            power_sums = (z[:, None] ** np.arange(1, 60) / self._zeta_direct).sum(axis=1)
            out[direct] = 1.0 - power_sums / self._zeta_norm
        series = ~direct & (eps != 0.0)
        if series.any():
            x = -np.log1p(-eps[series])
            # (-x)^k / k! for k = 1..40, the products taken in order of k
            terms = np.cumprod(-x[:, None] / _ZETA_ORDERS, axis=1)
            # one (1, 40) @ (40,) product per node, so no node's value
            # depends on the others in its stack
            acc = (-self._zeta_gamma * x ** (self.exponent - 1.0)
                   - (terms[:, None, :] @ self._zeta_coeffs)[:, 0])
            if self._zeta_log_k is not None:
                k = self._zeta_log_k
                acc -= (self._zeta_harmonic - np.log(x)) * terms[:, k - 1]
            out[series] = acc / self._zeta_norm
        return out

    # -- log-weighted tail internals ----------------------------------------

    def _lwt_init(self):
        n = np.arange(2, _LWT_BODY_MAX + 1, dtype=float)
        weights = 1.0 / (n * np.log(n) ** 2)
        tail = self._lwt_tail_sum(_LWT_BODY_MAX + 1)
        self._lwt_body = weights
        self._lwt_c = 1.0 / (weights.sum() + tail)
        self._lwt_tail_mass = self._lwt_c * tail
        self._lwt_cdf = None

    @staticmethod
    def _lwt_tail_sum(a):
        """Euler-Maclaurin tail of sum_{n>=a} 1/(n log^2 n)."""
        la = math.log(a)
        f = 1.0 / (a * la * la)
        fprime = -(la + 2.0) / (a * la) ** 2 / la
        return 1.0 / la + 0.5 * f - fprime / 12.0

    def _lwt_gap(self, eps):
        if eps < 0:
            raise DomainError("log-weighted-tail PGF is not evaluable above z = 1")
        if eps == 0.0:
            return 0.0
        if eps >= 1.0:
            return 1.0
        s = -math.log1p(-eps)               # z = e^{-s}
        n = np.arange(2, _LWT_BODY_MAX + 1, dtype=float)
        body = float(-np.expm1(-s * n) @ self._lwt_body)
        a = _LWT_BODY_MAX + 1
        tail = self._lwt_tail_sum(a)
        if s * a < 45.0:
            from scipy.integrate import quad

            la = math.log(a)
            g = math.exp(-s * a) / (a * la * la)
            gprime = -math.exp(-s * a) * (s / (a * la * la)
                                          + (la + 2.0) / (a * la) ** 2 / la)
            y0 = la
            y_cut = -math.log(s)
            b1 = max(y0, y_cut + 1.0)
            pieces = [(y0, b1), (b1, b1 + 5.0)]

            def damped(y):
                # exp(-s e^y) written via y - y_cut so huge y never overflows
                return math.exp(-math.exp(min(y - y_cut, 500.0))) / (y * y)

            integral = 0.0
            for lo, hi in pieces:
                if hi > lo:
                    val, _ = quad(damped, lo, hi, epsabs=1e-14, epsrel=1e-11,
                                  limit=200)
                    integral += val
            tail -= integral + 0.5 * g - gprime / 12.0
        return self._lwt_c * (body + tail)

    # -- moments -------------------------------------------------------------

    def mean(self):
        if self.family == BINOMIAL:
            return self.count * self.prob
        if self.family == POISSON:
            return self.mu
        if self.family == NEG_BINOMIAL:
            return self.shape * self.scale
        if self.family == LOGARITHMIC:
            return -self.rho / ((1.0 - self.rho) * math.log1p(-self.rho))
        if self.family == GEOMETRIC:
            return 1.0 / (1.0 - self.beta)
        if self.family == ZETA:
            if self.exponent <= 2.0:
                return math.inf
            return float(zeta(self.exponent - 1.0)) / self._zeta_norm
        if self.family == FINITE:
            return float(self.support @ self.probs)
        return math.inf

    def second_factorial(self):
        """E[S(S-1)]; math.inf when it diverges."""
        if self.family == BINOMIAL:
            return self.count * (self.count - 1) * self.prob ** 2
        if self.family == POISSON:
            return self.mu ** 2
        if self.family == NEG_BINOMIAL:
            return self.shape * (self.shape + 1.0) * self.scale ** 2
        if self.family == LOGARITHMIC:
            return self.rho ** 2 / ((1.0 - self.rho) ** 2 * -math.log1p(-self.rho))
        if self.family == GEOMETRIC:
            return 2.0 * self.beta / (1.0 - self.beta) ** 2
        if self.family == ZETA:
            if self.exponent <= 3.0:
                return math.inf
            # sum_(n >= 2) n^(1-s) (n - 1) as (zeta(s - 2) - 1) - (zeta(s - 1) - 1):
            # the difference of the two zetas, both near 1, would cancel
            # about s bits
            tails = zeta_minus_one([self.exponent - 2.0, self.exponent - 1.0])
            return float(tails[0] - tails[1]) / self._zeta_norm
        if self.family == FINITE:
            return float((self.support * (self.support - 1)) @ self.probs)
        return math.inf

    def log_moment_finite(self):
        """Whether E[log(S + 1)] converges."""
        return self.family != LOG_WEIGHTED_TAIL

    def fractional_moment_finite(self, alpha):
        """Whether E[S^(1/alpha)] converges, for alpha > 1."""
        if alpha <= 1.0:
            raise DomainError("fractional moment test needs alpha > 1")
        if self.family == ZETA:
            return self.exponent > 1.0 + 1.0 / alpha
        if self.family == LOG_WEIGHTED_TAIL:
            return False
        return True

    # -- support and sampling -------------------------------------------------

    def support_min(self):
        if self.family in (LOGARITHMIC, GEOMETRIC, ZETA):
            return 1
        if self.family == LOG_WEIGHTED_TAIL:
            return 2
        if self.family == FINITE:
            return int(self.support[self.probs > 0][0])
        return 0

    def support_max(self):
        """Largest n with P(S = n) > 0, or None for unbounded families.

        Decided from the parameters alone, so a positive but tiny mass
        (Poisson mean 1e-17, say) still counts.
        """
        if self.family == BINOMIAL:
            return self.count if self.prob > 0.0 else 0
        if self.family == FINITE:
            return int(self.support[self.probs > 0][-1])
        if self.family == POISSON and self.mu == 0.0:
            return 0
        return None

    def sample(self, rng, size):
        """Draw ``size`` variates as an int64 array."""
        if self.family == BINOMIAL:
            return rng.binomial(self.count, self.prob, size).astype(np.int64)
        if self.family == POISSON:
            return rng.poisson(self.mu, size).astype(np.int64)
        if self.family == NEG_BINOMIAL:
            # gamma-Poisson mixture: exact for non-integer shape
            lam = rng.gamma(self.shape, self.scale, size)
            return rng.poisson(lam).astype(np.int64)
        if self.family == LOGARITHMIC:
            return rng.logseries(self.rho, size).astype(np.int64)
        if self.family == GEOMETRIC:
            return rng.geometric(1.0 - self.beta, size).astype(np.int64)
        if self.family == ZETA:
            return rng.zipf(self.exponent, size).astype(np.int64)
        if self.family == FINITE:
            if self.support.size == 1:
                # rng.choice would consume the stream even with one option
                return np.full(size, self.support[0], dtype=np.int64)
            return rng.choice(self.support, p=self.probs, size=size)
        return self._lwt_sample(rng, size)

    def _lwt_sample(self, rng, size):
        if self._lwt_cdf is None:
            self._lwt_cdf = np.cumsum(self._lwt_c * self._lwt_body)
        u = rng.uniform(size=size)
        body_cut = self._lwt_cdf[-1]
        out = np.empty(size, dtype=np.int64)
        body = u < body_cut
        out[body] = 2 + np.searchsorted(self._lwt_cdf, u[body], side="right")
        a = _LWT_BODY_MAX + 1
        la = math.log(a)
        tail_mass = self._lwt_tail_mass
        envelope = (self._lwt_c / (tail_mass * la)) * (math.log(a + 1.0) / la) \
            / (1.0 - 0.5 / a)
        for idx in np.flatnonzero(~body):
            for _ in range(1000):
                y = la / (1.0 - rng.uniform())
                if y > 709.0:
                    raise SimulationBudgetError(
                        "log-weighted-tail draw exceeds the representable range "
                        f"(needs ~exp({y:.0f}) customers)")
                x = math.floor(math.exp(y))
                if x < a:
                    continue
                if x > MAX_SAMPLE:
                    raise SimulationBudgetError(
                        "log-weighted-tail draw exceeds the int64 tally range")
                lx, lx1 = math.log(x), math.log(x + 1)
                target = self._lwt_c / (x * lx * lx) / tail_mass
                proposal = la * math.log1p(1.0 / x) / (lx * lx1)
                if rng.uniform() <= target / (envelope * proposal):
                    out[idx] = x
                    break
            else:
                raise SimulationBudgetError(
                    "log-weighted-tail rejection sampler stalled")
        return out

    def __repr__(self):
        return f"UnivariateLaw({self.family})"


FINITE_TABLE = "finite-table"
IID_ASSIGNMENT = "iid-assignment"
INDEPENDENT = "independent-marginals"

# Overshoot above z = 1 tolerated by pgf() so finite-difference probes of
# moments can straddle the boundary.
PGF_OVERSHOOT = 1e-3


def check_pgf_argument(z, J):
    """``z`` as a float J-vector in the unit box (up to ``PGF_OVERSHOOT``)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (J,):
        raise ValidationError(f"PGF argument must have length {J}")
    if not np.all((z >= 0.0) & (z <= 1.0 + PGF_OVERSHOOT)):
        raise ValidationError("PGF argument entries must lie in [0, 1]")
    return z


def check_occupancy_vector(n, J):
    """``n`` as an int64 J-vector of nonnegative integers."""
    n = np.asarray(n)
    if n.shape != (J,):
        raise ValidationError(f"occupancy vector must have length {J}")
    if np.any(n < 0) or np.any(n != n.astype(np.int64)):
        raise ValidationError("occupancy vector entries must be nonnegative integers")
    return n.astype(np.int64)


class BatchLaw:
    """Multivariate batch-size law over the J queues, built by its variant's class method."""

    def __init__(self, variant, J, **fields):
        if J < 1:
            raise ValidationError("batch dimension must be >= 1")
        self.variant = variant
        self.J = int(J)
        # one setattr each: vars(self).update would slow every attribute read
        for name, value in fields.items():
            setattr(self, name, value)

    @classmethod
    def finite_table(cls, table, J):
        table = dict(table)
        if not table:
            raise ValidationError("finite batch table must be non-empty")
        vectors, probs = [], []
        for vec, p in sorted(table.items()):
            vec = tuple(vec)
            if len(vec) != J or not all(float(v).is_integer() and 0 <= v <= MAX_SAMPLE
                                        for v in vec):
                raise ValidationError(f"batch table key {vec} is not a nonnegative "
                                      f"integer {J}-vector with entries up to 2^62")
            if not (math.isfinite(p) and p >= 0):
                raise ValidationError("batch table probabilities must be finite and >= 0")
            vectors.append(tuple(int(v) for v in vec))
            probs.append(float(p))
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"batch table probabilities sum to {total!r}, not 1")
        return cls(FINITE_TABLE, J, vectors=np.array(vectors, dtype=np.int64),
                   probs=np.array(probs))

    @classmethod
    def iid_assignment(cls, law, entry_probs):
        probs = np.asarray(tuple(entry_probs), dtype=float)
        if probs.ndim != 1:
            raise ValidationError("entry probabilities must have length J")
        if (not np.all(np.isfinite(probs)) or np.any(probs < 0)
                or abs(probs.sum() - 1.0) > PROB_SUM_TOL):
            raise ValidationError("entry probabilities must be finite, >= 0 and sum to 1")
        return cls(IID_ASSIGNMENT, len(probs), law=law, entry_probs=probs)

    @classmethod
    def independent(cls, laws):
        laws = list(laws)
        return cls(INDEPENDENT, len(laws), laws=laws)

    @classmethod
    def constant(cls, vector):
        """The batch that is always ``vector``: a finite table with one row."""
        vector = tuple(vector)
        return cls.finite_table({vector: 1.0}, len(vector))

    # -- PGF -----------------------------------------------------------------

    def pgf(self, z):
        """E[prod z_k^{S_k}] for z in the unit box."""
        return 1.0 - self.pgf_gap(1.0 - check_pgf_argument(z, self.J))

    def pgf_gap(self, eps):
        """1 - pgf(1 - eps), stable for tiny eps (no unit-box check).

        ``eps`` is one J-vector (returns a float) or an (m, J) stack of them
        (returns an (m,) array).
        """
        eps = np.asarray(eps, dtype=float)
        if eps.shape[-1:] != (self.J,) or eps.ndim > 2:
            raise ValidationError(f"PGF argument must have length {self.J}")
        out = self._stacked_gap(np.atleast_2d(eps))
        return float(out[0]) if eps.ndim == 1 else out

    def _stacked_gap(self, eps):
        if self.variant == IID_ASSIGNMENT:
            return self.law.pgf_gap(eps @ self.entry_probs)
        if self.variant == INDEPENDENT:
            # a marginal whose support is {0} has a gap of exactly 0
            gaps = np.stack([law.pgf_gap(e) for law, e in zip(self.laws, eps.T)
                             if law.support_max() != 0] or [np.zeros(len(eps))], axis=1)
            with np.errstate(divide="ignore"):
                log_keep = np.log1p(-np.minimum(gaps, 1.0)).sum(axis=1)
            return -np.expm1(log_keep)
        return _finite_table_gap(eps, self.vectors, self.probs)

    # -- PMF -----------------------------------------------------------------

    def pmf(self, n):
        """Exact P(S = n)."""
        n = check_occupancy_vector(n, self.J)
        if self.variant == INDEPENDENT:
            return float(np.prod([law.pmf(int(v))
                                  for law, v in zip(self.laws, n)]))
        if self.variant == FINITE_TABLE:
            matches = np.all(self.vectors == n, axis=1)
            return float(self.probs[matches].sum())
        total = int(n.sum())
        p_total = float(self.law.pmf(total))
        if p_total == 0.0:
            return 0.0
        return p_total * _multinomial_weight(n, self.entry_probs)

    # -- moments ---------------------------------------------------------------

    def factorial_moments(self, order):
        """Order 1: E[S_j] as a vector. Order 2: E[S_j (S_k - delta_jk)] as a
        matrix. Divergent entries are math.inf."""
        if order == 1:
            if self.variant == INDEPENDENT:
                return np.array([law.mean() for law in self.laws])
            if self.variant == FINITE_TABLE:
                return self.probs @ self.vectors
            mean = self.law.mean()
            if math.isinf(mean):
                return np.where(self.entry_probs > 0, math.inf, 0.0)
            return mean * self.entry_probs
        if order != 2:
            raise ValidationError("factorial moments are defined for order 1 or 2")
        if self.variant == INDEPENDENT:
            means = np.array([law.mean() for law in self.laws])
            out = _safe_outer(means, means)
            for j, law in enumerate(self.laws):
                out[j, j] = law.second_factorial()
            return out
        if self.variant == FINITE_TABLE:
            v = self.vectors.astype(float)
            out = np.einsum("i,ij,ik->jk", self.probs, v, v)
            np.fill_diagonal(out, self.probs @ (v * (v - 1.0)))
            return out
        fact2 = self.law.second_factorial()
        pp = np.outer(self.entry_probs, self.entry_probs)
        if math.isinf(fact2):
            return np.where(pp > 0, math.inf, 0.0)
        return fact2 * pp

    def mean_is_finite(self):
        return bool(np.all(np.isfinite(self.factorial_moments(1))))

    def log_moment_finite(self):
        """Whether E[log(S_1 + ... + S_J + 1)] converges."""
        if self.variant == IID_ASSIGNMENT:
            return self.law.log_moment_finite()
        if self.variant == INDEPENDENT:
            return all(law.log_moment_finite() for law in self.laws)
        return True

    def fractional_moment_finite(self, alpha):
        """Whether E[(S_1 + ... + S_J)^(1/alpha)] converges, alpha > 1."""
        if self.variant == IID_ASSIGNMENT:
            return self.law.fractional_moment_finite(alpha)
        if self.variant == INDEPENDENT:
            return all(law.fractional_moment_finite(alpha) for law in self.laws)
        return True

    # -- sampling ----------------------------------------------------------------

    def entry_mask(self):
        """Boolean J-vector: whether P(S_j > 0) > 0 for each queue j."""
        if self.variant == FINITE_TABLE:
            return (self.vectors[self.probs > 0] > 0).any(axis=0)
        if self.variant == INDEPENDENT:
            return np.array([law.support_max() != 0 for law in self.laws])
        return (self.entry_probs > 0) & (self.law.support_max() != 0)

    def sample_many(self, rng, count):
        """Draw ``count`` batch vectors as an int64 array (count, J)."""
        if count == 0:
            return np.zeros((0, self.J), dtype=np.int64)
        if self.variant == FINITE_TABLE:
            if len(self.probs) == 1:
                # rng.choice would consume the stream even with one option
                return np.tile(self.vectors[0], (count, 1))
            idx = rng.choice(self.vectors.shape[0], p=self.probs, size=count)
            return self.vectors[idx]
        if self.variant == INDEPENDENT:
            cols = [law.sample(rng, count) for law in self.laws]
            return np.stack(cols, axis=1)
        totals = self.law.sample(rng, count)
        if np.any(totals > MAX_SAMPLE):
            raise SimulationBudgetError("batch draw exceeds the int64 tally range")
        return rng.multinomial(totals, self.entry_probs).astype(np.int64)

    def __repr__(self):
        return f"BatchLaw({self.variant}, J={self.J})"


def poisson_pmf(n, mu):
    """``scipy.stats.poisson.pmf(n, mu)``, bit for bit, for integers n >= 0
    and mu >= 0; broadcasts."""
    from scipy import special

    return np.exp(special.xlogy(n, mu) - special.gammaln(n + 1) - mu)


def _finite_table_gap(eps, vectors, probs):
    """1 - sum_s p_s prod_k (1 - eps_k)^{s_k} for an (m, J) stack ``eps``,
    table vectors ``vectors`` (K, J) and probabilities ``probs`` (K,)."""
    with np.errstate(divide="ignore"):
        logz = np.log1p(-np.minimum(eps, 1.0))
    # sum_k s_k log z_k per table vector s, with 0 * log 0 = 0
    bad = ~np.isfinite(logz)
    pw = np.where(bad, 0.0, logz) @ vectors.T
    hits = (bad[:, None, :] & (vectors[None, :, :] > 0)).any(axis=2)
    return -np.expm1(np.where(hits, -np.inf, pw)) @ probs


def _multinomial_weight(n, probs):
    """multinomial(sum n; n) * prod probs^n, in log space."""
    n = np.asarray(n, dtype=np.int64)
    if np.any((probs == 0.0) & (n > 0)):
        return 0.0
    from scipy import special

    total = int(n.sum())
    log_coeff = special.gammaln(total + 1) - special.gammaln(n + 1).sum()
    with np.errstate(divide="ignore"):
        logp = np.where(n > 0, np.log(np.where(probs > 0, probs, 1.0)) * n, 0.0)
    return float(np.exp(log_coeff + logp.sum()))


def _safe_outer(a, b):
    """Outer product treating inf * 0 as 0."""
    with np.errstate(invalid="ignore"):
        product = np.multiply.outer(a, b)
    return np.where((a == 0.0)[:, None] | (b == 0.0), 0.0, product)
