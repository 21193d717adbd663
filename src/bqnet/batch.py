"""Batch-size laws: univariate families and multivariate batch representations.

The multivariate batch law S drives everything downstream, so it comes in
the four shapes that each unlock a different fast path:

* ``finite-table``   -- an explicit map from occupancy vectors to probabilities
* ``iid-assignment`` -- one univariate batch size, each customer independently
                        assigned an entry queue by a probability vector p
* ``independent-marginals`` -- one univariate law per queue, independent
* ``constant``       -- a fixed vector

Univariate families include the (a, b)-recursive class (binomial, Poisson,
negative binomial, logarithmic, geometric) plus zeta, degenerate,
finite-table, and a log-weighted-tail law c/(n log^2 n), n >= 2, whose
logarithmic moment diverges. Moments that do not exist are reported as
``math.inf`` -- a first-class signal, never an exception.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, special, stats

from .errors import DomainError, SimulationBudgetError, ValidationError

PROB_SUM_TOL = 1e-12
TRUNCATION_QUANTILE = 1.0 - 1e-12
#: Largest batch size representable in simulation tallies.
MAX_SAMPLE = 1 << 62

BINOMIAL = "binomial"
POISSON = "poisson"
NEG_BINOMIAL = "negative-binomial"
LOGARITHMIC = "logarithmic"
GEOMETRIC = "geometric"
ZETA = "zeta"
DEGENERATE = "degenerate"
FINITE = "finite-table"
LOG_WEIGHTED_TAIL = "log-weighted-tail"

_ZETA_SERIES_TERMS = 40
_LWT_BODY_MAX = 100_000


class UnivariateLaw:
    """A nonnegative-integer batch-size distribution from a named family."""

    def __init__(self, family, **params):
        self.family = family
        self.params = dict(params)
        if family == BINOMIAL:
            N, alpha = params["count"], params["prob"]
            if int(N) != N or N < 1:
                raise ValidationError("binomial count must be a positive integer")
            if not 0.0 <= alpha <= 1.0:
                raise ValidationError("binomial probability must lie in [0, 1]")
            self.count, self.prob = int(N), float(alpha)
        elif family == POISSON:
            if params["mean"] < 0:
                raise ValidationError("poisson mean must be >= 0")
            self.mu = float(params["mean"])
        elif family == NEG_BINOMIAL:
            r, nu = params["shape"], params["scale"]
            if r <= 0 or nu <= 0:
                raise ValidationError("negative binomial needs shape > 0 and scale > 0")
            self.shape, self.scale = float(r), float(nu)
        elif family == LOGARITHMIC:
            rho = params["rho"]
            if not 0.0 < rho < 1.0:
                raise ValidationError("logarithmic parameter must lie in (0, 1)")
            self.rho = float(rho)
        elif family == GEOMETRIC:
            beta = params["beta"]
            if not 0.0 <= beta < 1.0:
                raise ValidationError("geometric ratio must lie in [0, 1)")
            self.beta = float(beta)
        elif family == ZETA:
            s = params["exponent"]
            if s <= 1.0:
                raise ValidationError("zeta exponent must be > 1")
            self.exponent = float(s)
            self._zeta_norm = float(special.zeta(self.exponent))
            self._zeta_coeffs = None
        elif family == DEGENERATE:
            n = params["value"]
            if int(n) != n or n < 0:
                raise ValidationError("degenerate value must be a nonnegative integer")
            self.value = int(n)
        elif family == FINITE:
            table = dict(params["table"])
            if not table:
                raise ValidationError("finite table must be non-empty")
            for n, p in table.items():
                if int(n) != n or n < 0 or p < 0:
                    raise ValidationError("finite table needs nonnegative integer "
                                          "support and probabilities")
            total = float(sum(table.values()))
            if abs(total - 1.0) > 1e-10:
                raise ValidationError(f"finite table probabilities sum to {total}, not 1")
            self.support = np.array(sorted(table), dtype=np.int64)
            self.probs = np.array([table[int(n)] for n in self.support], dtype=float)
        elif family == LOG_WEIGHTED_TAIL:
            self._lwt_init()
        else:
            raise ValidationError(f"unknown univariate family {family!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def binomial(cls, count, prob):
        return cls(BINOMIAL, count=count, prob=prob)

    @classmethod
    def poisson(cls, mean):
        return cls(POISSON, mean=mean)

    @classmethod
    def negative_binomial(cls, shape, scale):
        return cls(NEG_BINOMIAL, shape=shape, scale=scale)

    @classmethod
    def logarithmic(cls, rho):
        return cls(LOGARITHMIC, rho=rho)

    @classmethod
    def geometric(cls, beta):
        return cls(GEOMETRIC, beta=beta)

    @classmethod
    def zeta(cls, exponent):
        return cls(ZETA, exponent=exponent)

    @classmethod
    def degenerate(cls, value):
        return cls(DEGENERATE, value=value)

    @classmethod
    def finite_table(cls, table):
        return cls(FINITE, table=table)

    @classmethod
    def log_weighted_tail(cls):
        return cls(LOG_WEIGHTED_TAIL)

    # -- PMF ---------------------------------------------------------------

    def pmf(self, n):
        """Closed-form P(S = n); vectorised over integer ``n``."""
        scalar = np.isscalar(n)
        n = np.atleast_1d(np.asarray(n))
        out = np.zeros(n.shape, dtype=float)
        nn = n.astype(np.int64, copy=False)
        valid = nn >= 0
        if self.family == BINOMIAL:
            out[valid] = stats.binom.pmf(nn[valid], self.count, self.prob)
        elif self.family == POISSON:
            out[valid] = stats.poisson.pmf(nn[valid], self.mu)
        elif self.family == NEG_BINOMIAL:
            out[valid] = stats.nbinom.pmf(nn[valid], self.shape,
                                          1.0 / (1.0 + self.scale))
        elif self.family == LOGARITHMIC:
            out[valid] = stats.logser.pmf(nn[valid], self.rho)
        elif self.family == GEOMETRIC:
            out[valid] = stats.geom.pmf(nn[valid], 1.0 - self.beta)
        elif self.family == ZETA:
            pos = nn >= 1
            out[pos] = nn[pos].astype(float) ** -self.exponent / self._zeta_norm
        elif self.family == DEGENERATE:
            out[valid & (nn == self.value)] = 1.0
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
        elif self.family == DEGENERATE:
            if self.value == 0:
                out = np.zeros_like(eps)
            else:
                with np.errstate(divide="ignore"):
                    logz = np.log1p(-np.minimum(eps, 1.0))
                out = -np.expm1(self.value * logz)
        elif self.family == FINITE:
            with np.errstate(divide="ignore"):
                logz = np.log1p(-np.minimum(eps, 1.0))
            safe = np.where(np.isfinite(logz), logz, 0.0)
            pw = self.support[None, :] * safe[:, None]
            pw = np.where(np.isfinite(logz)[:, None], pw,
                          np.where(self.support[None, :] > 0, -np.inf, 0.0))
            out = -np.expm1(pw) @ self.probs
        elif self.family == ZETA:
            out = np.array([self._zeta_gap(float(e)) for e in eps])
        else:
            out = np.array([self._lwt_gap(float(e)) for e in eps])
        return float(out[0]) if scalar else out

    def _zeta_series_coeffs(self):
        if self._zeta_coeffs is None:
            s = self.exponent
            with mpmath.workdps(40):
                coeffs = [float(mpmath.zeta(s - k))
                          for k in range(1, _ZETA_SERIES_TERMS + 1)]
            self._zeta_coeffs = (float(special.gamma(1.0 - s)), coeffs)
        return self._zeta_coeffs

    def _zeta_gap(self, eps):
        s = self.exponent
        if eps < 0:
            raise DomainError("zeta PGF is not evaluable above z = 1")
        if eps == 0.0:
            return 0.0
        if eps >= 0.5:
            # direct series at z = 1 - eps <= 0.5: geometric convergence
            z = 1.0 - eps
            n = np.arange(1, 60)
            return 1.0 - float(np.sum(z ** n / n ** s)) / self._zeta_norm
        if float(s).is_integer():
            digits = max(30, int(1.2 * (s - 1) * -math.log10(eps)) + 20)
            with mpmath.workdps(digits):
                gap = 1 - mpmath.polylog(int(s), 1 - mpmath.mpf(eps)) / mpmath.zeta(s)
                return float(gap)
        gamma_term, coeffs = self._zeta_series_coeffs()
        x = -math.log1p(-eps)
        acc = -gamma_term * x ** (s - 1.0)
        term = 1.0
        for k, zk in enumerate(coeffs, start=1):
            term *= -x / k
            acc -= zk * term
        return acc / self._zeta_norm

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
                    val, _ = integrate.quad(damped, lo, hi,
                                            epsabs=1e-14, epsrel=1e-11, limit=200)
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
            return float(special.zeta(self.exponent - 1.0)) / self._zeta_norm
        if self.family == DEGENERATE:
            return float(self.value)
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
            z = self._zeta_norm
            return (float(special.zeta(self.exponent - 2.0))
                    - float(special.zeta(self.exponent - 1.0))) / z
        if self.family == DEGENERATE:
            return float(self.value * (self.value - 1))
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
        if self.family == DEGENERATE:
            return self.value
        if self.family == FINITE:
            return int(self.support[0])
        return 0

    def support_max(self):
        """Largest support point, or None for unbounded families."""
        if self.family == BINOMIAL:
            return self.count
        if self.family == DEGENERATE:
            return self.value
        if self.family == FINITE:
            return int(self.support[-1])
        if self.family == POISSON and self.mu == 0.0:
            return 0
        return None

    def truncation_support(self, q=TRUNCATION_QUANTILE):
        """Smallest n with P(S <= n) >= q (analytic bound for zeta)."""
        bounded = self.support_max()
        if bounded is not None:
            return bounded
        if self.family == POISSON:
            return int(stats.poisson.ppf(q, self.mu))
        if self.family == NEG_BINOMIAL:
            return int(stats.nbinom.ppf(q, self.shape, 1.0 / (1.0 + self.scale)))
        if self.family == LOGARITHMIC:
            return int(stats.logser.ppf(q, self.rho))
        if self.family == GEOMETRIC:
            return int(stats.geom.ppf(q, 1.0 - self.beta))
        if self.family == ZETA:
            # analytic tail bound inversion; can be astronomically large
            s = self.exponent
            n = ((s - 1.0) * self._zeta_norm * (1.0 - q)) ** (1.0 / (1.0 - s))
            return int(math.ceil(n))
        raise DomainError("log-weighted-tail has no practical truncation point")

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
            return stats.logser.rvs(self.rho, size=size, random_state=rng).astype(np.int64)
        if self.family == GEOMETRIC:
            return rng.geometric(1.0 - self.beta, size).astype(np.int64)
        if self.family == ZETA:
            return stats.zipf.rvs(self.exponent, size=size, random_state=rng).astype(np.int64)
        if self.family == DEGENERATE:
            return np.full(size, self.value, dtype=np.int64)
        if self.family == FINITE:
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
        return f"UnivariateLaw({self.family}, {self.params})"


FINITE_TABLE = "finite-table"
IID_ASSIGNMENT = "iid-assignment"
INDEPENDENT = "independent-marginals"
CONSTANT = "constant"

# Overshoot above z = 1 tolerated by pgf() so finite-difference probes of
# moments can straddle the boundary.
PGF_OVERSHOOT = 1e-3


class BatchLaw:
    """Multivariate batch-size distribution over the J queues."""

    def __init__(self, variant, J, **kwargs):
        self.variant = variant
        self.J = int(J)
        if J < 1:
            raise ValidationError("batch dimension must be >= 1")
        if variant == FINITE_TABLE:
            table = dict(kwargs["table"])
            if not table:
                raise ValidationError("finite batch table must be non-empty")
            vectors, probs = [], []
            for vec, p in sorted(table.items()):
                vec = tuple(int(v) for v in vec)
                if len(vec) != J or any(v < 0 for v in vec):
                    raise ValidationError(
                        f"batch table key {vec} is not a nonnegative {J}-vector")
                if p < 0:
                    raise ValidationError("batch table probabilities must be >= 0")
                vectors.append(vec)
                probs.append(float(p))
            total = math.fsum(probs)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValidationError(
                    f"batch table probabilities sum to {total!r}, not 1")
            self.vectors = np.array(vectors, dtype=np.int64)
            self.probs = np.array(probs)
        elif variant == IID_ASSIGNMENT:
            law, probs = kwargs["law"], np.asarray(kwargs["entry_probs"], dtype=float)
            if probs.shape != (J,):
                raise ValidationError("entry probabilities must have length J")
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > PROB_SUM_TOL:
                raise ValidationError("entry probabilities must be >= 0 and sum to 1")
            self.law = law
            self.entry_probs = probs
        elif variant == INDEPENDENT:
            laws = list(kwargs["laws"])
            if len(laws) != J:
                raise ValidationError("need one marginal law per queue")
            self.laws = laws
        elif variant == CONSTANT:
            vec = np.asarray(kwargs["vector"])
            if vec.shape != (J,) or np.any(vec < 0) or np.any(vec != vec.astype(np.int64)):
                raise ValidationError("constant batch must be a nonnegative integer J-vector")
            self.vector = vec.astype(np.int64)
        else:
            raise ValidationError(f"unknown batch variant {variant!r}")

    @classmethod
    def finite_table(cls, table, J):
        return cls(FINITE_TABLE, J, table=table)

    @classmethod
    def iid_assignment(cls, law, entry_probs):
        return cls(IID_ASSIGNMENT, len(tuple(entry_probs)), law=law,
                   entry_probs=tuple(entry_probs))

    @classmethod
    def independent(cls, laws):
        return cls(INDEPENDENT, len(list(laws)), laws=list(laws))

    @classmethod
    def constant(cls, vector):
        return cls(CONSTANT, len(tuple(vector)), vector=tuple(vector))

    # -- PGF -----------------------------------------------------------------

    def _check_z(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.J,):
            raise ValidationError(f"PGF argument must have length {self.J}")
        if np.any(z < 0.0) or np.any(z > 1.0 + PGF_OVERSHOOT):
            raise ValidationError("PGF argument entries must lie in [0, 1]")
        return z

    def pgf(self, z):
        """E[prod z_k^{S_k}] for z in the unit box."""
        return 1.0 - self.pgf_gap(1.0 - self._check_z(z))

    def pgf_gap(self, eps):
        """1 - pgf(1 - eps), stable for tiny eps (no unit-box check)."""
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (self.J,):
            raise ValidationError(f"PGF argument must have length {self.J}")
        if self.variant == IID_ASSIGNMENT:
            return float(self.law.pgf_gap(float(self.entry_probs @ eps)))
        if self.variant == CONSTANT:
            if np.any((eps >= 1.0) & (self.vector > 0)):
                return 1.0
            with np.errstate(divide="ignore"):
                logz = np.log1p(-np.minimum(eps, 1.0))
            return float(-np.expm1(np.sum(self.vector * np.where(
                self.vector > 0, logz, 0.0))))
        if self.variant == INDEPENDENT:
            gaps = np.array([law.pgf_gap(float(e))
                             for law, e in zip(self.laws, eps)])
            if np.any(gaps >= 1.0):
                return 1.0
            return float(-np.expm1(np.sum(np.log1p(-gaps))))
        # finite table
        with np.errstate(divide="ignore"):
            logz = np.log1p(-np.minimum(eps, 1.0))
        safe = np.where(np.isfinite(logz), logz, 0.0)
        pw = self.vectors @ safe
        bad = ~np.isfinite(logz)
        if np.any(bad):
            hits = (self.vectors[:, bad] > 0).any(axis=1)
            pw = np.where(hits, -np.inf, self.vectors @ np.where(bad, 0.0, safe))
        return float(-np.expm1(pw) @ self.probs)

    # -- PMF -----------------------------------------------------------------

    def _check_n(self, n):
        n = np.asarray(n)
        if n.shape != (self.J,):
            raise ValidationError(f"occupancy vector must have length {self.J}")
        if np.any(n < 0) or np.any(n != n.astype(np.int64)):
            raise ValidationError("occupancy vector entries must be nonnegative integers")
        return n.astype(np.int64)

    def pmf(self, n):
        """Exact P(S = n)."""
        n = self._check_n(n)
        if self.variant == CONSTANT:
            return 1.0 if np.array_equal(n, self.vector) else 0.0
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
            if self.variant == CONSTANT:
                return self.vector.astype(float)
            if self.variant == INDEPENDENT:
                return np.array([law.mean() for law in self.laws])
            if self.variant == FINITE_TABLE:
                return self.probs @ self.vectors
            return self.law.mean() * self.entry_probs
        if order != 2:
            raise ValidationError("factorial moments are defined for order 1 or 2")
        if self.variant == CONSTANT:
            s = self.vector.astype(float)
            out = np.outer(s, s)
            np.fill_diagonal(out, s * (s - 1.0))
            return out
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

    def sample_many(self, rng, count):
        """Draw ``count`` batch vectors as an int64 array (count, J)."""
        if count == 0:
            return np.zeros((0, self.J), dtype=np.int64)
        if self.variant == CONSTANT:
            return np.tile(self.vector, (count, 1))
        if self.variant == FINITE_TABLE:
            idx = rng.choice(self.vectors.shape[0], p=self.probs, size=count)
            return self.vectors[idx]
        if self.variant == INDEPENDENT:
            cols = [law.sample(rng, count) for law in self.laws]
            return np.stack(cols, axis=1)
        totals = self.law.sample(rng, count)
        if np.any(totals > MAX_SAMPLE):
            raise SimulationBudgetError("batch draw exceeds the int64 tally range")
        return rng.multinomial(totals, self.entry_probs).astype(np.int64)

    def sample(self, rng):
        """Draw a single batch vector."""
        return self.sample_many(rng, 1)[0]

    def __repr__(self):
        return f"BatchLaw({self.variant}, J={self.J})"


def _multinomial_weight(n, probs):
    """multinomial(sum n; n) * prod probs^n, in log space."""
    n = np.asarray(n, dtype=np.int64)
    if np.any((probs == 0.0) & (n > 0)):
        return 0.0
    total = int(n.sum())
    log_coeff = special.gammaln(total + 1) - special.gammaln(n + 1).sum()
    with np.errstate(divide="ignore"):
        logp = np.where(n > 0, np.log(np.where(probs > 0, probs, 1.0)) * n, 0.0)
    return float(np.exp(log_coeff + logp.sum()))


def _safe_outer(a, b):
    """Outer product treating inf * 0 as 0."""
    out = np.empty((a.size, b.size))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i, j] = 0.0 if (x == 0.0 or y == 0.0) else x * y
    return out
