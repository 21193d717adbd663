"""Stability classification via the expected batch occupancy time.

A homogeneous-arrival network has a proper limiting occupancy law exactly
when the expected time E[W] that at least one batch member remains in the
network is finite. E[W] is an integral of 1 - G_S(1 - Q_1, ..., 1 - Q_J)
over all time; the classifier prefers symbolic certificates (moment
conditions, and absorbing nodes that arriving customers can reach), which
can certify divergence, and falls back to quadrature, which can certify
convergence but reports slow decay as an infinity signal and anything
murkier as inconclusive -- never a silent number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, KernelDomainError
from .quadrature import QuadratureSpec, simpson_points, simpson_refine
from .service import (ABSORBING, DETERMINISTIC, ERLANG, EXPONENTIAL, generator,
                      reachable, routing_matrix)

ERGODIC = "ergodic"
NON_ERGODIC = "non-ergodic"
INCONCLUSIVE = "inconclusive"

FINITE_MEAN_BATCH = "finite-mean-batch"
LOG_MOMENT = "log-moment"
DIVERGENT_LOG_MOMENT = "divergent-log-moment"
FRACTIONAL_MOMENT = "fractional-moment"
FINITE_EW_QUADRATURE = "finite-E[W]-quadrature"
ABSORBING_REACHABLE = "absorbing-reachable"

# The 1e-9 absolute panel floor keeps mildly non-smooth integrands (linear
# interpolation corners of tabulated kernels) convergent while holding the
# summed horizon error orders of magnitude below the 1e-8 relative target.
_PANEL_QUAD = QuadratureSpec(initial_nodes=17, rtol=1e-9, atol=1e-9,
                             max_doublings=12)
_SUBSTOCHASTIC_MARGIN = 1e-9
# Geometric horizon growth for the E[W] integral: the first horizon, the
# number of doublings, the integrand floor and relative panel change that
# end it, and the slow-decay test (exponents below 1 + margin for that
# many consecutive doublings).
_HORIZON_START = 1.0
_HORIZON_DOUBLINGS = 48
_INTEGRAND_FLOOR = 1e-12
_RELATIVE_CHANGE = 1e-8
_SLOW_DECAY_MARGIN = 1e-3
_SLOW_DECAY_RUNS = 4


@dataclass
class BatchOccupancyIntegral:
    """Outcome of the E[W] quadrature.

    ``status`` is "finite" (value holds the integral), "infinite"
    (slow-decay divergence detected; value is math.inf), or
    "inconclusive" (value is math.nan).
    """

    value: float
    status: str
    horizon: float
    decay_exponent: float | None
    partials: list = field(default_factory=list)
    detail: str = ""

    @property
    def is_finite(self):
        return self.status == "finite"


def expected_batch_occupancy(model, kernel):
    """E[W] = int_0^inf [1 - G_S(1 - Q_1(tau), ...)] dtau, or a divergence signal.

    Panels [0, T], [T, 2T], ... with T doubled geometrically until the
    integrand drops below the floor and the value settles; if the
    integrand decays slower than tau^-(1 + margin) across
    ``_SLOW_DECAY_RUNS`` consecutive doublings, returns the infinity
    signal carrying the measured decay exponent. Each panel is composite
    Simpson, with Romberg's extrapolation on the same nodes when the
    kernel is analytic in time (the integrand then is too).
    """
    batch = model.batch
    extrapolate = kernel.analytic_in_time

    def integrand(taus):
        return batch.pgf_gap(kernel.survival_vectors(np.asarray(taus, dtype=float)))

    def first_rule(lo, hi, at_lo=None):
        # a panel's first rule, evaluated ahead: the integrand at each
        # horizon is the last of its values and, as ``at_lo``, the next
        # panel's first
        x = simpson_points(lo, hi, _PANEL_QUAD.initial_nodes)
        if at_lo is None:
            return integrand(x)
        return np.concatenate(([at_lo], integrand(x[1:])))

    # one decay exponent per doubling, inf where it was too small to measure
    horizon, total, partials, exponents = _HORIZON_START, math.nan, [], []

    def result(status, exponent, detail=""):
        value = {"finite": total, "infinite": math.inf}.get(status, math.nan)
        return BatchOccupancyIntegral(value, status, horizon, exponent, partials, detail)

    try:
        first = first_rule(0.0, horizon)
        total, _ = simpson_refine(integrand, 0.0, horizon, _PANEL_QUAD,
                                  "batch occupancy panel", values=first,
                                  extrapolate=extrapolate)
        partials.append(total)
        g_prev = float(first[-1])
        for _ in range(_HORIZON_DOUBLINGS):
            first = first_rule(horizon, 2.0 * horizon, first[-1])
            g_new = float(first[-1])
            last = next((b for b in reversed(exponents) if b < math.inf), math.inf)
            if g_new == 0.0 and g_prev > 0.0 and last < 2.0:
                # survival underflowed to exact zero while the integrand was
                # still decaying slowly; the remaining tail is invisible to
                # float64 (and the panel now holds a spurious jump), so
                # neither verdict can be certified
                horizon *= 2.0
                return result("inconclusive", last,
                              "integrand underflowed while decaying slowly")
            panel, _ = simpson_refine(integrand, horizon, 2.0 * horizon, _PANEL_QUAD,
                                      "batch occupancy panel", values=first,
                                      extrapolate=extrapolate)
            horizon *= 2.0
            total += panel
            partials.append(total)
            # decay exponents are only meaningful well above the noise floor
            measurable = 100.0 * _INTEGRAND_FLOOR
            beta = (math.log2(g_prev / g_new)
                    if g_prev > measurable and g_new > measurable else math.inf)
            if beta < -0.05:
                return result("inconclusive", beta, "integrand grew between doublings")
            exponents.append(beta)
            g_prev = g_new
            if (g_new < _INTEGRAND_FLOOR
                    and panel <= _RELATIVE_CHANGE * max(total, 1e-300)):
                return result("finite", beta)
            recent = exponents[-_SLOW_DECAY_RUNS:]
            if (len(recent) == _SLOW_DECAY_RUNS
                    and all(b < 1.0 + _SLOW_DECAY_MARGIN for b in recent)):
                return result("infinite", float(np.mean(recent)),
                              "integrand decay slower than the stability threshold")
        return result("inconclusive", exponents[-1],
                      "horizon budget exhausted without a verdict")
    except (KernelDomainError, ConvergenceError) as exc:
        # a kernel too short for the horizon, or a panel that refused to settle
        # (a jump, e.g. from a deterministic service law): no bad number
        partials = []
        cause = ("kernel horizon exhausted" if isinstance(exc, KernelDomainError)
                 else "panel quadrature stalled")
        return result("inconclusive", None, f"{cause}: {exc}")


@dataclass
class StabilityVerdict:
    """Classification outcome with the criterion that fired."""

    verdict: str
    criterion: str | None
    expected_batch_time: float | None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        ew = self.expected_batch_time
        if ew is None:
            ew_out = None
        elif math.isinf(ew):
            ew_out = "infinity"
        else:
            ew_out = ew
        return {
            "verdict": self.verdict,
            "criterion": self.criterion,
            "expected_batch_time": ew_out,
            "diagnostics": {k: v for k, v in sorted(self.diagnostics.items())},
        }


def _service_certificates(nodes, J):
    """Sound (never speculative) tail certificates from the service laws."""
    kinds = [n.service.kind for n in nodes]
    no_absorbing = ABSORBING not in kinds
    R = routing_matrix(nodes, J)
    rho = float(np.max(np.abs(np.linalg.eigvals(R)))) if J else 0.0
    substochastic = rho < 1.0 - _SUBSTOCHASTIC_MARGIN
    finite_means = all(n.service.mean() < math.inf for n in nodes)
    exp_upper = (no_absorbing and substochastic
                 and all(k in (EXPONENTIAL, ERLANG, DETERMINISTIC) for k in kinds))
    exp_two_sided = (no_absorbing and substochastic
                     and all(k == EXPONENTIAL for k in kinds))
    delta = None
    if exp_two_sided:
        delta = float(-np.max(np.linalg.eigvals(generator(nodes, J)).real))
    return {
        "finite_network_time": no_absorbing and substochastic and finite_means,
        "exponential_upper_tail": exp_upper,
        "exponential_two_sided_tail": exp_two_sided,
        "spectral_radius_routing": rho,
        "delta": delta,
    }


def classify_ergodicity(model, kernel, polynomial_tail_alpha=None):
    """Stability verdict for a homogeneous-arrival network.

    Decision ladder: an absorbing node that arriving customers can reach
    (some customers then never leave, so E[W] is infinite); finite mean
    batch with finite network occupancy times; logarithmic batch moment
    under certified exponential tails
    (an if-and-only-if for all-exponential networks); fractional moment
    under a caller-asserted polynomial tail bound Q_j(t) <= t^-alpha;
    and finally the E[W] quadrature. Numerical divergence alone never
    produces a non-ergodic verdict.
    """
    if not model.arrival.is_homogeneous():
        raise DomainError("ergodicity classification requires a constant arrival rate")
    if polynomial_tail_alpha is not None and not 1.0 < polynomial_tail_alpha < math.inf:
        raise DomainError("polynomial tail certificate needs a finite alpha > 1")
    batch = model.batch
    certs = {"finite_network_time": False, "exponential_upper_tail": False,
             "exponential_two_sided_tail": False}
    absorbing_reached = False
    if model.nodes is not None and kernel.representation != "tabulated":
        certs = _service_certificates(model.nodes, model.J)
        absorbing = np.array([node.is_absorbing for node in model.nodes])
        absorbing_reached = bool(np.any(
            absorbing & reachable(model.nodes, model.J, batch.entry_mask())))
    diagnostics = {k: v for k, v in certs.items() if v is not None}
    if absorbing_reached and float(model.arrival.rate(0.0)) > 0.0:
        return StabilityVerdict(NON_ERGODIC, ABSORBING_REACHABLE, math.inf,
                                diagnostics)

    def with_ew(verdict):
        ew = expected_batch_occupancy(model, kernel)
        if ew.is_finite:
            verdict.expected_batch_time = ew.value
            verdict.diagnostics["ew_horizon"] = ew.horizon
        return verdict

    if certs["finite_network_time"] and batch.mean_is_finite():
        return with_ew(StabilityVerdict(ERGODIC, FINITE_MEAN_BATCH, None,
                                        diagnostics))
    if certs["exponential_upper_tail"] and batch.log_moment_finite():
        return with_ew(StabilityVerdict(ERGODIC, LOG_MOMENT, None, diagnostics))
    if certs["exponential_two_sided_tail"] and not batch.log_moment_finite():
        return StabilityVerdict(NON_ERGODIC, DIVERGENT_LOG_MOMENT, math.inf,
                                diagnostics)
    if polynomial_tail_alpha is not None:
        diagnostics["alpha"] = polynomial_tail_alpha
        if batch.fractional_moment_finite(polynomial_tail_alpha):
            return with_ew(StabilityVerdict(ERGODIC, FRACTIONAL_MOMENT, None,
                                            diagnostics))
    ew = expected_batch_occupancy(model, kernel)
    diagnostics["ew_status"] = ew.status
    diagnostics["ew_horizon"] = ew.horizon
    if ew.decay_exponent is not None and math.isfinite(ew.decay_exponent):
        diagnostics["ew_decay_exponent"] = ew.decay_exponent
    if ew.is_finite:
        return StabilityVerdict(ERGODIC, FINITE_EW_QUADRATURE, ew.value,
                                diagnostics)
    # Quadrature saw divergence or worse; without a symbolic certificate
    # that is not proof, so stay inconclusive.
    return StabilityVerdict(INCONCLUSIVE, None,
                            math.inf if ew.status == "infinite" else None,
                            diagnostics)
