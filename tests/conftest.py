import math

import numpy as np
import pytest
from scipy import special, stats

from bqnet import (ArrivalProcess, BatchLaw, MarkovKernel, NetworkModel,
                   ServiceLaw, ServiceNode, SimulationBudgetError, UnivariateLaw)
from bqnet.batch import (BINOMIAL, DEGENERATE, GEOMETRIC, LOGARITHMIC,
                         NEG_BINOMIAL, POISSON, ZETA, poisson_pmf)
from bqnet.kernels import POISSON_TAIL, _poisson_isf
from bqnet.service import routing_matrix
from bqnet.simulate import EXITED, MAX_CUSTOMER_EVENTS


@pytest.fixture(scope="session")
def single_exp_node():
    return ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])


@pytest.fixture(scope="session")
def mm_model(single_exp_node):
    """M/M/infinity: J=1, lambda=1, mu=1, single arrivals."""
    return NetworkModel(J=1, arrival=ArrivalProcess.constant(1.0),
                        batch=BatchLaw.constant([1]), nodes=[single_exp_node])


@pytest.fixture(scope="session")
def mm_kernel(single_exp_node):
    return MarkovKernel([single_exp_node], 1)


@pytest.fixture(scope="session")
def tandem_nodes():
    """Two-node tandem: mu = (1, 2), node 1 -> node 2 -> exit."""
    return [ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0, 0.0]),
            ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])]


@pytest.fixture(scope="session")
def tandem_kernel(tandem_nodes):
    return MarkovKernel(tandem_nodes, 2)


@pytest.fixture(scope="session")
def batch_tandem_model(tandem_nodes):
    """The sinusoidal-arrival Poisson-batch tandem used across tests."""
    return NetworkModel(
        J=2,
        arrival=ArrivalProcess.sinusoidal(1.0, 0.5, 1.0),
        batch=BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [1.0, 0.0]),
        nodes=[ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0, 0.0]),
               ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])])


def truncation_support(law, q=1.0 - 1e-12):
    """Smallest n with P(S <= n) >= q, from ``scipy.stats`` quantiles (an
    analytic tail bound for zeta), for truncating oracle sums over n."""
    bounded = law.support_max()
    if bounded is not None:
        return bounded
    if law.family == POISSON:
        return int(stats.poisson.ppf(q, law.mu))
    if law.family == NEG_BINOMIAL:
        return int(stats.nbinom.ppf(q, law.shape, 1.0 / (1.0 + law.scale)))
    if law.family == LOGARITHMIC:
        return int(stats.logser.ppf(q, law.rho))
    if law.family == GEOMETRIC:
        return int(stats.geom.ppf(q, 1.0 - law.beta))
    if law.family == ZETA:
        s = law.exponent
        n = ((s - 1.0) * law._zeta_norm * (1.0 - q)) ** (1.0 / (1.0 - s))
        return int(math.ceil(n))
    raise ValueError(f"{law.family} has no practical truncation point")


def brute_force_iid_compound(law, qvec, i, n_top):
    """Independent oracle: P(C = i) by direct compounding of the batch size
    with multinomial placement, truncated at n_top."""
    qvec = np.asarray(qvec, dtype=float)
    i = tuple(int(v) for v in i)
    m = sum(i)
    leave = 1.0 - float(qvec.sum())
    total = 0.0
    for n in range(max(m, 0), n_top + 1):
        p_n = float(law.pmf(n))
        if p_n == 0.0:
            continue
        coeff = math.factorial(n) / math.factorial(n - m)
        for ik in i:
            coeff /= math.factorial(ik)
        placement = coeff * float(np.prod(qvec ** np.array(i)))
        if n > m:
            if leave <= 0.0:
                continue
            placement *= leave ** (n - m)
        total += p_n * placement
    return total


# -- per-position compounding oracle ---------------------------------------------
#
# The per-position closed forms and truncated series that the one-formula
# lattice in bqnet.compound replaced, kept verbatim as its oracle.


def oracle_iid_lattice(law, qvec, idx_array):
    """(P(C = i) for each row i of ``idx_array``, series tail bound)."""
    if law.family in (BINOMIAL, POISSON, NEG_BINOMIAL, LOGARITHMIC, DEGENERATE):
        return _oracle_closed(law, qvec, idx_array), 0.0
    return _oracle_series(law, qvec, idx_array)


def _oracle_log_power(qvec, idx_array):
    """log prod_k q_k^{i_k} with the 0 * log 0 = 0 convention."""
    with np.errstate(divide="ignore"):
        lq = np.log(qvec)
    contrib = idx_array * np.where(np.isfinite(lq), lq, 0.0)[None, :]
    impossible = (~np.isfinite(lq))[None, :] & (idx_array > 0)
    return np.where(impossible, -np.inf, contrib).sum(axis=1)


def _oracle_closed(law, qvec, idx_array):
    """Closed-form P(C = i) for the tractable univariate batch families."""
    m = idx_array.sum(axis=1)
    logqpow = _oracle_log_power(qvec, idx_array)
    logfact = special.gammaln(idx_array + 1.0).sum(axis=1)
    qbar = float(qvec.sum())
    fam = law.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam == POISSON:
            if law.mu == 0.0:
                return (m == 0).astype(float)
            logp = (-law.mu * qbar + m * math.log(law.mu) + logqpow - logfact)
            out = np.exp(logp)
            out[m == 0] = math.exp(-law.mu * qbar)
        elif fam == BINOMIAL:
            N, alpha = law.count, law.prob
            stay = 1.0 - alpha * qbar
            log_stay = math.log(stay) if stay > 0 else -math.inf
            tail_pow = np.where(N - m > 0, (N - m) * log_stay, 0.0)
            logp = (special.gammaln(N + 1.0) - special.gammaln(N - m + 1.0)
                    - logfact + m * (math.log(alpha) if alpha > 0 else -math.inf)
                    + logqpow + tail_pow)
            out = np.where(m <= N, np.exp(logp), 0.0)
            if alpha == 0.0:
                out = (m == 0).astype(float)
        elif fam == NEG_BINOMIAL:
            r, nu = law.shape, law.scale
            logp = (special.gammaln(r + m) - special.gammaln(r) - logfact
                    + m * math.log(nu) + logqpow
                    - (r + m) * math.log1p(nu * qbar))
            out = np.exp(logp)
        elif fam == LOGARITHMIC:
            rho = law.rho
            base = 1.0 - rho * (1.0 - qbar)
            norm = -math.log1p(-rho)
            logp = (-math.log(norm) + special.gammaln(m.astype(float))
                    + m * math.log(rho) + logqpow - logfact
                    - m * math.log(base))
            out = np.where(m >= 1, np.exp(logp), 0.0)
            zero = math.log(base) / math.log1p(-rho)
            out[m == 0] = zero
        elif fam == DEGENERATE:
            n = law.value
            leave = 1.0 - qbar
            log_leave = math.log(leave) if leave > 0 else -math.inf
            tail_pow = np.where(n - m > 0, (n - m) * log_leave, 0.0)
            logp = (special.gammaln(n + 1.0) - special.gammaln(n - m + 1.0)
                    - logfact + logqpow + tail_pow)
            out = np.where(m <= n, np.exp(logp), 0.0)
        else:
            raise AssertionError(fam)
    return np.where(np.isfinite(out), out, 0.0)


def _oracle_series(law, qvec, idx_array):
    """Truncated compounding sum for families without a closed form."""
    qbar = float(qvec.sum())
    leave = 1.0 - qbar
    log_leave = math.log(leave) if leave > 0 else -math.inf
    logqpow = _oracle_log_power(qvec, idx_array)
    logfact = special.gammaln(idx_array + 1.0).sum(axis=1)
    m = idx_array.sum(axis=1)
    out = np.zeros(idx_array.shape[0])
    tail_bound = 0.0
    top = law.support_max()
    for pos in range(idx_array.shape[0]):
        mm = int(m[pos])
        if mm == 0:
            out[pos] = 1.0 - law.pgf_gap(qbar)
            continue
        if not math.isfinite(logqpow[pos]):
            continue
        start = max(mm, law.support_min())
        stop = top
        acc = 0.0
        n = start
        chunk = 256
        while True:
            end = n + chunk if stop is None else min(n + chunk, stop + 1)
            if end <= n:
                break
            ns = np.arange(n, end, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lw = (special.gammaln(ns + 1.0) - special.gammaln(ns - mm + 1.0)
                      - logfact[pos] + logqpow[pos]
                      + np.where(ns - mm > 0, (ns - mm) * log_leave, 0.0))
            terms = law.pmf(ns.astype(np.int64)) * np.exp(lw)
            acc += float(terms.sum())
            n = end
            if stop is not None and n > stop:
                break
            last = float(terms[-1])
            if last < 1e-18 * max(acc, 1e-300) and terms[-1] <= terms[0]:
                # geometric-style bound on the rest of the series; a chunk
                # that starts at zero (nobody leaves, qbar = 1) adds nothing
                ratio = (float(terms[-1] / terms[0]) ** (1.0 / max(len(terms) - 1, 1))
                         if terms[0] > 0 else 0.0)
                tail_bound = max(tail_bound,
                                 last * ratio / max(1.0 - ratio, 1e-6))
                break
            if n - start > 1_000_000:
                tail_bound = max(tail_bound, last)
                break
        out[pos] = acc
    return out, tail_bound


# -- per-node renewal solve oracle -------------------------------------------------
#
# The Markov-renewal time-stepping that RenewalKernel's one-product-per-step
# solve replaced, kept verbatim as its oracle: a pair of tensordot calls per
# node and step over a reversed view of the history.


def oracle_renewal_solve(nodes, J, end, m):
    """(times, Q) on the uniform grid of ``m`` points over [0, end]."""
    times = np.linspace(0.0, end, m)
    cdf = np.zeros((J, m))
    for j, node in enumerate(nodes):
        cdf[j] = node.service.cdf(times)
    dF = np.diff(cdf, axis=1)
    atom0 = cdf[:, 0]
    surv = 1.0 - cdf
    R = routing_matrix(nodes, J)

    def implicit_solver(coeff):
        return np.linalg.inv(np.eye(J) - coeff[:, None] * R)

    Q = np.empty((m, J, J))
    if np.any(atom0 > 0):
        Q[0] = implicit_solver(atom0) @ np.diag(1.0 - atom0)
    else:
        Q[0] = np.eye(J)
    step_solver = implicit_solver(atom0 + 0.5 * dF[:, 0])
    for i in range(1, m):
        rhs = np.diag(surv[:, i]).astype(float)
        # trapezoidal Stieltjes convolution, unknown Q[i] term excluded
        recent = Q[i - 1::-1]
        for j, node in enumerate(nodes):
            if node.routing is None:
                continue
            K = np.tensordot(dF[j, :i], recent[:i], axes=1)
            if i > 1:
                K = K + np.tensordot(dF[j, 1:i], recent[: i - 1], axes=1)
            rhs[j] += R[j] @ (0.5 * K)
        Q[i] = step_solver @ rhs
    np.clip(Q, 0.0, 1.0, out=Q)
    return times, Q


# -- per-term uniformization oracle ------------------------------------------------
#
# The Poisson-series accumulation that MarkovKernel's cached jump-matrix
# powers replaced, kept verbatim as its oracle: one matrix product and one
# weighted add per term, all times of a call sharing one truncation.


def oracle_uniformization(kernel, ts):
    """(len(ts), J+1, J+1) transition matrices of ``kernel`` at ``ts``."""
    a = kernel.uniformization_rate * np.asarray(ts, dtype=float)
    a_max = float(np.max(a))
    n_max = 0 if a_max == 0.0 else int(_poisson_isf(POISSON_TAIL, a_max)) + 1
    weights = poisson_pmf(np.arange(n_max + 1)[:, None], a)
    weights /= weights.sum(axis=0, keepdims=True)
    power = np.eye(kernel.J + 1)
    acc = weights[0][:, None, None] * power
    for n in range(1, n_max + 1):
        power = power @ kernel._jump_matrix
        acc += weights[n][:, None, None] * power
    return np.clip(acc, 0.0, 1.0)


# -- per-node trajectory oracle ----------------------------------------------------
#
# The customer walk that the simulator's walk-and-tally pass replaced, kept
# verbatim as its oracle: a boolean mask per node for the service draws and
# another for the routing draws, and an (n, S) location array per block.


def _oracle_draw_services(nodes, node_ids, rng):
    """Service durations for customers grouped by node, in fixed node order."""
    out = np.empty(node_ids.shape[0])
    for j, node in enumerate(nodes):
        mask = node_ids == j
        count = int(mask.sum())
        if count:
            out[mask] = node.service.sample(rng, count)
    return out


def _oracle_route(nodes, J, node_ids, rng):
    """Next node (J = exit) for departing customers, grouped by node."""
    nxt = np.empty(node_ids.shape[0], dtype=np.int64)
    for j, node in enumerate(nodes):
        mask = node_ids == j
        count = int(mask.sum())
        if not count:
            continue
        if node.routing is None:
            raise SimulationBudgetError("absorbing customers should never depart")
        cum = np.cumsum(node.routing)
        nxt[mask] = np.searchsorted(cum, rng.uniform(size=count), side="right")
    return np.minimum(nxt, J)


def oracle_trajectory_locations(nodes, J, entry_nodes, arrival_times,
                                snapshot_times, rng):
    """Node index per customer per snapshot (EXITED when gone or not arrived).

    Vectorised across customers: each loop pass services every active
    customer once, so draws happen in a deterministic (iteration, node)
    order for a given stream. Callers check for zero-time loops first
    (``bqnet.simulate._check_zero_time_loop``); ``MAX_CUSTOMER_EVENTS`` is
    the backstop.
    """
    n = entry_nodes.shape[0]
    snaps = np.asarray(snapshot_times, dtype=float)
    out = np.full((n, snaps.size), EXITED, dtype=np.int64)
    if n == 0:
        return out
    horizon = float(snaps.max()) if snaps.size else 0.0
    node = entry_nodes.astype(np.int64).copy()
    epoch = arrival_times.astype(float).copy()
    active = np.ones(n, dtype=bool)
    for _ in range(MAX_CUSTOMER_EVENTS):
        if not active.any():
            return out
        idx = np.flatnonzero(active)
        departs = epoch[idx] + _oracle_draw_services(nodes, node[idx], rng)
        for s, t_s in enumerate(snaps):
            present = (epoch[idx] <= t_s) & (t_s < departs)
            out[idx[present], s] = node[idx[present]]
        moving = departs <= horizon
        done = idx[~moving]
        active[done] = False
        movers = idx[moving]
        if movers.size:
            nxt = _oracle_route(nodes, J, node[movers], rng)
            exited = nxt == J
            active[movers[exited]] = False
            keep = movers[~exited]
            node[keep] = nxt[~exited]
            epoch[keep] = departs[moving][~exited]
    raise SimulationBudgetError(
        f"a customer exceeded {MAX_CUSTOMER_EVENTS} service completions")
