import math

import numpy as np
import pytest
from scipy import linalg, special, stats

from bqnet import (ArrivalProcess, BatchLaw, MarkovKernel, NetworkModel,
                   ServiceLaw, ServiceNode, SimulationBudgetError, UnivariateLaw)
from bqnet.arrivals import PIECEWISE
from bqnet.batch import (BINOMIAL, FINITE, GEOMETRIC, LOGARITHMIC, NEG_BINOMIAL,
                         POISSON, ZETA)
from bqnet.compound import _closed_log_derivatives, _series_log_derivatives
from bqnet.kernels import _poisson_head, _poisson_weights
from bqnet.logmath import log_factorial, xlogy
from bqnet.service import routing_matrix
from bqnet.simulate import EXITED, MAX_CUSTOMER_EVENTS
from bqnet.tables import simplex_rank


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


# -- PGF-inversion oracle ----------------------------------------------------------
#
# The transient PMF read off the paper's PGF with none of bqnet's layers:
#
#     E[z^N(t)] = exp(-int_0^t lambda(tau) [1 - G_B(1 - q(t - tau) (1 - z))] dtau)
#
# evaluated at z = r w^k on an N^J torus (w = exp(2 pi i / N)) and inverted by
# one FFT, the Cauchy integral on a circle of radius r (Abate & Whitt 1992,
# "Numerical inversion of probability generating functions", Oper. Res.
# Lett. 12(4)). Entry n picks up the aliased mass P(N = n + N e_k) r^N,
# 10^(-gamma/2) times an entry past the torus, and round-off grows like
# r^(-|n|) <= 10^(gamma/4); the rows are scipy.linalg.expm of the path chain's
# generator and the time integral is Gauss-Legendre.


def oracle_pgf_inversion(rate, generator, batch_pgf, t, cap, gamma=13.0, order=96):
    """P(N(t) = n) for n in [0, N)^J, N = 2 (cap + 1), as an N^J array.

    ``rate`` maps an array of times to lambda; ``generator`` is the
    (J+1, J+1) generator of one customer's path chain, exit last;
    ``batch_pgf`` maps complex arguments y of shape (..., J) to
    E[prod_j y_j^{B_j}], B the batch's entry vector.
    """
    J = generator.shape[0] - 1
    size = 2 * (cap + 1)
    radius = 10.0 ** (-gamma / (2 * size))
    x, w = np.polynomial.legendre.leggauss(order)
    tau, w = 0.5 * t * (x + 1.0), 0.5 * t * w
    circle = radius * np.exp(2j * np.pi * np.arange(size) / size)
    one_minus_z = 1.0 - np.stack(np.meshgrid(*[circle] * J, indexing="ij"), axis=-1)
    rows = linalg.expm(generator * (t - tau)[:, None, None])[:, :J, :J]
    exponent = np.zeros((size,) * J, dtype=complex)
    for q, weight in zip(rows, w * rate(tau)):
        # y_j = 1 - sum_k q^j_k (1 - z_k): one batch member entering at j
        exponent += weight * (1.0 - batch_pgf(1.0 - one_minus_z @ q.T))
    probs = np.fft.fftn(np.exp(-exponent)).real / size ** J
    return probs / radius ** np.indices(probs.shape).sum(axis=0)


def oracle_iid_batch_pgf(law, entry_probs):
    """``batch_pgf`` of an iid-assignment batch for :func:`oracle_pgf_inversion`.

    Each of the batch's N members enters queue j with probability
    ``entry_probs[j]``, so E[prod_j y_j^{B_j}] = G_N(sum_j e_j y_j); G_N is
    written out in NumPy for complex s: (1 - p + p s)^n for a binomial law,
    (1 + nu (1 - s))^(-r) for a negative binomial of shape r and scale nu.
    """
    e = np.asarray(entry_probs, dtype=float)
    if law.family == BINOMIAL:
        return lambda y: (1.0 - law.prob + law.prob * (y @ e)) ** law.count
    if law.family == NEG_BINOMIAL:
        return lambda y: (1.0 + law.scale * (1.0 - y @ e)) ** -law.shape
    raise NotImplementedError(law.family)


# -- per-position compounding oracle ---------------------------------------------
#
# The full reductions over a length-J last axis that the coordinate-major
# placement and pair table replaced, kept verbatim as their oracles: the
# (nodes, |idx|, J) log powers summed over their last axis, and the pair
# table built degree by degree and put in order by one lexsort.


def oracle_log_weight(q, idx):
    """log(q^i / i!) for each row of the (m, J) stack ``q`` at every
    position of ``idx``, by one reduction over an (m, |idx|, J) array.

    The vectors are taken row-major, so that the (m, |idx|, J) array is
    C-contiguous and NumPy sums its last axis pairwise, as it does a
    contiguous axis; over a strided one it adds in another order.
    """
    vecs = np.ascontiguousarray(idx.array)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(vecs > 0, vecs * np.log(q)[:, None, :], 0.0)
    return log_power.sum(axis=2) - log_factorial(vecs).sum(axis=1)


def oracle_placement(law, q, idx):
    """``bqnet.compound._placement`` with every coordinate sum a reduction
    over a last axis of length J."""
    log_weight = oracle_log_weight(q, idx)
    qbar = q.sum(axis=1)
    if law.family in (BINOMIAL, POISSON, NEG_BINOMIAL, LOGARITHMIC, FINITE):
        log_g, tails = _closed_log_derivatives(law, qbar, idx.cap), np.zeros(len(q))
    else:
        offset = np.maximum.reduceat(log_weight, idx.degree_start[:-1], axis=1)
        log_g, tails = _series_log_derivatives(law, qbar, offset)
    degree = np.repeat(np.arange(idx.cap + 1), np.diff(idx.degree_start))
    with np.errstate(invalid="ignore"):
        values = np.exp(log_weight + log_g[:, degree])
    return np.where(np.isneginf(log_weight), 0.0, values), tails


def oracle_pair_table(idx):
    """(part, rest, total, degree_start, total_start, pivot_weight) of the
    pair table of ``idx``: every split built degree by degree, then sorted
    by total and by a's place in the box [0, n]."""
    J, cap, start = idx.J, idx.cap, idx.degree_start
    pivot = J - 1 - np.argmax(idx.array[:, ::-1] > 0, axis=1)
    parts, rests, totals, keys = [], [], [], []
    for d in range(cap + 1):
        a = np.arange(start[d], start[d + 1])
        b = np.arange(start[cap - d + 1])
        a, b = np.repeat(a, b.size), np.tile(b, a.size)
        avec = idx.array[a]
        nvec = avec + idx.array[b]
        key = np.zeros(a.size, dtype=np.int64)
        for k in range(J):
            key = key * (nvec[:, k] + 1) + avec[:, k]
        parts.append(a)
        rests.append(b)
        totals.append(simplex_rank(nvec))
        keys.append(key)
    total = np.concatenate(totals)
    order = np.lexsort((np.concatenate(keys), total))
    part = np.concatenate(parts)[order]
    rest = np.concatenate(rests)[order]
    total = total[order]
    weight = idx.array[part, pivot[total]].astype(float)
    return (part, rest, total, np.searchsorted(total, start),
            np.searchsorted(total, np.arange(start[-1])), weight)


# The per-position closed forms and truncated series that the one-formula
# lattice in bqnet.compound replaced, kept verbatim as its oracle.


def oracle_iid_lattice(law, qvec, idx_array):
    """(P(C = i) for each row i of ``idx_array``, series tail bound)."""
    if law.family in (BINOMIAL, POISSON, NEG_BINOMIAL, LOGARITHMIC):
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


# -- per-degree series oracle ------------------------------------------------------
#
# The per-degree chunk loop that the compound series' one product per chunk
# of terms replaced, kept verbatim as its oracle: each degree m sums its
# own chunks of P(N = n) n!/(n - m)! (1 - qbar)^(n - m) under the same
# cutoff, stop rules and tail bound.

SERIES_CHUNK = 256
SERIES_CUTOFF = 1e-18
SERIES_MAX_TERMS = 1_000_000


def oracle_binomial_log_derivatives(law, qbar, cap):
    """log G^(m)(1 - qbar), m = 0..cap, of a binomial or one-point law, as
    the binomial's closed form: a one-point table is the binomial with
    alpha = 1. ``qbar`` holds one value per node."""
    m = np.arange(cap + 1.0)
    qbar = qbar[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if law.family == BINOMIAL:
            count, alpha = law.count, law.prob
        else:
            count, alpha = int(law.support[0]), 1.0
        log_stay = np.log1p(-np.minimum(alpha * qbar, 1.0))
        falling = np.log(np.maximum(count - m + 1.0, 1.0))
        falling[0] = 0.0
        out = (np.cumsum(falling) + xlogy(m, alpha)
               + np.where(m == count, 0.0, (count - m) * log_stay))
        return np.where(m <= count, out, -np.inf)


def oracle_series_log_derivatives(law, qbar, offset):
    """log G^(m)(1 - qbar) for m = 0..cap by truncated series, and tail bounds.

    ``qbar`` holds one value per node and ``offset`` is (nodes, cap+1).
    Node k's degree-m series is scaled by ``offset[k, m]``, that degree's
    largest log(q^i / i!), so its terms are those of P(C = i) at the
    degree's largest position: the cutoff is relative and the tail bound
    is that position's. Every node shares each chunk of terms' batch
    probabilities and stops at its own cutoff; degrees with no possible
    position are skipped. Returns the (nodes, cap+1) logs and the (nodes,)
    tail bounds.
    """
    leave = 1.0 - qbar
    with np.errstate(divide="ignore"):
        log_leave = np.log(np.maximum(leave, 0.0))
        out = np.full(offset.shape, -np.inf)
        out[:, 0] = np.log(1.0 - law.pgf_gap(qbar))
    tails = np.zeros(len(qbar))
    top = law.support_max()
    for m in range(1, offset.shape[1]):
        started = live = np.flatnonzero(np.isfinite(offset[:, m]))
        start = n = max(m, law.support_min())
        acc = np.zeros(len(qbar))
        while live.size:
            end = n + SERIES_CHUNK if top is None else min(n + SERIES_CHUNK, top + 1)
            if end <= n:
                break
            ns = np.arange(n, end, dtype=float)
            pmf = law.pmf(ns.astype(np.int64))
            with np.errstate(divide="ignore", invalid="ignore"):
                lw = (log_factorial(ns) - log_factorial(ns - m)
                      + offset[live, m][:, None]
                      + np.where(ns - m > 0, (ns - m) * log_leave[live][:, None], 0.0))
            terms = pmf * np.exp(lw)
            acc[live] += terms.sum(axis=1)
            n = end
            if top is not None and n > top:
                break
            first, last = terms[:, 0], terms[:, -1]
            done = (last < SERIES_CUTOFF * np.maximum(acc[live], 1e-300)) & (last <= first)
            # geometric-style bound on the rest of each finished series; a
            # first term of 0 is (1 - qbar)^(n - m) = 0, and so is the rest
            bounded = done & (first > 0)
            if bounded.any():
                ratio = ((last[bounded] / first[bounded])
                         ** (1.0 / max(terms.shape[1] - 1, 1)))
                where = live[bounded]
                tails[where] = np.maximum(
                    tails[where], last[bounded] * ratio / np.maximum(1.0 - ratio, 1e-6))
            live, last = live[~done], last[~done]
            if n - start > SERIES_MAX_TERMS:
                tails[live] = np.maximum(tails[live], last)
                break
        with np.errstate(divide="ignore"):
            out[started, m] = np.log(acc[started]) - offset[started, m]
    return out, tails


# -- two-knot grid interpolation oracle --------------------------------------------
#
# The evaluation that GridKernel's stored knot rows and cell slopes
# replaced, kept as its oracle: the cell index clipped into range, both
# knots weighed by the fraction of the cell.


def oracle_grid_rows(times, table, ts):
    """(len(ts), J, J) placement rows of the (M, J, J) ``table`` on ``times``."""
    ts = np.asarray(ts, dtype=float)
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
    frac = (ts - times[idx]) / (times[idx + 1] - times[idx])
    return table[idx] * (1.0 - frac)[:, None, None] + table[idx + 1] * frac[:, None, None]


# -- renewal solve oracles ---------------------------------------------------------
#
# Two generations of the Markov-renewal time-stepping that RenewalKernel's
# blocked solve (leaf block inverse, FFT history) replaced, kept verbatim
# as its oracles: a pair of tensordot calls per node and step over a
# reversed view of the history, and the one (J, i) @ (i, J^2) product per
# step that followed it, which also continues a solved prefix.


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


def oracle_renewal_step_solve(nodes, J, times, prefix=None):
    """Q on ``times``, keeping ``prefix`` (Q on its leading points) as is."""
    m = times.size
    cdf = np.array([node.service.cdf(times) for node in nodes])
    half = 0.5 * np.diff(cdf, axis=1)              # (J, m-1)
    atom0 = cdf[:, 0]                              # mass exactly at 0
    surv = 1.0 - cdf                               # delta_jk factor
    R = routing_matrix(nodes, J)

    def implicit_solver(coeff):
        return np.linalg.inv(np.eye(J) - coeff[:, None] * R)

    Q = np.empty((m, J, J))
    if prefix is not None:
        Q[: len(prefix)] = prefix
    elif np.any(atom0 > 0):
        Q[0] = implicit_solver(atom0) @ np.diag(1.0 - atom0)
    else:
        Q[0] = np.eye(J)
    step_solver = implicit_solver(atom0 + half[:, 0])
    flat = Q.reshape(m, J * J)
    # weights of Q[1..i-1] at step i: trap[:, m-1-i : m-2], reversed
    trap = np.ascontiguousarray((half[:, :-1] + half[:, 1:])[:, ::-1])
    for i in range(1 if prefix is None else len(prefix), m):
        history = trap[:, m - 1 - i: m - 2] @ flat[1:i] + half[:, i - 1, None] * flat[0]
        history = np.einsum("jl,jlk->jk", R, history.reshape(J, J, J))
        Q[i] = step_solver @ (np.diag(surv[:, i]) + history)
    return np.clip(Q, 0.0, 1.0, out=Q)


# -- per-term uniformization oracle ------------------------------------------------
#
# The Poisson-series accumulation that MarkovKernel's cached jump-matrix
# powers replaced, kept as its oracle: one matrix product and one weighted
# add per term, all times of a call sharing one truncation. It sums the
# full path chain, exit state included, whose jump matrix it builds from
# the nodes' rates and routing rows; the kernel's chain has no exit state
# and squares the times past its series limit, so ``[:J, :J]`` of the
# oracle within that limit is the kernel's rows, bit for bit, as long as
# the exit state adds only +0.0 to them. The weights are the kernel's own,
# so the comparison is of the summation alone.


def oracle_jump_matrix(kernel):
    """(J+1, J+1) jump matrix of the path chain with its exit state, last."""
    J, r = kernel.J, kernel.uniformization_rate
    A = np.zeros((J + 1, J + 1))
    for j, node in enumerate(kernel.nodes):
        if not node.is_absorbing:
            mu = node.service.rate
            A[j] = mu * node.routing
            A[j, j] = -mu * (1.0 - node.routing[j])
    return np.eye(J + 1) + A / r if r > 0 else np.eye(J + 1)


def oracle_uniformization(kernel, ts):
    """(len(ts), J+1, J+1) transition matrices of ``kernel``'s path chain at ``ts``."""
    a = kernel.uniformization_rate * np.asarray(ts, dtype=float)
    head = _poisson_head(float(np.max(a)))
    weights = ((head / head.sum())[:, None] if len(a) == 1 else
               _poisson_weights(a, len(head) - 1))
    jump = oracle_jump_matrix(kernel)
    power = np.eye(kernel.J + 1)
    acc = weights[0][:, None, None] * power
    for n in range(1, len(weights)):
        power = power @ jump
        acc += weights[n][:, None, None] * power
    return np.clip(acc, 0.0, 1.0)


# -- two-branch arrival sampler oracle ---------------------------------------------
#
# The arrival sampler that one loop over rate pieces replaced, kept verbatim
# as its oracle: piecewise-constant rates drawn exactly per piece, any other
# shape thinned once on [0, horizon) against a + |b|.


def oracle_arrival_times(process, horizon, rng, count=1):
    """``(times, reps)`` as the two-branch sampler drew them."""
    chunks = [(np.empty(0), np.empty(0, dtype=np.int64))]
    if horizon > 0 and process.kind == PIECEWISE:
        for start, end, rate in process.segments(horizon):
            if rate <= 0 or end <= start:
                continue
            per_rep = rng.poisson(rate * (end - start), count)
            chunks.append((rng.uniform(start, end, int(per_rep.sum())),
                           np.repeat(np.arange(count), per_rep)))
    elif horizon > 0:
        lam_max = process._a + abs(process._b)
        if lam_max > 0:
            per_rep = rng.poisson(lam_max * horizon, count)
            total = int(per_rep.sum())
            t = rng.uniform(0.0, horizon, total)
            rep = np.repeat(np.arange(count), per_rep)
            keep = rng.uniform(size=total) * lam_max < process.rate(t)
            chunks.append((t[keep], rep[keep]))
    times, reps = zip(*chunks)
    return np.concatenate(times), np.concatenate(reps)


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
