"""Discrete-event Monte Carlo oracle for the generative model.

Implements the arrival / batch / trajectory story directly -- thinned
non-homogeneous Poisson epochs, exact batch draws, and independent
customer walks through the service nodes -- so it shares no formulas
with the analytic modules it cross-checks.

Replications are processed in fixed-size blocks; block b draws from a
Philox stream keyed by (seed, b), so tallies are identical for a given
seed and replication count no matter how many workers run the blocks.

Each block tallies itself. Per snapshot it counts customers per
(replication, node) with one ``np.bincount``, sets aside the
replications whose total exceeds the cap as overflow, and keys every
other occupancy vector by its graded-lex position on the simplex
(:func:`bqnet.tables.simplex_rank`, one int64 per vector). A block
returns its distinct keys, their counts and one vector per key;
:func:`run_simulation` merges the blocks' keys with one ``np.unique``
and one weighted ``np.bincount`` per snapshot and builds the
``{vector: count}`` table once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SimulationBudgetError, ValidationError
from .service import zero_time_loop
from .tables import dump_json, simplex_rank, write_occupancy_csv

BLOCK_SIZE = 4096
EXITED = -1
MAX_CUSTOMER_EVENTS = 1_000_000
# Customers one block may hold. Each costs about 100 bytes while its block
# runs: entry node, arrival time and replication (8 bytes each), a
# location per snapshot (8 bytes each) and the trajectory loop's per
# customer node, epoch, departure and index arrays. 10M customers keep one
# block's per-customer arrays near 1 GiB; typical blocks hold tens of
# thousands.
MAX_BLOCK_CUSTOMERS = 10_000_000


def _block_rng(seed, block):
    key = np.array([seed % (1 << 64), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_arrival_times(process, horizon, rng, count=1):
    """Arrival epochs on [0, horizon) for ``count`` independent replications.

    Returns ``(times, reps)``: every epoch with the replication it belongs
    to, in draw order (not sorted). Piecewise-constant (and constant)
    rates are sampled exactly per segment; other shapes are thinned
    against the exact majorant.
    """
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    chunks = [(np.empty(0), np.empty(0, dtype=np.int64))]
    if horizon > 0 and process.kind in ("constant", "piecewise-constant"):
        for start, end, rate in process.segments(horizon):
            if rate <= 0 or end <= start:
                continue
            per_rep = rng.poisson(rate * (end - start), count)
            chunks.append((rng.uniform(start, end, int(per_rep.sum())),
                           np.repeat(np.arange(count), per_rep)))
    elif horizon > 0:
        lam_max = process.max_rate(horizon)
        if lam_max > 0:
            per_rep = rng.poisson(lam_max * horizon, count)
            total = int(per_rep.sum())
            t = rng.uniform(0.0, horizon, total)
            rep = np.repeat(np.arange(count), per_rep)
            keep = rng.uniform(size=total) * lam_max < process.rate(t)
            chunks.append((t[keep], rep[keep]))
    times, reps = zip(*chunks)
    return np.concatenate(times), np.concatenate(reps)


def _draw_services(nodes, node_ids, rng):
    """Service durations for customers grouped by node, in fixed node order."""
    out = np.empty(node_ids.shape[0])
    for j, node in enumerate(nodes):
        mask = node_ids == j
        count = int(mask.sum())
        if count:
            out[mask] = node.service.sample(rng, count)
    return out


def _route(nodes, J, node_ids, rng):
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


def _check_zero_time_loop(nodes, J, start):
    """Raise before any draw when customers from ``start`` (a boolean
    J-vector) can circle forever in zero time."""
    if zero_time_loop(nodes, J, start):
        raise SimulationBudgetError(
            "customers can reach nodes they would circle forever in zero time")


def _trajectory_locations(nodes, J, entry_nodes, arrival_times, snapshot_times, rng):
    """Node index per customer per snapshot (EXITED when gone or not arrived).

    Vectorised across customers: each loop pass services every active
    customer once, so draws happen in a deterministic (iteration, node)
    order for a given stream. Callers check for zero-time loops first
    (:func:`_check_zero_time_loop`); ``MAX_CUSTOMER_EVENTS`` is the backstop.
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
        departs = epoch[idx] + _draw_services(nodes, node[idx], rng)
        for s, t_s in enumerate(snaps):
            present = (epoch[idx] <= t_s) & (t_s < departs)
            out[idx[present], s] = node[idx[present]]
        moving = departs <= horizon
        done = idx[~moving]
        active[done] = False
        movers = idx[moving]
        if movers.size:
            nxt = _route(nodes, J, node[movers], rng)
            exited = nxt == J
            active[movers[exited]] = False
            keep = movers[~exited]
            node[keep] = nxt[~exited]
            epoch[keep] = departs[moving][~exited]
    raise SimulationBudgetError(
        f"a customer exceeded {MAX_CUSTOMER_EVENTS} service completions")


def sample_trajectory(nodes, entry, rng, offsets):
    """Locations of a single customer at each offset after its arrival."""
    J = len(nodes)
    if not 0 <= entry < J:
        raise ValidationError(f"entry node {entry} out of range for J={J}")
    offsets = np.asarray(offsets, dtype=float)
    if np.any(offsets < 0):
        raise ValidationError("snapshot offsets must be >= 0")
    _check_zero_time_loop(nodes, J, np.arange(J) == entry)
    locs = _trajectory_locations(nodes, J, np.array([entry]), np.zeros(1),
                                 offsets, rng)
    return locs[0]


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: model, snapshot times, replications, seed, tally cap."""

    model: object
    times: tuple
    replications: int
    seed: int
    cap: int = 50

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("replication count must be >= 1")
        times = tuple(float(t) for t in self.times)
        if not times or any(t < 0 or not math.isfinite(t) for t in times):
            raise ValidationError("snapshot times must be finite and >= 0")
        if list(times) != sorted(times):
            raise ValidationError("snapshot times must be sorted")
        object.__setattr__(self, "times", times)
        if self.cap < 0:
            raise ValidationError("tally cap must be >= 0")
        if self.model.nodes is None:
            raise ValidationError("simulation requires explicit service nodes")


@dataclass
class SimulationEstimate:
    """Tallied occupancy vectors per snapshot time, with overflow accounting."""

    times: tuple
    replications: int
    seed: int
    cap: int
    counts: list            # one {vector: count} per snapshot time
    overflow: list          # tallies with sum(n) > cap, per snapshot time

    def probability(self, time_index, vector):
        return self.counts[time_index].get(tuple(vector), 0) / self.replications

    def stderr(self, time_index, vector):
        p = self.probability(time_index, vector)
        return math.sqrt(p * (1.0 - p) / self.replications)

    def table(self, time_index):
        """Sorted (vector, prob, stderr) rows for one snapshot."""
        rows = []
        for vec in sorted(self.counts[time_index]):
            p = self.counts[time_index][vec] / self.replications
            rows.append((vec, p, math.sqrt(p * (1.0 - p) / self.replications)))
        return rows

    def to_csv(self, path, time_index=0):
        J = len(next(iter(self.counts[time_index]), ())) or 1
        write_occupancy_csv(path, J, self.table(time_index), stderr=True,
                            replications=self.replications)

    def to_json_dict(self):
        return {
            "kind": "simulation-estimate",
            "times": list(self.times),
            "replications": self.replications,
            "seed": self.seed,
            "cap": self.cap,
            "overflow": list(self.overflow),
            "tables": [
                [[*map(int, vec), count] for vec, count in sorted(c.items())]
                for c in self.counts
            ],
        }

    def to_json(self, path):
        dump_json(path, self.to_json_dict())


def _simulate_block(model, times, seed, block, count, cap):
    """Tallies of one block of replications, on its own Philox stream.

    Per snapshot: ``(keys, vectors, counts, overflow)``, where ``keys`` are
    the distinct simplex positions of the in-cap occupancy vectors in
    increasing order, ``vectors`` one (J,) row per key, ``counts`` how many
    replications hold it, and ``overflow`` how many exceed the cap.
    """
    rng = _block_rng(seed, block)
    J = model.J
    snaps = np.asarray(times, dtype=float)
    arr_times, arr_reps = sample_arrival_times(model.arrival, float(snaps.max()),
                                               rng, count)

    batches = model.batch.sample_many(rng, arr_times.size)
    # summed in floating point so that huge draws cannot wrap around
    customers = batches.sum(dtype=float)
    if customers > MAX_BLOCK_CUSTOMERS:
        raise SimulationBudgetError(
            f"a block of {count} replications holds {customers:.3g} customers "
            f"> budget {MAX_BLOCK_CUSTOMERS}")
    totals = batches.sum(axis=1)
    cust_entry = np.repeat(np.tile(np.arange(J), arr_times.size), batches.ravel())
    cust_time = np.repeat(arr_times, totals)
    cust_rep = np.repeat(arr_reps, totals)
    locations = _trajectory_locations(model.nodes, J, cust_entry, cust_time,
                                      snaps, rng)
    tallies = []
    for s in range(snaps.size):
        present = locations[:, s] >= 0
        cells = cust_rep[present] * J + locations[present, s]
        occupancy = np.bincount(cells, minlength=count * J).reshape(count, J)
        inside = occupancy.sum(axis=1) <= cap
        vectors = occupancy[inside]
        keys, first, reps = np.unique(simplex_rank(vectors), return_index=True,
                                      return_counts=True)
        tallies.append((keys, vectors[first], reps, count - int(inside.sum())))
    return tallies


def run_simulation(plan: SimulationPlan, workers=1):
    """Replicate the generative model and tally N(t) at each snapshot time.

    Deterministic for a fixed seed and replication count regardless of
    ``workers``; overflowing vectors (total beyond the cap) are counted,
    never dropped silently.
    """
    model = plan.model
    _check_zero_time_loop(model.nodes, model.J, model.batch.entry_mask())
    blocks = []
    remaining = plan.replications
    while remaining > 0:
        blocks.append(min(BLOCK_SIZE, remaining))
        remaining -= BLOCK_SIZE

    def job(args):
        block, count = args
        return _simulate_block(model, plan.times, plan.seed, block, count,
                               plan.cap)

    jobs = list(enumerate(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, jobs))
    else:
        results = [job(a) for a in jobs]

    counts, overflow = [], []
    for s in range(len(plan.times)):
        keys, vectors, reps, over = zip(*(tallies[s] for tallies in results))
        _, first, inverse = np.unique(np.concatenate(keys), return_index=True,
                                      return_inverse=True)
        merged = np.bincount(inverse, weights=np.concatenate(reps))
        rows = np.concatenate(vectors)[first].tolist()
        counts.append(dict(zip(map(tuple, rows), merged.astype(np.int64).tolist())))
        overflow.append(sum(over))
    return SimulationEstimate(plan.times, plan.replications, plan.seed,
                              plan.cap, counts, overflow)
