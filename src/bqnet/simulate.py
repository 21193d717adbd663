"""Discrete-event Monte Carlo oracle for the generative model.

Implements the arrival / batch / trajectory story directly -- thinned
non-homogeneous Poisson epochs, exact batch draws, and independent
customer walks through the service nodes -- so it shares no formulas
with the analytic modules it cross-checks.

Replications are processed in fixed-size blocks; block b draws from a
Philox stream keyed by (seed, b), so tallies are identical for a given
seed and replication count no matter how many workers run the blocks.

Each block walks and tallies its customers in one pass loop
(:func:`_walk`). A pass serves every customer still inside once and
counts the ones present at each snapshot on the way: it appends the cell
``replication * J + node`` of each, and one ``np.bincount`` over all
cells gives the (replication, node) counts per snapshot, with no
per-customer location array. Draws are grouped by node: node ids are
the smallest unsigned type that holds J (uint8 up to J = 255), so one
stable ``argsort`` of them is a radix sort, skipped when one node holds
every customer. Each node's services are drawn into its slice of that
order, and one routing uniform per mover is drawn for all movers at
once. Both keep one draw order per pass -- node by node, customers in
index order within a node -- so the grouping never changes what a seed
draws; the tests check the tallies against a walk that draws node by
node with boolean masks.

Per snapshot a block sets aside the replications whose total exceeds
the cap as overflow and keys every other occupancy vector by its
graded-lex position on the simplex (:func:`bqnet.tables.simplex_rank`,
one int64 per vector). A block returns its distinct keys, their counts
and one vector per key; :func:`run_simulation` merges the blocks' keys
with one ``np.unique`` and one weighted ``np.bincount`` per snapshot and
builds the ``{vector: count}`` table once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import PIECEWISE
from .errors import SimulationBudgetError, ValidationError
from .service import zero_time_loop
from .tables import coordinate_sum, dump_json, simplex_rank, write_occupancy_csv

BLOCK_SIZE = 4096
EXITED = -1
MAX_CUSTOMER_EVENTS = 1_000_000
# Customers one block may hold. Each costs about 90 bytes while its block
# runs: entry node (1-2 bytes), arrival time and tally cell (8 bytes each),
# the walk's per-pass node, epoch, service, departure, order and index
# arrays, and 8 bytes per snapshot at which it is present. 10M customers
# keep one block's per-customer arrays near 1 GiB; typical blocks hold
# tens of thousands.
MAX_BLOCK_CUSTOMERS = 10_000_000


def _block_rng(seed, block):
    key = np.array([seed % (1 << 64), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_arrival_times(process, horizon, rng, count=1):
    """Arrival epochs on [0, horizon) for ``count`` independent replications.

    Returns ``(times, reps)``: every epoch with the replication it belongs
    to, in draw order (not sorted). Each piece of ``process.segments`` is
    thinned against its bound; a piecewise-constant rate is its own bound,
    so its epochs are all kept and draw no acceptance uniforms.
    """
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValidationError("horizon must be finite and >= 0")
    chunks = [(np.empty(0), np.empty(0, dtype=np.int64))]
    for start, end, bound in process.segments(horizon):
        if bound <= 0 or end <= start:
            continue
        per_rep = rng.poisson(bound * (end - start), count)
        total = int(per_rep.sum())
        t = rng.uniform(start, end, total)
        rep = np.repeat(np.arange(count), per_rep)
        if process.kind != PIECEWISE:
            keep = rng.uniform(size=total) * bound < process.rate(t)
            t, rep = t[keep], rep[keep]
        chunks.append((t, rep))
    times, reps = zip(*chunks)
    return np.concatenate(times), np.concatenate(reps)


def _check_zero_time_loop(nodes, J, start):
    """Raise before any draw when customers from ``start`` (a boolean
    J-vector) can circle forever in zero time."""
    if zero_time_loop(nodes, J, start):
        raise SimulationBudgetError(
            "customers can reach nodes they would circle forever in zero time")


def _router(row, J, dtype):
    """Next node (J = exit) as a function of routing uniforms in [0, 1).

    It counts the entries of ``cumsum(row)`` at or below u, capped at J:
    ``min(searchsorted(cumsum(row), u, side="right"), J)`` by the same
    comparisons, made as one vector comparison per distinct cumulative
    value. On a 2-core Xeon with NumPy 2.4 these ran several times faster
    than the binary search per uniform for rows with up to ~150
    destinations, and half as fast for a row to 300. Absorbing nodes
    (``row`` None) have no next node.
    """
    if row is None:
        def absorbed(u):
            raise SimulationBudgetError("absorbing customers should never depart")
        return absorbed
    cum = np.cumsum(row)
    breaks = np.unique(cum[cum > 0])
    # reached[i]: the next node once u has passed breaks[:i]
    reached = np.minimum(np.searchsorted(cum, np.concatenate([[0.0], breaks]),
                                         side="right"), J)
    steps = [(v, k) for v, k in zip(breaks.tolist(), np.diff(reached).tolist()) if k]

    def route(u):
        nxt = np.full(u.size, reached[0], dtype=dtype)
        for v, k in steps:
            nxt += np.multiply(u >= v, k, dtype=dtype)
        return nxt

    return route


def _per_node(node, fill):
    """``fill(j, a, b)`` for each node's slice [a, b) of the customers
    grouped stably by node, in node order, scattered back to customer order.

    The grouping is one ``argsort`` of the small-integer node ids (a radix
    sort), skipped when one node holds every customer.
    """
    lo, hi = int(node.min()), int(node.max())
    if lo == hi:
        return fill(lo, 0, node.size)
    order = np.argsort(node, kind="stable")
    held = np.arange(lo, hi + 1, dtype=node.dtype)
    stops = np.searchsorted(node[order], held, side="right").tolist()
    grouped = np.concatenate([fill(j, a, b) for j, a, b in
                              zip(held.tolist(), [0] + stops[:-1], stops) if a < b])
    out = np.empty_like(grouped)
    out[order] = grouped
    return out


def _walk(nodes, J, entry, epoch, cell, snaps, rng, size):
    """Walk customers through the network and count them at each snapshot.

    Customer i enters node ``entry[i]`` at ``epoch[i]``; ``cell[i]`` is its
    tally base (replication * J in a block). Returns an (S, size) int64
    array whose entry [s, cell + node] counts the customers at that node
    at ``snaps[s]``.

    Each pass serves every customer still inside once: services node by
    node, then one routing uniform per mover, node by node, each in
    customer order, so the draw order depends only on the stream. Callers
    check for zero-time loops first (:func:`_check_zero_time_loop`);
    ``MAX_CUSTOMER_EVENTS`` is the backstop.
    """
    snaps = np.asarray(snaps, dtype=float)
    horizon = float(snaps.max()) if snaps.size else 0.0
    dtype = np.min_scalar_type(J)
    routers = [_router(n.routing, J, dtype) for n in nodes]
    node = np.asarray(entry).astype(dtype)
    epoch = np.asarray(epoch, dtype=float)
    cell = np.asarray(cell, dtype=np.int64)
    tallied = [np.empty(0, dtype=np.int64)]
    for _ in range(MAX_CUSTOMER_EVENTS):
        if not node.size:
            return np.bincount(np.concatenate(tallied),
                               minlength=snaps.size * size).reshape(snaps.size, size)
        departs = epoch + _per_node(
            node, lambda j, a, b: nodes[j].service.sample(rng, b - a))
        moving = departs <= horizon
        here = cell + node
        for s, t in enumerate(snaps):
            # every epoch is <= horizon, so at the horizon presence is staying
            present = ~moving if t == horizon else (epoch <= t) & (t < departs)
            # an index gather: NumPy's boolean gather is several times slower
            at = here[np.flatnonzero(present)]
            tallied.append(at + s * size if s else at)
        movers = np.flatnonzero(moving)
        uniforms = rng.uniform(size=movers.size)
        nxt = node[movers]
        if movers.size:
            nxt = _per_node(nxt, lambda j, a, b: routers[j](uniforms[a:b]))
        stay = np.flatnonzero(nxt < J)
        keep = movers[stay]
        node = nxt[stay]
        epoch = departs[keep]
        cell = cell[keep]
    raise SimulationBudgetError(
        f"a customer exceeded {MAX_CUSTOMER_EVENTS} service completions")


def sample_trajectory(nodes, entry, rng, offsets):
    """Locations of a single customer at each offset after its arrival."""
    J = len(nodes)
    # a bool or a float is not a node: True would walk node 1, 0.5 node 0
    if not ((type(entry) is int or isinstance(entry, np.integer)) and 0 <= entry < J):
        raise ValidationError(f"entry node {entry!r} must be an integer in [0, {J})")
    offsets = np.asarray(offsets, dtype=float)
    if not np.all(offsets >= 0):        # NaN fails, +inf passes
        raise ValidationError("snapshot offsets must be >= 0")
    _check_zero_time_loop(nodes, J, np.arange(J) == entry)
    counts = _walk(nodes, J, np.array([entry]), np.zeros(1),
                   np.zeros(1, dtype=np.int64), offsets, rng, J)
    return np.where(counts.any(axis=1), counts.argmax(axis=1), EXITED)


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
    J: int                  # queues per occupancy vector
    counts: list            # one {vector: count} per snapshot time
    overflow: list          # tallies with sum(n) > cap, per snapshot time

    def table(self, time_index):
        """Sorted (vector, prob, stderr) rows for one snapshot."""
        rows = []
        for vec in sorted(self.counts[time_index]):
            p = self.counts[time_index][vec] / self.replications
            rows.append((vec, p, math.sqrt(p * (1.0 - p) / self.replications)))
        return rows

    def to_csv(self, path, time_index=0):
        write_occupancy_csv(path, self.J, self.table(time_index), stderr=True,
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
    totals = coordinate_sum(lambda k: batches[:, k], J)
    entry = np.tile(np.arange(J, dtype=np.min_scalar_type(J)), arr_times.size)
    counts = _walk(model.nodes, J, np.repeat(entry, batches.ravel()),
                   np.repeat(arr_times, totals), np.repeat(arr_reps * J, totals),
                   snaps, rng, count * J)
    tallies = []
    for occupancy in counts.reshape(snaps.size, count, J):
        inside = coordinate_sum(lambda k: occupancy[:, k], J) <= cap
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
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
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
        # imported here: concurrent.futures loads logging, which no other
        # path needs
        from concurrent.futures import ThreadPoolExecutor

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
                              plan.cap, model.J, counts, overflow)
