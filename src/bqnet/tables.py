"""Truncated occupancy tables and their CSV / JSON serialisations.

A :class:`LatticePMF` holds probabilities for every occupancy vector n
with sum(n) <= cap, in graded lexicographic order, together with the
unassigned tail mass. Both the analytic recursion and the simulator emit
the same CSV schema (``n_1,...,n_J,prob[,stderr,replications]``) so the
compare tooling can treat them uniformly.

A vector's only key is its graded-lex position, :func:`simplex_rank`,
which no cap changes. The simplex itself is a :class:`SimplexIndex`,
whose ``array`` lists the vectors by position; its :class:`PairTable`
lists every split n = a + b on it, which makes truncated convolution
gathers plus one ``np.add.reduceat`` and each degree of the occupancy
recursion of :mod:`bqnet.transient` gathers plus one ``np.bincount``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import weakref

import numpy as np

from . import logmath
from .errors import ResourceBudgetError, ValidationError

ENTRY_CLAMP = -1e-12
MASS_TOL = 1e-9
PAIR_TABLE_BUDGET = 1 << 23
# Coordinates (vectors times J) of one simplex index. Building one takes
# ~80 bytes per vector at J=1 and ~20 per coordinate at J=8, so an index at
# the budget stays under ~170 MiB. A bigger one at J <= 8 has a pair table
# above PAIR_TABLE_BUDGET, so no occupancy recursion could use it anyway.
SIMPLEX_BUDGET = 1 << 21
RANK_LIMIT = 1 << 63


@functools.lru_cache(maxsize=64)
def _multisets(J, top):
    """Read-only table M[r, m] = C(r + m - 1, m) for r <= top and 1 <= m <= J.

    M[r, m] counts the vectors of total below r on an m-part simplex, so
    every entry is at most M[top, J] and fits int64 whenever
    C(top + J, J) does. Column 0 is (0, 1, 1, ...), which makes each column
    the running sum of the one before it.
    """
    table = np.zeros((top + 1, J + 1), dtype=np.int64)
    table[1:, 0] = 1
    for m in range(1, J + 1):
        table[:, m] = np.cumsum(table[:, m - 1])
    table.flags.writeable = False
    return table


def simplex_rank(vecs):
    """Graded-lex positions of the rows of ``vecs``, an (m, J) array of
    nonnegative integers (the combinatorial number system).

    A row's position depends only on the row, not on any cap: the index at
    a smaller cap is a prefix of the larger one, so this is the row's
    position in ``SimplexIndex(J, cap).array`` for every cap at or above
    the row's total. Raises :class:`ResourceBudgetError` when a row's total
    d makes C(d + J, J), the number of vectors of total <= d, reach 2**63.
    """
    vecs = np.asarray(vecs, dtype=np.int64)
    J = vecs.shape[1]
    remaining = vecs.sum(axis=1)
    top = int(remaining.max()) if remaining.size else 0
    if math.comb(top + J, J) >= RANK_LIMIT:
        raise ResourceBudgetError(
            f"simplex positions for J={J} at total {top} exceed int64")
    counts = _multisets(J, top)
    # vectors of smaller total come first
    pos = counts[remaining, J]
    for k in range(J - 1):
        # vectors of this total that agree before coordinate k and are
        # larger at it: compositions of less than ``remaining`` into the
        # J - k - 1 later coordinates
        remaining = remaining - vecs[:, k]
        pos = pos + counts[remaining, J - k - 1]
    return pos


class PairTable:
    """Every split ``n = a + b`` of every vector on a simplex.

    Row ``r`` holds the simplex positions ``part[r]`` of a, ``rest[r]`` of
    b and ``total[r]`` of n. Rows are sorted by ``total``, and within one
    total by a in lexicographic order, so a sum over the rows of one total
    adds its terms in a fixed order. Because positions are graded, the
    rows whose total has degree d are the slice
    ``degree_start[d]:degree_start[d + 1]``, and those of total n start at
    row ``total_start[n]``. ``pivot_weight[r]`` is
    a_p as a float, where p is the last nonzero coordinate of n (0 for
    n = 0).
    """

    def __init__(self, part, rest, total, degree_start, total_start, pivot_weight):
        self.part, self.rest, self.total = part, rest, total
        self.degree_start, self.total_start = degree_start, total_start
        self.pivot_weight = pivot_weight

    def __len__(self):
        return len(self.total)


class SimplexIndex:
    """Shared index over the simplex {n : sum(n) <= cap}.

    Vectors are in graded lexicographic order: by total, then in
    decreasing lexicographic order, so ``(cap, 0, ..., 0)`` comes first
    among those of total ``cap``. The index at a smaller cap is therefore
    a prefix of this one, and the vectors of total d are the positions
    ``degree_start[d]:degree_start[d + 1]``. :attr:`array` lists the
    vectors by position, and :func:`simplex_rank` maps vectors back to
    positions.

    :attr:`pairs` is the :class:`PairTable` of the simplex. It turns the
    truncated convolution of two value arrays, or of two stacks of them,
    into one ``np.add.reduceat`` (:meth:`convolve`) and drives the
    degree-by-degree recursion of :mod:`bqnet.transient`. It holds C(cap + 2J, 2J) rows, is built on
    first use and raises :class:`ResourceBudgetError` above
    ``PAIR_TABLE_BUDGET`` rows. The index itself raises it, before any
    array is built, above ``SIMPLEX_BUDGET`` coordinates.

    Build indexes through :func:`simplex_index`, which shares one per
    ``(J, cap)`` among its live users; their arrays are read-only.
    """

    def __init__(self, J, cap):
        # C(cap + J, J) vectors; min(J, cap) > 20 means more than C(42, 21),
        # about 5e11, told without a huge integer from outside input
        if min(J, cap) > 20 or J * math.comb(cap + J, J) > SIMPLEX_BUDGET:
            raise ResourceBudgetError(
                f"the simplex index for J={J}, cap={cap} would hold more than "
                f"{SIMPLEX_BUDGET} coordinates; lower the cap")
        self.J, self.cap = J, cap
        # vectors of total < d number C(d - 1 + J, J) = _multisets(J, cap + 1)[d, J]
        self.degree_start = _multisets(J, cap + 1)[:, J]
        self.degree_start.flags.writeable = False
        # every vector with total <= cap, one coordinate at a time
        vecs = np.zeros((1, 0), dtype=np.int64)
        for _ in range(J):
            room = cap - vecs.sum(axis=1)
            vecs = np.repeat(vecs, room + 1, axis=0)
            first = np.repeat(np.cumsum(room + 1) - (room + 1), room + 1)
            vecs = np.column_stack([vecs, np.arange(len(vecs)) - first])
        self.array = np.empty_like(vecs)
        self.array[simplex_rank(vecs)] = vecs
        self.array.flags.writeable = False
        # last nonzero coordinate of each vector (the recursion's pivot)
        # and its value
        self._pivot = J - 1 - np.argmax(self.array[:, ::-1] > 0, axis=1)
        self.pivot_count = self.array[np.arange(len(self.array)), self._pivot]
        self.pivot_count.flags.writeable = False

    def __len__(self):
        return len(self.array)

    @functools.cached_property
    def log_factorial(self):
        """log(i_1! ... i_J!) for every vector i, built on first use."""
        out = logmath.log_factorial(self.array).sum(axis=1)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def pairs(self):
        """The :class:`PairTable` of this simplex, built on first use."""
        J, cap = self.J, self.cap
        size = math.comb(cap + 2 * J, 2 * J)
        if size > PAIR_TABLE_BUDGET:
            raise ResourceBudgetError(
                f"the simplex pair table for J={J}, cap={cap} has {size} rows "
                f"> budget {PAIR_TABLE_BUDGET}; lower the cap")
        start = self.degree_start
        parts, rests, totals, keys = [], [], [], []
        for d in range(cap + 1):
            # a of total d, b of total <= cap - d
            a = np.arange(start[d], start[d + 1])
            b = np.arange(start[cap - d + 1])
            a, b = np.repeat(a, b.size), np.tile(b, a.size)
            avec = self.array[a]
            nvec = avec + self.array[b]
            # position of a in the product order of the box [0, n]; at most
            # the number of splits of n, so it fits the budget
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
        weight = self.array[part, self._pivot[total]].astype(float)
        for arr in (part, rest, total, weight):
            arr.flags.writeable = False
        return PairTable(part, rest, total, np.searchsorted(total, start),
                         np.searchsorted(total, np.arange(start[-1])), weight)

    def convolve(self, x, y):
        """(x * y)[..., n] = sum over a + b = n of x[..., a] y[..., b], for
        every n on the simplex.

        Leading axes index a stack of lattices, convolved pairwise. The
        pair table's rows of one total are contiguous, so each sum is one
        segment of an ``np.add.reduceat``; no segment is empty, because
        every n has the split 0 + n.
        """
        pairs = self.pairs
        terms = np.take(x, pairs.part, axis=-1) * np.take(y, pairs.rest, axis=-1)
        return np.add.reduceat(terms, pairs.total_start, axis=-1)


# Indexes are immutable, so sharing one is safe; holding them weakly ties
# each one's lifetime to its users (for example, one transient_pmf call
# and the LatticePMF it returns) instead of to the process.
_live_indexes = weakref.WeakValueDictionary()


def simplex_index(J, cap):
    """The :class:`SimplexIndex` for ``(J, cap)``, shared while any caller holds it."""
    key = (int(J), int(cap))
    idx = _live_indexes.get(key)
    if idx is None:
        idx = _live_indexes[key] = SimplexIndex(*key)
    return idx


class LatticePMF:
    """Probabilities on the occupancy simplex plus explicit tail mass."""

    def __init__(self, J, cap, values, tail_mass=None, meta=None):
        self.J, self.cap = int(J), int(cap)
        self.index = simplex_index(J, cap)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.index),):
            raise ValidationError("lattice values do not match the simplex size")
        clamped = int(np.sum((self.values < 0) & (self.values >= ENTRY_CLAMP)))
        refused = ~(self.values >= ENTRY_CLAMP)
        if np.any(refused):
            raise ValidationError(f"lattice entry {self.values[refused][0]} is NaN or "
                                  "below the clamp floor")
        self.values = np.maximum(self.values, 0.0)
        assigned = float(self.values.sum())
        if assigned > 1.0 + MASS_TOL:
            raise ValidationError(f"assigned lattice mass {assigned} exceeds 1")
        self.tail_mass = (1.0 - assigned) if tail_mass is None else float(tail_mass)
        if not (math.isfinite(self.tail_mass) and self.tail_mass >= -MASS_TOL):
            raise ValidationError(f"tail mass {self.tail_mass} must be finite and "
                                  f">= -{MASS_TOL}")
        self.meta = dict(meta or {})
        if clamped:
            self.meta.setdefault("clamped_entries", clamped)

    @property
    def assigned_mass(self):
        return float(self.values.sum())

    def prob(self, n):
        """P(N = n); zero outside the stored simplex."""
        n = [int(v) for v in n]
        if len(n) != self.J or min(n) < 0 or sum(n) > self.cap:
            return 0.0
        return float(self.values[simplex_rank([n])[0]])

    def items(self):
        """``(vector, prob)`` pairs in index order, vectors as tuples."""
        return zip(map(tuple, self.index.array.tolist()), self.values)

    # -- serialisation ----------------------------------------------------------

    def to_csv(self, path):
        write_occupancy_csv(path, self.J,
                            [(vec, p) for vec, p in self.items()])

    def to_json_dict(self):
        doc = {
            "kind": "occupancy-pmf",
            "J": self.J,
            "cap": self.cap,
            "tail_mass": self.tail_mass,
            "entries": [[*map(int, vec), float(p)] for vec, p in self.items()],
        }
        for key in ("t", "quadrature_nodes", "quadrature_rule"):
            if key in self.meta:
                doc[key] = self.meta[key]
        return doc

    def to_json(self, path):
        dump_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc):
        J, cap = int(doc["J"]), int(doc["cap"])
        if J < 1 or cap < 0:
            raise ValidationError(f"a lattice needs J >= 1 and cap >= 0, not J={J}, cap={cap}")
        # the size budget comes before anything is built from the document
        index = simplex_index(J, cap)
        rows = doc["entries"]
        if any(len(row) != J + 1 for row in rows):
            raise ValidationError(f"every entry of a J={J} lattice holds {J + 1} numbers")
        vecs = np.array([row[:-1] for row in rows], dtype=np.int64).reshape(len(rows), J)
        if np.any(vecs < 0) or np.any(vecs.sum(axis=1) > cap):
            raise ValidationError(f"an entry lies outside the J={J}, cap={cap} simplex")
        values = np.zeros(len(index))
        values[simplex_rank(vecs)] = [row[-1] for row in rows]
        meta = {k: doc[k] for k in ("t", "quadrature_nodes", "quadrature_rule")
                if k in doc}
        return cls(J, cap, values, tail_mass=doc.get("tail_mass"), meta=meta)


def canonical_json(doc):
    """Serialise a JSON document so reload + re-serialise is byte-identical."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def dump_json(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


def write_occupancy_csv(path, J, rows, stderr=False, replications=None):
    """Write the shared occupancy table schema.

    ``rows`` yields ``(vector, prob)`` or ``(vector, prob, stderr)`` when
    ``stderr`` is set; ``replications`` (a single count) adds the final
    column.
    """
    header = [f"n_{k}" for k in range(1, J + 1)] + ["prob"]
    if stderr:
        header.append("stderr")
    if replications is not None:
        header.append("replications")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            vec, rest = row[0], row[1:]
            out = [int(v) for v in vec] + [repr(float(x)) for x in rest]
            if replications is not None:
                out.append(replications)
            writer.writerow(out)


def read_occupancy_csv(path):
    """Read an occupancy table; returns (J, {vector: prob}, extras).

    ``extras`` maps optional column names (stderr, replications) to
    per-vector dictionaries.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValidationError(f"{path}: empty occupancy table")
        J = 0
        while J < len(header) and header[J] == f"n_{J + 1}":
            J += 1
        if J == 0 or J >= len(header) or header[J] != "prob":
            raise ValidationError(
                f"{path}: header must be n_1,...,n_J,prob[,stderr,replications]")
        optional = header[J + 1:]
        if any(name not in ("stderr", "replications") for name in optional):
            raise ValidationError(f"{path}: unexpected columns {optional}")
        probs, extras = {}, {name: {} for name in optional}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path} line {line_no}: wrong column count")
            try:
                vec = tuple(int(x) for x in row[:J])
                numbers = [float(x) for x in row[J:]]
            except ValueError:
                raise ValidationError(f"{path} line {line_no}: malformed entry")
            # counts, probabilities, stderrs and replications are all >= 0
            if not (min(vec) >= 0 and all(math.isfinite(x) and x >= 0 for x in numbers)):
                raise ValidationError(f"{path} line {line_no}: negative or non-finite entry")
            if vec in probs:
                raise ValidationError(f"{path} line {line_no}: vector {vec} appears twice")
            probs[vec] = numbers[0]
            for name, value in zip(optional, numbers[1:]):
                extras[name][vec] = value
        return J, probs, extras
