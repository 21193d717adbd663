"""Truncated occupancy tables and their CSV / JSON serialisations.

A :class:`LatticePMF` holds probabilities for every occupancy vector n
with sum(n) <= cap, in graded lexicographic order, together with the
unassigned tail mass. Both the analytic recursion and the simulator emit
the same CSV schema (``n_1,...,n_J,prob[,stderr,replications]``) so the
compare tooling can treat them uniformly.

A vector's only key is its graded-lex position, :func:`simplex_rank`,
which no cap changes. The simplex itself is a :class:`SimplexIndex`,
whose ``columns`` hold the vectors by position, coordinate-major; its
:class:`PairTable` lists every split n = a + b on it, which makes
truncated convolution gathers plus one ``np.add.reduceat`` and each
degree of the occupancy recursion of :mod:`bqnet.transient` gathers plus
one ``np.bincount``. Sums over the J coordinates add J slices
(:func:`coordinate_sum`), in NumPy's order, never a reduction over a
length-J axis.
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
_JSON_META_KEYS = ("t", "quadrature_nodes", "quadrature_rule")
PAIR_TABLE_BUDGET = 1 << 23
# Coordinates (rows times J) of the pair-table rows made at once. Each of
# their (J, rows) working arrays takes 256 KiB and stays in cache, so a
# table's peak memory is its own four arrays, 32 bytes a row, at any J.
PAIR_BLOCK = 1 << 15
# Coordinates (vectors times J) of one simplex index. Building one takes
# ~65 bytes per vector at J=1 and ~19 per coordinate at J=8, so an index at
# the budget stays under ~140 MiB. A bigger one at J <= 8 has a pair table
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


def coordinate_sum(term, J):
    """``term(0) + ... + term(J - 1)``, added in the order in which NumPy
    reduces a contiguous length-J last axis.

    ``term(k)`` is coordinate k's array, for example a contiguous slice of
    a coordinate-major table. Adding J such arrays runs about 13x faster
    than one reduction over a length-J last axis, whose inner loop is J
    long (0.15 ms against 2.0 ms over 2049 x 66 rows at J = 2). The order
    is NumPy's pairwise summation: one running sum below 8 terms, eight
    running sums over k mod 8 combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)) and then the last J mod 8 terms up to 128,
    and above that two halves split at a multiple of 8. So a float sum is
    bit-identical to ``np.stack([term(k) ...], axis=-1).sum(axis=-1)`` at
    every J. The result may be ``term(0)`` itself when J = 1.
    """
    if J < 8:
        out = term(0)
        for k in range(1, J):
            out = out + term(k)
        return out
    if J > 128:
        half = J // 2 - J // 2 % 8
        return (coordinate_sum(term, half)
                + coordinate_sum(lambda k: term(half + k), J - half))
    full = J - J % 8

    def lane(j):
        out = term(j)
        for k in range(j + 8, full, 8):
            out = out + term(k)
        return out

    out = (((lane(0) + lane(1)) + (lane(2) + lane(3)))
           + ((lane(4) + lane(5)) + (lane(6) + lane(7))))
    for k in range(full, J):
        out = out + term(k)
    return out


def simplex_rank(vecs):
    """Graded-lex positions of the rows of ``vecs``, an (m, J) array of
    nonnegative integers (the combinatorial number system).

    A row's position depends only on the row, not on any cap: the index at
    a smaller cap is a prefix of the larger one, so this is the row's
    position in ``SimplexIndex(J, cap).array`` for every cap at or above
    the row's total. Raises :class:`ResourceBudgetError` when a row's total
    d makes C(d + J, J), the number of vectors of total <= d, reach 2**63.

    The work is coordinate by coordinate on the columns ``vecs[:, k]``,
    which are contiguous when ``vecs`` is the transpose of a
    coordinate-major (J, m) array.
    """
    vecs = np.asarray(vecs, dtype=np.int64)
    J = vecs.shape[1]
    remaining = coordinate_sum(lambda k: vecs[:, k], J)
    top = int(remaining.max()) if remaining.size else 0
    if math.comb(top + J, J) >= RANK_LIMIT:
        raise ResourceBudgetError(
            f"simplex positions for J={J} at total {top} exceed int64")
    counts = _multisets(J, top)
    # vectors of smaller total come first
    pos = counts[:, J][remaining]
    for k in range(J - 1):
        # vectors of this total that agree before coordinate k and are
        # larger at it: compositions of less than ``remaining`` into the
        # J - k - 1 later coordinates
        remaining = remaining - vecs[:, k]
        pos = pos + counts[:, J - k - 1][remaining]
    return pos


def _lex_vectors(J, cap):
    """Every vector with total <= cap in increasing lexicographic order, as
    a coordinate-major (J, count) array built one coordinate at a time."""
    cols, total = [], np.zeros(1, dtype=np.int64)
    for _ in range(J):
        room = cap - total + 1
        first = np.repeat(np.cumsum(room) - room, room)
        cols = [np.repeat(c, room) for c in cols]
        cols.append(np.arange(len(first)) - first)
        total = np.repeat(total, room) + cols[-1]
    return np.array(cols)


def _at_pivot(n, a):
    """a_p for each column of the coordinate-major (J, m) arrays ``n`` and
    ``a``, where p is the last nonzero coordinate of n; 0 where n = 0."""
    out = np.zeros_like(a[0])
    for n_k, a_k in zip(n, a):
        out = np.where(n_k > 0, a_k, out)
    return out


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

    :meth:`SimplexIndex.pairs` writes the rows in this order as it makes
    them, one coordinate at a time on (J, rows) arrays, so no sort runs and
    no reduction over a length-J axis, which NumPy runs about 13x slower
    than J slice adds (:func:`coordinate_sum`).
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
    ``degree_start[d]:degree_start[d + 1]``. :attr:`columns` is the
    coordinate-major (J, |index|) table of the vectors by position, so
    coordinate k of every vector is the contiguous row ``columns[k]``;
    :attr:`array` is its (|index|, J) transpose, one vector per row, and
    :func:`simplex_rank` maps vectors back to positions.

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
        vecs = _lex_vectors(J, cap)
        self.columns = np.empty_like(vecs)
        self.columns[:, simplex_rank(vecs.T)] = vecs
        self.columns.flags.writeable = False
        self.array = self.columns.T
        # the value of the last nonzero coordinate of each vector, the
        # recursion's pivot (0 for the zero vector)
        self.pivot_count = _at_pivot(self.columns, self.columns)
        self.pivot_count.flags.writeable = False

    def __len__(self):
        return self.columns.shape[1]

    @functools.cached_property
    def log_factorial(self):
        """log(i_1! ... i_J!) for every vector i, built on first use."""
        out = coordinate_sum(lambda k: logmath.log_factorial(self.columns[k]), self.J)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def pairs(self):
        """The :class:`PairTable` of this simplex, built on first use.

        Its rows come out in their final order. Each n, in position order,
        gets prod_k (n_k + 1) rows, one per a in the box [0, n], and a runs
        over the box by a mixed-radix count with the last coordinate
        fastest, which is lexicographic order. The count, n - a and both
        ranks (:func:`simplex_rank`) work on coordinate-major (J, rows)
        arrays one coordinate at a time, as J slice operations run about
        13x faster than reductions over a length-J last axis, on blocks of
        ``PAIR_BLOCK`` coordinates.
        """
        J, cap = self.J, self.cap
        size = math.comb(cap + 2 * J, 2 * J)
        if size > PAIR_TABLE_BUDGET:
            raise ResourceBudgetError(
                f"the simplex pair table for J={J}, cap={cap} has {size} rows "
                f"> budget {PAIR_TABLE_BUDGET}; lower the cap")
        splits = 1
        for col in self.columns:
            splits = splits * (col + 1)
        total_start = np.cumsum(splits) - splits
        total = np.repeat(np.arange(len(self)), splits)
        part, rest, weight = np.empty(size, np.int64), np.empty(size, np.int64), np.empty(size)
        step = max(1, PAIR_BLOCK // J)
        for lo in range(0, size, step):
            block = slice(lo, lo + step)
            owner = total[block]
            n = self.columns[:, owner]
            a = np.empty_like(n)
            count = np.arange(lo, lo + owner.size) - total_start[owner]
            for k in range(J - 1, 0, -1):
                count, a[k] = np.divmod(count, n[k] + 1)
            a[0] = count
            part[block], rest[block] = simplex_rank(a.T), simplex_rank((n - a).T)
            weight[block] = _at_pivot(n, a)
        for arr in (part, rest, total, weight):
            arr.flags.writeable = False
        return PairTable(part, rest, total, np.append(total_start, size)[self.degree_start],
                         total_start, weight)

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
    # a bool is not an integer cap
    if not ((type(cap) is int or isinstance(cap, np.integer)) and cap >= 0):
        raise ValidationError(f"cap must be an integer >= 0, not {cap!r}")
    key = (int(J), int(cap))
    idx = _live_indexes.get(key)
    if idx is None:
        idx = _live_indexes[key] = SimplexIndex(*key)
    return idx


class LatticePMF:
    """Probabilities on the occupancy simplex plus explicit tail mass."""

    def __init__(self, J, cap, values, tail_mass=None, meta=None):
        self.index = simplex_index(J, cap)
        self.J, self.cap = self.index.J, self.index.cap
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
        for key in _JSON_META_KEYS:
            if key in self.meta:
                doc[key] = self.meta[key]
        return doc

    def to_json(self, path):
        dump_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc):
        J, cap = doc["J"], doc["cap"]
        # JSON integers only: int() would read 1.7 as 1 and true as 1
        if not (type(J) is int and type(cap) is int and J >= 1 and cap >= 0):
            raise ValidationError(f"a lattice needs integers J >= 1 and cap >= 0, "
                                  f"not J={J!r}, cap={cap!r}")
        # the size budget comes before anything is built from the document
        index = simplex_index(J, cap)
        rows = doc["entries"]
        if any(len(row) != J + 1 for row in rows):
            raise ValidationError(f"every entry of a J={J} lattice holds {J + 1} numbers")
        if any(type(n) is not int for row in rows for n in row[:-1]):
            raise ValidationError("an entry's occupancy counts must be integers")
        vecs = np.array([row[:-1] for row in rows], dtype=np.int64).reshape(len(rows), J)
        if np.any(vecs < 0) or np.any(vecs.sum(axis=1) > cap):
            raise ValidationError(f"an entry lies outside the J={J}, cap={cap} simplex")
        values = np.zeros(len(index))
        values[simplex_rank(vecs)] = [row[-1] for row in rows]
        meta = {k: doc[k] for k in _JSON_META_KEYS if k in doc}
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
