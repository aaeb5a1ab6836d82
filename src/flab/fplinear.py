"""Exact linear algebra over Z/pZ: rank, solving, and coordinate projection.

Every computation runs through one sparse Gaussian elimination,
`eliminate`, on rows stored as dicts {column label: nonzero residue}.
Solution sets come back as AffineSolutionSet, a tuple of five fields in
canonical form, so equal sets compare equal however they were computed.
Very large translation-invariant systems are projected onto small
coordinate windows by eliminating the non-kept columns first
(`eliminate_columns`).

An FpMatrix is factored once, on its first `solve` or `rank`, and keeps
the factorization.  It is the elimination of [m | I]: row i carries a
tag column that records which combination of the original rows each
eliminated row is.  Columns are eliminated last to first, then reduced.
The factorization keeps
  - the check rows: the leftover rows, which hold tags only, so m x = b
    is consistent iff every check reads 0 on b;
  - the point map, compiled from the tags of each reduced pivot row c:
    a single tag i with coefficient a gives the particular point at c
    as a·b[i], more tags give it as a dot product with b;
  - the reduced echelon basis of the solutions of m x = 0 and its
    pivots, which do not depend on b and are shared by every solution set.
Pivot choice never looks at the right-hand side, so each solve does the
same row operations a fresh elimination of [m | b] would; reading them
off the tags gives the same canonical set, field for field.  A solve is
one scatter of b into the particular point and one tuple.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Hashable, Iterable, Sequence

from .entropy import is_prime

MAX_PRIME = 1 << 15


def check_modulus(p: int):
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the 2^15 guard")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class FpMatrix:
    """A dense matrix over Z/pZ with entries reduced to [0, p).

    The factorization behind `solve` and `rank` is built on first use and
    cached in the private `_factors` slot.
    """

    __slots__ = ("p", "rows", "cols", "entries", "_factors")

    def __init__(self, p: int, entries: Sequence[Sequence[int]], cols: int | None = None):
        check_modulus(p)
        rows = [tuple(x % p for x in row) for row in entries]
        width = len(rows[0]) if rows else cols or 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} disagrees with the row width {width}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "_factors", None)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("FpMatrix is immutable")


# -- the elimination kernel -------------------------------------------------

SparseRow = dict


def eliminate(
    rows: Iterable[SparseRow], order: Iterable[Hashable], p: int
) -> tuple[list[tuple[Hashable, SparseRow]], list[SparseRow]]:
    """Sparse Gaussian elimination over Z/pZ of the columns in `order`.

    Column by column, the first remaining row in insertion order that
    touches the column becomes its pivot: it is scaled to 1 there, taken
    out, and subtracted from every other remaining row touching the
    column.  Returns the pivot rows as (column, row) pairs in elimination
    order, and the remaining nonzero rows in insertion order.  Each pivot
    row is zero on every column eliminated before it, and the remaining
    rows span exactly the constraints the system puts on the columns
    outside `order`.  The input rows are not modified.
    """
    check_modulus(p)
    active: dict[int, SparseRow] = {}
    by_col: dict[Hashable, set[int]] = {}
    for idx, row in enumerate(rows):
        row = {k: v % p for k, v in row.items() if v % p}
        if row:
            active[idx] = row
            for k in row:
                by_col.setdefault(k, set()).add(idx)

    pivots = []
    for col in order:
        touching = by_col.pop(col, None)
        if not touching:
            continue
        pivot_idx, *others = sorted(touching)
        pivot = active.pop(pivot_idx)
        inv = pow(pivot[col], -1, p)
        pivot = {k: v * inv % p for k, v in pivot.items()}
        for k in pivot:
            if k != col:
                by_col[k].discard(pivot_idx)
        pivots.append((col, pivot))
        for idx in others:
            row = active[idx]
            f = row[col]
            for k, v in pivot.items():
                w = (row.get(k, 0) - f * v) % p
                if w:
                    if k not in row:
                        by_col.setdefault(k, set()).add(idx)
                    row[k] = w
                else:
                    del row[k]
                    if k != col:
                        by_col[k].discard(idx)
            if not row:
                del active[idx]
    return pivots, [active[i] for i in sorted(active)]


def _reduce(pivots: list[tuple[Hashable, SparseRow]], p: int) -> list[tuple[Hashable, SparseRow]]:
    """Reduced echelon form of pivot rows that `eliminate` returned.

    Eliminating again, latest pivot first, clears every pivot column from
    the other pivot rows.  The result lists the pivots latest first.
    """
    pivots = pivots[::-1]
    return eliminate([row for _, row in pivots], [c for c, _ in pivots], p)[0]


# -- solution sets ----------------------------------------------------------

_new = tuple.__new__


class AffineSolutionSet(tuple):
    """A (possibly empty) affine subspace of (Z/pZ)^keys in canonical form.

    The tuple of its five fields (p, keys, particular, basis, pivots).
    basis rows are in reduced row echelon form over the key order, with
    leading coordinates pivots, and the particular point is reduced to
    zero on all pivots, so two equal sets have identical representations;
    an empty set has particular None.  Sets equal only other sets, never
    a plain tuple, and are not ordered.
    """

    __slots__ = ()

    def __new__(cls, p: int, keys: Sequence[Hashable], particular: Sequence[int] | None, basis: Sequence[Sequence[int]]):
        check_modulus(p)
        keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")
        if particular is None:
            return _new(cls, (p, keys, None, (), ()))
        n = len(keys)
        point = [x % p for x in particular]
        if len(point) != n:
            raise ValueError("particular point has wrong length")
        rows = [dict(enumerate(r)) for r in basis]
        if any(len(r) != n for r in rows):
            raise ValueError("basis row has wrong length")
        reduced = _reduce(eliminate(rows, range(n), p)[0], p)
        pivots = [c for c, _ in reversed(reduced)]
        rows = [tuple(row.get(j, 0) for j in range(n)) for _, row in reversed(reduced)]
        for row, c in zip(rows, pivots):
            if point[c]:
                f = point[c]
                point = [(a - f * b) % p for a, b in zip(point, row)]
        return _new(cls, (p, keys, tuple(point), tuple(rows), tuple(pivots)))

    p = property(itemgetter(0))
    keys = property(itemgetter(1))
    particular = property(itemgetter(2))
    basis = property(itemgetter(3))
    pivots = property(itemgetter(4))

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineSolutionSet) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("solution sets are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        if self.is_empty():
            raise ValueError("empty solution set has no dimension")
        return len(self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != len(self.keys):
            raise ValueError("vector has wrong length")
        if self.is_empty():
            return False
        p = self.p
        diff = [(a - b) % p for a, b in zip(vector, self.particular)]
        for row, c in zip(self.basis, self.pivots):
            if diff[c]:
                f = diff[c]
                diff = [(a - f * b) % p for a, b in zip(diff, row)]
        return not any(diff)

    __contains__ = contains  # `v in s` is membership, not a search of the five fields


def _solution_basis(rows: list[SparseRow], n: int, p: int):
    """Eliminate columns n-1, ..., 0 of `rows`, reduce, and read off the solutions.

    Labels n and up are not variables: they ride along untouched by the
    pivot choice.  Eliminating the columns last to first and reducing
    leaves each pivot row reading x[c] + sum of a[f] x[f] over free
    columns f < c.  So the vectors v_f (1 at f, -a[f] at each pivot c, 0
    elsewhere) lead at f and vanish on the other free columns: they are
    the reduced echelon basis of the homogeneous solution space, with the
    free columns as its pivots.  Returns the reduced pivot rows (latest
    first), the leftover rows, the basis and its pivots.
    """
    pivots, rest = eliminate(rows, range(n - 1, -1, -1), p)
    reduced = _reduce(pivots, p)
    free = {j: [0] * n for j in range(n)}
    for c, row in reduced:
        del free[c]
        for j, v in row.items():
            if j < n and j != c:
                free[j][c] = -v % p
    for j, v in free.items():
        v[j] = 1
    return reduced, rest, tuple(map(tuple, free.values())), tuple(free)


def _tags(row: SparseRow, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row indices, coefficients) of the tag columns of a tagged row."""
    tags = [(j - n, v) for j, v in row.items() if j >= n]
    return tuple(i for i, _ in tags), tuple(v for _, v in tags)


def _factorization(m: FpMatrix) -> tuple:
    """(checks, single-tag point rows, other point rows, basis, basis
    pivots, column indices) of m, cached on m.

    The rows of [m | I] are eliminated, with the tag of row i at column
    label cols + i.  Checks are the (tag rows, coefficients) of the
    leftover rows.  The point map is split by the number of tags of each
    reduced pivot row c: one tag i with coefficient a gives (c, i, a),
    more give (c, tag rows, coefficients).
    """
    f = m._factors
    if f is None:
        n = m.cols
        tagged = []
        for i, entries in enumerate(m.entries):
            row = dict(enumerate(entries))
            row[n + i] = 1
            tagged.append(row)
        reduced, rest, basis, free = _solution_basis(tagged, n, m.p)
        singles, sums = [], []
        for c, row in reduced:
            idx, coeffs = _tags(row, n)
            if len(idx) == 1:
                singles.append((c, idx[0], coeffs[0]))
            else:
                sums.append((c, idx, coeffs))
        f = (tuple(_tags(row, n) for row in rest), tuple(singles), tuple(sums), basis, free, tuple(range(n)))
        object.__setattr__(m, "_factors", f)
    return f


def rank(m: FpMatrix) -> int:
    f = _factorization(m)
    return len(f[1]) + len(f[2])


def solve(m: FpMatrix, b: Sequence[int]) -> AffineSolutionSet:
    """Full solution set of m x = b as an AffineSolutionSet keyed by column index."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    checks, singles, sums, basis, free, keys = _factorization(m)
    p = m.p
    at = b.__getitem__
    for idx, coeffs in checks:
        if sum(map(mul, coeffs, map(at, idx))) % p:
            return _new(AffineSolutionSet, (p, keys, None, (), ()))
    point = [0] * m.cols
    for c, i, a in singles:
        point[c] = a * b[i] % p
    for c, idx, coeffs in sums:
        point[c] = sum(map(mul, coeffs, map(at, idx))) % p
    return _new(AffineSolutionSet, (p, keys, tuple(point), basis, free))


def eliminate_columns(
    rows: Iterable[SparseRow],
    eliminate_order: Sequence[Hashable],
    p: int,
) -> list[SparseRow]:
    """Gaussian elimination of the given columns from a sparse homogeneous system.

    Returns rows spanning the induced constraints on the remaining columns:
    exactly the constraint system of the projected solution set.
    """
    return eliminate(rows, eliminate_order, p)[1]


def solution_space_from_constraints(
    rows: Sequence[SparseRow], keys: Sequence[Hashable], p: int
) -> AffineSolutionSet:
    """Homogeneous solution set over the given keys."""
    keys = tuple(keys)
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    if len(index) != n:
        raise ValueError("duplicate keys")
    try:
        rows = [{index[k]: v for k, v in row.items()} for row in rows]
    except KeyError as missing:
        raise ValueError(f"a constraint reads {missing.args[0]!r}, which is not a key") from None
    _, _, basis, free = _solution_basis(rows, n, p)
    return _new(AffineSolutionSet, (p, keys, (0,) * n, basis, free))
