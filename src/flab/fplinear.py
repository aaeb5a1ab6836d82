"""Exact linear algebra over Z/pZ: rank, solving, and coordinate projection.

Every computation runs through one sparse Gaussian elimination,
`eliminate`, on rows stored as dicts {column label: nonzero residue}.
FpMatrix is only a dense input format.  Solution sets come back as
AffineSolutionSet in a canonical form (reduced row echelon basis,
particular point zero on the basis pivots), so equal sets compare equal
however they were computed.  Very large translation-invariant systems
are projected onto small coordinate windows by eliminating the
non-kept columns first (`eliminate_columns`).
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Iterable, Sequence

MAX_PRIME = 1 << 15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_modulus(p: int):
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the 2^15 guard")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class FpMatrix:
    """A dense matrix over Z/pZ with entries reduced to [0, p)."""

    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p: int, entries: Sequence[Sequence[int]], cols: int | None = None):
        check_modulus(p)
        rows = [tuple(x % p for x in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = cols or 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    def transpose(self) -> "FpMatrix":
        return FpMatrix(
            self.p,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        p = self.p
        return tuple(sum(a * x for a, x in zip(row, v)) % p for row in self.entries)


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

_RHS = object()  # column label of the right-hand side in augmented rows


def rank(m: FpMatrix) -> int:
    return len(eliminate([dict(enumerate(r)) for r in m.entries], range(m.cols), m.p)[0])


class AffineSolutionSet:
    """A (possibly empty) affine subspace of (Z/pZ)^keys in canonical form.

    basis rows are in reduced row echelon form over the key order, and the
    particular point is reduced to zero on all pivot coordinates, so two
    equal sets have identical representations.
    """

    __slots__ = ("p", "keys", "particular", "basis", "pivots")

    def __init__(
        self,
        p: int,
        keys: Sequence[Hashable],
        particular: Sequence[int] | None,
        basis: Sequence[Sequence[int]],
    ):
        check_modulus(p)
        keys = tuple(keys)
        if particular is None:
            self._set(p, keys, None, (), ())
            return
        point = [x % p for x in particular]
        if len(point) != len(keys):
            raise ValueError("particular point has wrong length")
        n = len(keys)
        reduced = _reduce(eliminate([dict(enumerate(r)) for r in basis], range(n), p)[0], p)
        pivots = [c for c, _ in reversed(reduced)]
        rows = [tuple(row.get(j, 0) for j in range(n)) for _, row in reversed(reduced)]
        for row, c in zip(rows, pivots):
            if point[c]:
                f = point[c]
                point = [(a - f * b) % p for a, b in zip(point, row)]
        self._set(p, keys, tuple(point), tuple(rows), tuple(pivots))

    def _set(self, p, keys, particular, basis, pivots):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSolutionSet is immutable")

    @staticmethod
    def empty(p: int, keys: Sequence[Hashable]) -> "AffineSolutionSet":
        return AffineSolutionSet(p, keys, None, ())

    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        if self.is_empty():
            raise ValueError("empty solution set has no dimension")
        return len(self.basis)

    def size(self) -> int:
        return 0 if self.is_empty() else self.p ** self.dimension

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineSolutionSet)
            and self.p == other.p
            and self.keys == other.keys
            and self.particular == other.particular
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.p, self.keys, self.particular, self.basis))

    def contains(self, vector: Sequence[int]) -> bool:
        if self.is_empty():
            return False
        p = self.p
        diff = [(a - b) % p for a, b in zip(vector, self.particular)]
        for row, c in zip(self.basis, self.pivots):
            if diff[c]:
                f = diff[c]
                diff = [(a - f * b) % p for a, b in zip(diff, row)]
        return not any(diff)

    def members(self, limit: int = 1 << 12) -> list[tuple[int, ...]]:
        """Exhaustive enumeration; refuses to expand more than `limit` points."""
        if self.is_empty():
            return []
        if self.size() > limit:
            raise ValueError(f"solution set too large to enumerate ({self.size()})")
        p = self.p
        out = []
        for coeffs in product(range(p), repeat=self.dimension):
            v = list(self.particular)
            for f, row in zip(coeffs, self.basis):
                if f:
                    v = [(a + f * b) % p for a, b in zip(v, row)]
            out.append(tuple(v))
        return out

    def project(self, keep: Sequence[Hashable]) -> "AffineSolutionSet":
        """Image under the coordinate projection onto `keep` (a key subset)."""
        index = {k: i for i, k in enumerate(self.keys)}
        for k in keep:
            if k not in index:
                raise IndexError(f"projection coordinate {k!r} out of range")
        cols = [index[k] for k in keep]
        if self.is_empty():
            return AffineSolutionSet.empty(self.p, keep)
        return AffineSolutionSet(
            self.p,
            tuple(keep),
            [self.particular[c] for c in cols],
            [[row[c] for c in cols] for row in self.basis],
        )


def _solution_set(rows: list[SparseRow], keys: tuple, p: int) -> AffineSolutionSet:
    """Solutions of sparse rows over columns 0..len(keys)-1, right-hand side at _RHS.

    Eliminating the columns last to first and reducing leaves each pivot
    row reading x[c] + sum of a[f] x[f] over free columns f < c = rhs.  So
    the vectors v_f (1 at f, -a[f] at each pivot c, 0 elsewhere) lead at f
    and vanish on the other free columns: they are the reduced echelon
    basis of the solution space, and the point (rhs at the pivots, 0 at
    the free columns) is already reduced against it.
    """
    n = len(keys)
    pivots, rest = eliminate(rows, range(n - 1, -1, -1), p)
    if rest:  # a leftover row reads 0 = rhs with rhs != 0
        return AffineSolutionSet.empty(p, keys)
    point = [0] * n
    free = {j: [0] * n for j in range(n)}
    for c, row in _reduce(pivots, p):
        del free[c]
        for j, v in row.items():
            if j is _RHS:
                point[c] = v
            elif j != c:
                free[j][c] = -v % p
    for j, v in free.items():
        v[j] = 1
    out = object.__new__(AffineSolutionSet)
    out._set(p, keys, tuple(point), tuple(map(tuple, free.values())), tuple(free))
    return out


def solve(m: FpMatrix, b: Sequence[int], keys: Sequence[Hashable] | None = None) -> AffineSolutionSet:
    """Full solution set of m x = b as an AffineSolutionSet."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    keys = tuple(keys) if keys is not None else tuple(range(m.cols))
    if len(keys) != m.cols:
        raise ValueError("key count must match column count")
    rows = []
    for entries, bv in zip(m.entries, b):
        row = dict(enumerate(entries))
        row[_RHS] = bv
        rows.append(row)
    return _solution_set(rows, keys, m.p)


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
    index = {k: i for i, k in enumerate(keys)}
    return _solution_set([{index[k]: v for k, v in row.items()} for row in rows], tuple(keys), p)
