"""Test oracle for flab.fplinear: the solver as it was before the particular
point map was compiled into the factorization.

`solve` factors [m | I] by a sparse elimination of its own (with its own
reduction and basis read-off), keeps every pivot row as a tuple of tags
read by a dot product with b, and returns the five canonical fields
(p, keys, particular, basis, pivots) as a plain tuple.  It shares no code
with flab.fplinear, so field-for-field agreement checks the compiled
point map, the tuple-backed solution sets and the canonical form at once.

`members` and `project` read a solution set through its public fields:
the first lists its points for brute-force comparisons, the second
builds its image under a coordinate projection with the canonicalizing
AffineSolutionSet constructor.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from flab.fplinear import AffineSolutionSet


def _eliminate(rows, order, p):
    """Pivot rows as (column, row) in elimination order, and the leftover
    rows, both in the first-touching-row pivot order of flab.fplinear."""
    active, by_col = {}, {}
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


def _solution_basis(rows, n, p):
    pivots, rest = _eliminate(rows, range(n - 1, -1, -1), p)
    pivots = pivots[::-1]
    reduced = _eliminate([row for _, row in pivots], [c for c, _ in pivots], p)[0]
    free = {j: [0] * n for j in range(n)}
    for c, row in reduced:
        del free[c]
        for j, v in row.items():
            if j < n and j != c:
                free[j][c] = -v % p
    for j, v in free.items():
        v[j] = 1
    return reduced, rest, tuple(map(tuple, free.values())), tuple(free)


def _tags(row, n):
    tags = [(j - n, v) for j, v in row.items() if j >= n]
    return tuple(i for i, _ in tags), tuple(v for _, v in tags)


def factorization(p, entries, ncols):
    """(checks, point rows, basis, basis pivots) of the matrix over Z/pZ."""
    tagged = []
    for i, row in enumerate(entries):
        row = {j: v % p for j, v in enumerate(row)}
        row[ncols + i] = 1
        tagged.append(row)
    reduced, rest, basis, free = _solution_basis(tagged, ncols, p)
    return (
        tuple(_tags(row, ncols) for row in rest),
        tuple((c, _tags(row, ncols)) for c, row in reduced),
        basis,
        free,
    )


def solve(p, entries, ncols, b, factors=None):
    """(p, keys, particular, basis, pivots) of the solutions of m x = b, keyed
    by column index; particular is None, and basis and pivots empty, when
    there are none."""
    checks, point_rows, basis, free = factors or factorization(p, entries, ncols)
    keys = tuple(range(ncols))
    at = b.__getitem__
    for idx, coeffs in checks:
        if sum(map(mul, coeffs, map(at, idx))) % p:
            return (p, keys, None, (), ())
    point = [0] * ncols
    for c, (idx, coeffs) in point_rows:
        point[c] = sum(map(mul, coeffs, map(at, idx))) % p
    return (p, keys, tuple(point), basis, free)


def members(s, limit=1 << 12):
    """Every point of the solution set s; refuses to list more than `limit`."""
    if s.is_empty():
        return []
    p, dim = s.p, len(s.basis)
    if p**dim > limit:
        raise ValueError(f"solution set too large to enumerate ({p**dim})")
    out = []
    for coeffs in product(range(p), repeat=dim):
        v = list(s.particular)
        for f, row in zip(coeffs, s.basis):
            v = [(a + f * x) % p for a, x in zip(v, row)]
        out.append(tuple(v))
    return out


def project(s, keep):
    """The image of s under the coordinate projection onto the keys `keep`."""
    cols = [s.keys.index(k) for k in keep]
    if s.is_empty():
        return AffineSolutionSet(s.p, keep, None, ())
    return AffineSolutionSet(
        s.p, keep, [s.particular[c] for c in cols], [[row[c] for c in cols] for row in s.basis]
    )
