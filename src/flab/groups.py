"""Finite groups with explicit multiplication tables, and their automorphisms.

Elements are referred to by index; labels are only for I/O.  Presets cover
the groups used by the example families: cyclic groups, the Klein
four-group, the dihedral group of order 8 and the quaternion group.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .spec import is_int, spec_field


class FiniteGroup:
    """A group given by its multiplication table; caches its automorphisms."""

    __slots__ = ("name", "labels", "table", "identity", "inverse", "_index", "_automorphisms")

    def __init__(self, name: str, labels: Sequence[str], table: Sequence[Sequence[int]]):
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate element labels")
        tab = tuple(tuple(row) for row in table)
        if len(tab) != n or any(len(r) != n for r in tab):
            raise ValueError("multiplication table has wrong shape")
        ident = None
        for e in range(n):
            if all(tab[e][x] == x and tab[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity")
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if tab[x][y] == ident:
                    inverse[x] = y
        if any(v is None for v in inverse):
            raise ValueError("table has a non-invertible element")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if tab[tab[x][y]][z] != tab[x][tab[y][z]]:
                        raise ValueError("table is not associative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})
        object.__setattr__(self, "_automorphisms", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def __delattr__(self, name):
        raise AttributeError("FiniteGroup is immutable")

    def order(self) -> int:
        return len(self.labels)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def index(self, label: str) -> int:
        return self._index[label]

    def is_abelian(self) -> bool:
        n = self.order()
        return all(
            self.table[x][y] == self.table[y][x] for x in range(n) for y in range(n)
        )

    def subgroup_closure(self, gens: Sequence[int]) -> frozenset[int]:
        out = {self.identity}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            for y in list(out):
                for z in (self.mul(x, y), self.mul(y, x), self.inv(x)):
                    if z not in out:
                        frontier.append(z)
        return frozenset(out)

    def is_subgroup(self, elems: frozenset[int]) -> bool:
        if self.identity not in elems:
            return False
        return all(
            self.mul(x, y) in elems and self.inv(x) in elems
            for x in elems
            for y in elems
        )

    def is_normal(self, sub: frozenset[int]) -> bool:
        if not self.is_subgroup(sub):
            return False
        n = self.order()
        return all(
            self.mul(self.mul(g, h), self.inv(g)) in sub
            for g in range(n)
            for h in sub
        )

    def left_cosets(self, sub: frozenset[int]) -> list[frozenset[int]]:
        seen: set[frozenset[int]] = set()
        out = []
        for g in range(self.order()):
            coset = frozenset(self.mul(g, h) for h in sub)
            if coset not in seen:
                seen.add(coset)
                out.append(coset)
        return out

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        n = self.order()
        if sorted(perm) != list(range(n)):
            return False
        return all(
            perm[self.mul(x, y)] == self.mul(perm[x], perm[y])
            for x in range(n)
            for y in range(n)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order()})"


def cyclic(n: int) -> FiniteGroup:
    labels = [str(i) for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(f"Z/{n}", labels, table)


def klein_four() -> FiniteGroup:
    labels = ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]
    def enc(a, b):
        return a + 2 * b
    table = [[0] * 4 for _ in range(4)]
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    table[enc(a1, b1)][enc(a2, b2)] = enc((a1 + a2) % 2, (b1 + b2) % 2)
    return FiniteGroup("Z/2xZ/2", labels, table)


def dihedral4() -> FiniteGroup:
    # elements r^k s^f, 0 <= k < 4, f in {0,1}; s r = r^-1 s
    def enc(k, f):
        return k + 4 * f
    labels = [f"r{k}" for k in range(4)] + [f"r{k}s" for k in range(4)]
    table = [[0] * 8 for _ in range(8)]
    for k1 in range(4):
        for f1 in range(2):
            for k2 in range(4):
                for f2 in range(2):
                    k = (k1 + (k2 if f1 == 0 else -k2)) % 4
                    table[enc(k1, f1)][enc(k2, f2)] = enc(k, (f1 + f2) % 2)
    return FiniteGroup("D4", labels, table)


def quaternion8() -> FiniteGroup:
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": 0, "i": 1, "j": 2, "k": 3}
    # (sign, axis) products for the quaternion units
    rules = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    def enc(sign, axis):
        return 2 * axis + (0 if sign > 0 else 1)
    def dec(idx):
        return (1 if idx % 2 == 0 else -1, idx // 2)
    table = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            sx, ax = dec(x)
            sy, ay = dec(y)
            sp, axis = rules[(ax, ay)]
            table[x][y] = enc(sx * sy * sp, axis)
    return FiniteGroup("Q8", labels, table)


_PRESETS = {
    "Z/2": lambda: cyclic(2),
    "Z/3": lambda: cyclic(3),
    "Z/4": lambda: cyclic(4),
    "Z/5": lambda: cyclic(5),
    "Z/6": lambda: cyclic(6),
    "Z/8": lambda: cyclic(8),
    "Z/2xZ/2": klein_four,
    "D4": dihedral4,
    "Q8": quaternion8,
}


def preset_group(name: str) -> FiniteGroup:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown group preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def group_from_json(data: dict) -> FiniteGroup:
    """{"preset": "Z/4"} or {"name": ..., "elements": [...], "table": [[...]]}."""
    preset = spec_field(data, "preset", str, None)
    if preset is not None:
        return preset_group(preset)
    labels = spec_field(data, "elements", list)
    table = spec_field(data, "table", list)
    n = len(labels)
    if not all(isinstance(lab, str) for lab in labels):
        raise ValueError("group elements must be labelled by strings")
    if not all(isinstance(row, list) and all(is_int(x) and 0 <= x < n for x in row) for row in table):
        raise ValueError("group table entries must be element indices")
    return FiniteGroup(spec_field(data, "name", str, "custom"), labels, table)


def _element_order(g: FiniteGroup, x: int) -> int:
    k, y = 1, x
    while y != g.identity:
        y, k = g.mul(y, x), k + 1
    return k


def all_automorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism, as a permutation tuple, in ascending order.

    An automorphism is fixed by its images of a generating set, and each
    image has the order of its generator.  So the candidates are those
    images, each extended along a spanning tree of the Cayley graph
    (x·s is sent to image(x)·image(s)) and kept when it is a bijection
    with perm[x·s] = perm[x]·perm[s] for every x and every generator s,
    which makes it a homomorphism.  The list is computed once per group.
    """
    if g.order() > 8:
        raise ValueError("automorphism enumeration capped at order 8")
    if g._automorphisms is None:
        n = g.order()
        gens: list[int] = []
        span = {g.identity}
        for x in range(n):
            if x not in span:
                gens.append(x)
                span = g.subgroup_closure(gens)
        # each other element y as (x, k, y): y = x·gens[k], x reached before y
        steps, reached = [], [g.identity]
        seen = {g.identity}
        for x in reached:
            for k, s in enumerate(gens):
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
                    steps.append((x, k, y))
        orders = [_element_order(g, x) for x in range(n)]
        choices = [[y for y in range(n) if orders[y] == orders[s]] for s in gens]
        tab, out = g.table, []
        for images in product(*choices):
            perm = [0] * n
            perm[g.identity] = g.identity
            for x, k, y in steps:
                perm[y] = tab[perm[x]][images[k]]
            if len(set(perm)) == n and all(
                perm[row[s]] == tab[perm[x]][perm[s]] for x, row in enumerate(tab) for s in gens
            ):
                out.append(tuple(perm))
        out.sort()
        object.__setattr__(g, "_automorphisms", tuple(out))
    return list(g._automorphisms)


def invert_perm(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)
