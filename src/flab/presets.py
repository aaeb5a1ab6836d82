"""Named presets and seeded factories backing the verifier suites.

The section pairs and the skew cases built on them act through the
rank-2 free group, the rank every verifier suite runs at.  Every
randomized suite takes an explicit rng so runs are reproducible from a
single seed.
"""

from __future__ import annotations

import random

from .entropy import FinitePartition
from .groups import FiniteGroup, all_automorphisms, preset_group
from .skew import (
    Cocycle,
    FiniteAction,
    FiniteGroupAction,
    SectionCocycleBundle,
    SpecialPartition,
)
from .spec import is_int

DEFAULT_SEED = 20120717


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def group_action(group: FiniteGroup, autos, rank: int) -> FiniteGroupAction:
    """Action whose generator images are automorphisms, each given as an
    index into the automorphism catalog (taken mod its length) or as a
    permutation list."""
    return FiniteGroupAction(group, [_automorphism(group, a) for a in autos], rank)


def _automorphism(group: FiniteGroup, value) -> tuple[int, ...]:
    if is_int(value):
        catalog = all_automorphisms(group)
        return catalog[value % len(catalog)]
    if not (isinstance(value, list) and all(is_int(x) for x in value)):
        raise ValueError(f"automorphism must be an index or a permutation list, not {value!r}")
    return tuple(value)


def trivial_action(group: FiniteGroup, rank: int) -> FiniteGroupAction:
    return FiniteGroupAction(group, [identity_perm(group.order())] * rank, rank)


def normal_subgroups(group: FiniteGroup) -> list[frozenset[int]]:
    """All normal subgroups, by size, then elements, by closing generator
    pairs (fine up to order 8); computed once per group and kept on it.

    Each unordered pair is closed once, and a pair whose b lies in <a>
    closes to <a> itself, so it is skipped.
    """
    if group._normal_subgroups is None:
        n = group.order()
        found = {frozenset([group.identity]), frozenset(range(n))}
        for a in range(n):
            cyclic = group.subgroup_closure((a,))
            found.add(cyclic)
            for b in range(a + 1, n):
                if b not in cyclic:
                    found.add(group.subgroup_closure((a, b)))
        normal = sorted((s for s in found if group.is_normal(s)), key=lambda s: (len(s), sorted(s)))
        object.__setattr__(group, "_normal_subgroups", tuple(normal))
    return list(group._normal_subgroups)


def _auto_fixing_subgroup(group: FiniteGroup, sub: frozenset[int]):
    """The first automorphism but the identity mapping sub onto itself, else the identity."""
    ident = identity_perm(group.order())
    for perm in all_automorphisms(group):
        if perm != ident and frozenset(perm[x] for x in sub) == sub:
            return perm
    return ident


def section_pair_catalog() -> list[dict]:
    """(G, N) preset pairs with invariant normal subgroups and mixed rank-2 actions."""
    z4 = preset_group("Z/4")
    one, neg = identity_perm(4), next(p for p in all_automorphisms(z4) if p != identity_perm(4))
    klein = preset_group("Z/2xZ/2")
    fixed = frozenset({klein.identity, klein.index("(1,0)")})
    swap = _auto_fixing_subgroup(klein, fixed)
    d4, q8 = preset_group("D4"), preset_group("Q8")
    autos_d4, autos_q8 = all_automorphisms(d4), all_automorphisms(q8)
    pairs = [
        ("Z/4 over Z/2, negating generator", z4, [neg, one], {z4.index("0"), z4.index("2")}),
        ("Z/4 with trivial fiber", z4, [neg, neg], {z4.identity}),
        ("Z/4 with trivial base", z4, [one, neg], range(4)),
        ("Klein four over Z/2, swapping the complement", klein, [swap, one], fixed),
        ("D4 over its center", d4, [autos_d4[1], autos_d4[2]], {d4.index("r0"), d4.index("r2")}),
        ("D4 over the rotation subgroup", d4, [autos_d4[3], autos_d4[1]], {d4.index(f"r{k}") for k in range(4)}),
        ("Q8 over its center", q8, [autos_q8[1], autos_q8[5]], {q8.index("1"), q8.index("-1")}),
    ]
    return [
        {"name": name, "action": FiniteGroupAction(group, autos, 2), "subgroup": frozenset(sub)}
        for name, group, autos, sub in pairs
    ]


def section_bundles() -> list[tuple[str, SectionCocycleBundle]]:
    """Each pair of `section_pair_catalog` by name, split once into its bundle."""
    return [
        (pair["name"], SectionCocycleBundle(pair["action"], pair["subgroup"]))
        for pair in section_pair_catalog()
    ]


def skew_test_cases(bundles: list[tuple[str, SectionCocycleBundle]] | None = None) -> list[dict]:
    """Finite rank-2 skew products with a special fiber partition, cocycles
    mixed trivial and nontrivial: those of `bundles`, built by
    `section_bundles` when not given."""
    cases = []
    for name, bundle in section_bundles() if bundles is None else bundles:
        cocycle = bundle.cocycle
        fiber = cocycle.fiber
        specials = [
            SpecialPartition(fiber.group, sub)
            for sub in normal_subgroups(fiber.group)
            if fiber.subgroup_invariant(sub)
        ]
        nontrivial = any(v != fiber.group.identity for vals in cocycle.gen_values for v in vals)
        for sp in specials:
            cases.append(
                {
                    "name": name + f" (blocks={sp.partition.num_blocks()})",
                    "cocycle": cocycle,
                    "special": sp,
                    "nontrivial_cocycle": nontrivial,
                }
            )
    return cases


# -- seeded factories ----------------------------------------------------------


def make_rng(seed: int | None = None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_partition(rng: random.Random, n: int, max_blocks: int = 3) -> FinitePartition:
    weights = FinitePartition.uniform_space(n)
    labels = [rng.randrange(max_blocks) for _ in range(n)]
    return FinitePartition(weights, labels)


def random_finite_action(rng: random.Random, rank: int = 2, min_size: int = 3, max_size: int = 6) -> FiniteAction:
    n = rng.randint(min_size, max_size)
    perms = [random_permutation(rng, n) for _ in range(rank)]
    return FiniteAction(FinitePartition.uniform_space(n), perms, rank)


_FIBER_PRESETS = ["Z/2", "Z/3", "Z/4", "Z/2xZ/2", "D4", "Q8"]


def random_z_skew(rng: random.Random) -> tuple[Cocycle, FinitePartition, bool]:
    """(rank-1 cocycle, fiber partition, partition-is-special): one random
    transformation, fiber automorphism and cocycle value."""
    fiber = preset_group(_FIBER_PRESETS[rng.randrange(len(_FIBER_PRESETS))])
    autos = all_automorphisms(fiber)
    s_perm = autos[rng.randrange(len(autos))]
    base_size = rng.randint(2, 4)
    t_perm = random_permutation(rng, base_size)
    gen_value = [rng.randrange(fiber.order()) for _ in range(base_size)]
    cocycle = Cocycle(
        FiniteAction(FinitePartition.uniform_space(base_size), [t_perm], 1),
        FiniteGroupAction(fiber, [s_perm], 1),
        [gen_value],
    )
    if rng.random() < 0.5:
        subs = normal_subgroups(fiber)
        q = SpecialPartition(fiber, subs[rng.randrange(len(subs))]).partition
        return cocycle, q, True
    return cocycle, random_partition(rng, fiber.order()), False
