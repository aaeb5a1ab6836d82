"""Named presets and seeded factories backing the verifier suites.

The section pairs and the skew cases built on them act through the
rank-2 free group, the rank every verifier suite runs at.  Every
randomized suite takes an explicit rng so runs are reproducible from a
single seed.

Per-process facts.  The seven section pairs are split once per process
(`_SECTIONS`), each into its `SectionCocycleBundle` with one skew case
per special fiber partition; `section_bundles` and `skew_test_cases`
return fresh lists, and fresh case dicts, over those shared bundles,
cocycles and special partitions.  The preset groups come from
`groups.preset_group`, one per name (`groups._BUILT`), and keep their
automorphisms and normal subgroups.  Sharing is safe because none of
these objects changes meaning after it is built and validated: what
they fill lazily (state tables, window state sets, cocycle rows) is a
function of their generators alone.
"""

from __future__ import annotations

import random

from .entropy import FinitePartition
from .groups import FiniteGroup, all_automorphisms, normal_subgroups, preset_group
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


# pair name -> (its bundle, its skew cases), filled once per process by `_sections`
_SECTIONS: dict[str, tuple[SectionCocycleBundle, tuple[dict, ...]]] = {}


def _sections() -> dict[str, tuple[SectionCocycleBundle, tuple[dict, ...]]]:
    """Each pair of `section_pair_catalog`, split once into its bundle, with
    one skew case per special fiber partition invariant under the fiber action."""
    if not _SECTIONS:
        built = {}
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            cocycle = bundle.cocycle
            fiber = cocycle.fiber
            nontrivial = any(v != fiber.group.identity for vals in cocycle.gen_values for v in vals)
            specials = [
                SpecialPartition(fiber.group, sub)
                for sub in normal_subgroups(fiber.group)
                if fiber.subgroup_invariant(sub)
            ]
            built[pair["name"]] = bundle, tuple(
                {
                    "name": pair["name"] + f" (blocks={sp.partition.num_blocks()})",
                    "cocycle": cocycle,
                    "special": sp,
                    "nontrivial_cocycle": nontrivial,
                }
                for sp in specials
            )
        _SECTIONS.update(built)  # only whole: a failed split leaves no partial catalog
    return _SECTIONS


def section_bundles() -> list[tuple[str, SectionCocycleBundle]]:
    """Each pair of `section_pair_catalog` by name with its bundle, shared by every call."""
    return [(name, bundle) for name, (bundle, _cases) in _sections().items()]


def skew_test_cases() -> list[dict]:
    """Finite rank-2 skew products with a special fiber partition, cocycles
    mixed trivial and nontrivial: fresh dicts over the shared bundles of
    `section_bundles`."""
    return [dict(case) for _bundle, cases in _sections().values() for case in cases]


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
