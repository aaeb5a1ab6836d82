import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from flab.entropy import EntropyValue, FinitePartition, join, shannon_entropy
from flab.finv import generator_entropy_rate
from flab.groups import (
    _PRESETS,
    FiniteGroup,
    all_automorphisms,
    cyclic,
    dihedral4,
    invert_perm,
    klein_four,
    preset_group,
    quaternion8,
)
from flab.presets import (
    make_rng,
    normal_subgroups,
    random_finite_action,
    random_partition,
    random_z_skew,
    section_pair_catalog,
    skew_test_cases,
)
from flab.processes import FiniteActionProcess
from flab.skew import (
    Cocycle,
    FiniteAction,
    FiniteGroupAction,
    K_of,
    SectionCocycleBundle,
    SpecialPartition,
    join_special,
    right_translate,
    sigma_generated,
    verify_cocycle_identity,
    verify_generated_algebra,
    verify_pullback_exchange,
    verify_skew_entropy_bound,
    verify_window_split,
)
from flab.words import CayleyTree, FreeWord, WordSet, ball, ball_size, ball_steps, mul, parse_word, signed_letters
from skew_fixtures import (
    LetterCocycle,
    LetterPerms,
    RecursivePerms,
    RecursiveRows,
    brute_force_normal_subgroups,
    is_special,
    joined_window,
    letter_perm,
    pairwise_closure,
    per_point_skew_bound,
    pointwise_cocycle_failure,
    random_group_skew_bundle,
    scan_cocycle_rows,
)

F = Fraction


def uniform(n):
    return FinitePartition.uniform_space(n)



def brute_force_automorphisms(g):
    """Oracle: test every bijection fixing the identity, sorted."""
    n = g.order()
    others = [x for x in range(n) if x != g.identity]
    out = []
    for images in permutations(others):
        perm = [0] * n
        perm[g.identity] = g.identity
        for x, y in zip(others, images):
            perm[x] = y
        if g.is_automorphism(perm):
            out.append(tuple(perm))
    return sorted(out)

class TestGroups:
    def test_preset_orders(self):
        assert cyclic(4).order() == 4
        assert klein_four().order() == 4
        assert dihedral4().order() == 8
        assert quaternion8().order() == 8

    def test_abelian_flags(self):
        assert cyclic(4).is_abelian()
        assert klein_four().is_abelian()
        assert not dihedral4().is_abelian()
        assert not quaternion8().is_abelian()

    def test_automorphism_counts(self):
        assert len(all_automorphisms(cyclic(4))) == 2
        assert len(all_automorphisms(klein_four())) == 6
        assert len(all_automorphisms(dihedral4())) == 8
        assert len(all_automorphisms(quaternion8())) == 24

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_automorphisms_match_brute_force(self, name):
        g = preset_group(name)
        assert g.order() <= 8
        assert all_automorphisms(g) == brute_force_automorphisms(g)

    def test_automorphisms_with_a_redundant_generating_set(self):
        # D4 relabelled so that r3s, r1s and r3 are all picked as
        # generators: 24 candidates are bijections, only 8 respect the
        # group law, so the generator check must drop the other 16
        d4 = dihedral4()
        order = [d4.index(t) for t in ("r0", "r3s", "r1s", "r3", "r1", "r2s", "r0s", "r2")]
        pos = {old: new for new, old in enumerate(order)}
        table = [[pos[d4.mul(x, y)] for y in order] for x in order]
        g = FiniteGroup("D4", [d4.labels[x] for x in order], table)
        autos = all_automorphisms(g)
        assert len(autos) == 8 and autos == brute_force_automorphisms(g)

    def test_automorphisms_cached_on_the_group(self):
        g = dihedral4()
        assert g._automorphisms is None
        autos = all_automorphisms(g)
        autos.clear()
        assert all_automorphisms(g) == brute_force_automorphisms(g)
        # one preset instance per name, shared; the builders still give fresh groups
        assert all(preset_group(name) is preset_group(name) for name in _PRESETS)
        assert dihedral4() is not preset_group("D4") and dihedral4()._automorphisms is None

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_cached_lists_are_copies(self, name):
        for g in (preset_group(name), _PRESETS[name]()):
            for listing in (normal_subgroups, all_automorphisms):
                first = listing(g)
                first.clear()
                assert listing(g) == listing(_PRESETS[name]()) != []

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_normal_subgroups_match_every_subset(self, name):
        g = preset_group(name)
        assert normal_subgroups(g) == brute_force_normal_subgroups(g)
        assert g._normal_subgroups is not None

    def test_q8_relations(self):
        q8 = quaternion8()
        i, j, k = q8.index("i"), q8.index("j"), q8.index("k")
        minus = q8.index("-1")
        assert q8.mul(i, i) == minus
        assert q8.mul(i, j) == k
        assert q8.mul(j, i) == q8.index("-k")

    def test_normality(self):
        d4 = dihedral4()
        rotations = frozenset(d4.index(f"r{k}") for k in range(4))
        assert d4.is_normal(rotations)
        reflection_pair = d4.subgroup_closure((d4.index("r0s"),))
        assert not d4.is_normal(reflection_pair)

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_closure_matches_the_pairwise_closure(self, name):
        g = preset_group(name)
        n = g.order()
        gen_lists = [()] + [(a,) for a in range(n)] + [(a, b) for a in range(n) for b in range(n)]
        for gens in gen_lists:
            assert g.subgroup_closure(gens) == pairwise_closure(g, gens), gens

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_normal_subgroups_match_all_pairs(self, name):
        # every subgroup of an order-8 group has two generators, so closing
        # all ordered pairs finds them all
        g = preset_group(name)
        n = g.order()
        pairs = {g.subgroup_closure((a, b)) for a in range(n) for b in range(n)}
        want = sorted(
            (s for s in pairs | {frozenset(range(n))} if g.is_normal(s)),
            key=lambda s: (len(s), sorted(s)),
        )
        assert normal_subgroups(g) == want


class TestGroupActions:
    def test_each_generator_is_checked_once(self, monkeypatch):
        # catalog entries and permutation lists alike are checked by the action alone
        from flab.presets import group_action

        d4 = dihedral4()
        catalog = all_automorphisms(d4)
        checked, original = [], FiniteGroup.is_automorphism

        def counting(self, perm):
            checked.append(tuple(perm))
            return original(self, perm)

        monkeypatch.setattr(FiniteGroup, "is_automorphism", counting)
        action = group_action(d4, [3, list(catalog[5])], 2)
        assert checked == [catalog[3], catalog[5]] == list(action.gen_perms)
        with pytest.raises(ValueError, match="automorphism"):
            group_action(cyclic(4), [[0, 2, 1, 3], 0], 2)


class TestSpecialPartitions:
    def test_cosets(self):
        z4 = cyclic(4)
        sp = SpecialPartition(z4, frozenset({0, 2}))
        assert sp.partition.num_blocks() == 2
        assert is_special(z4, sp.partition)

    def test_non_special_detected(self):
        z4 = cyclic(4)
        lopsided = FinitePartition(uniform(4), [0, 0, 0, 1])
        assert not is_special(z4, lopsided)

    def test_non_normal_rejected(self):
        d4 = dihedral4()
        sub = d4.subgroup_closure((d4.index("r0s"),))
        with pytest.raises(ValueError):
            SpecialPartition(d4, sub)


class TestJoinSpecial:
    def test_idempotent(self):
        z4 = cyclic(4)
        sp = SpecialPartition(z4, frozenset({0, 2}))
        ident = tuple(range(4))
        out = join_special(z4, [(ident, sp), (ident, sp)])
        assert out.subgroup == sp.subgroup

    def test_intersection_subgroup(self):
        z8 = cyclic(8)
        triple = tuple((3 * x) % 8 for x in range(8))
        q1 = SpecialPartition(z8, frozenset({0, 4}))
        q2 = SpecialPartition(z8, frozenset({0, 2, 4, 6}))
        out = join_special(z8, [(triple, q1), (tuple(range(8)), q2)])
        assert out.subgroup == frozenset({0, 4})
        assert is_special(z8, out.partition)


    @pytest.mark.parametrize(
        "relabel, message",
        [
            # every atom its own block: the identity block is {e}, not {0, 4}
            (lambda labels: list(range(len(labels))), "joined identity block is not the intersected subgroup"),
            # the identity block kept, every other block split into points
            (
                lambda labels: [0 if v == labels[0] else x + 1 for x, v in enumerate(labels)],
                "join of special partitions failed to be special",
            ),
        ],
    )
    def test_the_special_suite_checks_fire_on_a_wrong_join(self, monkeypatch, relabel, message):
        # the special suite joins once, on Z/8, whose identity is atom 0
        import flab.skew as skew
        from flab.suite import RunConfig, run_verifier_suite

        real = skew.join_many

        def wrong(parts):
            joined = real(parts)
            return FinitePartition(joined.space, relabel(joined.labels))

        monkeypatch.setattr(skew, "join_many", wrong)
        with pytest.raises(AssertionError, match=message):
            run_verifier_suite(RunConfig(), ["special"])


class TestKOf:
    def test_special_partition_is_zero(self):
        d4 = dihedral4()
        sp = SpecialPartition(d4, frozenset(d4.index(f"r{k}") for k in range(4)))
        assert K_of(sp.partition, d4).is_zero()

    def test_points_partition_is_zero(self):
        d4 = dihedral4()
        assert K_of(FinitePartition.points(uniform(8)), d4).is_zero()

    def test_lopsided_on_z3(self):
        z3 = cyclic(3)
        q = FinitePartition(uniform(3), [0, 1, 1])
        # translates shift the singleton around: K = (4/3) log 2 by direct evaluation
        assert K_of(q, z3) == F(4, 3) * EntropyValue.log_int(2)

    def test_zero_iff_translation_invariant(self):
        rng = random.Random(0)
        z4 = cyclic(4)
        for _ in range(10):
            q = random_partition(rng, 4)
            k = K_of(q, z4)
            invariant = all(
                right_translate(z4, q, g).equal_mod_null(q) for g in range(4)
            )
            assert k.is_zero() == invariant

    @pytest.mark.parametrize("weights", [[F(1, 2), F(1, 4), F(1, 4)], uniform(4)])
    def test_a_partition_off_haar_measure_is_refused(self, weights):
        # H(Qg) = H(Q) holds because right translation permutes atoms of equal weight
        with pytest.raises(ValueError, match="Haar"):
            K_of(FinitePartition(weights, [0] + [1] * (len(weights) - 1)), cyclic(3))


class TestSectionCocycles:
    def test_z4_mod_half(self):
        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        ga = FiniteGroupAction(z4, [neg, tuple(range(4))], 2)
        bundle = SectionCocycleBundle(ga, frozenset({0, 2}))
        ok, witness = verify_cocycle_identity(
            bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=3
        )
        assert ok, witness
        ok, witness = bundle.verify_conjugacy(max_len=3)
        assert ok, witness
        # the negating generator produces a genuinely nontrivial cocycle
        assert any(
            v != bundle.cocycle.fiber.group.identity for v in bundle.cocycle.gen_values[0]
        )

    def test_trivial_subgroup(self):
        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        ga = FiniteGroupAction(z4, [neg, neg], 2)
        bundle = SectionCocycleBundle(ga, frozenset({0}))
        assert all(
            v == bundle.cocycle.fiber.group.identity
            for vals in bundle.cocycle.gen_values
            for v in vals
        )
        assert bundle.verify_conjugacy(max_len=2)[0]

    def test_full_subgroup(self):
        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        ga = FiniteGroupAction(z4, [tuple(range(4)), neg], 2)
        bundle = SectionCocycleBundle(ga, frozenset(range(4)))
        assert bundle.cocycle.base.size() == 1
        assert bundle.verify_conjugacy(max_len=2)[0]

    def test_noninvariant_subgroup_rejected(self):
        klein = klein_four()
        swap = next(
            p
            for p in all_automorphisms(klein)
            if p[klein.index("(1,0)")] != klein.index("(1,0)")
        )
        ga = FiniteGroupAction(klein, [swap, tuple(range(4))], 2)
        with pytest.raises(ValueError):
            SectionCocycleBundle(ga, frozenset({klein.identity, klein.index("(1,0)")}))

    def test_all_preset_pairs(self):
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            ok, witness = verify_cocycle_identity(
                bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=2
            )
            assert ok, (pair["name"], witness)
            ok, witness = bundle.verify_conjugacy(max_len=2)
            assert ok, (pair["name"], witness)

    def test_corrupted_cocycle_detected(self):
        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        ga = FiniteGroupAction(z4, [neg, tuple(range(4))], 2)
        bundle = SectionCocycleBundle(ga, frozenset({0, 2}))
        fiber = bundle.cocycle.fiber.group
        bump = next(x for x in range(fiber.order()) if x != fiber.identity)

        length_two = range(ball_size(2, 1), ball_size(2, 2))

        def corrupted(i):
            row = bundle.cocycle.row(i)
            if i in length_two:
                return [fiber.mul(value, bump) for value in row]
            return row

        ok, witness = verify_cocycle_identity(
            corrupted, bundle.cocycle.base, bundle.cocycle.fiber, max_len=2
        )
        assert not ok and witness is not None

    def test_injected_bug_witness(self):
        pair = section_pair_catalog()[0]
        bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
        fiber = bundle.cocycle.fiber.group
        bump = next(x for x in range(fiber.order()) if x != fiber.identity)

        length_two = range(ball_size(2, 1), ball_size(2, 2))

        def corrupted(i):
            row = bundle.cocycle.row(i)
            if i in length_two:
                return [fiber.mul(value, bump) for value in row]
            return row

        ok, witness = verify_cocycle_identity(
            corrupted, bundle.cocycle.base, bundle.cocycle.fiber, max_len=2
        )
        assert not ok
        assert witness == {"g": "a", "h": "a", "x": 0, "lhs": "2", "rhs": "0"}

    @pytest.mark.parametrize("seed", range(12))
    def test_one_corrupted_cell_gives_the_pointwise_witness(self, seed):
        rng = random.Random(seed)
        pairs = [
            pair for pair in section_pair_catalog() if len(pair["subgroup"]) > 1
        ]
        pair = pairs[rng.randrange(len(pairs))]
        bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
        fiber = bundle.cocycle.fiber.group
        max_len = rng.randrange(1, 4)
        target = rng.randrange(ball_size(2, 2 * max_len))
        x0 = rng.randrange(bundle.cocycle.base.size())
        bump = rng.choice([y for y in range(fiber.order()) if y != fiber.identity])

        def corrupted(i):
            row = list(bundle.cocycle.row(i))
            if i == target:
                row[x0] = fiber.mul(row[x0], bump)
            return row

        got = verify_cocycle_identity(
            corrupted, bundle.cocycle.base, bundle.cocycle.fiber, max_len
        )
        tree = CayleyTree(2)
        want = pointwise_cocycle_failure(
            lambda w, x: corrupted(tree.id(w))[x], bundle.cocycle.base, bundle.cocycle.fiber, max_len
        )
        assert got == want
        assert not got[0]

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @pytest.mark.parametrize("end", [0, -1])
    def test_a_corrupted_cell_at_the_deepest_gh_gives_the_pointwise_witness(self, max_len, end):
        # the first and last ids of sphere 2 max_len are reached only as
        # g h with |g| = |h| = max_len, through the deepest step-table rows
        target = range(ball_size(2, 2 * max_len - 1), ball_size(2, 2 * max_len))[end]
        tree = CayleyTree(2)
        for pair in section_pair_catalog():
            if len(pair["subgroup"]) == 1:
                continue
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            fiber = bundle.cocycle.fiber.group
            bump = next(y for y in range(fiber.order()) if y != fiber.identity)
            x0 = end % bundle.cocycle.base.size()

            def corrupted(i):
                row = list(bundle.cocycle.row(i))
                if i == target:
                    row[x0] = fiber.mul(row[x0], bump)
                return row

            got = verify_cocycle_identity(
                corrupted, bundle.cocycle.base, bundle.cocycle.fiber, max_len
            )
            want = pointwise_cocycle_failure(
                lambda w, x: corrupted(tree.id(w))[x], bundle.cocycle.base, bundle.cocycle.fiber, max_len
            )
            assert got == want, pair["name"]
            assert not got[0]

    @pytest.mark.parametrize(
        "ids", [range(ball_size(2, 1)), range(ball_size(2, 3)), range(ball_size(2, 5), ball_size(2, 6))]
    )
    def test_one_corrupted_row_of_ball_six_gives_the_scanned_witness(self, ids):
        # one row of the B(6) table the cocycle suite passes, at an id of
        # B(1), B(3) or B(6) \ B(5): the check, which forms each right-hand
        # side once per distinct datum, stops where the plain scan does
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            fiber, base = bundle.cocycle.fiber.group, bundle.cocycle.base
            if fiber.order() == 1:
                continue
            rng = random.Random(f"{pair['name']}/{ids}")
            rows = [list(row) for row in bundle.cocycle.ball_rows(6)]
            target, x0 = rng.choice(ids), rng.randrange(base.size())
            bump = rng.choice([y for y in range(fiber.order()) if y != fiber.identity])
            rows[target][x0] = fiber.mul(rows[target][x0], bump)
            got = verify_cocycle_identity(rows.__getitem__, base, bundle.cocycle.fiber, 3)
            assert not got[0], pair["name"]
            assert got == scan_cocycle_rows(rows, base, bundle.cocycle.fiber, 3), pair["name"]

    def test_radius_zero_checks_the_identity_alone(self):
        bundle = z4_section_bundle()
        check = (bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber)
        assert verify_cocycle_identity(*check, max_len=0) == (True, None)
        assert bundle.verify_conjugacy(max_len=0) == (True, None)
        fiber = bundle.cocycle.fiber.group
        bump = next(y for y in range(fiber.order()) if y != fiber.identity)

        def corrupted(i):
            return [bump, *bundle.cocycle.row(i)[1:]] if i == 0 else bundle.cocycle.row(i)

        got = verify_cocycle_identity(corrupted, *check[1:], max_len=0)
        tree = CayleyTree(2)
        assert got == pointwise_cocycle_failure(lambda w, x: corrupted(tree.id(w))[x], *check[1:], 0)
        assert got[1]["g"] == got[1]["h"] == "e"

    def test_negative_radius_is_refused(self):
        # ball_size used to return -1.0 here, and range() raised TypeError
        bundle = z4_section_bundle()
        with pytest.raises(ValueError, match="max_len"):
            verify_cocycle_identity(
                bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=-1
            )
        with pytest.raises(ValueError, match="max_len"):
            bundle.verify_conjugacy(max_len=-1)

    def test_cocycle_path_builds_no_validated_words(self, monkeypatch):
        import flab.words as words

        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        ga = FiniteGroupAction(z4, [neg, tuple(range(4))], 2)
        bundle = SectionCocycleBundle(ga, frozenset({0, 2}))
        fresh = Cocycle(bundle.cocycle.base, bundle.cocycle.fiber, bundle.cocycle.gen_values)
        reduced = []
        original = words._reduce

        def counting(letters):
            reduced.append(letters)
            return original(letters)

        monkeypatch.setattr(words, "_reduce", counting)
        ok, witness = verify_cocycle_identity(
            bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=3
        )
        assert ok, witness
        tables = [fresh.values(w) for w in ball(2, 3)]
        assert tables == [bundle.cocycle.values(w) for w in ball(2, 3)]
        assert reduced == []


def assert_tables_match_letter_oracles(cocycle: Cocycle, n: int = 4):
    """word_perm, values and row agree with the letter-keyed recursions on B(n)."""
    words = list(ball(cocycle.base.rank, n))
    oracle = LetterCocycle(cocycle)
    perms = [
        (action, LetterPerms(action))
        for action in (cocycle.base, cocycle.fiber, cocycle.product)
    ]
    fresh = Cocycle(cocycle.base, cocycle.fiber, cocycle.gen_values)
    # deepest ids first, so each row grows its missing ancestors on the way
    rows = {i: fresh.row(i) for i in reversed(range(len(words)))}
    for i, w in enumerate(words):
        for action, letters in perms:
            assert action.word_perm(w) == letters.perm(w.letters)
        want = oracle.values(w.letters)
        assert cocycle.values(w) == want
        assert cocycle.row(i) == want
        assert rows[i] == want


class TestIdTablesMatchLetterOracles:
    def test_section_pairs(self):
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            assert_tables_match_letter_oracles(bundle.cocycle)

    def test_rank_three_bundle(self):
        assert_tables_match_letter_oracles(random_group_skew_bundle(make_rng(3), rank=3))


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def six_atom_cocycle(rank: int) -> Cocycle:
    """Random permutations of six atoms over a Q8 fiber with random
    automorphisms and cocycle values: at rank 3 almost every row of B(4)
    is a distinct entry, so almost every id composes its own transition."""
    rng = random.Random(rank)
    q8 = quaternion8()
    autos = all_automorphisms(q8)
    base = FiniteAction(uniform(6), [random_perm(rng, 6) for _ in range(rank)], rank)
    fiber = FiniteGroupAction(q8, [autos[rng.randrange(len(autos))] for _ in range(rank)], rank)
    return Cocycle(base, fiber, [[rng.randrange(8) for _ in range(6)] for _ in range(rank)])


def counting_compositions(action: FiniteAction) -> list[int]:
    """The cells the instance composes, in order, recorded from now on."""
    cells, compose = [], action._compose

    def counting(k):
        cells.append(k)
        return compose(k)

    action._compose = counting
    return cells


def assert_cells_match_letter_perms(action: FiniteAction):
    """Each state is one distinct map, and each filled (state, slot) cell
    holds the state of that map after the letter's permutation."""
    r2 = 2 * action.rank
    assert len(set(action._maps)) == len(action._maps) == len(action._index)
    assert all(action._index[perm] == k for k, perm in enumerate(action._maps))
    for k, t in action._next.items():
        assert 0 <= k < r2 * len(action._maps)
        head, step = action._maps[k // r2], letter_perm(action, signed_letters(action.rank)[k % r2])
        assert action._maps[t] == tuple(head[x] for x in step)


class TestTransitionTables:
    """alpha_w is finite-state: each FiniteAction numbers its distinct maps
    as states and composes each (state, letter slot) cell the first time it
    meets it; every id that reaches the cell gets its state.  sigma(w, .)
    is read off the skew product's T_w, once per state."""

    @pytest.mark.parametrize("rank, n", [(1, 12), (3, 4)])
    def test_six_atoms_match_the_letter_oracles(self, rank, n):
        cocycle = six_atom_cocycle(rank)
        assert_tables_match_letter_oracles(cocycle, n)
        rows = cocycle.ball_rows(n)
        if rank == 3:
            assert len(set(rows)) > 0.9 * len(rows)
        for action in (cocycle.base, cocycle.fiber, cocycle.product):
            assert_cells_match_letter_perms(action)

    def test_ids_share_the_state_of_their_transition(self):
        ids = range(ball_size(2, 6))
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            cocycle, action = bundle.cocycle, bundle.cocycle.base
            composed = [counting_compositions(a) for a in (action, cocycle.product)]
            states, rows = action._states(ids), cocycle.ball_rows(6)
            products = cocycle.product._state
            # each distinct T_w is read out once, and a later row(i) reads no more
            assert len(cocycle._rows) == len({products[i] for i in ids})
            for a, cells, table in zip((action, cocycle.product), composed, (states, products)):
                r2 = 2 * a.rank
                # each cell is composed once, the first time an id reaches it
                assert len(cells) == len(set(cells)) == len(a._next)
                for i, v, s in CayleyTree(2).sweep(ids, (0,)):
                    assert table[i] == a._next[table[v] * r2 + s]
            for i in ids:
                assert rows[i] is cocycle._rows[products[i]] is cocycle.row(i)
            assert len(cocycle._rows) == len({products[i] for i in ids})

    def test_instances_share_no_state(self):
        bundle = z4_section_bundle()
        base, fiber, values = bundle.cocycle.base, bundle.cocycle.fiber, bundle.cocycle.gen_values
        actions = [FiniteAction(base.space, base.gen_perms, base.rank) for _ in range(2)]
        cocycles = [Cocycle(base, fiber, values) for _ in range(2)]
        ids = range(ball_size(2, 3))
        actions[0]._states(ids)
        cocycles[0].ball_rows(3)
        # filling one instance leaves its twin empty
        for twin in (actions[1], cocycles[1].product):
            assert twin._state == {0: 0} and len(twin._maps) == 1
            assert twin._next == {}
        assert actions[1]._maps == [(0, 1)]
        assert cocycles[1]._rows == {}
        actions[1]._states(ids)
        cocycles[1].ball_rows(3)
        for a, b in (actions, [c.product for c in cocycles]):
            for name in ("_maps", "_index", "_next", "_state", "_steps", "_tree"):
                assert getattr(a, name) is not getattr(b, name), name
            assert (a._maps, a._next, a._state) == (b._maps, b._next, b._state)
        assert cocycles[0]._rows is not cocycles[1]._rows
        assert cocycles[0]._rows == cocycles[1]._rows


class TestProductReadout:
    """The skew product's word maps are T_w(x, y) = (alpha_w x, beta_w(y) .
    sigma(w, x)), with alpha, beta and sigma from the letter oracles."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_word_maps_are_the_skew_action(self, seed, rank):
        cocycle = random_group_skew_bundle(random.Random(seed), rank)
        sigma, alphas = LetterCocycle(cocycle), LetterPerms(cocycle.base)
        betas, mul = LetterPerms(cocycle.fiber), cocycle.fiber.group.mul
        nx, ny = cocycle.base.size(), cocycle.fiber.size()
        for w in ball(rank, 3):
            alpha, beta, row = alphas.perm(w.letters), betas.perm(w.letters), sigma.values(w.letters)
            want = tuple(alpha[x] * ny + mul(beta[y], row[x]) for x in range(nx) for y in range(ny))
            assert cocycle.product.word_perm(w) == want, w

    def test_the_cocycle_is_the_skew_product(self):
        # one object holds base, fiber and product, so no wrapper can disagree with it
        import flab.skew as skew

        bundle = z4_section_bundle()
        fiber = bundle.cocycle.fiber
        assert isinstance(fiber, FiniteAction) and not hasattr(fiber, "action")
        assert fiber.size() == fiber.group.order()
        for alias in ("skew", "base_action", "fiber_action", "fiber_group", "sub", "phi"):
            assert not hasattr(bundle, alias), alias
        assert not hasattr(skew, "SkewBundle")


def z4_section_bundle() -> SectionCocycleBundle:
    z4 = cyclic(4)
    neg = tuple((-x) % 4 for x in range(4))
    ga = FiniteGroupAction(z4, [neg, tuple(range(4))], 2)
    return SectionCocycleBundle(ga, frozenset({0, 2}))


class TestRankMismatch:
    @pytest.mark.parametrize("word", [FreeWord(1, (1,)), FreeWord(3, (3,))])
    def test_words_of_another_rank_are_refused(self, word):
        cocycle = z4_section_bundle().cocycle
        q = FinitePartition.points(cocycle.fiber.space)
        with pytest.raises(ValueError):
            cocycle.base.word_perm(word)
        with pytest.raises(ValueError):
            cocycle.values(word)
        with pytest.raises(ValueError):
            cocycle.pullback_partition(word, q)

    def test_cocycle_refuses_a_fiber_of_another_rank(self):
        base = random_finite_action(make_rng(0), rank=2)
        fiber = FiniteGroupAction(cyclic(2), [(0, 1)], 1)
        with pytest.raises(ValueError):
            Cocycle(base, fiber, [[0] * base.size()] * 2)


class TestWordFreeFiniteLayer:
    def test_id_paths_build_no_words(self, monkeypatch):
        import flab.skew as skew
        import flab.words as words

        bundle = z4_section_bundle()
        action = random_finite_action(make_rng(1))
        proc = FiniteActionProcess(action, random_partition(make_rng(2), action.size()), "rnd")
        W, g = ball(2, 2), parse_word("aB", 2)  # g's letters cancel into W
        moved = WordSet(2, [mul(g, v) for v in W])
        calls = []

        def counted(original):
            def wrapper(*args):
                calls.append(args)
                return original(*args)

            return wrapper

        monkeypatch.setattr(words, "mul", counted(words.mul))
        monkeypatch.setattr(words, "_word", counted(words._word))
        monkeypatch.setattr(
            skew, "_word", counted(getattr(skew, "_word", words._word)), raising=False
        )
        ok, witness = verify_cocycle_identity(
            bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=3
        )
        assert ok, witness
        ok, witness = bundle.verify_conjugacy(max_len=3)
        assert ok, witness
        assert W.translate(g) == moved
        for i in (1, 2):
            generator_entropy_rate(proc, i, W)
        assert calls == []


class TestCocycleLifts:
    def test_trivial_cocycle_is_product(self):
        rng = make_rng(5)
        base = random_finite_action(rng)
        z2 = cyclic(2)
        fiber = FiniteGroupAction(z2, [tuple(range(2))] * 2, 2)
        cocycle = Cocycle(base, fiber, [[0] * base.size()] * 2)
        p = random_partition(rng, base.size())
        q = FinitePartition.points(uniform(2))
        W = ball(2, 1)
        lhs = cocycle.product.window_partition(cocycle.product_partition(p, q), W)
        rhs = join(
            cocycle.lift_base(base.window_partition(p, W)),
            cocycle.lift_fiber(fiber.window_partition(q, W)),
        )
        assert lhs.equal_mod_null(rhs)

    def test_full_window_entropy_splits(self):
        # joint points partition has entropy H(base points) + log|G|
        rng = make_rng(7)
        cocycle = random_group_skew_bundle(rng)
        fiber = cocycle.fiber
        p = FinitePartition.points(cocycle.base.weights)
        q = FinitePartition.points(uniform(fiber.size()))
        joint = cocycle.product_partition(p, q)
        assert shannon_entropy(joint) == shannon_entropy(p) + EntropyValue.log_int(fiber.size())

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_lifts_and_pullbacks_match_their_definitions(self, rank, seed):
        # atom x ny + y of the product is (x, y); P_w labels x by the label
        # of beta_w(Q) at sigma(w, x), and beta_w(Q) labels y by Q at beta_w^-1(y)
        rng = random.Random(f"lifts/{rank}/{seed}")
        cocycle = random_group_skew_bundle(rng, rank)
        base, fiber, product = cocycle.base, cocycle.fiber, cocycle.product
        nx, ny = base.size(), fiber.size()
        p, q = random_partition(rng, nx), random_partition(rng, ny)
        atoms = range(nx * ny)
        assert cocycle.lift_base(p) == FinitePartition(product.space, [p.labels[a // ny] for a in atoms])
        assert cocycle.lift_fiber(q) == FinitePartition(product.space, [q.labels[a % ny] for a in atoms])
        assert cocycle.base_marker() == FinitePartition(product.space, [a // ny for a in atoms])
        pairs = [(p.labels[a // ny], q.labels[a % ny]) for a in atoms]
        assert cocycle.product_partition(p, q) == FinitePartition(product.space, pairs)
        rows, betas, tree = RecursiveRows(cocycle), RecursivePerms(fiber), CayleyTree(rank)
        assert isinstance(fiber, FiniteAction) and fiber.size() == fiber.group.order()
        for w in ball(rank, 2):
            i = tree.id(w)
            beta_inv = invert_perm(betas.perm(i))
            want = [q.labels[beta_inv[y]] for y in rows.row(i)]
            assert cocycle.pullback_partition(w, q) == FinitePartition(base.space, want), w
            assert fiber.group.is_automorphism(fiber.word_perm(w)), w


class TestSigmaGenerated:
    def test_points_fixed(self):
        rng = make_rng(1)
        act = random_finite_action(rng)
        points = FinitePartition.points(act.weights)
        assert sigma_generated(act, points) == points

    def test_invariant_partition_fixed(self):
        z4 = cyclic(4)
        neg = tuple((-x) % 4 for x in range(4))
        act = FiniteGroupAction(z4, [neg, tuple(range(4))], 2)
        sp = SpecialPartition(z4, frozenset({0, 2}))
        assert sigma_generated(act, sp.partition).equal_mod_null(sp.partition)

    def test_orbit_join_oracle(self):
        rng = make_rng(2)
        for _ in range(10):
            act = random_finite_action(rng)
            q = random_partition(rng, act.size())
            got = sigma_generated(act, q)
            # oracle: join q over every word in a generous ball
            oracle = q
            for w in ball(2, act.size() + 1):
                oracle = join(oracle, q.apply_permutation(act.word_perm(w)))
            assert got.equal_mod_null(oracle)


class TestPartitionExchangeVerifiers:
    def _z4_case(self):
        """The Z/4 section cocycle and its fiber's points as a special partition."""
        cocycle = z4_section_bundle().cocycle
        group = cocycle.fiber.group
        return cocycle, SpecialPartition(group, frozenset({group.identity}))

    def test_pullback_exchange_identity_word(self):
        cocycle, sp = self._z4_case()
        p_prime = FinitePartition(cocycle.base.weights, [0] * cocycle.base.size())
        assert verify_pullback_exchange(cocycle, parse_word("e", 2), sp, p_prime)

    def test_pullback_exchange_long_word(self):
        cocycle, sp = self._z4_case()
        for text in ("ab", "aB", "ba", "Ab"):
            p_prime = FinitePartition.points(cocycle.base.weights)
            assert verify_pullback_exchange(cocycle, parse_word(text, 2), sp, p_prime)

    def test_pullback_exchange_random_bundles(self):
        rng = make_rng(11)
        for _ in range(6):
            cocycle = random_group_skew_bundle(rng)
            fiber = cocycle.fiber
            subs = [
                s for s in normal_subgroups(fiber.group) if fiber.subgroup_invariant(s)
            ]
            sp = SpecialPartition(fiber.group, subs[0])
            p_prime = random_partition(rng, cocycle.base.size())
            for text in ("a", "b", "AB"):
                assert verify_pullback_exchange(cocycle, parse_word(text, 2), sp, p_prime)

    def test_generated_algebra(self):
        cocycle, sp = self._z4_case()
        p = FinitePartition.points(cocycle.base.weights)
        assert verify_generated_algebra(cocycle, p, sp)

    def test_generated_algebra_needs_generating_base(self):
        cocycle, sp = self._z4_case()
        trivial = FinitePartition(cocycle.base.weights, [0] * cocycle.base.size())
        with pytest.raises(ValueError):
            verify_generated_algebra(cocycle, trivial, sp)

    def test_window_split(self):
        cocycle, sp = self._z4_case()
        p = FinitePartition.points(cocycle.base.weights)
        for n in (1, 2):
            assert verify_window_split(cocycle, n, p, sp)


def z_power(k):
    """a^k as a rank-1 word; A^-k for negative k."""
    return FreeWord(1, [1 if k > 0 else -1] * abs(k))


def z_cocycle(weights, t_perm, fiber, s_perm, gen_value):
    """The skew product over one transformation T with fiber automorphism S."""
    return Cocycle(
        FiniteAction(weights, [t_perm], 1), FiniteGroupAction(fiber, [s_perm], 1), [gen_value]
    )


class TestZSkew:
    def test_cocycle_identity(self):
        rng = make_rng(3)
        for _ in range(6):
            cocycle, _q, _ = random_z_skew(rng)
            (t_perm,), (s_perm,) = cocycle.base.gen_perms, cocycle.fiber.gen_perms
            for n in range(0, 4):
                for m in range(0, 4):
                    for x in range(cocycle.base.size()):
                        lhs = cocycle.values(z_power(n + m))[x]
                        img = cocycle.values(z_power(m))[x]
                        for _k in range(n):
                            img = s_perm[img]
                        tx = x
                        for _k in range(m):
                            tx = t_perm[tx]
                        rhs = cocycle.fiber.group.mul(img, cocycle.values(z_power(n))[tx])
                        assert lhs == rhs

    def test_tables_match_direct_recursion(self):
        def direct_power(perm, k):
            step = perm if k >= 0 else invert_perm(perm)
            out = tuple(range(len(perm)))
            for _ in range(abs(k)):
                out = tuple(step[y] for y in out)
            return out

        def direct_sigma(cocycle, k, x):
            (t_perm,), (s_perm,) = cocycle.base.gen_perms, cocycle.fiber.gen_perms
            group = cocycle.fiber.group
            if k < 0:
                # e = S^-k sigma(A^-k, x) . sigma(a^-k, T^k x)
                inner = group.inv(direct_sigma(cocycle, -k, direct_power(t_perm, k)[x]))
                return direct_power(s_perm, k)[inner]
            if k == 0:
                return group.identity
            img = cocycle.gen_values[0][x]
            for _ in range(k - 1):
                img = s_perm[img]
            return group.mul(img, direct_sigma(cocycle, k - 1, t_perm[x]))

        rng = make_rng(8)
        systems = [random_z_skew(rng)[0] for _ in range(6)]
        # S = multiplication by 2 on Z/5 has order 4, so S^-1 differs from S
        z5 = cyclic(5)
        systems.append(
            z_cocycle(uniform(3), (1, 2, 0), z5, tuple(2 * y % 5 for y in range(5)), (1, 3, 0))
        )
        for cocycle in systems:
            base, fiber = cocycle.base, cocycle.fiber
            # out of order, so the tables grow from the middle as well
            for k in (3, -2, 0, 6, -5, 1, -1):
                assert fiber.word_perm(z_power(k)) == direct_power(fiber.gen_perms[0], k)
                assert base.word_perm(z_power(k)) == direct_power(base.gen_perms[0], k)
            for k in (4, 0, -3, 2, 6, -1, 1):
                assert cocycle.values(z_power(k)) == tuple(
                    direct_sigma(cocycle, k, x) for x in range(base.size())
                )

    def test_records_pinned(self):
        # sha256 of the records for 20 seeded systems at seeds 3 and 7, recorded
        # before the bound ran on rank-1 cocycles; a changed byte fails here
        digest = hashlib.sha256()
        for seed in (3, 7):
            rng = make_rng(seed)
            for _ in range(20):
                cocycle, q, _ = random_z_skew(rng)
                rows = [
                    {k: v.to_json() if isinstance(v, EntropyValue) else v for k, v in rec.items()}
                    for rec in verify_skew_entropy_bound(cocycle, q, 5)
                ]
                digest.update(json.dumps(rows, sort_keys=True).encode())
        assert digest.hexdigest() == "e64fabfbdc50bc99ffa73c829da3b1786d88b14d7ddd6345a3d5221f1f8fed38"

    def test_rank_two_refused(self):
        z3 = cyclic(3)
        cocycle = Cocycle(
            FiniteAction(uniform(2), [(1, 0), (0, 1)], 2),
            FiniteGroupAction(z3, [tuple(range(3))] * 2, 2),
            [(0, 0), (0, 0)],
        )
        with pytest.raises(ValueError):
            verify_skew_entropy_bound(cocycle, FinitePartition(uniform(3), [0, 1, 1]), 2)

    def test_a_partition_off_the_fiber_space_is_refused(self):
        cocycle = z_cocycle(uniform(2), (1, 0), cyclic(3), tuple(range(3)), (0, 1))
        for weights in ([F(1, 2), F(1, 4), F(1, 4)], uniform(4)):
            with pytest.raises(ValueError, match="Haar"):
                verify_skew_entropy_bound(cocycle, FinitePartition(weights, [0] + [1] * (len(weights) - 1)), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_records_match_the_per_point_reference(self, seed, m_max):
        cocycle, q, _special = random_z_skew(random.Random(seed))
        assert verify_skew_entropy_bound(cocycle, q, m_max) == per_point_skew_bound(cocycle, q, m_max)

    def test_one_join_and_one_entropy_per_distinct_prefix(self, monkeypatch):
        import flab.skew as skew

        calls = {"join": 0, "shannon_entropy": 0}

        def counting(name):
            original = getattr(skew, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(skew, name, counting(name))
        rng = make_rng(5)
        for _ in range(12):
            cocycle, q, _special = random_z_skew(rng)
            calls.update(join=0, shannon_entropy=0)
            verify_skew_entropy_bound(cocycle, q, 5)
            # the prefixes (sigma(k, x) : k < m) of the base points, for each m
            prefixes = sum(
                len({tuple(cocycle.values(z_power(k))[x] for k in range(m)) for x in range(cocycle.base.size())})
                for m in range(1, 6)
            )
            order = cocycle.fiber.group.order()
            # K(Q): one join per translate; Q^m: one join per m
            assert calls["join"] == order + 5 + prefixes
            assert calls["shannon_entropy"] == 1 + order + 5 + prefixes

    def test_trivial_cocycle_equality(self):
        z3 = cyclic(3)
        cocycle = z_cocycle(uniform(2), (1, 0), z3, tuple(range(3)), (0, 0))
        q = FinitePartition(uniform(3), [0, 1, 1])
        for rec in verify_skew_entropy_bound(cocycle, q, 5):
            assert rec["holds"] and rec["equal"]

    def test_special_partition_equality(self):
        rng = make_rng(4)
        seen_special = 0
        for _ in range(12):
            cocycle, q, special = random_z_skew(rng)
            records = verify_skew_entropy_bound(cocycle, q, 4)
            assert all(r["holds"] for r in records)
            if special:
                seen_special += 1
                assert all(r["equal"] for r in records)
        assert seen_special >= 2

    def test_strict_slack_happens(self):
        rng = make_rng(6)
        slack = False
        for _ in range(12):
            cocycle, q, special = random_z_skew(rng)
            if special:
                continue
            for rec in verify_skew_entropy_bound(cocycle, q, 4):
                if not rec["equal"]:
                    slack = True
        assert slack


class TestSweepTables:
    """The sweep-filled alpha tables, and the sigma rows read off the
    product's, equal the per-id recursions (`RecursivePerms`, `RecursiveRows`)."""

    def test_section_pairs_on_every_id_of_ball_six(self):
        ids = range(ball_size(2, 6))
        for pair in section_pair_catalog():
            bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
            rows, oracle = bundle.cocycle.ball_rows(6), RecursiveRows(bundle.cocycle)
            assert rows == [oracle.row(i) for i in ids], pair["name"]
            for action in (bundle.cocycle.base, bundle.cocycle.fiber, bundle.cocycle.product):
                want = [RecursivePerms(action).perm(i) for i in ids]
                # the ball filled by one sweep, and one id at a time from the far end
                fresh = FiniteAction(action.space, action.gen_perms, action.rank)
                for i in reversed(ids):
                    fresh._states((i,))
                for states, a in ((action._states(ids), action), (fresh._state, fresh)):
                    assert [a._maps[states[i]] for i in ids] == want, pair["name"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.data())
    def test_random_cocycles_of_rank_one_and_three(self, seed, rank, data):
        cocycle = random_group_skew_bundle(random.Random(seed), rank)
        top = ball_size(rank, 12 if rank == 1 else 4)
        batches = data.draw(
            st.lists(st.lists(st.integers(0, top - 1), max_size=12), min_size=1, max_size=4)
        )
        rows, perms = RecursiveRows(cocycle), RecursivePerms(cocycle.product)
        product = cocycle.product
        for batch in batches:
            states = product._states(batch)
            assert [cocycle.row(i) for i in batch] == [rows.row(i) for i in batch]
            assert [product._maps[states[i]] for i in batch] == [perms.perm(i) for i in batch]
        # the ancestors filled on the way are right too
        assert all(cocycle.row(i) == rows.row(i) for i in product._state)
        assert all(product._maps[k] == perms.perm(i) for i, k in product._state.items())

    def test_rank_one_words_past_the_recursion_limit(self):
        # a fresh table climbs from a^1200 to e in a loop; one recursive
        # call per missing ancestor ran out of stack near a thousand letters
        assert FiniteAction(uniform(3), [[1, 2, 0]], 1).word_perm(FreeWord(1, [1] * 1200)) == (0, 1, 2)
        # alpha has period 3, and sigma(a^k, .) period 6 over the two-point base
        def cocycle():
            return z_cocycle(uniform(2), [1, 0], cyclic(3), tuple(range(3)), [2, 0])

        short_action, short_cocycle = FiniteAction(uniform(3), [[1, 2, 0]], 1), cocycle()
        for k in (1201, 2405, -2401):
            deep = FiniteAction(uniform(3), [[1, 2, 0]], 1).word_perm(z_power(k))
            assert deep == short_action.word_perm(z_power(k % 3))
            assert cocycle().values(z_power(k)) == short_cocycle.values(z_power(k % 6))


class TestBallFill:
    """A whole ball filled in id order off `ball_steps`, with no sweep."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
    def test_matches_a_sweep_filled_twin(self, seed, rank, data):
        action = random_finite_action(random.Random(seed), rank, min_size=1, max_size=7)
        twin = FiniteAction(action.space, action.gen_perms, rank)
        n = {1: 12, 2: 6, 3: 4}[rank]
        ids = range(ball_size(rank, n))
        # ids met before the fill, some of them past the ball
        met = data.draw(st.lists(st.integers(0, ball_size(rank, n + 1) - 1), max_size=8))
        cells = counting_compositions(action)
        action._states(met)
        states = action._fill(ball_steps(rank, n))
        twin._states(ids)
        assert states is action._state
        assert [action._maps[states[i]] for i in ids] == [twin._maps[twin._state[i]] for i in ids]
        if not met:
            assert (action._state, action._maps, action._next) == (twin._state, twin._maps, twin._next)
        # every cell is composed once, the first time an id reaches it
        assert len(cells) == len(set(cells)) == len(action._next)
        assert_cells_match_letter_perms(action)

    def test_ball_rows_sweep_nothing(self, monkeypatch):
        swept = []
        sweep = CayleyTree.sweep

        def counting(self, ids, known):
            out = sweep(self, ids, known)
            swept.extend(out)
            return out

        monkeypatch.setattr(CayleyTree, "sweep", counting)
        cocycle = six_atom_cocycle(2)
        rows = cocycle.ball_rows(6)
        assert swept == []
        assert rows == [RecursiveRows(cocycle).row(i) for i in range(ball_size(2, 6))]


class TestWindowPartition:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
    def test_matches_the_join_of_moved_partitions(self, seed, rank, data):
        rng = random.Random(seed)
        action = random_finite_action(rng, rank, min_size=1, max_size=7)
        p = random_partition(rng, action.size(), max_blocks=data.draw(st.integers(1, 4)))
        tree = CayleyTree(rank)
        ids = data.draw(st.sets(st.integers(0, ball_size(rank, 3) - 1), min_size=1, max_size=10))
        W = WordSet(rank, [tree.word(i) for i in ids])
        assert action.window_partition(p, W) == joined_window(action, p, W)
        for i in ids:
            single = WordSet(rank, [tree.word(i)])
            assert action.window_partition(p, single) == p.apply_permutation(action.word_perm(tree.word(i)))
        with pytest.raises(ValueError):
            action.window_partition(p, WordSet(rank + 1, [FreeWord(rank + 1, (rank + 1,))]))

    def test_empty_window_is_refused(self):
        action = FiniteAction(uniform(3), [[1, 2, 0], [0, 2, 1]], 2)
        with pytest.raises(ValueError):
            action.window_partition(FinitePartition.points(action.space), WordSet(2))
        with pytest.raises(ValueError):
            action.window_states(WordSet(2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
    def test_memoised_states_match_a_fresh_twin(self, seed, rank, data):
        # state numbers follow each action's history, so compare the word maps they name
        action = random_finite_action(random.Random(seed), rank, min_size=1, max_size=7)
        tree = CayleyTree(rank)
        window_ids = st.sets(st.integers(0, ball_size(rank, 3) - 1), min_size=1, max_size=10)
        windows = data.draw(st.lists(window_ids, min_size=1, max_size=6))
        for ids in windows + windows[::-1]:
            W = WordSet(rank, [tree.word(i) for i in ids])
            twin = FiniteAction(action.space, action.gen_perms, rank)
            got, want = action.window_states(W), twin.window_states(W)
            assert {action._maps[k] for k in got} == {twin._maps[k] for k in want}
            assert action.window_states(W) is got

    def test_one_partition_and_one_column_per_state(self, monkeypatch):
        import flab.entropy as entropy

        action = FiniteAction(uniform(5), [[1, 2, 3, 4, 0], [0, 2, 1, 4, 3]], 2)
        p = FinitePartition(action.space, [0, 0, 1, 1, 2])
        built = []
        partition = entropy._partition

        def counting(space, labels):
            built.append(space)
            return partition(space, labels)

        moved, move = [], entropy._moved

        def counting_columns(labels, perm):
            moved.append(perm)
            return move(labels, perm)

        monkeypatch.setattr(entropy, "_partition", counting)
        monkeypatch.setattr(entropy, "_moved", counting_columns)
        for n in range(4):
            built.clear()
            moved.clear()
            joined = action.window_partition(p, ball(2, n))
            assert len(built) == 1 and joined.space is p.space
            # one label column per distinct word map, however many words reach it
            assert len(moved) == len(set(moved)) == len(action.window_states(ball(2, n)))
        assert len(moved) < ball_size(2, 3)


class TestCocycleValues:
    def z3_cocycle(self, value):
        base = FiniteAction(uniform(2), [[1, 0]], 1)
        fiber = FiniteGroupAction(cyclic(3), [tuple(range(3))], 1)
        return Cocycle(base, fiber, [[value, 0]])

    @pytest.mark.parametrize("value", [-1, 3, 1.0, True])
    def test_values_outside_the_group_are_refused(self, value):
        # -1 used to alias the element 2, and 3 raised IndexError
        with pytest.raises(ValueError):
            self.z3_cocycle(value)

    def test_group_elements_are_kept(self):
        cocycle = self.z3_cocycle(2)
        assert cocycle.row(1) == (2, 0)
