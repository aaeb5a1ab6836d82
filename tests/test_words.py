import random

import pytest
from hypothesis import given, settings, strategies as st
from kernel_oracles import distance, old_radius_center, word_walk

from flab import words
from flab.kernels import KernelSubshift, scalar_kernel
from flab.words import (
    CayleyTree,
    FreeWord,
    WordSet,
    axis_window,
    ball,
    ball_list,
    ball_size,
    check_ordering_condition,
    convex_hull,
    format_word,
    generator,
    identity,
    inv,
    letter_slots,
    mul,
    parse_word,
    radius_center,
    signed_letters,
    spiral_ordering,
    thicken,
)


def w(text, rank=2):
    return parse_word(text, rank)


def neighbors(v):
    """Oracle: v·s for s = s1, s1^-1, ..., sr, sr^-1, by `mul`."""
    return [mul(v, FreeWord(v.rank, (a,))) for a in signed_letters(v.rank)]


def is_connected(s):
    """Depth-first connectivity of a word set in the Cayley tree (test oracle)."""
    if len(s) == 0:
        return True
    seen = set()
    stack = [next(iter(s))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for u in neighbors(v):
            if u in s and u not in seen:
                stack.append(u)
    return len(seen) == len(s)


def naive_reduce(letters):
    """Reduce-to-fixpoint oracle for products."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


words_st = st.lists(
    st.sampled_from([1, -1, 2, -2]), max_size=10
).map(lambda ls: FreeWord(2, ls))


class TestMul:
    def test_inverse_cancellation(self):
        a = w("a")
        assert mul(a, inv(a)) == identity(2)

    def test_one_step_reduction(self):
        assert mul(w("ab"), w("Ba")) == w("aa")

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            mul(w("a", 2), w("a", 3))

    @given(words_st, words_st)
    def test_against_naive_reduction_oracle(self, a, b):
        prod = mul(a, b)
        assert prod.letters == naive_reduce(a.letters + b.letters)
        assert len(prod) <= len(a) + len(b)

    @given(words_st)
    def test_square_length(self, a):
        assert len(mul(a, a)) <= 2 * len(a)

    @given(words_st, words_st, words_st)
    def test_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(words_st)
    def test_inverse(self, a):
        assert mul(a, inv(a)) == identity(2)
        assert mul(inv(a), a) == identity(2)


class TestMetric:
    @given(words_st, words_st)
    def test_symmetry(self, a, b):
        tree = CayleyTree(2)
        u, v = tree.id(a), tree.id(b)
        assert tree.distance(u, v) == tree.distance(v, u) == len(mul(inv(a), b))

    @given(words_st, words_st, words_st)
    def test_triangle(self, a, b, c):
        tree = CayleyTree(2)
        u, v, x = tree.id(a), tree.id(b), tree.id(c)
        assert tree.distance(u, x) <= tree.distance(u, v) + tree.distance(v, x)


class TestParse:
    def test_round_trip(self):
        for text in ["e", "a", "abA", "aBBa", "c" if False else "ab"]:
            assert format_word(parse_word(text, 2 if "c" not in text else 3)) == text

    def test_identity_forms(self):
        assert parse_word("", 2) == parse_word("e", 2) == identity(2)

    def test_unreduced_rejected(self):
        with pytest.raises(ValueError):
            parse_word("aA", 2)

    @given(st.integers(1, 25).flatmap(lambda r: st.lists(st.sampled_from(signed_letters(r)), max_size=10).map(
        lambda ls: FreeWord(r, ls))))
    def test_format_parse_inverse(self, a):
        # every rank whose generators have letters
        assert parse_word(format_word(a), a.rank) == a

    def test_e_names_only_the_identity(self):
        # "e" names only the identity, so the fifth generator is "f"
        assert [format_word(generator(5, i)) for i in (4, 5, -5)] == ["d", "f", "F"]
        assert format_word(FreeWord(25, (25, -24))) == "zY"
        assert parse_word("e", 5) == identity(5) and parse_word("f", 5) == generator(5, 5)
        with pytest.raises(ValueError, match="bad word character"):
            parse_word("E", 5)

    def test_no_text_past_rank_25(self):
        with pytest.raises(ValueError, match="no word text"):
            format_word(generator(26, 1))
        with pytest.raises(ValueError, match="no word text"):
            parse_word("a", 26)
        assert repr(generator(26, -26)) == "FreeWord(26, (-26,))"


class TestBall:
    def test_radius_zero(self):
        b = ball(2, 0)
        assert len(b) == 1 and identity(2) in b

    def test_radius_one(self):
        b = ball(2, 1)
        assert len(b) == 5
        assert {format_word(x) for x in b} == {"e", "a", "A", "b", "B"}

    def test_tree_growth_counts(self):
        assert len(ball(2, 2)) == 17
        assert len(ball(2, 3)) == 53

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_closed_form(self, rank, n):
        assert len(ball(rank, n)) == ball_size(rank, n)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_radius_is_refused(self, rank, n):
        # rank >= 2 used to give the float -1.0, rank 1 the int 2n + 1
        with pytest.raises(ValueError):
            ball_size(rank, n)

    def test_all_reduced_and_within_radius(self):
        for v in ball(2, 3):
            assert len(v) <= 3


def prefix_geodesic(v, w):
    """Oracle: the tree path from v up to the longest common prefix, then down to w."""
    a, b = v.letters, w.letters
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    path = [FreeWord(v.rank, a[:k]) for k in range(len(a), i - 1, -1)]
    path.extend(FreeWord(v.rank, b[:k]) for k in range(i + 1, len(b) + 1))
    return path


def geodesic_interval(v, w):
    """The tree path from v to w: the convex hull of {v, w}."""
    return convex_hull(WordSet(v.rank, [v, w]))


class TestGeodesic:
    def test_prefix_path(self):
        assert geodesic_interval(w("e"), w("ab")) == WordSet(2, [w("e"), w("a"), w("ab")])

    def test_through_identity(self):
        assert geodesic_interval(w("a"), w("b")) == WordSet(2, [w("a"), w("e"), w("b")])

    def test_single_point(self):
        assert geodesic_interval(w("ab"), w("ab")) == WordSet(2, [w("ab")])

    @given(words_st, words_st)
    def test_size_is_distance_plus_one(self, a, b):
        assert len(geodesic_interval(a, b)) == distance(a, b) + 1

    @given(words_st, words_st)
    def test_matches_prefix_oracle(self, a, b):
        assert set(geodesic_interval(a, b)) == set(prefix_geodesic(a, b))


def pairwise_hull_oracle(s):
    """Union of geodesics over all pairs: an independent hull oracle."""
    out = set()
    elems = list(s)
    for a in elems:
        for b in elems:
            out.update(prefix_geodesic(a, b))
    return WordSet(s.rank, out)


class TestHull:
    def test_two_generators(self):
        got = convex_hull(WordSet(2, [w("a"), w("b")]))
        assert got == WordSet(2, [w("a"), w("e"), w("b")])

    def test_idempotent_on_connected(self):
        s = WordSet(2, [w("a"), w("e"), w("b")])
        assert convex_hull(s) == s

    def test_oracle_case(self):
        got = convex_hull(WordSet(2, [w("aa"), w("bb")]))
        assert got == WordSet(2, [w("aa"), w("a"), w("e"), w("b"), w("bb")])

    def test_error_on_empty(self):
        with pytest.raises(ValueError):
            convex_hull(WordSet(2, []))

    def test_against_pairwise_oracle_random(self):
        rng = random.Random(7)
        big = list(ball(2, 3))
        for _ in range(25):
            s = WordSet(2, rng.sample(big, rng.randint(1, 6)))
            got = convex_hull(s)
            assert got == pairwise_hull_oracle(s)
            assert is_connected(got)
            assert set(s) <= set(got)
            assert convex_hull(got) == got

    def test_monotone(self):
        rng = random.Random(11)
        big = list(ball(2, 3))
        for _ in range(10):
            sample = rng.sample(big, 5)
            small = WordSet(2, sample[:3])
            large = WordSet(2, sample)
            assert set(convex_hull(small)) <= set(convex_hull(large))


class TestRadiusCenter:
    def test_tripod(self):
        rho, centers = radius_center(WordSet(2, [w("a"), w("e"), w("b")]))
        assert rho == 1 and w("e") in centers

    def test_singleton(self):
        rho, centers = radius_center(WordSet(2, [w("ab")]))
        assert rho == 0 and centers == WordSet(2, [w("ab")])

    def test_segment(self):
        rho, centers = radius_center(WordSet(2, [w("e"), w("a"), w("aa")]))
        assert rho == 1 and centers == WordSet(2, [w("a")])

    def test_exhaustive_oracle(self):
        rng = random.Random(5)
        big = list(ball(2, 2))
        for _ in range(20):
            s = WordSet(2, rng.sample(big, rng.randint(1, 5)))
            rho, centers = radius_center(s)
            # brute force over a generous candidate region
            candidates = thicken(convex_hull(s), 1)
            best = min(max(distance(c, v) for v in s) for c in candidates)
            assert rho == best
            for c in centers:
                assert max(distance(c, v) for v in s) == rho
            brute = {c for c in candidates if max(distance(c, v) for v in s) == rho}
            assert set(centers) == brute


class TestSpiralOrdering:
    def test_radius_one(self):
        order = spiral_ordering(2, 1)
        assert order[0] == identity(2)
        assert len(order) == 5

    def test_prefixes_connected(self):
        order = spiral_ordering(2, 2)
        assert len(order) == 17
        for k in range(1, len(order) + 1):
            assert is_connected(WordSet(2, order[:k]))

    def test_matches_ball(self):
        assert WordSet(2, spiral_ordering(2, 3)) == ball(2, 3)


class TestOrderingCondition:
    def test_singleton_hull(self):
        order = spiral_ordering(2, 2)
        assert check_ordering_condition(WordSet(2, [identity(2)]), order)

    def test_two_point_hull(self):
        hull = WordSet(2, [w("e"), w("A")])
        assert check_ordering_condition(hull, spiral_ordering(2, 2))

    def test_repeat_fails(self):
        order = [w("e"), w("a"), w("a")]
        hull = WordSet(2, [w("e")])
        assert check_ordering_condition(hull, order[:2])
        assert not check_ordering_condition(hull, order)

    def test_a_site_whose_neighbours_came_first_fails(self):
        # A·{e, a} and a·{e, a} cover e·{e, a}, which is placed third
        hull = WordSet(2, [w("e"), w("a")])
        assert not check_ordering_condition(hull, [w("A"), w("a"), w("e")])
        assert check_ordering_condition(hull, [w("e"), w("A"), w("a")])

    def test_centered_hulls_pass_at_depth_three(self):
        # Cross-validation of the covering lemma on small cases: hulls
        # centered at the identity never get swallowed by earlier translates.
        for ws in [
            WordSet(2, [w("e")]),
            WordSet(2, [w("e"), w("a")]),
            WordSet(2, [w("A"), w("e"), w("a")]),
            WordSet(2, [w("e"), w("a"), w("b")]),
            WordSet(2, [w("B"), w("e"), w("a"), w("b")]),
        ]:
            assert check_ordering_condition(ws, spiral_ordering(2, 3))


class TestThicken:
    def test_ball_growth(self):
        assert thicken(WordSet(2, [identity(2)]), 2) == ball(2, 2)

    def test_contains_original(self):
        s = WordSet(2, [w("ab"), w("B")])
        assert set(s) <= set(thicken(s, 1))


# -- trusted construction ------------------------------------------------------


@st.composite
def letter_lists(draw, count):
    """A rank in 1..3 and `count` unreduced letter sequences of that rank."""
    rank = draw(st.integers(1, 3))
    letter = st.sampled_from(signed_letters(rank))
    return rank, [draw(st.lists(letter, max_size=8)) for _ in range(count)]


def assert_validated(word, rank, letters):
    """word equals, and hashes like, FreeWord(rank, letters) built with checks."""
    want = FreeWord(rank, letters)
    assert word == want and hash(word) == hash(want)
    assert word.rank == rank and word.letters == want.letters


def old_sort_key(word):
    """The length-lex key before integer letter codes: a < A < b < B < ..."""
    return (len(word.letters), tuple((abs(a), a < 0) for a in word.letters))


class TestTrustedConstruction:
    @given(letter_lists(2))
    def test_mul_and_inv(self, case):
        rank, (x, y) = case
        a, b = FreeWord(rank, x), FreeWord(rank, y)
        assert_validated(mul(a, b), rank, x + y)
        assert_validated(inv(a), rank, [-l for l in reversed(x)])

    @given(letter_lists(2))
    def test_geodesic_interval(self, case):
        rank, (x, y) = case
        path = geodesic_interval(FreeWord(rank, x), FreeWord(rank, y))
        for u in path:
            assert_validated(u, rank, u.letters)

    def test_ball_list(self):
        for rank in (1, 2, 3):
            for u in ball_list(rank, 3):
                assert_validated(u, rank, u.letters)

    @given(letter_lists(12))
    def test_sort_key_orders_like_the_old_key(self, case):
        rank, lists = case
        sample = [FreeWord(rank, x) for x in lists]
        assert sorted(sample, key=FreeWord.sort_key) == sorted(sample, key=old_sort_key)
        for a in sample:
            for b in sample:
                assert (a.sort_key() < b.sort_key()) == (old_sort_key(a) < old_sort_key(b))

    def test_equal_words_from_both_constructors(self):
        a = mul(w("ab"), w("Ba"))
        b = FreeWord(2, [1, 2, -2, 1])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != w("ab") and a != (2, (1, 1))

    def test_hashes_tell_inverse_letters_apart(self):
        # hash(-1) == hash(-2), so hashing the letters themselves gave A and
        # B, and every pair of words differing only there, one hash
        assert hash(w("A")) != hash(w("B"))
        for rank in (2, 3):
            ws = ball_list(rank, 3)
            assert len({hash(u) for u in ws}) == len(ws)

    def test_validated_constructor_still_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            FreeWord(2, [3])
        with pytest.raises(ValueError, match="rank"):
            FreeWord(0, [])
        assert FreeWord(2, [1, -1, 2]).letters == (2,)

    def test_window_path_never_reduces(self, monkeypatch):
        # a deterministic count: validated construction re-runs _reduce, so
        # any of it on the window path shows up here
        b2, k = ball(2, 2), scalar_kernel(2, 2, {"e": 1, "A": 1})
        sub, W, g, h = KernelSubshift(k), ball(2, 1), w("ab"), w("Ba")
        calls = []
        real = words._reduce
        monkeypatch.setattr(words, "_reduce", lambda letters: calls.append(1) or real(letters))
        FreeWord(2, [1])
        assert calls == [1]
        calls.clear()
        thicken(b2, 3)
        mul(g, h)
        sub.marginal(W)
        assert calls == []


# -- integer word ids ----------------------------------------------------------


def word_thicken(ws, t):
    """Oracle: breadth-first thickening through `neighbors`."""
    out = set(ws)
    frontier = set(ws)
    for _ in range(t):
        frontier = {u for v in frontier for u in neighbors(v)} - out
        out |= frontier
    return out


@st.composite
def word_samples(draw, count):
    """A rank in 1..3 and `count` reduced words of that rank."""
    rank, lists = draw(letter_lists(count))
    return rank, [FreeWord(rank, x) for x in lists]


def old_word_id(rank, letters):
    """Oracle: the length-lex id by the sphere bookkeeping, the offset of
    each prefix in the sphere [lo, lo + width) of its length."""
    q = 2 * rank - 1
    i, lo, width, back = 0, 0, 1, -1
    for a in letters:
        s = a + a - 2 if a > 0 else -a - a - 1
        if lo:
            i = lo + width + (i - lo) * q + (s if s < back else s - 1)
            lo, width = lo + width, width * q
        else:
            i, lo, width = s + 1, 1, 2 * rank
        back = s ^ 1
    return i


def old_id_letters(rank, i):
    """Oracle: the letters of id i by the sphere bookkeeping, the offset in
    its sphere read as base-q digits below the first letter's slot."""
    if i == 0:
        return ()
    q, lo, width, n = 2 * rank - 1, 1, 2 * rank, 1
    while i >= lo + width:
        lo, width, n = lo + width, width * q, n + 1
    j, digits = i - lo, []
    for _ in range(n - 1):
        j, d = divmod(j, q)
        digits.append(d)
    s, path = j, [j]
    for d in reversed(digits):
        back = s ^ 1
        s = d if d < back else d + 1
        path.append(s)
    return tuple(s // 2 + 1 if s % 2 == 0 else -(s // 2 + 1) for s in path)


def ids_of(rank, ws):
    tree = CayleyTree(rank)
    return [tree.id(u) for u in ws]


class TestWordIds:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_ids_are_ball_list_positions(self, rank):
        tree = CayleyTree(rank)
        for i, u in enumerate(ball_list(rank, 4)):
            assert tree.id(u) == i
            assert_validated(tree.word(i), rank, u.letters)
        assert ball(rank, 4).ids() == frozenset(range(ball_size(rank, 4)))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_steps_match_the_sphere_bookkeeping_on_a_ball(self, rank):
        for i, u in enumerate(ball_list(rank, 5)):
            assert words._word_id(rank, u.letters) == old_word_id(rank, u.letters) == i
            assert words._id_letters(rank, i) == old_id_letters(rank, i) == u.letters

    @given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), st.integers(0, 10**40 if r > 1 else 10**4))))
    def test_steps_match_the_sphere_bookkeeping_on_large_ids(self, case):
        rank, i = case
        letters = old_id_letters(rank, i)
        assert words._id_letters(rank, i) == letters
        assert words._word_id(rank, letters) == old_word_id(rank, letters) == i

    @given(word_samples(1))
    def test_round_trip(self, case):
        rank, (u,) = case
        tree = CayleyTree(rank)
        i = tree.id(u)
        assert_validated(tree.word(i), rank, u.letters)
        assert tree.id(tree.word(i)) == i
        assert tree.length(i) == len(u)

    @given(word_samples(12))
    def test_id_order_is_sort_key_order(self, case):
        rank, sample = case
        ids = dict(zip(sample, ids_of(rank, sample)))
        assert sorted(sample, key=ids.get) == sorted(sample, key=FreeWord.sort_key)
        for a in sample:
            for b in sample:
                assert (ids[a] < ids[b]) == (a.sort_key() < b.sort_key())
        assert list(WordSet(rank, sample)) == sorted(set(sample), key=FreeWord.sort_key)

    @given(word_samples(2))
    def test_tree_steps_match_neighbors_and_mul(self, case):
        rank, (u, v) = case
        # a tree that has not seen u recovers its last letter by arithmetic
        (i,), tree = ids_of(rank, [u]), CayleyTree(rank)
        steps = [tree.translates([i], letter_slots([a]))[0] for a in signed_letters(rank)]
        assert steps == ids_of(rank, neighbors(u))
        if u.letters:
            assert tree.parent(i) == ids_of(rank, [FreeWord(rank, u.letters[:-1])])[0]
            assert tree.last(i) == letter_slots(u.letters[-1:])[0]
        assert tree.translates([i], letter_slots(v.letters)) == ids_of(rank, [mul(u, v)])

    @given(word_samples(6))
    def test_translate_matches_mul(self, case):
        rank, (g, *members) = case
        s = WordSet(rank, members)
        assert s.translate(g) == WordSet(rank, [mul(g, v) for v in s])
        # g^-1 cancels into every member of g·s
        moved = WordSet(rank, [mul(g, v) for v in members])
        assert moved.translate(inv(g)) == s

    @given(st.integers(1, 3).flatmap(lambda r: st.tuples(
        st.just(r),
        st.integers(0, ball_size(r, 5) - 1),
        st.lists(st.integers(0, ball_size(r, 5) - 1), max_size=12),
    )))
    def test_translate_matches_decode_reduce_encode(self, case):
        # the oracle decodes each id, prepends g's letters, reduces and
        # encodes again; translate does neither step on words
        rank, g_id, ids = case
        g = FreeWord(rank, old_id_letters(rank, g_id))
        want = {old_word_id(rank, words._reduce(g.letters + old_id_letters(rank, i))) for i in ids}
        assert words._wordset(rank, ids).translate(g).ids() == want

    def test_deep_translates(self):
        # a^1200 and a^1199 have ids 2399 and 2397; the sweep of a^1200 and
        # its 1199 missing ancestors, and the image steps, run in loops
        deep = WordSet(1, [FreeWord(1, [1] * 1200)])
        assert deep.ids() == {2399}
        assert deep.translate(generator(1, -1)).ids() == {2397}
        assert deep.translate(FreeWord(1, [-1] * 1200)).ids() == {0}
        assert deep.translate(generator(1, -1)).translate(FreeWord(1, [-1] * 1200)).ids() == {2}

    def test_translate_refuses_another_rank(self):
        for g in (FreeWord(1, (1,)), FreeWord(3, (3,))):
            with pytest.raises(ValueError):
                ball(2, 1).translate(g)

    @given(word_samples(4), st.integers(0, 2))
    def test_thicken_matches_word_oracle(self, case, t):
        rank, sample = case
        got = thicken(WordSet(rank, sample), t)
        assert set(got) == word_thicken(sample, t)
        assert got.ids() == CayleyTree(rank).thicken(ids_of(rank, sample), t)

    @given(word_samples(5))
    def test_convex_hull_matches_word_oracle(self, case):
        rank, sample = case
        s = WordSet(rank, sample)
        got = convex_hull(s)
        assert got == pairwise_hull_oracle(s)
        assert got.ids() == CayleyTree(rank).hull(ids_of(rank, sample))
        assert is_connected(got)

    @given(word_samples(12))
    def test_ordering_condition_matches_word_oracle(self, case):
        rank, sample = case
        ordering, hull = sample[:8], convex_hull(WordSet(rank, sample[8:]))
        escapes = all(any(mul(g, u) not in covered for u in hull) for g, covered in word_walk(ordering, hull))
        assert check_ordering_condition(hull, ordering) == escapes

    def test_window_path_builds_few_words(self, monkeypatch):
        # the fixed point and the hull system of this marginal run on ids;
        # the words built are the stencil geometry, the state ball B(rho)
        # and the kept B(1) coordinate labels
        built = []
        real_word, real_init = words._word, FreeWord.__init__

        def counting_word(rank, letters):
            built.append(letters)
            return real_word(rank, letters)

        def counting_init(self, rank, letters=()):
            built.append(letters)
            real_init(self, rank, letters)

        k, W = scalar_kernel(2, 2, {"e": 1, "A": 1}), ball(2, 1)
        monkeypatch.setattr(words, "_word", counting_word)
        monkeypatch.setattr(FreeWord, "__init__", counting_init)
        m = KernelSubshift(k).marginal(W)
        assert (m.certificate, m.dimension) == ("EXACT", 3)
        assert len(built) <= 64


class TestTreeDistance:
    @given(word_samples(2))
    def test_meet_and_distance(self, case):
        rank, (a, b) = case
        tree = CayleyTree(rank)
        u, v = tree.id(a), tree.id(b)
        prefix = 0
        while prefix < min(len(a), len(b)) and a.letters[prefix] == b.letters[prefix]:
            prefix += 1
        assert tree.word(tree.meet(u, v)).letters == a.letters[:prefix]
        assert tree.distance(u, v) == tree.distance(v, u) == distance(a, b)

    @given(word_samples(6))
    def test_radius_center_matches_word_level_oracle(self, case):
        # distances on ids against the pairwise word products they replaced
        rank, ws = case
        s = WordSet(rank, ws)
        assert radius_center(s) == old_radius_center(s)


class TestStepTable:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("n", range(5))
    def test_matches_translates(self, rank, n):
        table = CayleyTree(rank).step_table(n)
        ids = range(ball_size(rank, n))
        assert len(table) == 2 * rank
        for s, row in enumerate(table):
            # a fresh tree reads every last letter by its own arithmetic
            assert row == CayleyTree(rank).translates(ids, (s,))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("n", range(5))
    def test_ball_steps_list_a_ball_as_a_sweep_does(self, rank, n):
        # every id of B(n) but e once, in id order, with its parent and the
        # slot of its last letter, read here off the enumerated words
        steps, listed = list(words.ball_steps(rank, n)), ball_list(rank, n)
        assert [i for i, _v, _s in steps] == list(range(1, len(listed)))
        for i, v, s in steps:
            assert listed[v].letters == listed[i].letters[:-1]
            assert letter_slots(listed[i].letters[-1:]) == (s,)
        assert steps == CayleyTree(rank).sweep(range(len(listed)), (0,))


def recursive_sweep(tree, ids, known, new=None):
    """Oracle: the sweep before it climbed in a loop, one recursive call per
    missing ancestor, sharing the ids listed so far through `new`."""
    ids, out, new = sorted(ids), [], set() if new is None else new
    last, q, top = tree._last, tree.q, 2 * tree.rank
    for i in ids:
        if i in known or i in new or not i:
            continue
        if i <= top:
            v, d = 0, i - 1
        else:
            v = (i - 2) // q
            if v not in known and v not in new:
                out += recursive_sweep(tree, (v,), known, new)
            d = (i - 2) % q
            d += d >= last[v] ^ 1
        new.add(i)
        last[i] = d
        out.append((i, v, d))
    return out


class TestSweep:
    @given(st.integers(1, 3), st.data())
    def test_lists_each_missing_ancestor_once_parents_first(self, rank, data):
        tree, oracle = CayleyTree(rank), CayleyTree(rank)
        top = ball_size(rank, 6 if rank == 1 else 4)
        batches = data.draw(
            st.lists(st.lists(st.integers(0, top - 1), max_size=10), min_size=1, max_size=4)
        )
        known = {0}
        for batch in batches:
            want = set()
            for i in batch:
                while i not in known:
                    want.add(i)
                    i = oracle.parent(i)
            steps = tree.sweep(batch, known)
            assert sorted(i for i, _v, _s in steps) == sorted(want)
            for i, v, s in steps:
                letters = oracle.word(i).letters
                assert v in known and v == oracle.parent(i)
                assert s == letter_slots(letters[-1:])[0] == tree.last(i)
                known.add(i)

    def test_a_ball_comes_back_in_id_order(self):
        tree = CayleyTree(2)
        steps = tree.sweep(reversed(range(ball_size(2, 4))), {0: None})
        assert [i for i, _v, _s in steps] == list(range(1, ball_size(2, 4)))
        # a fresh tree reads the slot of a deep id from its decoded word
        deep = ball_size(2, 9) + 5
        assert CayleyTree(2).last(deep) == letter_slots(tree.word(deep).letters[-1:])[0]

    def test_known_ids_the_tree_has_not_met(self):
        # id 1 is known, so it is not listed, but this tree holds no slot for it
        assert CayleyTree(2).sweep([7], {0, 1}) == [(7, 1, 3)]

    @given(st.integers(1, 3), st.data())
    def test_known_ids_read_their_slots_through_last(self, rank, data):
        # a tree that has met every known id and one that has met none list
        # the same steps
        oracle, top = CayleyTree(rank), ball_size(rank, 4)
        known = {0}
        for i in data.draw(st.lists(st.integers(0, top - 1), max_size=6)):
            while i not in known:
                known.add(i)
                i = oracle.parent(i)
        batch = data.draw(st.lists(st.integers(0, top - 1), max_size=8))
        for i in known - {0}:
            oracle.last(i)
        assert CayleyTree(rank).sweep(batch, known) == oracle.sweep(batch, known)

    @settings(deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_the_recursive_sweep(self, rank, data):
        # both fill their tree's slot table; out-of-order batches leave
        # ancestors missing, so the climb runs at every depth.  The sweep
        # lists the oracle's steps in ascending id order
        tree, oracle = CayleyTree(rank), CayleyTree(rank)
        top = ball_size(rank, 40 if rank == 1 else 5)
        batches = data.draw(
            st.lists(st.lists(st.integers(0, top - 1), max_size=12), min_size=1, max_size=5)
        )
        known = {0}
        for batch in batches:
            steps = tree.sweep(batch, known)
            assert steps == sorted(recursive_sweep(oracle, batch, known))
            assert all(a[0] < b[0] for a, b in zip(steps, steps[1:]))
            known.update(i for i, _v, _s in steps)
        assert tree._last == oracle._last

    @given(st.integers(1, 3), st.lists(st.integers(1, 10**5), min_size=1, max_size=8))
    def test_last_on_a_partly_filled_table(self, rank, ids):
        # each call climbs only to the nearest slot an earlier call stored
        tree = CayleyTree(rank)
        for i in ids:
            assert tree.last(i) == letter_slots(old_id_letters(rank, i)[-1:])[0]

    def test_rank_one_past_the_recursion_limit(self):
        # a^1201 has id 2401; one call per missing ancestor ran out of stack
        assert CayleyTree(1).last(2401) == 0
        assert CayleyTree(1).last(2402) == 1
        tree = CayleyTree(1)
        deep = tree.id(FreeWord(1, [-1] * 2400))
        fresh = CayleyTree(1)
        steps = fresh.sweep([deep], {0})
        assert steps == [(2 * n, 2 * n - 2, 1) for n in range(1, 2401)]
        assert fresh.sweep([deep + 2, deep - 1], {0, *(i for i, _v, _s in steps)}) == [
            (2 * n - 1, max(2 * n - 3, 0), 0) for n in range(1, 2401)
        ] + [(deep + 2, deep, 1)]


# -- memoised axis windows -----------------------------------------------------


def fresh_axis_window(W, i, m):
    """Oracle: s_i^m W and W u s_i W u ... u s_i^m W by a fresh chain of m
    translates and unions, and the same by `mul` on words."""
    s, moved, joined = generator(W.rank, i), W, W
    for _ in range(m):
        moved = moved.translate(s)
        joined = joined.union(moved)
    power = FreeWord(W.rank, (i,) * m)
    assert moved == WordSet(W.rank, [mul(power, u) for u in W])
    assert joined == WordSet(W.rank, [mul(FreeWord(W.rank, (i,) * k), u) for k in range(m + 1) for u in W])
    return moved, joined


@pytest.fixture
def no_axes(monkeypatch):
    """An empty axis-window memo for one test, so a test neither reads nor
    leaves chains of another."""
    monkeypatch.setattr(words, "_AXES", {})


@pytest.mark.usefixtures("no_axes")
class TestAxisWindow:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_balls_match_a_fresh_chain(self, rank):
        for n in range(4):
            W = ball(rank, n)
            for i in signed_letters(rank):
                # the longest chain first, then the shorter ones it holds
                for m in (4, 0, 1, 2, 3):
                    assert axis_window(W, i, m) == fresh_axis_window(W, i, m)

    @settings(deadline=None)
    @given(word_samples(6), st.data())
    def test_other_windows_match_a_fresh_chain(self, case, data):
        rank, sample = case
        W = WordSet(rank, sample)
        i = data.draw(st.sampled_from(signed_letters(rank)))
        for m in data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
            assert axis_window(W, i, m) == fresh_axis_window(W, i, m)

    def test_later_calls_return_the_same_instances(self):
        W = ball(2, 1)
        first = [axis_window(W, 1, m) for m in range(3)]
        assert first[0] == (W, W) and first[0][0] is W and first[0][1] is W
        # an equal window built again keys the same chain
        again = [axis_window(ball(2, 1), 1, m) for m in range(3)]
        assert all(a is b for pair in zip(first, again) for a, b in zip(*pair))
        assert axis_window(W, 2, 1)[1] is not first[1][1]

    def test_the_rank_is_part_of_the_key(self):
        # the rank-3 words e, a, A, b, B have the ids of the rank-2 ball B(1)
        same_ids = WordSet(3, [parse_word(text, 3) for text in ("e", "a", "A", "b", "B")])
        assert same_ids.ids() == ball(2, 1).ids()
        axis_window(ball(2, 1), 2, 1)
        moved, joined = axis_window(same_ids, 2, 1)
        assert (moved.rank, joined.rank) == (3, 3)
        assert joined == fresh_axis_window(same_ids, 2, 1)[1]

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            axis_window(ball(2, 1), 1, -1)
        for i in (0, 3, -3):
            with pytest.raises(ValueError, match="out of range"):
                axis_window(ball(2, 1), i, 1)
        assert words._AXES == {}
