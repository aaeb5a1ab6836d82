import json
import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from fplinear_oracles import members, project
from hypothesis import assume, given, settings, strategies as st
from kernel_oracles import (
    contains,
    old_surjectivity_certificate,
    old_target_map_matrix,
    window_chain,
    word_walk,
    window_projection,
)

from flab import kernels, words
from flab.cli import main
from flab.fplinear import AffineSolutionSet, FpMatrix, rank as fp_rank, solve
from flab.kernels import (
    ConvolutionKernel,
    KernelSubshift,
    ZeroKernelError,
    _centered,
    _picks,
    _stencil,
    comparison_kernel,
    constraint_sites,
    is_surjective,
    ow_kernel,
    preimage_on_ball,
    scalar_kernel,
    support_geometry,
    target_map_matrix,
    window_coordinates,
    window_rows,
)
from flab.words import (
    CayleyTree,
    FreeWord,
    WordSet,
    ball,
    ball_list,
    ball_size,
    convex_hull,
    format_word,
    identity,
    inv,
    letter_slots,
    mul,
    parse_word,
    radius_center,
    thicken,
)


def w(text, rank=2):
    return parse_word(text, rank)


# -- dense test oracles ------------------------------------------------------


def window_system(k, V):
    """Dense window system (one block-row per fitting site) and its site index."""
    rows, sites = window_rows(k, V)
    cols = window_coordinates(k, V)
    index = {c: i for i, c in enumerate(cols)}
    dense = []
    for row in rows:
        out = [0] * len(cols)
        for key, v in row.items():
            out[index[key]] = v
        dense.append(out)
    return FpMatrix(k.p, dense, cols=len(cols)), sites


def window_solution_space(k, V):
    m, _ = window_system(k, V)
    s = solve(m, [0] * m.rows)
    return AffineSolutionSet(k.p, window_coordinates(k, V), s.particular, s.basis)


def window_targets_all_solvable(k, W):
    """Brute force: solve every target pattern on W on its own."""
    m, _ = target_map_matrix(k, W)
    return all(not solve(m, list(y)).is_empty() for y in product(range(k.p), repeat=m.rows))


def edge_kernel(p=2):
    """x(g) + x(g s1^-1): kernel is constant along each s1-axis coset."""
    return scalar_kernel(p, 2, {"e": 1, "A": 1})


def wide_kernel():
    """x(g) + x(g s1^5): hull radius 3, kernel constant along each coset g<s1^5>."""
    return scalar_kernel(2, 2, {"e": 1, "aaaaa": 1})


def coset_count(W, period=1):
    """Independent oracle for the marginals of edge_kernel (period 1) and
    wide_kernel (period 5): distinct right cosets g<s1^period>."""
    reps = set()
    for v in W:
        # canonical coset representative: strip trailing powers of s1,
        # keeping their exponent mod the period
        letters, power = list(v.letters), 0
        while letters and abs(letters[-1]) == 1:
            power += letters.pop()
        reps.add((tuple(letters), power % period))
    return len(reps)


class TestSupportGeometry:
    def test_edge_kernel(self):
        geo = support_geometry(edge_kernel())
        assert geo.support == WordSet(2, [w("e"), w("A")])
        assert geo.hull == geo.support
        assert geo.radius == 1

    def test_delta(self):
        geo = support_geometry(scalar_kernel(2, 2, {"e": 1}))
        assert geo.support == WordSet(2, [w("e")])
        assert geo.radius == 0

    def test_ow_map(self):
        geo = support_geometry(ow_kernel())
        assert geo.support == WordSet(2, [w("e"), w("a"), w("b")])
        assert geo.hull == geo.support
        assert geo.radius == 1 and identity(2) in geo.centers

    def test_zero_kernel_rejected(self):
        with pytest.raises(ZeroKernelError):
            support_geometry(ConvolutionKernel(2, 2, {}))


class TestWindowSystem:
    def test_edge_kernel_on_ball_one(self):
        m, sites = window_system(edge_kernel(), ball(2, 1))
        assert sites == [w("e"), w("a")]
        assert m.rows == 2
        # constraints x(e)+x(A) and x(a)+x(e)
        cols = [v for v in ball(2, 1)]
        idx = {v: i for i, (v) in enumerate(cols)}
        row_e = m.entries[0]
        assert row_e[idx[w("e")]] == 1 and row_e[idx[w("A")]] == 1
        assert sum(row_e) == 2

    def test_singleton_window_no_constraints(self):
        m, sites = window_system(edge_kernel(), WordSet(2, [w("e")]))
        assert sites == [] and m.rows == 0

    def test_ow_kernel_on_ball_one(self):
        m, sites = window_system(ow_kernel(), ball(2, 1))
        assert sites == [w("e")]
        assert m.rows == 2

    def test_solutions_reproduce_zero(self):
        k = edge_kernel()
        V = ball(2, 2)
        sols = window_solution_space(k, V)
        _, sites = window_system(k, V)
        for member in members(sols, limit=1 << 13):
            x = {word: val for (word, _j), val in zip(sols.keys, member)}
            for g in sites:
                assert k.evaluate(x, g) == (0,)


class TestProjectedDimension:
    def test_edge_kernel_ball_one(self):
        m = KernelSubshift(edge_kernel()).marginal(ball(2, 1))
        assert m.dimension == 3 and m.certificate == "EXACT"

    def test_delta_kernel_trivial(self):
        m = KernelSubshift(scalar_kernel(2, 2, {"e": 1})).marginal(ball(2, 1))
        assert m.certificate == "EXACT" and m.dimension == 0

    def test_edge_kernel_union_window(self):
        W = ball(2, 1).union(ball(2, 1).translate(w("b")))
        assert len(W) == 8
        m = KernelSubshift(edge_kernel()).marginal(W)
        assert m.certificate == "EXACT" and m.dimension == 4

    def test_matches_coset_oracle_on_random_windows(self):
        rng = random.Random(1)
        pool = list(ball(2, 3))
        sub = KernelSubshift(edge_kernel())
        for _ in range(15):
            W = WordSet(2, rng.sample(pool, rng.randint(1, 6)))
            m = sub.marginal(W)
            assert m.certificate == "EXACT"
            assert m.dimension == coset_count(W)
        # the wide hull, where B(3) holds the linked pairs AA ~ aaa, AAA ~ aa
        wide = KernelSubshift(wide_kernel())
        for W in [ball(2, 3)] + [WordSet(2, rng.sample(pool, rng.randint(1, 30))) for _ in range(15)]:
            assert wide.marginal(W).dimension == coset_count(W, 5)
        assert wide.marginal(ball(2, 3)).dimension == len(ball(2, 3)) - 2

    def test_matches_exhaustive_enumeration(self):
        # project the dense B(2)-window solution set (elimination-pruned
        # enumeration) and compare against the certified marginal
        k = edge_kernel()
        W = ball(2, 1)
        big = window_solution_space(k, ball(2, 2))
        keep = tuple((v, 0) for v in W)
        brute = project(big, keep)
        m = KernelSubshift(k).marginal(W)
        assert m.certificate == "EXACT" and m.dimension == brute.dimension

    def test_ow_kernel_is_two_constants(self):
        sub = KernelSubshift(ow_kernel())
        for n in range(3):
            m = sub.marginal(ball(2, n))
            assert m.certificate == "EXACT" and m.dimension == 1
        # one input channel, so a member lists the values on B(1) in order
        points = members(sub.marginal(ball(2, 1)).solution_set)
        assert len(points) == 2
        for member in points:
            assert len(set(member)) == 1  # constants only

    def test_comparison_kernel_constants(self):
        for p in (2, 3):
            for r in (2, 3):
                sub = KernelSubshift(comparison_kernel(p, r))
                for n in (1, 2):
                    m = sub.marginal(ball(r, n))
                    assert m.certificate == "EXACT" and m.dimension == 1

    def test_restriction_consistency(self):
        sub = KernelSubshift(edge_kernel())
        W_small = ball(2, 1)
        W_big = ball(2, 1).union(ball(2, 1).translate(w("a")))
        small = sub.marginal(W_small).solution_set
        big = sub.marginal(W_big).solution_set
        assert project(big, tuple((v, 0) for v in W_small)) == small

    def test_stabilization_by_two_extra_balls(self):
        # support within B(2) stabilizes by V = B(n+2) for W = B(n)
        rng = random.Random(2)
        pool = list(ball(2, 2))
        kernels = [edge_kernel(), edge_kernel(3), scalar_kernel(2, 2, {"e": 1, "a": 1, "b": 1})]
        for _ in range(6):
            words = rng.sample(pool, rng.randint(1, 3))
            kernels.append(
                ConvolutionKernel(3, 2, {v: [[rng.randint(1, 2)]] for v in words})
            )
        for k in kernels:
            for n in (0, 1):
                W = ball(2, n)
                a = window_projection(k, W, ball(2, n + 2))
                b = window_projection(k, W, ball(2, n + 3))
                assert a == b


def matrix_kernel(p, coeffs):
    """2x2 matrix kernel on the rank-2 group from word-text blocks."""
    return ConvolutionKernel(p, 2, {w(t): block for t, block in coeffs.items()}, d_in=2, d_out=2)


def plateau_kernel():
    """Rows x(gB)_0 + x(ga)_1 and x(ga)_0: they force x = 0, so ker(phi) = {0}."""
    return matrix_kernel(2, {"B": [[1, 0], [0, 0]], "a": [[0, 1], [1, 0]]})


# the exact marginal of each kernel on W = B(n), n = 0, 1
CERTIFICATE_KERNELS = {
    "edge": lambda: edge_kernel(),
    "edge3": lambda: edge_kernel(3),
    "p3": lambda: scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2}),
    "delta": lambda: scalar_kernel(2, 2, {"e": 1}),
    "ow": ow_kernel,
    "comparison": lambda: comparison_kernel(3, 2),
    "m3": lambda: matrix_kernel(3, {"A": [[1, 1], [1, 0]], "e": [[1, 1], [1, 1]], "a": [[0, 0], [1, 1]]}),
    "m2": plateau_kernel,
    "wide": wide_kernel,
}
GOLDEN_CERTIFICATES = {
    ("edge", 0): ("EXACT", 1),
    ("edge", 1): ("EXACT", 3),
    ("edge3", 0): ("EXACT", 1),
    ("edge3", 1): ("EXACT", 3),
    ("p3", 0): ("EXACT", 1),
    ("p3", 1): ("EXACT", 4),
    ("delta", 0): ("EXACT", 0),
    ("delta", 1): ("EXACT", 0),
    ("ow", 0): ("EXACT", 1),
    ("ow", 1): ("EXACT", 1),
    ("comparison", 0): ("EXACT", 1),
    ("comparison", 1): ("EXACT", 1),
    ("m3", 0): ("EXACT", 1),
    ("m3", 1): ("EXACT", 3),
    ("m2", 0): ("EXACT", 0),
    ("m2", 1): ("EXACT", 0),
    # B(1) alone would take the window oracle seconds, its chain running to B(10)
    ("wide", 0): ("EXACT", 1),
}


class TestCertificateTable:
    @pytest.mark.parametrize("name, n", sorted(GOLDEN_CERTIFICATES))
    def test_golden_certificates(self, name, n):
        m = KernelSubshift(CERTIFICATE_KERNELS[name]()).marginal(ball(2, n))
        assert (m.certificate, m.dimension) == GOLDEN_CERTIFICATES[(name, n)]

    @pytest.mark.parametrize("name, n", sorted(GOLDEN_CERTIFICATES))
    def test_matches_the_window_oracle(self, name, n):
        k = CERTIFICATE_KERNELS[name]()
        exact = KernelSubshift(k).marginal(ball(2, n)).solution_set
        *early, last = window_chain(k, ball(2, n))
        # a window only drops constraints, so its projection can only be larger
        assert all(contains(V, exact) for V in early)
        assert last == exact

    def test_stabilized_plateau_then_drop(self):
        # two agreeing windows prove nothing: the B(0) projection of a kernel
        # with ker(phi) = {0} keeps dimension 1 on V0 and V1, then drops to 0;
        # the fixed point gives 0 at once
        k = plateau_kernel()
        assert [V.dimension for V in window_chain(k, ball(2, 0))] == [1, 1, 0, 0, 0]
        sub = KernelSubshift(k)
        assert (sub.marginal(ball(2, 0)).certificate, sub.marginal(ball(2, 0)).dimension) == ("EXACT", 0)
        assert (sub.marginal(ball(2, 1)).certificate, sub.marginal(ball(2, 1)).dimension) == ("EXACT", 0)


B1 = ball_list(2, 1)


@st.composite
def small_kernels(draw):
    """A nonzero stencil supported in B(1), scalar or 2x2, over Z/2 or Z/3."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2]))
    support = draw(st.lists(st.sampled_from(B1), min_size=1, max_size=len(B1), unique=True))
    block = st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d), min_size=d, max_size=d)
    coeffs = {v: draw(block) for v in support}
    k = ConvolutionKernel(p, 2, coeffs, d_in=d, d_out=d)
    assume(not k.is_zero())
    return k


class TestRestrictionConsistency:
    @settings(max_examples=60, deadline=None)
    @given(small_kernels())
    def test_ball_one_projects_onto_ball_zero(self, k):
        sub = KernelSubshift(k)
        big = sub.marginal(ball(2, 1)).solution_set
        small = sub.marginal(ball(2, 0)).solution_set
        assert project(big, small.keys) == small


# stencils with e as their first support word, then three without
SITE_KERNELS = {
    "edge": lambda: edge_kernel(),
    "p3": lambda: scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2}),
    "ow": ow_kernel,
    "aa_ab": lambda: scalar_kernel(2, 2, {"aa": 1, "ab": 1}),
    "A_b": lambda: scalar_kernel(3, 2, {"A": 1, "b": 2}),
    "m2": plateau_kernel,
}


class TestConstraintSites:
    def test_kernels_cover_both_anchors(self):
        firsts = {name: make().support_words()[0].is_identity() for name, make in SITE_KERNELS.items()}
        assert firsts == {"edge": True, "p3": True, "ow": True, "aa_ab": False, "A_b": False, "m2": False}

    @pytest.mark.parametrize("name", sorted(SITE_KERNELS))
    def test_matches_brute_force(self, name):
        k = SITE_KERNELS[name]()
        F = k.support_words()
        for n in (0, 1):
            for t in (0, 1, 2):
                V = thicken(convex_hull(ball(2, n)), t)
                # g.f in V, inside B(n + t), puts g inside B(n + t + |f|)
                pool = ball_list(2, n + t + max(len(f) for f in F))
                want = [g for g in pool if all(mul(g, f) in V for f in F)]
                want.sort(key=FreeWord.sort_key)
                assert constraint_sites(k, V) == want


class TestCylinderMeasure:
    def test_single_site(self):
        sub = KernelSubshift(edge_kernel())
        W = WordSet(2, [w("e")])
        assert sub.cylinder_measure(W, {w("e"): 0}) == Fraction(1, 2)
        assert sub.cylinder_measure(W, {w("e"): 1}) == Fraction(1, 2)

    def test_zero_pattern_always_positive(self):
        sub = KernelSubshift(edge_kernel())
        W = ball(2, 1)
        assert sub.cylinder_measure(W, {v: 0 for v in W}) > 0

    def test_violating_pattern_is_null(self):
        sub = KernelSubshift(edge_kernel())
        W = ball(2, 1)
        pattern = {v: 0 for v in W}
        pattern[w("A")] = 1  # breaks x(e) + x(A) = 0
        assert sub.cylinder_measure(W, pattern) == 0

    def test_measures_sum_to_one(self):
        for k in (edge_kernel(), edge_kernel(3), ow_kernel()):
            sub = KernelSubshift(k)
            W = ball(k.rank, 1)
            total = Fraction(0)
            dim_in = k.d_in
            for values in product(range(k.p), repeat=len(W) * dim_in):
                pattern = {}
                it = iter(values)
                for v in W:
                    pattern[v] = tuple(next(it) for _ in range(dim_in))
                total += sub.cylinder_measure(W, pattern)
            assert total == 1

    def test_kolmogorov_consistency(self):
        sub = KernelSubshift(edge_kernel())
        W = WordSet(2, [w("e"), w("a")])
        W2 = ball(2, 1)
        extra = [v for v in W2 if v not in W]
        for base_vals in product(range(2), repeat=len(W)):
            base = dict(zip(list(W), base_vals))
            total = Fraction(0)
            for ext_vals in product(range(2), repeat=len(extra)):
                pattern = dict(base)
                pattern.update(zip(extra, ext_vals))
                total += sub.cylinder_measure(W2, pattern)
            assert total == sub.cylinder_measure(W, base)

    def test_translation_invariance(self):
        rng = random.Random(3)
        sub = KernelSubshift(edge_kernel())
        W = WordSet(2, [w("e"), w("a"), w("b")])
        pool = list(ball(2, 2))
        for _ in range(8):
            g = rng.choice(pool)
            gW = W.translate(g)
            for vals in product(range(2), repeat=len(W)):
                pattern = dict(zip(list(W), vals))
                translated = {mul(g, v): pattern[v] for v in W}
                assert sub.cylinder_measure(W, pattern) == sub.cylinder_measure(
                    gW, translated
                )


def centers_identity(rep) -> bool:
    """Whether e is a center of the certificate's centered hull."""
    hull = WordSet(2, [w(text) for text in rep.details["centered_hull"]])
    return identity(2) in radius_center(hull)[1]


class TestSurjectivity:
    def test_edge_kernel_theorem_path(self):
        rep = is_surjective(edge_kernel())
        assert rep.surjective and rep.kind == "theorem-scalar"
        assert set(rep.details) == {"center", "centered_hull", "hull_radius"}
        assert centers_identity(rep)

    def test_zero_kernel(self):
        rep = is_surjective(ConvolutionKernel(2, 2, {}))
        assert not rep.surjective and rep.kind == "zero-kernel"

    def test_uncentered_kernel_gets_centered(self):
        k = scalar_kernel(2, 2, {"a": 1, "ab": 1})
        rep = is_surjective(k)
        assert rep.surjective and rep.details["center"] != "e" and centers_identity(rep)

    def test_window_solvability_matches_theorem_small_sample(self):
        rng = random.Random(4)
        pool = list(ball(2, 1))
        for p in (2, 3):
            for _ in range(10):
                coeffs = {v: rng.randrange(p) for v in rng.sample(pool, rng.randint(1, 3))}
                if all(v == 0 for v in coeffs.values()):
                    continue
                k = ConvolutionKernel(2 if p == 2 else 3, 2, {u: [[c]] for u, c in coeffs.items()})
                if k.is_zero():
                    continue
                for n in (0, 1):
                    assert window_targets_all_solvable(k, ball(2, n))


def dual_image(k, y):
    """phi^(y) as a dict of its nonzero values, straight from the pairing
    <phi(x), y> = sum_g y(g)·sum_s c(s) x(g s): the coefficient of x(h) is
    the sum of c(s)^T y(g) over g s = h."""
    out = {}
    for g, v in y.items():
        for s, block in k.coeffs.items():
            h = out.setdefault(mul(g, s), [0] * k.d_in)
            for j in range(k.d_in):
                h[j] += sum(block[r][j] * v[r] for r in range(k.d_out))
    return {h: v for h, v in out.items() if any(x % k.p for x in v)}


def full_row_rank(k, n):
    m, _ = target_map_matrix(k, ball(k.rank, n))
    return fp_rank(m) == m.rows


def check_verdict(k):
    """The verdict of is_surjective against the target maps: "onto" needs
    full row rank on B(0)..B(3), "not onto" a nonzero y in ker phi^ on the
    first ball whose target map loses row rank."""
    rep = is_surjective(k)
    if rep.surjective:
        assert rep.kind in ("theorem-scalar", "dual-fixed-point") and rep.details.get("meet_dimension", 0) == 0
        assert all(full_row_rank(k, n) for n in range(4))
        return rep
    assert rep.kind == "dual-fixed-point" and rep.details["meet_dimension"] > 0
    witness = rep.details["witness"]
    n = int(witness["ball"][2:-1])
    y = {w(g): v for g, v in witness["y"]}
    assert y and all(any(v) for v in y.values()) and all(len(g) <= n for g in y)
    assert dual_image(k, y) == {}
    m, _ = target_map_matrix(k, ball(2, n))
    assert (fp_rank(m), m.rows) == (witness["rank"], witness["rows"]) and witness["rank"] < m.rows
    assert all(full_row_rank(k, i) for i in range(n))
    return rep


# the retired window check called both onto: full row rank on B(0) and B(1)
DEFECT_KERNELS = {
    "B(3)": (lambda: ConvolutionKernel(2, 2, {w("AB"): [[1], [1]], w("Ab"): [[1], [1]], w("AA"): [[1], [0]]}, d_out=2),
             12, 105, 106, [["a", [0, 1]], ["baa", [1, 1]], ["Baa", [1, 1]]]),
    "B(4)": (lambda: ConvolutionKernel(2, 2, {w("aB"): [[1], [0]], w("ab"): [[0], [1]], w("AA"): [[0], [1]]}, d_out=2),
             14, 321, 322, [["e", [0, 1]], ["abbA", [1, 0]], ["AAbA", [1, 0]]]),
}

ONTO_KERNELS = {
    "ow": (ow_kernel, 3),
    "comparison p=2": (lambda: comparison_kernel(2, 2), 3),
    "comparison p=3": (lambda: comparison_kernel(3, 2), 3),
    "plateau": (plateau_kernel, 5),
}


@st.composite
def matrix_kernels(draw):
    """p in {2, 3}, d_in and d_out in {1, 2}, one to three support words in B(2)."""
    p, d_in, d_out = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    support = draw(st.lists(st.sampled_from(ball_list(2, 2)), min_size=1, max_size=3, unique=True))
    block = st.lists(st.lists(st.integers(0, p - 1), min_size=d_in, max_size=d_in), min_size=d_out, max_size=d_out)
    k = ConvolutionKernel(p, 2, {u: draw(block) for u in support}, d_in, d_out)
    assume(not k.is_zero())
    return k


class TestDualFixedPoint:
    @pytest.mark.parametrize("name", sorted(DEFECT_KERNELS))
    def test_defect_kernels_are_not_onto(self, name):
        make, rounds, rank, rows, y = DEFECT_KERNELS[name]
        rep = check_verdict(make())
        assert not rep.surjective and rep.details["rounds"] == rounds
        assert rep.details["witness"] == {"ball": name, "rank": rank, "rows": rows, "y": y}

    @pytest.mark.parametrize("name", sorted(ONTO_KERNELS))
    def test_onto_kernels(self, name):
        make, rounds = ONTO_KERNELS[name]
        rep = check_verdict(make())
        assert rep.surjective and rep.kind == "dual-fixed-point"
        assert (rep.details["rounds"], rep.details["meet_dimension"]) == (rounds, 0)
        assert "witness" not in rep.details

    def test_a_non_onto_block_is_found_at_once(self):
        # c(e) = [[1], [0]] misses the second output channel: y = e_1 at e
        rep = check_verdict(ConvolutionKernel(3, 2, {w("e"): [[1], [0]]}, d_out=2))
        assert rep.details["witness"] == {"ball": "B(0)", "rank": 1, "rows": 2, "y": [["e", [0, 1]]]}

    @settings(max_examples=100, deadline=None)
    @given(matrix_kernels())
    def test_verdict_agrees_with_the_ball_ranks(self, k):
        check_verdict(k)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(
        st.just(p), *[st.dictionaries(st.sampled_from(B1), st.integers(1, p - 1), min_size=1)] * 2
    )))
    def test_diagonal_of_onto_scalars_is_onto(self, case):
        # the scalar theorem as an oracle for the dual path: diag(phi, psi)
        # is onto when both stencils are nonzero; each stencil is drawn as
        # nonzero coefficients on a nonempty support in B(1)
        p, *stencils = case
        coeffs = {}
        for i, stencil in enumerate(stencils):
            for s, c in stencil.items():
                coeffs.setdefault(s, [[0, 0], [0, 0]])[i][i] = c
        rep = check_verdict(ConvolutionKernel(p, 2, coeffs, 2, 2))
        assert rep.surjective and rep.kind == "dual-fixed-point"


class TestCentered:
    def test_centering_translates_constraints(self):
        rng = random.Random(5)
        k = scalar_kernel(3, 2, {"a": 1, "ab": 2})
        kc, center, _ = _centered(k)
        assert center == w("a")
        geo = support_geometry(kc)
        assert identity(2) in geo.centers
        # phi_{kc}(x)(g) == phi_k(x)(g * center^{-1})
        pool = list(ball(2, 3))
        x = {v: rng.randrange(3) for v in pool}
        for g in ball(2, 1):
            assert kc.evaluate(x, g) == k.evaluate(x, mul(g, inv(center)))


class TestPreimage:
    def test_zero_target_gives_zero(self):
        k = edge_kernel()
        x = preimage_on_ball(k, {g: 0 for g in ball(2, 1)}, 1)
        assert all(v == 0 for v in x.values())

    def test_indicator_target(self):
        k = edge_kernel()
        y = {g: 1 if g.is_identity() else 0 for g in ball(2, 0)}
        x = preimage_on_ball(k, y, 0)
        assert (x.get(w("e"), 0) + x.get(w("A"), 0)) % 2 == 1

    def test_random_targets_reverify(self):
        rng = random.Random(6)
        k = scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})
        for _ in range(10):
            y = {g: rng.randrange(3) for g in ball(2, 1)}
            x = preimage_on_ball(k, y, 1)
            for g in ball(2, 1):
                assert k.evaluate(x, g) == (y[g],)

    def test_uncentered_kernel_still_solves(self):
        rng = random.Random(7)
        k = scalar_kernel(2, 2, {"a": 1, "ab": 1})
        for _ in range(5):
            y = {g: rng.randrange(2) for g in ball(2, 1)}
            x = preimage_on_ball(k, y, 1)
            for g in ball(2, 1):
                assert k.evaluate(x, g) == (y[g],)

    def test_matrix_kernel_rejected(self):
        with pytest.raises(ValueError):
            preimage_on_ball(ow_kernel(), {g: 0 for g in ball(2, 0)}, 0)

    def test_uncentered_stencil_has_no_pick(self):
        # every word of {aa, ab} starts with a, so after the letter A no
        # word is left to pick; the solver picks on the centered {a, b}
        k = scalar_kernel(2, 2, {"aa": 1, "ab": 1})
        with pytest.raises(ValueError):
            _picks(_stencil(k, CayleyTree(2)), 2)

    def test_off_center_stencil_solves(self):
        # the solver runs on the centered stencil {a, b}, so it solves every
        # kernel that is_surjective certifies
        k = scalar_kernel(2, 2, {"aa": 1, "ab": 1})
        rep = is_surjective(k)
        assert rep.surjective and rep.details["center"] == "a"
        rng = random.Random(8)
        for n in (1, 2):
            y = {g: rng.randrange(2) for g in ball(2, n)}
            x = preimage_on_ball(k, y, n)
            for g in ball(2, n):
                assert k.evaluate(x, g) == (y[g],)

    def test_centered_stencil_solves_at_the_picks(self):
        # a stencil centered at e is solved on B(n) itself; each site g
        # solves for g·u, u the longest stencil word not cancelling g's last
        # letter: B at e, a, A and B, and A at b, so x is zero off B, aB, AB,
        # bA and BB
        k = scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})
        assert _centered(k)[1].is_identity()
        x = preimage_on_ball(k, {g: (len(g) + 1) % 3 for g in ball(2, 1)}, 1)
        assert {format_word(g): v for g, v in x.items()} == {
            "e": 0, "a": 0, "A": 0, "b": 0, "B": 2, "aB": 1,
            "AA": 0, "AB": 1, "bA": 2, "BA": 0, "BB": 0,
        }


class TestProofChecksFire:
    """Each check behind a proof in `flab.kernels` raises once the one fact
    it rests on is corrupted, and no report reaches stdout."""

    # c(e) = [[1], [0]] misses its second output channel: its target map
    # loses row rank on B(0), the witness bound, with null vector y = e_1
    def blind_channel(self):
        return ConvolutionKernel(3, 2, {w("e"): [[1], [0]]}, d_out=2)

    def test_witness_needs_a_ball_that_loses_row_rank(self, monkeypatch, capsys):
        monkeypatch.setattr(kernels, "fp_rank", lambda m: m.rows)
        with pytest.raises(AssertionError, match=r"no target map up to B\(0\) loses row rank"):
            print(json.dumps(is_surjective(self.blind_channel()).to_json()))
        assert capsys.readouterr().out == ""

    def test_witness_must_lie_in_the_dual_kernel(self, monkeypatch, capsys):
        # the solver returns its null vector plus e_0, which the dual misses
        real = kernels.solve

        def off_by_e0(m, b):
            v = list(real(m, b).basis[0])
            v[0] = (v[0] + 1) % m.p
            return SimpleNamespace(basis=[v])

        monkeypatch.setattr(kernels, "solve", off_by_e0)
        with pytest.raises(AssertionError, match="the witness is not in the kernel of the dual stencil"):
            print(json.dumps(is_surjective(self.blind_channel()).to_json()))
        assert capsys.readouterr().out == ""

    def run_p3_kernel(self, tmp_path):
        spec = tmp_path / "p3.json"
        spec.write_text(json.dumps({"p": 3, "rank": 2, "coeffs": {"e": 1, "A": 1, "B": 2}}))
        return main(["kernel", "--spec", str(spec), "--nmax", "1"])

    def test_solver_step_needs_an_inverse(self, monkeypatch, tmp_path, capsys):
        # 1 is no inverse of B's coefficient 2 mod 3, so a step that picks
        # x(gB) misses its own constraint
        monkeypatch.setattr(kernels, "pow", lambda base, exp, mod: 1, raising=False)
        with pytest.raises(AssertionError, match="solver step failed to satisfy its constraint"):
            self.run_p3_kernel(tmp_path)
        assert capsys.readouterr().out == ""

    def test_preimage_needs_the_pick_lemma(self, monkeypatch, tmp_path, capsys):
        # every site picks e, so site A overwrites x(A), which the
        # constraint at e, solved first, reads: each step still holds
        monkeypatch.setattr(kernels, "_picks", lambda stencil, rank: dict.fromkeys((None, *range(2 * rank)), 0))
        with pytest.raises(AssertionError, match="preimage re-verification failed"):
            self.run_p3_kernel(tmp_path)
        assert capsys.readouterr().out == ""


@st.composite
def centered_stencils(draw):
    """A nonzero scalar kernel of rank 1..3 with support in B(3), centered."""
    rank, p = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    ids = draw(st.sets(st.integers(0, ball_size(rank, 3) - 1), min_size=1, max_size=5))
    tree = CayleyTree(rank)
    k = ConvolutionKernel(p, rank, {tree.word(i): [[draw(st.integers(1, p - 1))]] for i in ids})
    return _centered(k)[0]


class TestPickLemma:
    @settings(deadline=None)
    @given(centered_stencils())
    def test_each_pick_escapes_the_earlier_hulls(self, k):
        # the solver's pick at every site of B(4) is a support word u with
        # g·u outside the union of the earlier translated hulls, on words
        rank, tree = k.rank, CayleyTree(k.rank)
        stencil, hull = _stencil(k, tree), support_geometry(k).hull
        picks = _picks(stencil, rank)
        for g, covered in word_walk(ball_list(rank, 4), hull):
            cancel = letter_slots(g.letters[-1:])[0] ^ 1 if g.letters else None
            u = tree.word(stencil[picks[cancel]][0])
            assert u in k.coeffs
            assert mul(g, u) not in covered

    @pytest.mark.parametrize("coeffs", [{"e": 1, "aaaaaaa": 1}, {"e": 1, "a": 1}])
    def test_shorter_pick_on_odd_diameters(self, coeffs):
        # the centered hulls {A^3 .. a^4} and {e, a} have odd diameter, so
        # after a letter whose inverse leads to the only rho-long words the
        # pick has length rho - 1; the preimages still solve
        k = scalar_kernel(2, 2, coeffs)
        centered, _, geo = _centered(k)
        stencil = _stencil(centered, CayleyTree(2))
        lengths = {len(stencil[f][1]) for f in _picks(stencil, 2).values()}
        assert lengths == {geo.radius - 1, geo.radius}
        rng = random.Random(9)
        for n in (1, 2):
            y = {g: rng.randrange(2) for g in ball(2, n)}
            x = preimage_on_ball(k, y, n)
            for g in ball(2, n):
                assert k.evaluate(x, g) == (y[g],)


class TestJson:
    def test_round_trip(self):
        k = edge_kernel()
        data = k.to_json()
        assert data == {
            "p": 2,
            "rank": 2,
            "d_in": 1,
            "d_out": 1,
            "coeffs": {"e": [[1]], "A": [[1]]},
        }
        assert ConvolutionKernel.from_json(data).coeffs == k.coeffs

    def test_matrix_round_trip(self):
        k = ow_kernel()
        k2 = ConvolutionKernel.from_json(k.to_json())
        assert k2.coeffs == k.coeffs and k2.d_out == 2


class TestTargetMap:
    def test_ow_target_rank_full(self):
        m, _ = target_map_matrix(ow_kernel(), ball(2, 1))
        assert fp_rank(m) == m.rows == 10

    def test_windows_of_another_rank_are_refused(self):
        # a rank-3 ball read as rank-2 ids would give a 7x15 matrix and a
        # 6-dimensional marginal over words like aa, ab; the rank-3 copy of
        # B(1) at rank 2 has the ids of the cached rank-2 window
        k = scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})
        sub = KernelSubshift(k)
        sub.marginal(ball(2, 1))
        same_ids = WordSet(3, [parse_word(t, 3) for t in ("e", "a", "A", "b", "B")])
        assert same_ids.ids() == ball(2, 1).ids()
        for W in (ball(3, 1), ball(1, 1), same_ids):
            with pytest.raises(ValueError, match="rank mismatch"):
                target_map_matrix(k, W)
            with pytest.raises(ValueError, match="rank mismatch"):
                sub.marginal(W)
            with pytest.raises(ValueError, match="rank mismatch"):
                window_rows(k, W)
            with pytest.raises(ValueError, match="rank mismatch"):
                constraint_sites(k, W)


# -- the onto-ness path on word ids ---------------------------------------------


def nonzero_b1_stencils():
    """All 273 nonzero scalar stencils supported in B(1) at rank 2, p = 2, 3."""
    pool = list(ball(2, 1))
    out = []
    for p in (2, 3):
        for coeffs in product(range(p), repeat=len(pool)):
            if any(coeffs):
                out.append(ConvolutionKernel(p, 2, {u: [[c]] for u, c in zip(pool, coeffs) if c}))
    return out


# stencils off B(1) (p=3 {A:1, b:2} is among the 273), two of them centered
# away from e, and one each at rank 1 and rank 3
ODD_STENCILS = [
    scalar_kernel(2, 2, {"aa": 1, "ab": 1}),
    scalar_kernel(3, 2, {"ab": 1, "aB": 2}),
    scalar_kernel(3, 1, {"e": 1, "a": 2, "AA": 1}),
    scalar_kernel(2, 3, {"e": 1, "c": 1, "Bc": 1}),
]


def stencil_id(k):
    coeffs = ",".join(f"{u}:{b[0][0]}" for u, b in k.to_json()["coeffs"].items())
    return f"p{k.p}-r{k.rank}-{{{coeffs}}}"


class TestIdPathMatchesWordOracle:
    def test_stencil_count(self):
        assert len(nonzero_b1_stencils()) == 273

    @pytest.mark.parametrize("k", nonzero_b1_stencils() + ODD_STENCILS, ids=stencil_id)
    def test_matches_word_level_oracle(self, k):
        assert is_surjective(k).to_json() == old_surjectivity_certificate(k)
        for n in (0, 1):
            m, cols = target_map_matrix(k, ball(k.rank, n))
            want, want_cols = old_target_map_matrix(k, ball(k.rank, n))
            assert (m.entries, m.cols, cols) == (want.entries, want.cols, want_cols)
        rng = random.Random(stencil_id(k))
        for n in (1, 2):
            y = {g: rng.randrange(k.p) for g in ball(k.rank, n)}
            x = preimage_on_ball(k, y, n)
            assert all(isinstance(g, FreeWord) for g in x)
            for g in ball(k.rank, n):
                assert k.evaluate(x, g) == (y[g],)

    def test_matrix_kernel_target_map(self):
        # two input channels, and blocks with a zero column, check that
        # every channel of each id read gets its own column
        plateau = ConvolutionKernel(2, 2, {w("B"): [[1, 0], [0, 0]], w("a"): [[0, 1], [1, 0]]}, 2, 2)
        rng, wide = random.Random(21), []
        for _ in range(6):
            support = rng.sample(list(ball(2, 1)), rng.randint(1, 3))
            blocks = ([[1, 0]], [[0, 2]], [[1, 1]])
            wide.append(ConvolutionKernel(3, 2, {u: rng.choice(blocks) for u in support}, 2, 1))
        for k in (ow_kernel(), comparison_kernel(3, 2), plateau, *wide):
            for n in (0, 1, 2):
                m, cols = target_map_matrix(k, ball(2, n))
                want, want_cols = old_target_map_matrix(k, ball(2, n))
                assert (m.entries, cols) == (want.entries, want_cols)


class TestWordFreeOntoPath:
    def test_no_word_products_on_a_centered_stencil(self, monkeypatch):
        # a deterministic count: the onto-ness path runs on ids, so neither
        # a word product nor a word comparison may happen inside it
        k = scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})
        y = {g: (len(g) + 1) % 3 for g in ball(2, 2)}
        W = ball(2, 1)
        calls = []
        real_mul, real_eq = words.mul, FreeWord.__eq__
        counting = lambda a, b: calls.append("mul") or real_mul(a, b)
        for module in (words, kernels):
            monkeypatch.setattr(module, "mul", counting)
        monkeypatch.setattr(FreeWord, "__eq__", lambda a, b: calls.append("eq") or real_eq(a, b))
        assert is_surjective(k).surjective
        target_map_matrix(k, W)
        x = preimage_on_ball(k, y, 2)
        assert calls == []
        monkeypatch.undo()
        for g in ball(2, 2):
            assert k.evaluate(x, g) == (y[g],)
