import hashlib
import json
import random
from itertools import product

import fplinear_oracles as oracle
import pytest
from hypothesis import given, settings, strategies as st

from flab import fplinear, kernels, words
from flab.fplinear import (
    AffineSolutionSet,
    FpMatrix,
    eliminate_columns,
    rank,
    solution_space_from_constraints,
    solve,
)
from flab.kernels import scalar_kernel, target_map_matrix
from flab.words import ball


def transpose(m: FpMatrix) -> FpMatrix:
    return FpMatrix(m.p, [list(col) for col in zip(*m.entries)], cols=m.rows)


def mul_vector(m: FpMatrix, v) -> tuple[int, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) % m.p for row in m.entries)


def fields(s: AffineSolutionSet) -> tuple:
    return (s.p, s.keys, s.particular, s.basis, s.pivots)


class TestRank:
    def test_identity_mod2(self):
        m = FpMatrix(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(m) == 3

    def test_repeated_rows_mod2(self):
        assert rank(FpMatrix(2, [[1, 1], [1, 1]])) == 1

    def test_rank_equals_transpose_rank_random(self):
        rng = random.Random(0)
        for _ in range(30):
            m = FpMatrix(3, [[rng.randrange(3) for _ in range(9)] for _ in range(6)])
            assert rank(m) == rank(transpose(m))

    def test_rank_nullity(self):
        rng = random.Random(1)
        for p in (2, 3, 5):
            for _ in range(15):
                m = FpMatrix(p, [[rng.randrange(p) for _ in range(7)] for _ in range(4)])
                assert rank(m) + solve(m, [0] * m.rows).dimension == m.cols

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            FpMatrix(4, [[1]])


class TestSolve:
    def test_identity_system(self):
        m = FpMatrix(3, [[1, 0], [0, 1]])
        s = solve(m, [2, 1])
        assert not s.is_empty() and s.dimension == 0
        assert s.particular == (2, 1)

    def test_zero_matrix(self):
        m = FpMatrix(2, [[0, 0, 0]])
        s = solve(m, [0])
        assert s.dimension == 3

    def test_inconsistent(self):
        m = FpMatrix(2, [[1], [1]])
        s = solve(m, [0, 1])
        assert s.is_empty()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(FpMatrix(2, [[1, 0]]), [1, 0])

    def test_members_satisfy_system(self):
        rng = random.Random(2)
        for p in (2, 3):
            for _ in range(20):
                m = FpMatrix(p, [[rng.randrange(p) for _ in range(5)] for _ in range(3)])
                b = [rng.randrange(p) for _ in range(3)]
                s = solve(m, b)
                if s.is_empty():
                    # cross-check emptiness by brute force on small systems
                    assert not any(
                        mul_vector(m, v) == tuple(b)
                        for v in product(range(p), repeat=5)
                    )
                    continue
                for v in oracle.members(s):
                    assert mul_vector(m, v) == tuple(x % p for x in b)
                brute = {v for v in product(range(p), repeat=5) if mul_vector(m, v) == tuple(b)}
                assert set(oracle.members(s)) == brute


class TestProjection:
    """The reference projection in fplinear_oracles, which the kernel tests
    read marginals against, built with the canonicalizing constructor and
    checked against enumeration and the library's column elimination."""

    def test_project_everything(self):
        m = FpMatrix(2, [[1, 1, 0]])
        s = solve(m, [0])
        assert oracle.project(s, s.keys) == s

    def test_project_point(self):
        m = FpMatrix(3, [[1, 0], [0, 1]])
        s = solve(m, [1, 2])
        proj = oracle.project(s, (0,))
        assert proj.dimension == 0 and oracle.members(proj) == [(1,)]

    def test_projection_is_full_space(self):
        # x0 + x1 = 0 mod 2 on three variables, projected onto {x0, x2}
        m = FpMatrix(2, [[1, 1, 0]])
        s = solve(m, [0])
        proj = oracle.project(s, (0, 2))
        assert proj.dimension == 2
        assert set(oracle.members(proj)) == set(product(range(2), repeat=2))
        assert proj == solution_space_from_constraints(eliminate_columns([{0: 1, 1: 1}], [1], 2), (0, 2), 2)

    def test_project_onto_key_subset(self):
        # labelled keys: x + y = 0 mod 2, projected onto {x, z}
        s = AffineSolutionSet(2, ("x", "y", "z"), (0, 0, 0), [(1, 1, 0), (0, 0, 1)])
        proj = oracle.project(s, ("x", "z"))
        assert proj.keys == ("x", "z") and proj.dimension == 2

    def test_out_of_range(self):
        s = solve(FpMatrix(2, [[1, 1]]), [0])
        with pytest.raises(ValueError):
            oracle.project(s, (5,))

    def test_against_enumeration_oracle(self):
        rng = random.Random(3)
        for p in (2, 3):
            for _ in range(20):
                m = FpMatrix(p, [[rng.randrange(p) for _ in range(6)] for _ in range(3)])
                b = [rng.randrange(p) for _ in range(3)]
                s = solve(m, b)
                if s.is_empty():
                    continue
                keep = tuple(sorted(rng.sample(range(6), rng.randint(1, 4))))
                proj = oracle.project(s, keep)
                brute = {tuple(v[c] for c in keep) for v in oracle.members(s)}
                assert set(oracle.members(proj)) == brute
                assert proj.dimension <= min(len(keep), s.dimension)
                # the homogeneous part is what the library's elimination projects
                rows = [{c: v for c, v in enumerate(row) if v} for row in m.entries]
                drop = [c for c in range(6) if c not in keep]
                linear = solution_space_from_constraints(eliminate_columns(rows, drop, p), keep, p)
                assert linear.basis == proj.basis


class TestCanonicalForm:
    def test_equal_sets_have_equal_representations(self):
        # same solution set presented by different generating data
        a = AffineSolutionSet(2, (0, 1, 2), (1, 1, 0), [(1, 1, 0), (0, 0, 1)])
        b = AffineSolutionSet(2, (0, 1, 2), (0, 0, 1), [(0, 0, 1), (1, 1, 0)])
        assert a == b

    def test_contains(self):
        s = AffineSolutionSet(2, (0, 1), (1, 0), [(1, 1)])
        assert s.contains((1, 0)) and s.contains((0, 1))
        assert not s.contains((1, 1))


class TestSparseElimination:
    def test_projection_matches_dense_route(self):
        # eliminate, then solve on the kept columns, against brute-force
        # enumeration of the full system projected onto them
        rng = random.Random(4)
        for p in (2, 3):
            for _ in range(25):
                ncols = 8
                rows = []
                for _ in range(5):
                    row = {c: rng.randrange(p) for c in rng.sample(range(ncols), 3)}
                    rows.append(row)
                keep = sorted(rng.sample(range(ncols), 3))
                eliminate = [c for c in range(ncols) if c not in keep]
                reduced = eliminate_columns(rows, eliminate, p)
                assert all(set(r) <= set(keep) for r in reduced)
                got = solution_space_from_constraints(reduced, keep, p)
                want = {
                    tuple(x[c] for c in keep)
                    for x in product(range(p), repeat=ncols)
                    if all(sum(v * x[c] for c, v in row.items()) % p == 0 for row in rows)
                }
                assert set(oracle.members(got)) == want

    def test_empty_elimination(self):
        rows = [{0: 1, 1: 1}]
        assert eliminate_columns(rows, [], 2) == [{0: 1, 1: 1}]


class TestRowOrder:
    def test_permuted_rows_give_equal_solution_sets(self):
        # RREF and the reduced particular point are unique, so the pivot
        # order (first row in insertion order) cannot change the result
        rng = random.Random(6)
        for p in (2, 3, 5):
            for _ in range(40):
                nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
                m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
                x = [rng.randrange(p) for _ in range(ncols)]
                b = [sum(a * v for a, v in zip(row, x)) % p for row in m]
                if nrows and rng.random() < 0.3:
                    b[rng.randrange(nrows)] += 1
                perm = rng.sample(range(nrows), nrows)
                s = solve(FpMatrix(p, m, cols=ncols), b)
                t = solve(FpMatrix(p, [m[i] for i in perm], cols=ncols), [b[i] for i in perm])
                assert s == t and s.pivots == t.pivots
                if not s.is_empty():
                    assert s == AffineSolutionSet(p, s.keys, s.particular, s.basis)
                sparse = [{c: a for c, a in enumerate(row) if a} for row in m]
                u = solution_space_from_constraints([sparse[i] for i in perm], range(ncols), p)
                assert u == solve(FpMatrix(p, m, cols=ncols), [0] * nrows)


@st.composite
def systems(draw):
    """A matrix over Z/pZ and a list of right-hand sides for it."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    residues = st.integers(0, p - 1)
    entries = draw(
        st.lists(st.lists(residues, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    targets = draw(
        st.lists(st.lists(residues, min_size=nrows, max_size=nrows), min_size=1, max_size=12)
    )
    return p, ncols, entries, targets


class TestCachedFactorization:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_reused_matrix_matches_fresh_matrix_and_brute_force(self, system):
        p, ncols, entries, targets = system
        m, again = FpMatrix(p, entries, cols=ncols), FpMatrix(p, entries, cols=ncols)
        forward = [solve(m, b) for b in targets]
        backward = [solve(again, b) for b in reversed(targets)][::-1]
        for b, got, back in zip(targets, forward, backward):
            want = solve(FpMatrix(p, entries, cols=ncols), b)
            assert fields(got) == fields(back) == fields(want)
            if not got.is_empty():
                assert fields(got) == fields(AffineSolutionSet(p, got.keys, got.particular, got.basis))
            if p**ncols <= 1 << 10:
                brute = {v for v in product(range(p), repeat=ncols) if mul_vector(m, v) == tuple(b)}
                assert set(oracle.members(got, limit=1 << 10)) == brute
        assert rank(m) == rank(FpMatrix(p, entries, cols=ncols))

    def test_one_factorization_answers_every_target(self, monkeypatch):
        k = scalar_kernel(3, 2, {"e": 1, "a": 1, "B": 2})
        m, _ = target_map_matrix(k, ball(2, 1))
        calls = []
        real = fplinear.eliminate

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fplinear, "eliminate", counting)
        assert not solve(m, [0] * m.rows).is_empty()
        first = len(calls)
        targets = list(product(range(3), repeat=m.rows))
        assert all(not solve(m, list(y)).is_empty() for y in targets)
        assert rank(m) == m.rows
        assert len(targets) == 243 and 0 < first <= 2 and len(calls) == first

    def test_matrix_stays_immutable(self):
        m = FpMatrix(3, [[1, 2], [0, 1]])
        solve(m, [1, 1])
        for name in ("p", "rows", "cols", "entries", "_factors", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m.entries == ((1, 2), (0, 1)) and rank(m) == 2


class TestSolveKeys:
    m = FpMatrix(3, [[1, 2, 0], [0, 1, 1]])

    def test_keys_are_the_column_indices(self):
        for b in product(range(3), repeat=2):
            assert solve(self.m, list(b)).keys == (0, 1, 2)

    def test_wrong_sizes_still_raise(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(self.m, [0, 0, 0])

    def test_solved_sets_stay_immutable(self):
        inconsistent = FpMatrix(2, [[1], [1]])
        solved = [solve(self.m, [1, 1]), solve(inconsistent, [0, 1])]
        assert solved[1].is_empty()
        for s in solved:
            for name in ("p", "keys", "particular", "basis", "pivots", "other"):
                with pytest.raises(AttributeError):
                    setattr(s, name, None)
                with pytest.raises(AttributeError):
                    delattr(s, name)


class TestSolutionSetShape:
    s = AffineSolutionSet(3, ["x", "y"], [1, 0], [[1, 2]])

    def test_vectors_of_the_wrong_length_are_refused(self):
        assert self.s.contains([1, 0]) and self.s.contains([2, 2])
        assert not self.s.contains([0, 0])
        # `in` tests membership too, not whether a field equals the operand
        assert (2, 2) in self.s and (0, 0) not in self.s
        with pytest.raises(ValueError, match="wrong length"):
            self.s.basis in self.s
        empty = solve(FpMatrix(2, [[1], [1]]), [0, 1])
        for s, bad in ((self.s, [1]), (self.s, [1, 0, 2]), (self.s, []), (empty, [0, 0])):
            with pytest.raises(ValueError, match="wrong length"):
                s.contains(bad)

    def test_basis_rows_of_the_wrong_length_are_refused(self):
        with pytest.raises(ValueError, match="basis row"):
            AffineSolutionSet(3, ["x"], [0], [[0, 1]])
        with pytest.raises(ValueError, match="basis row"):
            AffineSolutionSet(3, ["x", "y"], [0, 0], [[1]])
        with pytest.raises(ValueError, match="particular"):
            AffineSolutionSet(3, ["x", "y"], [0], [])

    def test_duplicate_keys_are_refused(self):
        # a lookup by key would read the last "x", whose coordinate the basis pins
        with pytest.raises(ValueError, match="duplicate keys"):
            AffineSolutionSet(3, ["x", "x"], [0, 0], [[1, 0]])
        with pytest.raises(ValueError, match="duplicate keys"):
            AffineSolutionSet(3, ["x", "x"], None, [])
        with pytest.raises(ValueError, match="duplicate keys"):
            solution_space_from_constraints([{"x": 1}], ["x", "y", "x"], 3)

    def test_a_constraint_outside_the_keys_is_refused(self):
        with pytest.raises(ValueError, match="'z'"):
            solution_space_from_constraints([{"z": 1}], ["x", "y"], 3)
        assert solution_space_from_constraints([{"y": 1}], ["x", "y"], 3).dimension == 1


class TestMatrixShape:
    def test_cols_must_match_the_row_width(self):
        with pytest.raises(ValueError, match="cols=5"):
            FpMatrix(3, [[1, 2]], cols=5)
        assert FpMatrix(3, [[1, 2]], cols=2).cols == 2
        # with no rows, cols is the only record of the width
        assert FpMatrix(3, [], cols=5).cols == 5 and FpMatrix(3, []).cols == 0


class TestSolutionSetTuple:
    m = FpMatrix(3, [[1, 2, 0], [0, 1, 1]])

    def test_the_tuple_of_its_five_fields(self):
        for s in (solve(self.m, [1, 2]), solve(FpMatrix(2, [[1], [1]]), [0, 1])):
            assert isinstance(s, tuple) and tuple(s) == fields(s)

    def test_equal_only_to_solution_sets(self):
        s = solve(self.m, [1, 2])
        t = AffineSolutionSet(s.p, s.keys, s.particular, s.basis)
        assert s == t and not s != t and hash(s) == hash(t)
        plain = tuple(s)
        assert s != plain and plain != s and not s == plain and not plain == s
        assert plain not in {s} and s in {t}

    def test_not_ordered(self):
        s = solve(self.m, [1, 2])
        for a, b in ((s, s), (s, tuple(s)), (tuple(s), s), (s, 0)):
            for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
                with pytest.raises(TypeError):
                    compare()


def oracle_cases(p: int, rng: random.Random):
    """(entries, column count) of random and degenerate matrices over Z/pZ."""
    cases = [([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3), ([[1, 1], [1, 1]], 2)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        cases.append(([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols))
    return cases


class TestSolveMatchesParentOracle:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_target_field_for_field(self, p):
        seen = {"empty": 0, "solvable": 0, "multi-tag": 0}
        for entries, ncols in oracle_cases(p, random.Random(p)):
            m = FpMatrix(p, entries, cols=ncols)
            factors = oracle.factorization(p, entries, ncols)
            for b in product(range(p), repeat=len(entries)):
                want = oracle.solve(p, entries, ncols, b, factors=factors)
                assert fields(solve(m, list(b))) == want
                seen["empty" if want[2] is None else "solvable"] += 1
            assert rank(m) == len(factors[1])
            seen["multi-tag"] += len(fplinear._factorization(m)[2])
        assert all(seen.values()), seen


# sha256 of each stencil's onto-ness certificate, solvable-target counts on
# B(0) and B(1), and preimage of a fixed B(2) target, recorded before the
# point map was compiled into the factorization; re-recorded once when the
# certificate lost its always-true `identity_is_center`, each equal to the
# old text with that key deleted; re-recorded once more when the preimage
# solver's escape walk gave way to the centered-hull lemma: the certificate
# lost `ordering_depth` and `ordering_condition`, the counts stayed, and all
# four preimages changed, each still solving its target on B(2)
ONTO_PINS = {
    (2, "e:1,a:1"): "e0bb28147c47267c20377627f1dfcde48706839d1e0e236853113959681d3b2d",
    (2, "e:1,A:1,b:1,B:1"): "fac8a84935f5ddda6141d9d482860efa0cd479361569612017f2ce66ab3d312b",
    (3, "e:1,A:1,B:2"): "ad7d6e9be1ca12483359f234e927696d4566f2cfc001a54fb6b2e4f607235184",
    (3, "e:1,a:2,A:1,b:1,B:2"): "d8675b352b7d0c240cd920fbb0ee139eaea56cf18de2d16b6f3dca8527610cb3",
}


@pytest.mark.parametrize("p, stencil", sorted(ONTO_PINS))
def test_onto_oracle_stencils_are_pinned(p, stencil):
    k = scalar_kernel(p, 2, dict((t, int(c)) for t, c in (pair.split(":") for pair in stencil.split(","))))
    solvable = {}
    for n in (0, 1):
        m, _ = target_map_matrix(k, ball(2, n))
        solvable[f"B({n})"] = sum(1 for y in product(range(p), repeat=m.rows) if not solve(m, list(y)).is_empty())
        assert solvable[f"B({n})"] == p**m.rows and rank(m) == m.rows
        assert len(fplinear._factorization(m)[2]) <= 1
    target = {g: (i * i + 1) % p for i, g in enumerate(words.ball_list(2, 2))}
    x = kernels.preimage_on_ball(k, target, 2)
    assert all(k.evaluate(x, g) == (v,) for g, v in target.items())
    text = json.dumps(
        {
            "surjectivity": kernels.is_surjective(k).to_json(),
            "solvable": solvable,
            "preimage": [[words.format_word(g), v] for g, v in sorted(x.items(), key=lambda kv: kv[0].sort_key())],
        },
        sort_keys=True,
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ONTO_PINS[p, stencil]
