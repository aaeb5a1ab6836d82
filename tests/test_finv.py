import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flab import words
from flab.entropy import EntropyValue, FinitePartition, join, join_many, shannon_entropy
from flab.finv import (
    F_of,
    F_star_of,
    FReport,
    abramov_rokhlin_check,
    addition_report,
    exact_f_finite,
    full_report,
    generator_entropy_rate,
    is_exact,
)
from flab.groups import cyclic, preset_group
from flab.kernels import ConvolutionKernel, ow_kernel, scalar_kernel
from flab.presets import (
    group_action,
    make_rng,
    random_finite_action,
    random_partition,
    skew_test_cases,
    trivial_action,
)
from flab.processes import (
    BernoulliProcess,
    FiniteActionProcess,
    KernelProcess,
    SkewProductProcess,
)
from flab.skew import FiniteAction, FiniteGroupAction, SpecialPartition, sigma_generated
from flab.words import WordSet, ball, ball_list, generator, parse_word

F = Fraction


def edge_process(p=2):
    return KernelProcess(scalar_kernel(p, 2, {"e": 1, "A": 1}))


def points_process(group, rank=2, autos=None):
    act = trivial_action(group, rank) if autos is None else group_action(group, autos, rank)
    return FiniteActionProcess(
        act,
        FinitePartition.points(FinitePartition.uniform_space(group.order())),
        group.name,
    )


class TestFOf:
    def test_bernoulli_rows_constant(self):
        proc = BernoulliProcess(2, 2)
        for n in range(3):
            assert F_of(proc, n) == EntropyValue.log_int(2)

    def test_bernoulli_rank3(self):
        proc = BernoulliProcess(3, 3)
        for n in range(3):
            assert F_of(proc, n) == EntropyValue.log_int(3)

    def test_edge_kernel_zero_rows(self):
        proc = edge_process()
        assert F_of(proc, 0).is_zero()
        assert F_of(proc, 1).is_zero()

    def test_finite_group_rows(self):
        proc = points_process(preset_group("Z/4"))
        for n in range(3):
            assert F_of(proc, n) == -1 * EntropyValue.log_int(4)

    def test_matches_raw_join_recomputation(self):
        # recompute from materialized window partitions rather than entropy queries
        proc = points_process(preset_group("D4"), autos=[1, 2])
        r = proc.rank
        for n in (0, 1):
            b = ball(r, n)
            base = proc.action.window_partition(proc.partition, b)
            total = (1 - 2 * r) * shannon_entropy(base)
            for i in range(1, r + 1):
                s = parse_word("ab"[i - 1], 2)
                moved = base.apply_permutation(proc.action.word_perm(s))
                total = total + shannon_entropy(join(base, moved))
            assert total == F_of(proc, n)


class TestRates:
    def test_bernoulli_rate_is_log_k(self):
        proc = BernoulliProcess(2, 3)
        rate = generator_entropy_rate(proc, 1, WordSet(2, [parse_word("e", 2)]))
        assert rate.value == EntropyValue.log_int(3)
        assert rate.kind == "EXACT-IID" and len(rate.increments) == 1

    def test_edge_kernel_axis_rates(self):
        proc = edge_process()
        W = WordSet(2, [parse_word("e", 2)])
        along = generator_entropy_rate(proc, 1, W)
        across = generator_entropy_rate(proc, 2, W)
        assert along.value.is_zero() and along.kind == "EXACT-ZERO"
        assert across.value == EntropyValue.log_int(2)

    def test_finite_systems_have_zero_rates(self):
        proc = points_process(preset_group("D4"), autos=[1, 0])
        rate = generator_entropy_rate(proc, 1, ball(2, 1))
        assert rate.value.is_zero() and rate.kind == "EXACT-ZERO"

    def test_increments_nonincreasing(self):
        rng = make_rng(8)
        act = random_finite_action(rng)
        procs = [
            BernoulliProcess(2, 2),
            edge_process(),
            points_process(preset_group("Z/2xZ/2"), autos=[1, 2]),
            points_process(preset_group("Q8"), autos=[2, 3]),
            FiniteActionProcess(act, random_partition(rng, act.size()), "rnd"),
        ]
        for proc in procs:
            for i in (1, 2):
                rate = generator_entropy_rate(proc, i, ball(2, 1))
                for a, b in zip(rate.increments, rate.increments[1:]):
                    assert b <= a


def direct_increments(proc, i, W, count):
    """H(U_m) - H(U_{m-1}) for m = 1..count, from window queries alone."""
    s = generator(proc.rank, i)
    U = T = W
    prev, out = proc.entropy(W), []
    for _ in range(count):
        T = T.translate(s)
        U = U.union(T)
        value = proc.entropy(U)
        out.append(value - prev)
        prev = value
    return out


def assert_settled(proc, i, W):
    """The rate equals every increment from its stop to 8 steps past it."""
    rate = generator_entropy_rate(proc, i, W)
    stop = len(rate.increments)
    later = direct_increments(proc, i, W, stop + 8)
    assert later[:stop] == rate.increments
    assert all(d == rate.value for d in later[stop - 1 :]), (rate, later)
    return rate


def random_kernel(rng):
    """A nonzero stencil of rank 1-3: scalar or matrix (d_in, d_out <= 2),
    p = 2 or 3, up to three support words in B(1), or in B(2) on the line."""
    rank = rng.randint(1, 3)
    p, d_in, d_out = rng.choice([2, 3]), rng.randint(1, 2), rng.randint(1, 2)
    pool = ball_list(rank, 2 if rank == 1 else 1)
    while True:
        coeffs = {
            w: [[rng.randrange(p) for _ in range(d_in)] for _ in range(d_out)]
            for w in rng.sample(pool, rng.randint(1, 3))
        }
        k = ConvolutionKernel(p, rank, coeffs, d_in, d_out)
        if not k.is_zero():
            return k


class TestExactRates:
    """Each rate is pinned by an argument, not by equal increments (see
    finv.generator_entropy_rate); later increments must agree with it."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kernel_rates_hold_past_the_stop(self, seed):
        proc = KernelProcess(random_kernel(make_rng(seed)))
        for n in (0, 1):
            for i in range(1, proc.rank + 1):
                rate = assert_settled(proc, i, ball(proc.rank, n))
                assert rate.kind in ("EXACT-ZERO", "EXACT-MARKOV")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bernoulli_rates_hold_past_the_stop(self, seed):
        rng = make_rng(seed)
        rank = rng.randint(1, 3)
        pool = ball_list(rank, 2)
        W = WordSet(rank, rng.sample(pool, rng.randint(1, 5)))
        proc = BernoulliProcess(rank, rng.randint(2, 4))
        for i in range(1, rank + 1):
            assert assert_settled(proc, i, W).kind == "EXACT-IID"

    def test_bernoulli_rate_counts_cosets(self):
        # {e, a^2} meets one coset of <a> and two of <b>; the first
        # a-increment, 2 log 2, is not yet the rate
        W = WordSet(2, [parse_word("e", 2), parse_word("aa", 2)])
        proc = BernoulliProcess(2, 2)
        along, across = (assert_settled(proc, i, W) for i in (1, 2))
        assert along.value == EntropyValue.log_int(2) and len(along.increments) == 2
        assert across.value == 2 * EntropyValue.log_int(2) and len(across.increments) == 1

    def test_period_four_kernel_rate_is_zero(self):
        # x(g a^4) = x(g): four equal increments log 2, then a zero one
        proc = KernelProcess(scalar_kernel(2, 2, {"e": 1, "aaaa": 1}))
        rate = assert_settled(proc, 1, ball(2, 0))
        assert rate.value.is_zero() and rate.kind == "EXACT-ZERO"
        assert len(rate.increments) == 4

    def test_period_seven_kernel_rate_on_ball_one(self):
        # three equal increments 3 log 2 come before the rate 2 log 2, and
        # F*(1) = 0, as the addition theorem gives for this onto scalar
        proc = KernelProcess(scalar_kernel(2, 2, {"e": 1, "aaaaaaa": 1}))
        value, rates = F_star_of(proc, 1)
        assert rates[0].increments[:3] == [3 * EntropyValue.log_int(2)] * 3
        assert rates[0].value == 2 * EntropyValue.log_int(2)
        assert rates[0].kind == "EXACT-MARKOV"
        assert value.is_zero()

    def test_kernel_rates_stop_at_once_past_the_hull_radius(self):
        # W = B(n) with n >= rho: no hidden state is left, Bowen's Markov case
        for kernel in (ow_kernel(), scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})):
            _, rates = F_star_of(KernelProcess(kernel), 1)
            assert [len(rate.increments) for rate in rates] == [1, 1]

    def test_finite_rate_past_the_atom_bound_raises(self):
        # a positive increment at step (positive-weight atoms) is impossible
        # on a finite model, so a process claiming one is an error, not a label
        class Growing(FiniteActionProcess):
            def entropy(self, W):
                return len(W) * EntropyValue.log_int(2)

        act = random_finite_action(make_rng(5))
        proc = Growing(act, FinitePartition.points(act.weights))
        with pytest.raises(AssertionError, match="zero-increment bound"):
            generator_entropy_rate(proc, 1, ball(2, 0))


class TestFStar:
    def test_edge_kernel_f_star_zero(self):
        value, rates = F_star_of(edge_process(), 0)
        assert value.is_zero()
        assert rates[0].value.is_zero()
        assert rates[1].value == EntropyValue.log_int(2)

    def test_bernoulli(self):
        value, _ = F_star_of(BernoulliProcess(2, 2), 0)
        assert value == EntropyValue.log_int(2)

    def test_finite_group_points(self):
        proc = points_process(preset_group("Z/4"), autos=[1, 0])
        value, rates = F_star_of(proc, 0)
        assert value == -1 * EntropyValue.log_int(4)
        assert [rate.kind for rate in rates] == ["EXACT-ZERO", "EXACT-ZERO"]


class TestReports:
    def test_finite_group_exact(self):
        for name in ("Z/4", "Z/2xZ/2", "D4"):
            proc = points_process(preset_group(name))
            f, rep = exact_f_finite(proc)
            assert f == -1 * EntropyValue.log_int(proc.action.size())
            assert rep.f_exact()
            assert rep.f_value == rep.f_star_value

    def test_ow_group_via_kernel(self):
        rep = full_report(KernelProcess(ow_kernel()), 2)
        assert rep.f_value == -1 * EntropyValue.log_int(2)
        assert rep.certificate == "EXACT-STABILIZED"
        assert rep.f_star_value == -1 * EntropyValue.log_int(2)

    def test_ow_group_via_finite_model(self):
        # the kernel of the doubling map is two constants: a trivial Z/2 action
        proc = points_process(cyclic(2))
        f, rep = exact_f_finite(proc)
        assert f == -1 * EntropyValue.log_int(2)

    def test_bernoulli_exact_iid(self):
        rep = full_report(BernoulliProcess(2, 4), 2)
        assert rep.f_value == EntropyValue.log_int(4)
        assert rep.certificate == "EXACT-IID"
        assert rep.f_star_value == EntropyValue.log_int(4)

    def test_edge_kernel_markov_tail(self):
        # F and F* are constant from the hull radius rho = 1 on
        rep = full_report(edge_process(), 2)
        assert rep.f_value.is_zero() and rep.f_star_value.is_zero()
        assert rep.certificate == "EXACT-MARKOV" and rep.stabilized_at is None

    def test_rows_carry_no_running_infima(self):
        # f and f* are read off the tail row, so a row holds only its own values
        rep = full_report(points_process(preset_group("D4"), autos=[3, 1]), 3)
        for row in rep.to_json()["rows"]:
            assert sorted(row) == ["F", "F_star", "n", "rates"]

    def test_exact_processes_have_matching_columns(self):
        # the f = f* identity, as a test, on every exact report available here
        reports = [
            full_report(points_process(preset_group("Z/4"), autos=[1, 1]), 2),
            full_report(points_process(preset_group("Q8"), autos=[5, 7]), 2),
            full_report(BernoulliProcess(2, 3), 2),
            full_report(KernelProcess(ow_kernel()), 2),
        ]
        for rep in reports:
            assert rep.f_exact()
            assert rep.f_value == rep.f_star_value

    def test_report_json_round_trips_values(self):
        rep = full_report(BernoulliProcess(2, 2), 2)
        data = rep.to_json()
        assert EntropyValue.from_json(data["f"]["value"]) == rep.f_value
        assert data["rows"][0]["n"] == 0

    def test_bernoulli_f_and_f_star_columns(self):
        rep = full_report(BernoulliProcess(2, 2), 2)
        assert rep.f_value == rep.f_star_value == EntropyValue.log_int(2)


class TestTailArguments:
    """full_report reads f and f* off the row where a tail argument starts,
    computing rows past n_max when it must (see finv.full_report)."""

    def test_rows_run_to_the_hull_radius(self):
        # rho = 2: F(1) = log 2, and F is 0 from row 2 on
        rep = full_report(KernelProcess(scalar_kernel(2, 2, {"aa": 1, "Ab": 1})), 1)
        assert rep.n_max == 1 and [row["n"] for row in rep.rows] == [0, 1, 2]
        assert rep.rows[1]["F"] == EntropyValue.log_int(2)
        assert rep.f_value.is_zero() and rep.f_star_value.is_zero()
        assert rep.certificate == "EXACT-MARKOV"

    def test_rows_run_to_stabilization(self):
        # a on Z/5 by x -> x + 1, b trivial, observed through {0}: P^{B(n)}
        # separates 2n + 1 points, all five from n = 2 on, so f = -log 5
        act = FiniteAction(FinitePartition.uniform_space(5), [[1, 2, 3, 4, 0], range(5)], 2)
        proc = FiniteActionProcess(act, FinitePartition(act.weights, [0, 1, 1, 1, 1]))
        f, rep = exact_f_finite(proc)
        assert rep.certificate == "EXACT-STABILIZED" and rep.stabilized_at == 2
        assert len(rep.rows) == 4 and rep.rows[1]["F"] != f
        assert f == rep.f_star_value == -1 * EntropyValue.log_int(5)
        assert full_report(proc, 3).rows == rep.rows

    def test_a_marginal_breaking_the_split_raises(self):
        # mutation: one more dimension on B(1) u aB(1) breaks the fiber
        # product over B(0) u aB(0), so EXACT-MARKOV must not be printed
        proc = KernelProcess(scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2}))
        assert full_report(proc, 1).certificate == "EXACT-MARKOV"
        proc = KernelProcess(proc.kernel)
        b = ball(2, 1)
        broken = b.union(b.translate(generator(2, 1))).key()
        exact = proc.subshift.marginal

        def marginal(W):
            m = exact(W)
            return SimpleNamespace(dimension=m.dimension + 1) if W.key() == broken else m

        proc.subshift.marginal = marginal
        with pytest.raises(AssertionError, match="fiber product"):
            full_report(proc, 1)

    def test_finite_tail_past_the_atom_bound_raises(self):
        # window entropies rising at row (positive-weight atoms) are
        # impossible on a finite model, so that is an error, not a label
        act = random_finite_action(make_rng(5))
        proc = FiniteActionProcess(act, FinitePartition.points(act.weights))
        atoms = sum(1 for c in act.space.counts if c)
        assert proc.f_kind(atoms - 1) is None
        with pytest.raises(AssertionError, match="stabilization bound"):
            proc.f_kind(atoms)

    def test_a_row_past_the_tail_must_repeat_it(self):
        # a fake binary shift with one bit too many on windows past 20 words:
        # only the windows of row 2 reach that, so F(2) != F(1)
        class Drifting(BernoulliProcess):
            def entropy(self, W):
                return (len(W) + (len(W) > 20)) * EntropyValue.log_int(2)

        with pytest.raises(AssertionError, match="contradicts the EXACT-IID tail"):
            full_report(Drifting(2, 2), 2)


class TestBernoulliTriples:
    def test_ow_triple(self):
        full = full_report(BernoulliProcess(2, 2), 2)
        n_col = full_report(KernelProcess(ow_kernel()), 2)
        image = full_report(BernoulliProcess(2, 4), 2)
        verdict = addition_report(full, n_col, image)
        assert verdict["verdict"] == "EXACT-PASS"

    def test_generalization_triples(self):
        for k, r in ((2, 2), (3, 2), (2, 3), (3, 3)):
            total = full_report(BernoulliProcess(r, k), 2)
            constants = full_report(points_process(cyclic(k), rank=r), 2)
            image = full_report(BernoulliProcess(r, k**r), 2)
            verdict = addition_report(total, constants, image)
            assert verdict["verdict"] == "EXACT-PASS"
            assert constants.f_value == -(r - 1) * EntropyValue.log_int(k)

    def test_exact_fail_detected(self):
        total = full_report(BernoulliProcess(2, 2), 2)
        wrong = full_report(BernoulliProcess(2, 3), 2)
        image = full_report(BernoulliProcess(2, 4), 2)
        assert addition_report(total, wrong, image)["verdict"] == "EXACT-FAIL"

    def test_kernel_column_beside_bernoulli_columns(self):
        # log 2 = 0 + log 2, with the edge kernel's f exact by its Markov tail
        total = full_report(BernoulliProcess(2, 2), 2)
        kernel = full_report(edge_process(), 2)
        image = full_report(BernoulliProcess(2, 2), 2)
        verdict = addition_report(total, kernel, image)
        assert verdict["verdict"] == "EXACT-PASS" and verdict["exact_equality"]
        assert verdict["columns"]["a"]["certificate"] == "EXACT-MARKOV"

    def test_all_kernel_columns(self):
        kernel = full_report(edge_process(), 2)
        assert addition_report(kernel, kernel, kernel)["verdict"] == "EXACT-PASS"
        # the constants of Z/2, f = -log 2
        constants = full_report(points_process(cyclic(2)), 2)
        assert addition_report(kernel, kernel, constants)["verdict"] == "EXACT-FAIL"


class TestRelative:
    def test_trivial_cocycle_relative_equals_fiber(self):
        # independent product: conditioning on the base changes nothing
        from flab.skew import Cocycle

        rng = make_rng(12)
        base = random_finite_action(rng)
        fiber_group = preset_group("Z/4")
        fiber = FiniteGroupAction(
            fiber_group, [tuple((-x) % 4 for x in range(4)), tuple(range(4))], 2
        )
        cocycle = Cocycle(base, fiber, [[0] * base.size()] * 2)
        q = random_partition(rng, 4)
        proc = SkewProductProcess(cocycle, FinitePartition.points(base.weights), q)
        fiber_proc = proc.fiber_process()
        for n in range(2):
            lhs = F_of(proc.relative(), n)
            rhs = F_of(fiber_proc, n)
            assert lhs == rhs

    def test_base_measurable_partition_relative_zero(self):
        cases = skew_test_cases()
        cocycle = cases[0]["cocycle"]
        ny = cocycle.fiber.size()
        trivial_fiber = FinitePartition(FinitePartition.uniform_space(ny), [0] * ny)
        proc = SkewProductProcess(
            cocycle, FinitePartition.points(cocycle.base.weights), trivial_fiber
        )
        for n in range(2):
            assert F_of(proc.relative(), n).is_zero()

    def test_special_collapse_on_all_cases(self):
        # relative F* of the skew equals F* of the fiber, per n, exactly
        nontrivial_seen = 0
        for case in skew_test_cases():
            cocycle = case["cocycle"]
            sp = case["special"]
            proc = SkewProductProcess(
                cocycle, FinitePartition.points(cocycle.base.weights), sp.partition
            )
            relative = proc.relative()
            fiber_proc = proc.fiber_process()
            for n in range(3):
                lhs, _ = F_star_of(relative, n)
                rhs, _ = F_star_of(fiber_proc, n)
                assert lhs == rhs, (case["name"], n)
            if case["nontrivial_cocycle"]:
                nontrivial_seen += 1
        assert nontrivial_seen >= 3

    def test_relative_report(self):
        case = skew_test_cases()[0]
        proc = SkewProductProcess(
            case["cocycle"],
            FinitePartition.points(case["cocycle"].base.weights),
            case["special"].partition,
        )
        rep = full_report(proc.relative(), 2)
        assert rep.relative
        assert rep.f_exact()

    def test_relative_variants_agree_for_generating_partitions(self):
        # two generating partitions and both starred/unstarred relative routes
        z4 = preset_group("Z/4")
        act = group_action(z4, [1, 0], 2)
        points = FinitePartition.points(act.weights)
        other = FinitePartition(act.weights, [0, 1, 2, 2])
        other2 = join(
            FinitePartition(act.weights, [0, 0, 1, 1]),
            FinitePartition(act.weights, [0, 1, 0, 1]),
        )
        given = sigma_generated(act, FinitePartition(act.weights, [0, 1, 0, 1]))
        values = set()
        for part in (points, other2):
            proc = FiniteActionProcess(act, part, "z4", given=given)
            f_rel, rep = exact_f_finite(proc)
            assert rep.f_value == rep.f_star_value
            values.add(f_rel)
        assert len(values) == 1


class TestWindowQuery:
    @pytest.mark.parametrize("conditioned, windows", [(False, 11), (True, 6)])
    def test_exact_f_finite_computes_each_state_set_once(self, monkeypatch, conditioned, windows):
        import flab.processes as processes

        computed = []

        def counting(fn):
            def wrapper(*args):
                computed.append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(processes, "shannon_entropy", counting(processes.shannon_entropy))
        asked, state_sets = set(), set()

        class Spy(FiniteActionProcess):
            def entropy(self, W):
                asked.add(W.key())
                state_sets.add(self.action.window_states(W))
                return super().entropy(W)

        rng = make_rng(31)
        act = random_finite_action(rng)
        given = sigma_generated(act, random_partition(rng, act.size())) if conditioned else None
        exact_f_finite(Spy(act, random_partition(rng, act.size()), "rnd", given=given))
        # the three atoms carry three word maps, so the windows asked for
        # reach three sets of them: one computation per set, plus H(given)
        # once for a conditioned process
        assert (len(asked), len(state_sets)) == (windows, 3)
        assert len(computed) == len(state_sets) + conditioned

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.data())
    def test_state_keyed_answers_match_the_direct_join(self, seed, rank, conditioned, data):
        # answers are memoized per set of word maps; each must still be the
        # entropy of the join of alpha_w P over the window, word by word
        rng = random.Random(seed)
        act = random_finite_action(rng, rank)  # 3 to 6 atoms
        part = random_partition(rng, act.size(), max_blocks=data.draw(st.integers(2, 4)))
        given_p = sigma_generated(act, random_partition(rng, act.size())) if conditioned else None
        proc = FiniteActionProcess(act, part, "rnd", given=given_p)
        radius, shifts = st.integers(0, 2 if rank < 3 else 1), list(ball(rank, 2))

        def piece():
            # a ball, maybe translated, maybe grown to U_m = W u sW u ... u s^m W
            W = ball(rank, data.draw(radius))
            if data.draw(st.booleans()):
                W = W.translate(data.draw(st.sampled_from(shifts)))
            if data.draw(st.booleans()):
                s, T = generator(rank, data.draw(st.integers(1, rank))), W
                for _ in range(data.draw(st.integers(1, 3))):
                    T = T.translate(s)
                    W = W.union(T)
            return W

        for _ in range(data.draw(st.integers(4, 12))):
            W = piece().union(piece()) if data.draw(st.booleans()) else piece()
            direct = join_many(part.apply_permutation(act.word_perm(w)) for w in W)
            want = shannon_entropy(direct)
            if conditioned:
                want = shannon_entropy(join(direct, given_p)) - shannon_entropy(given_p)
            assert proc.action.window_partition(proc.partition, W) == direct
            assert proc.entropy(W) == want
            assert proc.entropy(W) == want

    def test_given_entropy_computed_once_per_process(self, monkeypatch):
        import flab.entropy as entropy
        import flab.processes as processes

        rng = make_rng(31)
        act = random_finite_action(rng)
        part = random_partition(rng, act.size())
        given = sigma_generated(act, random_partition(rng, act.size()))
        windows = [ball(2, 0), ball(2, 1), ball(2, 2)]
        want = [
            entropy.conditional_entropy(act.window_partition(part, W), given) for W in windows
        ]
        on_given = []

        def counting(fn):
            def wrapper(p):
                if p is given:
                    on_given.append(p)
                return fn(p)

            return wrapper

        for module in (entropy, processes):
            monkeypatch.setattr(module, "shannon_entropy", counting(module.shannon_entropy))
        proc = FiniteActionProcess(act, part, "rnd", given=given)
        assert [proc.entropy(W) for W in windows] == want
        exact_f_finite(proc)
        assert len(on_given) == 1

    def test_relative_is_conditioned_on_the_base(self):
        from flab.entropy import conditional_entropy

        b = ball(2, 1)
        windows = [ball(2, 0), b] + [b.union(b.translate(parse_word(s, 2))) for s in "ab"]
        for case in skew_test_cases():
            cocycle = case["cocycle"]
            observed = cocycle.product_partition(
                FinitePartition.points(cocycle.base.weights), case["special"].partition
            )
            proc = SkewProductProcess(
                cocycle, FinitePartition.points(cocycle.base.weights), case["special"].partition
            )
            relative = proc.relative()
            for W in windows:
                joined = cocycle.product.window_partition(observed, W)
                want = conditional_entropy(joined, cocycle.base_marker())
                assert relative.entropy(W) == want, (case["name"], W)
                assert proc.entropy(W) == shannon_entropy(joined)


class TestLabelVocabulary:
    @pytest.mark.parametrize(
        "label", ["EXACT", "EXACT-ZERO", "EXACT-IID", "EXACT-MARKOV", "EXACT-STABILIZED"]
    )
    def test_exact_level(self, label):
        assert is_exact(label)

    def test_below_exact(self):
        # nothing is reported below the exact level: the retired label raises
        with pytest.raises(ValueError):
            is_exact("UPPER-BOUND")

    @pytest.mark.parametrize(
        "label",
        [
            "STABILIZED",
            "EXTENSION-CERTIFIED",
            "UNCERTIFIED",
            # the retired equal-increments labels
            "STABLE(0)",
            "STABLE(1)",
            "STABLE(3)",
            "STABLE(03)",
            "STABLE(10)",
            "STABLE(k)",
            "STABLE",
            "exact",
            "EXACT-PASS",
            # the retired bound and column verdicts
            "BOUND-CONSISTENT",
            "INCOMPARABLE",
            "TIGHT",
            "CONSISTENT",
            "",
        ],
    )
    def test_unknown_labels_are_rejected(self, label):
        with pytest.raises(ValueError):
            is_exact(label)


class TestFiniteModelOracle:
    """On a finite model P^{B(n)} reaches the invariant algebra Sigma(P)
    that P generates, and from there every F-term is H(Sigma(P)), so
    f = (1 - r) H(Sigma(P)), and f(P | G) = (1 - r) H(Sigma(P) | G) for
    an invariant G.  Sigma(P) closes P under the generator permutations,
    independently of the window queries."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_f_is_the_generated_algebra_entropy(self, seed, rank):
        rng = make_rng(seed)
        act = random_finite_action(rng, rank)
        p = random_partition(rng, act.size())
        f, _ = exact_f_finite(FiniteActionProcess(act, p))
        assert f == (1 - rank) * shannon_entropy(sigma_generated(act, p))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_conditional_f_on_an_invariant_partition(self, seed, rank):
        rng = make_rng(seed)
        act = random_finite_action(rng, rank)
        p = random_partition(rng, act.size())
        invariant = sigma_generated(act, random_partition(rng, act.size()))
        f, _ = exact_f_finite(FiniteActionProcess(act, p, given=invariant))
        joined = join(sigma_generated(act, p), invariant)
        assert f == (1 - rank) * (shannon_entropy(joined) - shannon_entropy(invariant))


class TestAbramovRokhlin:
    def test_seeded_actions(self):
        rng = make_rng()
        for _ in range(10):
            act = random_finite_action(rng)
            p = random_partition(rng, act.size())
            q = random_partition(rng, act.size())
            result = abramov_rokhlin_check(act, p, q)
            assert result["equal"], result

    def test_each_distinct_window_is_swept_once(self, monkeypatch):
        # P v Q, Q and P given Sigma(Q) ask one action for the same windows;
        # the action works out each window's states once
        asked, swept = [], []
        window_states, states = FiniteAction.window_states, FiniteAction._states

        def asking(self, W):
            asked.append(W.ids())
            return window_states(self, W)

        def sweeping(self, ids):
            swept.append(frozenset(ids))
            return states(self, ids)

        monkeypatch.setattr(FiniteAction, "window_states", asking)
        monkeypatch.setattr(FiniteAction, "_states", sweeping)
        rng = make_rng()
        for _ in range(10):
            act = random_finite_action(rng)
            asked.clear()
            swept.clear()
            abramov_rokhlin_check(act, random_partition(rng, act.size()), random_partition(rng, act.size()))
            assert sorted(swept, key=sorted) == sorted(set(asked), key=sorted)
            assert len(asked) > len(swept)

    def test_each_axis_window_is_translated_once(self, monkeypatch):
        # the windows of F and F*, B(n) u s_i B(n) and U_m = B(n) u ... u
        # s_i^m B(n), depend on no process: two reports on different actions
        # translate each (window, i, m) once, the second reusing the first's
        monkeypatch.setattr(words, "_AXES", {})
        translated = []
        translate = WordSet.translate

        def counting(self, g):
            translated.append((self.rank, self.ids(), g.letters))
            return translate(self, g)

        monkeypatch.setattr(WordSet, "translate", counting)
        rng = make_rng(5)
        per_report = []
        for _ in range(2):
            act = random_finite_action(rng)
            full_report(FiniteActionProcess(act, random_partition(rng, act.size())), 2)
            per_report.append(len(translated) - sum(per_report))
        steps = [(W, i, m) for (_r, W, i), (_s, moved, _u) in words._AXES.items() for m in range(1, len(moved))]
        assert len(translated) == len(set(translated)) == len(steps)
        # the second report reuses the windows of the first
        assert per_report[1] < per_report[0]

    def test_invariant_example(self):
        act = trivial_action(preset_group("Z/4"), 2)
        p = FinitePartition(act.weights, [0, 0, 1, 1])
        q = FinitePartition(act.weights, [0, 1, 0, 1])
        result = abramov_rokhlin_check(act, p, q)
        assert result["equal"]
        assert result["f_join"] == -1 * EntropyValue.log_int(4)


class TestProcessInvariants:
    @pytest.mark.parametrize(
        "proc_factory",
        [
            lambda: BernoulliProcess(2, 2),
            lambda: edge_process(),
            lambda: points_process(preset_group("D4"), autos=[1, 3]),
        ],
    )
    def test_monotone_subadditive_shift_invariant(self, proc_factory):
        proc = proc_factory()
        rng = random.Random(13)
        pool = list(ball(2, 2))
        for _ in range(6):
            A = WordSet(2, rng.sample(pool, rng.randint(1, 3)))
            B = WordSet(2, rng.sample(pool, rng.randint(1, 3)))
            union = A.union(B)
            hA, hB, hU = proc.entropy(A), proc.entropy(B), proc.entropy(union)
            assert hA <= hU and hB <= hU
            assert hU <= hA + hB
            g = rng.choice(pool)
            assert proc.entropy(A.translate(g)) == hA


class TestSkewActionConstructor:
    def test_defaults_to_points_partitions(self):
        from flab.skew import Cocycle, FiniteGroupAction

        rng = make_rng(21)
        base = random_finite_action(rng)
        z2 = cyclic(2)
        fiber = FiniteGroupAction(z2, [tuple(range(2))] * 2, 2)
        base_points = FinitePartition.points(base.weights)
        proc = SkewProductProcess(
            Cocycle(base, fiber, [[0] * base.size()] * 2),
            base_points,
            FinitePartition.points(fiber.weights),
        )
        # joint points observable: window entropy splits as base plus fiber
        W = ball(2, 1)
        base_h = FiniteActionProcess(base, base_points).entropy(W)
        fiber_h = proc.fiber_process().entropy(W)
        assert proc.entropy(W) == base_h + fiber_h
