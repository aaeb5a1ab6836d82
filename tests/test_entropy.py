import decimal
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entropy_oracles import (
    FractionTerms,
    decimal_less,
    fraction_entropy,
    information_function,
    log_fraction,
    z_entropy_rate_finite,
)
from flab.entropy import (
    EntropyValue,
    FinitePartition,
    SpaceMismatchError,
    conditional_entropy,
    factorize,
    join,
    shannon_entropy,
)

F = Fraction


def uniform(n):
    return FinitePartition.uniform_space(n)


def random_partition(rng, weights, max_blocks=4):
    labels = [rng.randrange(max_blocks) for _ in weights]
    return FinitePartition(weights, labels)


class TestEntropyValue:
    def test_log_canonicalization(self):
        assert EntropyValue.log_int(4) == 2 * EntropyValue.log_int(2)
        assert EntropyValue.log_int(6) == EntropyValue.log_int(2) + EntropyValue.log_int(3)
        assert EntropyValue.log_int(1) == EntropyValue.zero()

    def test_exact_cancellation(self):
        assert ((EntropyValue.log_int(2) + EntropyValue.log_int(3)) - EntropyValue.log_int(6)).is_zero()

    def test_fraction_log(self):
        # the oracle's log of a rational, which the Fraction-weight routes read
        got = log_fraction(F(3, 4))
        assert got == EntropyValue.log_int(3) - 2 * EntropyValue.log_int(2)
        p = FinitePartition([F(3, 4), F(1, 4)], [0, 1])
        assert shannon_entropy(p) == -(F(3, 4) * got + F(1, 4) * log_fraction(F(1, 4)))
        with pytest.raises(ValueError):
            log_fraction(F(0))

    def test_order_matches_float(self):
        vals = [EntropyValue.log_int(2), EntropyValue.log_int(3), F(1, 2) * EntropyValue.log_int(5), EntropyValue.zero()]
        for a in vals:
            for b in vals:
                if a == b:
                    continue
                assert (a < b) == (a.to_float() < b.to_float())

    def test_comparison_leaves_decimal_context_alone(self):
        before = decimal.getcontext().prec
        assert EntropyValue.log_int(2) < EntropyValue.log_int(3)
        assert decimal.getcontext().prec == before

    def test_order_of_values_closer_than_working_precision(self):
        zero = EntropyValue.zero()
        tiny = F(1, 10**50) * EntropyValue.log_int(2)
        assert zero < tiny and not tiny < zero
        assert min(tiny, zero) == zero
        # a rational multiple of log 2 within about 1e-64 of log 3
        a = F(15849625007211561814537389439478165087598144076924810604557526545, 10**64)
        close = EntropyValue.log_int(3) - a * EntropyValue.log_int(2)
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            D = decimal.Decimal
            truth = D(3).ln() - D(a.numerator) / D(a.denominator) * D(2).ln()
        assert 0 < abs(truth) < D("1e-40")
        assert (zero < close) == (truth > 0)
        assert (close < zero) == (truth < 0)

    def test_json_round_trip(self):
        v = F(3, 2) * EntropyValue.log_int(2) - F(3, 4) * EntropyValue.log_int(3)
        data = v.to_json()
        assert data["terms"] == {"2": "3/2", "3": "-3/4"}
        assert EntropyValue.from_json(data) == v

    def test_factorize(self):
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def random_value(rng):
    """A value over a few small primes with small random rational coefficients."""
    return EntropyValue({
        p: F(rng.randrange(-40, 41), rng.randrange(1, 13))
        for p in (2, 3, 5, 7, 11)
        if rng.random() < 0.6
    })


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
values = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), coefficients, max_size=5).map(EntropyValue)


class TestTrustedArithmetic:
    """Sums, negations, multiples and entropies are built without the
    validating constructor; they must equal what it would build."""

    @staticmethod
    def form(v):
        return v._nums, v._den

    @classmethod
    def rebuilt(cls, v):
        return cls.form(EntropyValue(v.terms))

    @settings(max_examples=200, deadline=None)
    @given(values, values, coefficients | st.integers(-5, 5))
    def test_matches_the_validating_constructor(self, a, b, s):
        total = a.terms
        for p, q in b.terms.items():
            total[p] = total.get(p, 0) + q
        for got, want in [
            (a + b, EntropyValue(total)),
            (-a, EntropyValue({p: -q for p, q in a.terms.items()})),
            (a * s, EntropyValue({p: q * s for p, q in a.terms.items()})),
            (s * a, EntropyValue({p: q * s for p, q in a.terms.items()})),
            (a - b, a + EntropyValue({p: -q for p, q in b.terms.items()})),
        ]:
            assert self.form(got) == self.form(want) == self.rebuilt(got)
            assert type(got._den) is int and all(type(n) is int for _p, n in got._nums)
        # cancellation to zero and the zero multiple
        zeros = [a - a, a + (-a), 0 * a, a * F(0)]
        assert all(self.form(z) == ((), 1) for z in zeros)

    def test_entropies_are_canonical(self):
        rng = random.Random(5)
        for n in range(1, 13):
            p = random_partition(rng, uniform(n))
            h = shannon_entropy(p)
            assert self.form(h) == self.rebuilt(h)
            assert type(h._den) is int and all(type(n) is int and n for _p, n in h._nums)

    @pytest.mark.parametrize("key", [4, 1, 0, -2, 6, 2.0, "2", True])
    def test_keys_that_are_not_primes_are_refused(self, key):
        # log 4 under the key 4 used to compare unequal to log_int(4), and
        # ordering the two never returned; nothing is compared here
        with pytest.raises(ValueError):
            EntropyValue({key: 1})

    def test_json_with_a_composite_key_is_refused(self):
        with pytest.raises(ValueError):
            EntropyValue.from_json({"terms": {"4": "1"}})


wide_coefficients = coefficients | st.fractions(max_denominator=10**30)
wide_values = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), wide_coefficients, max_size=6).map(EntropyValue)
counted_partitions = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), min_size=1, max_size=12).filter(
    lambda atoms: sum(c for c, _lab in atoms) > 0
)


def is_canonical(v):
    primes = [p for p, _n in v._nums]
    return (
        v._den >= 1
        and math.gcd(v._den, *[n for _p, n in v._nums]) == 1
        and all(n for _p, n in v._nums)
        and primes == sorted(set(primes))
    )


class TestAgainstFractionTerms:
    """Integer numerators over one denominator against the same arithmetic
    on (prime, Fraction) terms: equal results in canonical form, equal
    hashes for equal values, and the same JSON and first-rung doubles."""

    @staticmethod
    def check(got, want):
        assert FractionTerms.of(got) == want
        assert is_canonical(got)
        rebuilt = EntropyValue(dict(want.terms))
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert got._first_rung() == want.first_rung()

    @settings(max_examples=300, deadline=None)
    @given(wide_values, wide_values, wide_coefficients | st.integers(-5, 5))
    def test_arithmetic(self, a, b, s):
        fa, fb = FractionTerms.of(a), FractionTerms.of(b)
        for got, want in [
            (a, fa),
            (a + b, fa + fb),
            (a - b, fa - fb),
            (-a, -fa),
            (a * s, fa.scaled(s)),
            (s * a, fa.scaled(s)),
        ]:
            self.check(got, want)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)

    @settings(max_examples=200, deadline=None)
    @given(counted_partitions)
    def test_shannon_entropy(self, atoms):
        total = sum(c for c, _lab in atoms)
        p = FinitePartition([F(c, total) for c, _lab in atoms], [lab for _c, lab in atoms])
        self.check(shannon_entropy(p), FractionTerms.entropy(p))


class TestExactOrder:
    def test_random_pairs_agree_with_the_decimal_oracle(self):
        rng = random.Random(10)
        decided = 0
        for _ in range(500):
            a, b = random_value(rng), random_value(rng)
            if a == b:
                continue
            want = decimal_less(a, b)
            assert (a < b) == want
            assert (b < a) == (not want)
            rung = (b - a)._first_rung()
            if rung is not None:
                decided += 1
                assert (rung > 0) == want
        assert decided > 400

    def test_near_tie_from_a_convergent_falls_through_to_the_ladder(self, monkeypatch):
        # 16785921 / 10590737 is a convergent of log 3 / log 2, so these two
        # values differ by about 5e-8, far inside the first rung's margin
        a = 16785921 * EntropyValue.log_int(2)
        b = 10590737 * EntropyValue.log_int(3)
        assert (b - a)._first_rung() is None and (a - b)._first_rung() is None
        ladder = []
        approx = EntropyValue._approx

        def counting(self, prec):
            ladder.append(prec)
            return approx(self, prec)

        monkeypatch.setattr(EntropyValue, "_approx", counting)
        assert (a < b) == decimal_less(a, b)
        assert (b < a) == decimal_less(b, a)
        assert a < b and not b < a
        assert ladder

    def test_coefficients_outside_the_double_range(self):
        big, tiny = F(10**400, 3), F(1, 10**400)
        log2, log3 = EntropyValue.log_int(2), EntropyValue.log_int(3)
        values = [
            EntropyValue.zero(),
            log2,
            big * log2,
            -big * log2,
            big * (log2 - log3),
            big * log2 - log3,
            tiny * log2,
            tiny * (log3 - log2),
            tiny * tiny * log3,
            log2 + tiny * log3,
        ]
        assert (big * log2)._first_rung() is None
        assert (tiny * log2)._first_rung() is None
        for a in values:
            for b in values:
                if a != b:
                    assert (a < b) == decimal_less(a, b)
        assert min(values) == -big * log2 and max(values) == big * log2


class TestShannonEntropy:
    def test_uniform_two_blocks(self):
        p = FinitePartition(uniform(2), [0, 1])
        assert shannon_entropy(p) == EntropyValue.log_int(2)

    def test_single_block(self):
        p = FinitePartition(uniform(4), [0] * 4)
        assert shannon_entropy(p).is_zero()

    def test_three_quarters(self):
        p = FinitePartition([F(3, 4), F(1, 4)], [0, 1])
        # hand expansion: -(3/4)(log3-2log2) - (1/4)(-2log2) = 2log2 - (3/4)log3
        assert shannon_entropy(p) == 2 * EntropyValue.log_int(2) - F(3, 4) * EntropyValue.log_int(3)

    def test_zero_weight_blocks_are_ignored(self):
        p = FinitePartition([F(1, 2), F(1, 2), F(0)], [0, 1, 2])
        assert shannon_entropy(p) == EntropyValue.log_int(2)


class TestJoin:
    def test_idempotent(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        assert join(p, p) == p

    def test_with_trivial(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        t = FinitePartition(uniform(4), [0] * 4)
        assert join(p, t) == p

    def test_independent_bits(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        q = FinitePartition(uniform(4), [0, 1, 0, 1])
        assert shannon_entropy(join(p, q)) == EntropyValue.log_int(4)

    def test_commutative_associative(self):
        rng = random.Random(0)
        weights = uniform(8)
        for _ in range(20):
            p = random_partition(rng, weights)
            q = random_partition(rng, weights)
            r = random_partition(rng, weights)
            assert join(p, q).equal_mod_null(join(q, p))
            assert join(join(p, q), r) == join(p, join(q, r))

    def test_space_mismatch(self):
        p = FinitePartition(uniform(2), [0, 1])
        q = FinitePartition(uniform(3), [0, 1, 2])
        with pytest.raises(SpaceMismatchError):
            join(p, q)

    def test_join_entropy_dominates(self):
        rng = random.Random(1)
        weights = uniform(6)
        for _ in range(20):
            p = random_partition(rng, weights)
            q = random_partition(rng, weights)
            h = shannon_entropy(join(p, q))
            assert h >= shannon_entropy(p)
            assert h >= shannon_entropy(q)


class TestConditionalEntropy:
    def test_self_conditioning(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        assert conditional_entropy(p, p).is_zero()

    def test_trivial_conditioning(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        t = FinitePartition(uniform(4), [0] * 4)
        assert conditional_entropy(p, t) == shannon_entropy(p)

    def test_deterministic_coupling(self):
        # two bits coupled with joint weights (1/2, 0, 0, 1/2)
        weights = [F(1, 2), F(0), F(0), F(1, 2)]
        first = FinitePartition(weights, [0, 0, 1, 1])
        second = FinitePartition(weights, [0, 1, 0, 1])
        assert conditional_entropy(first, second).is_zero()

    def test_chain_rule_random(self):
        rng = random.Random(2)
        for trial in range(30):
            n = rng.randint(2, 12)
            cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
            raw = [a - b for a, b in zip(cuts + [24], [0] + cuts)]
            weights = [F(x, 24) for x in raw]
            p = random_partition(rng, weights)
            q = random_partition(rng, weights)
            assert shannon_entropy(join(p, q)) == shannon_entropy(q) + conditional_entropy(p, q)
            # subadditivity
            assert shannon_entropy(join(p, q)) <= shannon_entropy(p) + shannon_entropy(q)

    def test_monotone_in_conditioning(self):
        rng = random.Random(3)
        weights = uniform(8)
        for _ in range(20):
            p = random_partition(rng, weights)
            f = random_partition(rng, weights, max_blocks=2)
            finer = join(f, random_partition(rng, weights, max_blocks=2))
            assert conditional_entropy(p, finer) <= conditional_entropy(p, f)


class TestInformationFunction:
    def test_self_is_zero(self):
        p = FinitePartition(uniform(4), [0, 0, 1, 1])
        assert all(v.is_zero() for v in information_function(p, p))

    def test_trivial_conditioning_gives_block_logs(self):
        p = FinitePartition([F(3, 4), F(1, 4)], [0, 1])
        t = FinitePartition([F(3, 4), F(1, 4)], [0, 0])
        info = information_function(p, t)
        assert info[0] == -log_fraction(F(3, 4))
        assert info[1] == -log_fraction(F(1, 4))

    def test_deterministic_coupling_pointwise_zero(self):
        weights = [F(1, 2), F(0), F(0), F(1, 2)]
        first = FinitePartition(weights, [0, 0, 1, 1])
        second = FinitePartition(weights, [0, 1, 0, 1])
        info = information_function(first, second)
        for wgt, val in zip(weights, info):
            if wgt > 0:
                assert val.is_zero()

    def test_integrates_to_conditional_entropy(self):
        rng = random.Random(4)
        weights = uniform(9)
        for _ in range(20):
            p = random_partition(rng, weights)
            f = random_partition(rng, weights)
            info = information_function(p, f)
            total = EntropyValue.zero()
            for wgt, val in zip(weights, info):
                total = total + wgt * val
            assert total == conditional_entropy(p, f)


class TestZEntropyRate:
    def test_any_finite_system_is_zero(self):
        p = FinitePartition(uniform(4), [0, 1, 0, 1])
        value, _ = z_entropy_rate_finite([1, 2, 3, 0], p)
        assert value.is_zero()

    def test_identity_map(self):
        p = FinitePartition(uniform(3), [0, 1, 2])
        value, stab = z_entropy_rate_finite([0, 1, 2], p)
        assert value.is_zero() and stab == 1

    def test_three_cycle_stabilizes_immediately(self):
        p = FinitePartition.points(uniform(3))
        value, stab = z_entropy_rate_finite([1, 2, 0], p)
        assert value.is_zero() and stab == 1

    def test_non_measure_preserving_rejected(self):
        p = FinitePartition([F(1, 2), F(1, 3), F(1, 6)], [0, 1, 2])
        with pytest.raises(ValueError):
            z_entropy_rate_finite([1, 0, 2], p)


@st.composite
def weighted_pair(draw):
    """Fraction weights with zero-weight atoms allowed, and two labellings."""
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    if not any(counts):
        counts[0] = 1
    total = sum(counts)
    weights = [Fraction(c, total) for c in counts]
    n = len(weights)
    p_labels = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    q_labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return weights, p_labels, q_labels


class TestIntegerCountsAgainstFractionWeights:
    @settings(max_examples=150, deadline=None)
    @given(weighted_pair())
    def test_entropy_join_and_conditioning(self, case):
        weights, p_labels, q_labels = case
        p = FinitePartition(weights, p_labels)
        q = FinitePartition(weights, q_labels)
        assert p.weights == tuple(weights)
        pairs = list(zip(p_labels, q_labels))
        assert shannon_entropy(p) == fraction_entropy(weights, p_labels)
        joined = join(p, q)
        first_seen = list(dict.fromkeys(pairs))
        assert joined.labels == tuple(first_seen.index(x) for x in pairs)
        assert shannon_entropy(joined) == fraction_entropy(weights, pairs)
        cond = conditional_entropy(p, q)
        assert cond == fraction_entropy(weights, pairs) - fraction_entropy(weights, q_labels)
        info = information_function(p, q)
        total = EntropyValue.zero()
        for w, value in zip(weights, info):
            total = total + w * value
        assert total == cond

    @settings(max_examples=60, deadline=None)
    @given(weighted_pair())
    def test_separately_built_spaces_are_one_space(self, case):
        weights, p_labels, q_labels = case
        p = FinitePartition(weights, p_labels)
        q = FinitePartition(list(weights), q_labels)
        assert p.space is not q.space and p.same_space(q)
        assert join(p, q).space is p.space


class TestSpaceValidation:
    def test_errors_unchanged(self):
        with pytest.raises(ValueError, match="negative weight"):
            FinitePartition([F(3, 2), F(-1, 2)], [0, 1])
        with pytest.raises(ValueError, match="sum to exactly 1"):
            FinitePartition([F(1, 2), F(1, 3)], [0, 1])
        with pytest.raises(SpaceMismatchError, match="length mismatch"):
            FinitePartition(uniform(3), [0, 1])

    def test_counts_over_least_denominator(self):
        p = FinitePartition([F(1, 2), F(1, 6), F(1, 3), F(0)], [0, 1, 2, 3])
        assert p.space.counts == (3, 1, 2, 0) and p.space.total == 6
        assert p.weights == (F(1, 2), F(1, 6), F(1, 3), F(0))

    def test_skew_product_validates_each_space_once(self, monkeypatch):
        import flab.entropy as entropy
        from flab.finv import exact_f_finite
        from flab.groups import cyclic
        from flab.processes import SkewProductProcess
        from flab.skew import Cocycle, FiniteAction, FiniteGroupAction

        # a non-uniform base: atoms 1 and 2 are swapped, atom 0 is fixed
        base = FiniteAction([F(1, 2), F(1, 4), F(1, 4)], [[0, 2, 1], [0, 1, 2]], 2)
        z4 = cyclic(4)
        fiber = FiniteGroupAction(z4, [tuple((-x) % 4 for x in range(4)), tuple(range(4))], 2)
        validated = []
        trusted = []
        space_init = entropy._MeasureSpace.__init__
        partition = entropy._partition

        def counting_init(self, counts, total):
            validated.append(len(counts))
            space_init(self, counts, total)

        def counting_partition(space, labels):
            trusted.append(space)
            return partition(space, labels)

        monkeypatch.setattr(entropy._MeasureSpace, "__init__", counting_init)
        monkeypatch.setattr(entropy, "_partition", counting_partition)
        cocycle = Cocycle(base, fiber, [[1, 0, 3], [0, 2, 0]])
        proc = SkewProductProcess(
            cocycle,
            FinitePartition.points(base.space),
            FinitePartition.points(fiber.space),
        )
        f, _ = exact_f_finite(proc)
        f_rel, _ = exact_f_finite(proc.relative())
        # the product space is the only one built; every join reuses it
        assert validated == [12]
        assert len(trusted) == 19 and all(s is cocycle.product.space for s in trusted)
        # points of the product generate: f = (1 - r) H(points), and
        # conditioning on the base leaves the uniform fiber, log 4
        assert f == -shannon_entropy(FinitePartition.points(cocycle.product.space))
        assert f_rel == -EntropyValue.log_int(4)
