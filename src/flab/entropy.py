"""Exact entropy arithmetic for finite measured partitions.

Every entropy here is a finite rational combination of logarithms of
primes, represented exactly by EntropyValue.  Identities such as the
chain rule or the addition formulas are therefore decided by coefficient
comparison, never by floating-point tolerance.

A measure space is stored as integers: atom i carries a count c_i >= 0
over one denominator N, the least common denominator of the weights, so
its weight is c_i / N and the counts sum to N.  A space is validated once,
when it is built; every partition holds a reference to its space, and
join, join_many and apply_permutation build their results on the
operand's space without validating it again.  With block counts C_b (the
sum of c_i over block b),

    H(P) = -sum_b (C_b / N) log(C_b / N) = log N - (1/N) sum_b C_b log C_b,

so shannon_entropy adds up integer prime exponents of the C_b and puts
them over N.

An EntropyValue holds its coefficients as integer numerators over one
common denominator, in lowest terms, so sums, differences, multiples,
equality and hashing are integer arithmetic; Fractions appear only where
a value is read out (`terms`, and the strings of `to_json` and `repr`).
The constructor checks that its keys are primes; arithmetic and
shannon_entropy build their results through `_reduced`, which drops zero
numerators and divides out one gcd.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

MAX_ATOMS = 1 << 20

# the binary first rung of EntropyValue.__lt__ (see its docstring)
_FIRST_RUNG_MARGIN = 2.0 ** -40
_MIN_NORMAL = sys.float_info.min


class SpaceMismatchError(ValueError):
    pass


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...)."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class EntropyValue:
    """An exact number of the form sum_i q_i * log(p_i), q_i rational, p_i prime.

    Held as integer numerators n_i over one common denominator d, q_i =
    n_i / d.  The form is canonical (d >= 1, gcd(d, n_1, ..., n_k) = 1,
    no zero numerator, primes ascending), and logs of distinct primes are
    linearly independent over Q, so equality of values is equality of
    representations.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        items = [(p, Fraction(q)) for p, q in (terms or {}).items()]
        if not all(isinstance(p, int) and is_prime(p) for p, _q in items):
            raise ValueError(f"EntropyValue keys must be primes: {[p for p, _q in items]}")
        items = sorted([(p, q) for p, q in items if q])
        den = math.lcm(*[q.denominator for _p, q in items])
        _set_nums(self, tuple([(p, q.numerator * (den // q.denominator)) for p, q in items]))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("EntropyValue is immutable")

    def __delattr__(self, name):
        raise AttributeError("EntropyValue is immutable")

    @staticmethod
    def zero() -> "EntropyValue":
        return _ZERO

    @staticmethod
    def log_int(n: int) -> "EntropyValue":
        """log(n) for an integer n >= 1, expanded over prime factors."""
        return _value(factorize(n), 1)

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {p: Fraction(n, den) for p, n in self._nums}

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EntropyValue)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __add__(self, other: "EntropyValue") -> "EntropyValue":
        return _combine(self, other, 1)

    def __neg__(self) -> "EntropyValue":
        return _value(tuple([(p, -n) for p, n in self._nums]), self._den)

    def __sub__(self, other: "EntropyValue") -> "EntropyValue":
        return _combine(self, other, -1)

    def __mul__(self, scalar) -> "EntropyValue":
        if type(scalar) is int:
            num, den = scalar, 1
        else:
            s = Fraction(scalar)
            num, den = s.numerator, s.denominator
        return _reduced([(p, n * num) for p, n in self._nums], self._den * den)

    __rmul__ = __mul__

    def to_float(self) -> float:
        den = self._den
        return float(sum(n / den * math.log(p) for p, n in self._nums))

    def _approx(self, prec: int) -> tuple[Decimal, Decimal]:
        """The value at `prec` significant digits, and a bound on its error.

        Each term is rounded three times and each partial sum once, every
        time by at most half a unit in the last digit; the bound allows
        twenty times that, relative to sum |q| * bit_length(p) >= sum |q log p|.
        """
        with localcontext() as ctx:
            ctx.prec = prec
            total = Decimal(0)
            scale = Decimal(0)
            den = Decimal(self._den)
            for p, n in self._nums:
                coeff = Decimal(n) / den
                total += coeff * Decimal(p).ln()
                scale += abs(coeff) * p.bit_length()
            return total, (len(self._nums) + 4) * scale * Decimal(10) ** (2 - prec)

    def __lt__(self, other: "EntropyValue") -> bool:
        """Exact order: a binary first rung, then a decimal ladder.

        First rung: the difference d = sum q log p is summed in doubles,
        each coefficient rounded once to a normal double (relative error at
        most u = 2^-53), each math.log(p) within a few ulps, and each
        product and partial sum rounded once.  For k terms the computed
        sum is then within about (k + 4) u sum |q log p| of d, and
        log p < bit_length(p), so that error is below
        (k + 4) sum |q| bit_length(p) 2^-53.  The rung decides only when
        |sum| exceeds (k + 4) sum |q| bit_length(p) 2^-40, 2^13 times that
        bound, so the sign it reads is the sign of d.  A coefficient that
        overflows a double or underflows below the normal range, or a
        sum that is not finite, decides nothing.

        Otherwise the ladder decides at doubling decimal precision in a
        local decimal context.  Logs of distinct primes are independent
        over Q, so distinct values differ by a nonzero amount, which the
        error bound eventually falls below: the loop ends for every pair.
        """
        if self == other:
            return False
        diff = other - self
        value = diff._first_rung()
        if value is not None:
            return value > 0
        prec = 60
        while True:
            value, error = diff._approx(prec)
            if abs(value) > error:
                return value > 0
            prec *= 2

    def _first_rung(self) -> float | None:
        """The value in doubles when that fixes its sign, else None; each
        coefficient n / d is one correctly rounded integer division."""
        total = scale = 0.0
        den = self._den
        try:
            for p, n in self._nums:
                coeff = n / den
                if abs(coeff) < _MIN_NORMAL:
                    return None
                total += coeff * math.log(p)
                scale += abs(coeff) * p.bit_length()
        except OverflowError:
            return None
        if not (math.isfinite(total) and math.isfinite(scale)):
            return None
        if abs(total) > (len(self._nums) + 4) * scale * _FIRST_RUNG_MARGIN:
            return total
        return None

    def __le__(self, other: "EntropyValue") -> bool:
        return self == other or self < other

    def __gt__(self, other: "EntropyValue") -> bool:
        return other < self

    def __ge__(self, other: "EntropyValue") -> bool:
        return other <= self

    def to_json(self) -> dict:
        return {
            "terms": {str(p): str(q) for p, q in self.terms.items()},
            "float": self.to_float(),
        }

    @staticmethod
    def from_json(data: dict) -> "EntropyValue":
        return EntropyValue(
            {int(p): Fraction(q) for p, q in data["terms"].items()}
        )

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for p, q in self.terms.items():
            parts.append(f"{q}*log({p})")
        return " + ".join(parts).replace("+ -", "- ")


_set_nums = EntropyValue._nums.__set__
_set_den = EntropyValue._den.__set__


def _value(nums: tuple[tuple[int, int], ...], den: int) -> EntropyValue:
    """An EntropyValue from a form the caller knows to be canonical: prime
    keys in ascending order, each with a nonzero integer numerator, over a
    denominator den >= 1 sharing no factor with all of them."""
    v = object.__new__(EntropyValue)
    _set_nums(v, nums)
    _set_den(v, den)
    return v


def _reduced(nums: list[tuple[int, int]], den: int) -> EntropyValue:
    """The canonical value of sum (n / den) log p over ascending primes p:
    zero numerators dropped, one gcd divided out."""
    nums = [(p, n) for p, n in nums if n]
    g = math.gcd(den, *[n for _p, n in nums])
    if g > 1:
        nums = [(p, n // g) for p, n in nums]
        den //= g
    return _value(tuple(nums), den)


def _combine(a: EntropyValue, b: EntropyValue, sign: int) -> EntropyValue:
    """a + sign * b over the least common denominator."""
    da, db = a._den, b._den
    if da == db:
        ka, kb, den = 1, sign, da
    else:
        g = math.gcd(da, db)
        ka, kb = db // g, sign * (da // g)
        den = da * (db // g)
    terms = {p: n * ka for p, n in a._nums}
    for p, n in b._nums:
        terms[p] = terms.get(p, 0) + n * kb
    return _reduced(sorted(terms.items()), den)


_ZERO = _value((), 1)


class _MeasureSpace:
    """Atoms 0..n-1 with weights c_i / N, validated once when built.

    The counts c_i are nonnegative integers summing to N, and N is the
    least common denominator of the weights (the counts have no common
    factor with N), so equal weight vectors give equal counts.  A space
    reads as the sequence of its Fraction weights.
    """

    __slots__ = ("counts", "total", "_hash", "_weights")

    def __init__(self, counts: Sequence[int], total: int):
        counts = tuple(counts)
        if len(counts) > MAX_ATOMS:
            raise ValueError(f"space too large ({len(counts)} atoms)")
        if any(c < 0 for c in counts):
            raise ValueError("negative weight")
        if total < 1 or sum(counts) != total:
            raise ValueError("weights must sum to exactly 1")
        common = math.gcd(total, *counts)
        if common > 1:
            counts = tuple(c // common for c in counts)
            total //= common
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_hash", hash(counts))
        object.__setattr__(self, "_weights", None)

    def __setattr__(self, name, value):
        raise AttributeError("measure spaces are immutable")

    def __delattr__(self, name):
        raise AttributeError("measure spaces are immutable")

    @property
    def weights(self) -> tuple[Fraction, ...]:
        if self._weights is None:
            n = self.total
            object.__setattr__(self, "_weights", tuple(Fraction(c, n) for c in self.counts))
        return self._weights

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.weights)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, _MeasureSpace) and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"_MeasureSpace({len(self.counts)} atoms over {self.total})"


def _as_space(weights: Sequence[Fraction]) -> _MeasureSpace:
    """The space itself, or a new validated space with these weights."""
    if isinstance(weights, _MeasureSpace):
        return weights
    weights = tuple(Fraction(w) for w in weights)
    total = math.lcm(*(w.denominator for w in weights))
    return _MeasureSpace(
        [w.numerator * (total // w.denominator) for w in weights], total
    )


def _canonical(labels: Iterable) -> tuple[int, ...]:
    """Labels renumbered 0..k-1 in order of first appearance."""
    canon: dict = {}
    return tuple([canon.setdefault(lab, len(canon)) for lab in labels])


class FinitePartition:
    """A labelled partition of a finite measured space.

    The space is atoms 0..n-1 with rational weights summing to 1, given
    as a sequence of weights or as the space of another partition or
    action; blocks are given by a label per atom.  Labels are
    canonicalized to 0..k-1 in order of first appearance, so two
    partitions are equal as partitions iff their canonical label tuples
    agree.
    """

    __slots__ = ("space", "labels")

    def __init__(self, weights: Sequence[Fraction], labels: Sequence):
        space = _as_space(weights)
        if len(space) != len(labels):
            raise SpaceMismatchError("weights/labels length mismatch")
        _set_space(self, space)
        _set_labels(self, _canonical(labels))

    def __setattr__(self, name, value):
        raise AttributeError("FinitePartition is immutable")

    def __delattr__(self, name):
        raise AttributeError("FinitePartition is immutable")

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self.space.weights

    @staticmethod
    def uniform_space(n: int) -> _MeasureSpace:
        return _MeasureSpace((1,) * n, n)

    @classmethod
    def points(cls, weights: Sequence[Fraction]) -> "FinitePartition":
        return cls(weights, range(len(weights)))

    def num_atoms(self) -> int:
        return len(self.labels)

    def num_blocks(self) -> int:
        return max(self.labels) + 1

    def block_counts(self) -> list[int]:
        """The integer count C_b of each block b, over the space's total N."""
        out = [0] * self.num_blocks()
        for c, lab in zip(self.space.counts, self.labels):
            out[lab] += c
        return out

    def same_space(self, other: "FinitePartition") -> bool:
        return self.space == other.space

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePartition)
            and self.labels == other.labels
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.space, self.labels))

    def __repr__(self) -> str:
        return f"FinitePartition({self.num_blocks()} blocks on {self.num_atoms()} atoms)"

    def equal_mod_null(self, other: "FinitePartition") -> bool:
        """Equality as partitions restricted to positive-measure atoms."""
        if not self.same_space(other):
            raise SpaceMismatchError("partitions on different spaces")
        seen: dict[tuple, int] = {}
        for c, a, b in zip(self.space.counts, self.labels, other.labels):
            if c == 0:
                continue
            if a in seen and seen[a] != b:
                return False
            seen[a] = b
        inverse: dict[int, int] = {}
        for a, b in seen.items():
            if b in inverse and inverse[b] != a:
                return False
            inverse[b] = a
        return True

    def apply_permutation(self, perm: Sequence[int]) -> "FinitePartition":
        """The image partition T(P) = {T(A) : A in P} for a bijection T of atoms.

        Atom x lies in T(A) iff T^{-1}(x) lies in A, so the new label of
        T(x) is the old label of x.
        """
        return _partition(self.space, _moved(self.labels, perm))


_set_space = FinitePartition.space.__set__
_set_labels = FinitePartition.labels.__set__


def _partition(space: _MeasureSpace, labels: Iterable) -> FinitePartition:
    """A FinitePartition on a space the caller already holds, with one label
    per atom: the space is shared, not validated again."""
    p = object.__new__(FinitePartition)
    _set_space(p, space)
    _set_labels(p, _canonical(labels))
    return p


def _moved(labels: Sequence, perm: Sequence[int]) -> list:
    """The labels of T(P) for a bijection T of atoms: T(x) takes x's label."""
    moved = [0] * len(labels)
    for x, y in enumerate(perm):
        moved[y] = labels[x]
    return moved


def check_permutation_preserves(weights: Sequence[Fraction], perm: Sequence[int]):
    counts = _as_space(weights).counts
    n = len(counts)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the atoms")
    for x in range(n):
        if counts[perm[x]] != counts[x]:
            raise ValueError("permutation does not preserve the measure")


def shannon_entropy(p: FinitePartition) -> EntropyValue:
    """H(P) = -sum nu(P) log nu(P), exactly; 0 log 0 = 0.

    With block counts C_b over the space's total N this is
    log N - (1/N) sum_b C_b log C_b: the sum is accumulated as integer
    exponents E_q per prime q, so the coefficient of log q is the
    numerator e_N(q) N - E_q over N, with e_N(q) the exponent of q in N,
    and one gcd brings the value to canonical form.  Each distinct block
    count, tallied in a plain dict, is factorized once.
    """
    mults: dict[int, int] = {}  # block count -> number of blocks
    for size in p.block_counts():
        mults[size] = mults.get(size, 0) + 1
    exponents: dict[int, int] = {}
    for size, mult in mults.items():
        if size > 1:
            for q, e in factorize(size):
                exponents[q] = exponents.get(q, 0) + mult * size * e
    n = p.space.total
    nums = {q: e * n for q, e in factorize(n)}
    for q, e in exponents.items():
        nums[q] = nums.get(q, 0) - e
    return _reduced(sorted(nums.items()), n)


def join(p: FinitePartition, q: FinitePartition) -> FinitePartition:
    if not p.same_space(q):
        raise SpaceMismatchError("join of partitions on different spaces")
    return _partition(p.space, zip(p.labels, q.labels))


def join_many(parts: Iterable[FinitePartition]) -> FinitePartition:
    parts = list(parts)
    if not parts:
        raise ValueError("join of no partitions")
    out = parts[0]
    for q in parts[1:]:
        out = join(out, q)
    return out


def conditional_entropy(p: FinitePartition, f: FinitePartition) -> EntropyValue:
    """H(P|F) = H(P v F) - H(F)."""
    return shannon_entropy(join(p, f)) - shannon_entropy(f)
