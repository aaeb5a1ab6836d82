"""Exact entropy arithmetic for finite measured partitions.

Every entropy here is a finite rational combination of logarithms of
primes, represented exactly by EntropyValue.  Identities such as the
chain rule or the addition formulas are therefore decided by coefficient
comparison, never by floating-point tolerance.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

MAX_ATOMS = 1 << 20


class SpaceMismatchError(ValueError):
    pass


@lru_cache(maxsize=None)
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


class EntropyValue:
    """An exact number of the form sum_i q_i * log(p_i), q_i rational, p_i prime.

    The representation is canonical (no zero coefficients, primes sorted),
    and logs of distinct primes are linearly independent over Q, so
    equality of values is equality of representations.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        items = []
        if terms:
            for p, q in sorted(terms.items()):
                q = Fraction(q)
                if q != 0:
                    items.append((p, q))
        object.__setattr__(self, "_terms", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("EntropyValue is immutable")

    @staticmethod
    def zero() -> "EntropyValue":
        return EntropyValue()

    @staticmethod
    def log_int(n: int) -> "EntropyValue":
        """log(n) for an integer n >= 1, expanded over prime factors."""
        return EntropyValue({p: Fraction(e) for p, e in factorize(n)})

    @staticmethod
    def log_fraction(q: Fraction) -> "EntropyValue":
        """log of a positive rational."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("log of nonpositive rational")
        return EntropyValue.log_int(q.numerator) - EntropyValue.log_int(q.denominator)

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, EntropyValue) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "EntropyValue") -> "EntropyValue":
        terms = dict(self._terms)
        for p, q in other._terms:
            terms[p] = terms.get(p, Fraction(0)) + q
        return EntropyValue(terms)

    def __neg__(self) -> "EntropyValue":
        return EntropyValue({p: -q for p, q in self._terms})

    def __sub__(self, other: "EntropyValue") -> "EntropyValue":
        return self + (-other)

    def __mul__(self, scalar) -> "EntropyValue":
        s = Fraction(scalar)
        return EntropyValue({p: q * s for p, q in self._terms})

    __rmul__ = __mul__

    def to_float(self) -> float:
        return float(sum(float(q) * math.log(p) for p, q in self._terms))

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
            for p, q in self._terms:
                coeff = Decimal(q.numerator) / Decimal(q.denominator)
                total += coeff * Decimal(p).ln()
                scale += abs(coeff) * p.bit_length()
            return total, (len(self._terms) + 4) * scale * Decimal(10) ** (2 - prec)

    def __lt__(self, other: "EntropyValue") -> bool:
        """Exact order, decided at doubling precision in a local decimal context.

        Logs of distinct primes are independent over Q, so distinct values
        differ by a nonzero amount, which the error bound eventually falls
        below: the loop ends for every pair.
        """
        if self == other:
            return False
        diff = other - self
        prec = 60
        while True:
            value, error = diff._approx(prec)
            if abs(value) > error:
                return value > 0
            prec *= 2

    def __le__(self, other: "EntropyValue") -> bool:
        return self == other or self < other

    def __gt__(self, other: "EntropyValue") -> bool:
        return other < self

    def __ge__(self, other: "EntropyValue") -> bool:
        return other <= self

    def to_json(self) -> dict:
        return {
            "terms": {str(p): str(q) for p, q in self._terms},
            "float": self.to_float(),
        }

    @staticmethod
    def from_json(data: dict) -> "EntropyValue":
        return EntropyValue(
            {int(p): Fraction(q) for p, q in data["terms"].items()}
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for p, q in self._terms:
            parts.append(f"{q}*log({p})")
        return " + ".join(parts).replace("+ -", "- ")


class FinitePartition:
    """A labelled partition of a finite measured space.

    The space is atoms 0..n-1 with rational weights summing to 1; blocks
    are given by a label per atom.  Labels are canonicalized to
    0..k-1 in order of first appearance, so two partitions are equal as
    partitions iff their canonical label tuples agree.
    """

    __slots__ = ("weights", "labels")

    def __init__(self, weights: Sequence[Fraction], labels: Sequence):
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) > MAX_ATOMS:
            raise ValueError(f"space too large ({len(weights)} atoms)")
        if len(weights) != len(labels):
            raise SpaceMismatchError("weights/labels length mismatch")
        if any(w < 0 for w in weights):
            raise ValueError("negative weight")
        if sum(weights) != 1:
            raise ValueError("weights must sum to exactly 1")
        canon: dict = {}
        new_labels = []
        for lab in labels:
            if lab not in canon:
                canon[lab] = len(canon)
            new_labels.append(canon[lab])
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(new_labels))

    def __setattr__(self, name, value):
        raise AttributeError("FinitePartition is immutable")

    @staticmethod
    def uniform_space(n: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, n) for _ in range(n))

    @classmethod
    def points(cls, weights: Sequence[Fraction]) -> "FinitePartition":
        return cls(weights, tuple(range(len(weights))))

    @classmethod
    def trivial(cls, weights: Sequence[Fraction]) -> "FinitePartition":
        return cls(weights, (0,) * len(weights))

    def num_atoms(self) -> int:
        return len(self.weights)

    def num_blocks(self) -> int:
        return len(set(self.labels))

    def block_weights(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for w, lab in zip(self.weights, self.labels):
            out[lab] = out.get(lab, Fraction(0)) + w
        return out

    def same_space(self, other: "FinitePartition") -> bool:
        return self.weights == other.weights

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePartition)
            and self.weights == other.weights
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.weights, self.labels))

    def __repr__(self) -> str:
        return f"FinitePartition({self.num_blocks()} blocks on {self.num_atoms()} atoms)"

    def equal_mod_null(self, other: "FinitePartition") -> bool:
        """Equality as partitions restricted to positive-measure atoms."""
        if not self.same_space(other):
            raise SpaceMismatchError("partitions on different spaces")
        seen: dict[tuple, int] = {}
        for w, a, b in zip(self.weights, self.labels, other.labels):
            if w == 0:
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

        Atom x lies in T(A) iff T^{-1}(x) lies in A, so the new label of x
        is the old label of T^{-1}(x).
        """
        n = self.num_atoms()
        inverse = [0] * n
        for x, y in enumerate(perm):
            inverse[y] = x
        return FinitePartition(
            self.weights, tuple(self.labels[inverse[x]] for x in range(n))
        )


def check_permutation_preserves(weights: Sequence[Fraction], perm: Sequence[int]):
    n = len(weights)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the atoms")
    for x in range(n):
        if weights[perm[x]] != weights[x]:
            raise ValueError("permutation does not preserve the measure")


def shannon_entropy(p: FinitePartition) -> EntropyValue:
    """H(P) = -sum nu(P) log nu(P), exactly; 0 log 0 = 0."""
    total = EntropyValue.zero()
    for w in p.block_weights().values():
        if w > 0:
            total = total - w * EntropyValue.log_fraction(w)
    return total


def join(p: FinitePartition, q: FinitePartition) -> FinitePartition:
    if not p.same_space(q):
        raise SpaceMismatchError("join of partitions on different spaces")
    return FinitePartition(p.weights, tuple(zip(p.labels, q.labels)))


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


def information_function(
    p: FinitePartition, f: FinitePartition
) -> tuple[EntropyValue, ...]:
    """Pointwise information of P given the algebra generated by F.

    At atom x this is -log nu(P_x | F_x); its weighted sum is H(P|F).
    Computed from conditional measures, independently of the
    join-difference route, so the two can be cross-checked.
    """
    if not p.same_space(f):
        raise SpaceMismatchError("partitions on different spaces")
    joint = join(p, f)
    joint_w = joint.block_weights()
    f_w = f.block_weights()
    out = []
    for x in range(p.num_atoms()):
        if p.weights[x] == 0:
            out.append(EntropyValue.zero())
            continue
        cond = joint_w[joint.labels[x]] / f_w[f.labels[x]]
        out.append(-EntropyValue.log_fraction(cond))
    return tuple(out)


def z_entropy_rate_finite(
    perm: Sequence[int], p: FinitePartition
) -> tuple[EntropyValue, int]:
    """Entropy rate of a measure-preserving bijection of a finite space.

    Always exactly zero; returns (0, m) where m is the first step at which
    the forward join partition stabilizes, certifying the limit.
    """
    check_permutation_preserves(p.weights, perm)
    current = p
    shifted = p
    m = 0
    while True:
        shifted = shifted.apply_permutation(perm)
        nxt = join(current, shifted)
        if nxt.equal_mod_null(current):
            return EntropyValue.zero(), m + 1
        current = nxt
        m += 1
        if m > p.num_atoms():
            raise AssertionError("join failed to stabilize on a finite space")
