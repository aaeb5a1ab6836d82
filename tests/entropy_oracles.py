"""Independent entropy oracles on Fraction weights, for the tests only.

These compute from the weights a partition reads as, through the public
FinitePartition API and `log_fraction` below, never through the integer
block counts that flab.entropy.shannon_entropy uses, so the two routes
can be cross-checked.  FractionTerms keeps exact values as
(prime, Fraction) terms, with none of EntropyValue's integer arithmetic.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping, Sequence

from flab.entropy import (
    EntropyValue,
    FinitePartition,
    SpaceMismatchError,
    check_permutation_preserves,
    factorize,
    join,
)


def log_fraction(q: Fraction) -> EntropyValue:
    """log of a positive rational, as log of its numerator less log of its denominator."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of nonpositive rational")
    return EntropyValue.log_int(q.numerator) - EntropyValue.log_int(q.denominator)


def block_weights(p: FinitePartition) -> dict[int, Fraction]:
    """The Fraction weight of each block label of p."""
    out: dict[int, Fraction] = {}
    for w, lab in zip(p.weights, p.labels):
        out[lab] = out.get(lab, Fraction(0)) + w
    return out


class FractionTerms:
    """sum q log p as ascending (prime, Fraction) terms, none zero: a value
    held term by term, with its float, JSON and first-rung double computed
    from the Fractions, as EntropyValue computed them when it held such
    terms."""

    def __init__(self, terms: Mapping[int, Fraction]):
        self.terms = tuple(sorted((p, Fraction(q)) for p, q in terms.items() if q))

    @classmethod
    def of(cls, v: EntropyValue) -> "FractionTerms":
        return cls(v.terms)

    @classmethod
    def entropy(cls, p: FinitePartition) -> "FractionTerms":
        """-sum w log w over the block weights w = a / b, with
        log w = sum e log q over a less that over b."""
        terms: dict[int, Fraction] = {}
        for w in block_weights(p).values():
            if w:
                for q, e in factorize(w.numerator):
                    terms[q] = terms.get(q, 0) - w * e
                for q, e in factorize(w.denominator):
                    terms[q] = terms.get(q, 0) + w * e
        return cls(terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionTerms) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"FractionTerms({dict(self.terms)})"

    def __add__(self, other: "FractionTerms") -> "FractionTerms":
        terms = dict(self.terms)
        for p, q in other.terms:
            terms[p] = terms.get(p, 0) + q
        return FractionTerms(terms)

    def __neg__(self) -> "FractionTerms":
        return FractionTerms({p: -q for p, q in self.terms})

    def __sub__(self, other: "FractionTerms") -> "FractionTerms":
        return self + (-other)

    def scaled(self, s) -> "FractionTerms":
        return FractionTerms({p: q * Fraction(s) for p, q in self.terms})

    def to_json(self) -> dict:
        return {
            "terms": {str(p): str(q) for p, q in self.terms},
            "float": float(sum(float(q) * math.log(p) for p, q in self.terms)),
        }

    def first_rung(self) -> float | None:
        """The double sum of q log p when it clears the first rung's margin
        (see EntropyValue.__lt__), else None."""
        total = scale = 0.0
        try:
            for p, q in self.terms:
                coeff = q.numerator / q.denominator
                if abs(coeff) < sys.float_info.min:
                    return None
                total += coeff * math.log(p)
                scale += abs(coeff) * p.bit_length()
        except OverflowError:
            return None
        if not (math.isfinite(total) and math.isfinite(scale)):
            return None
        if abs(total) > (len(self.terms) + 4) * scale * 2.0 ** -40:
            return total
        return None


def fraction_entropy(weights: Sequence[Fraction], labels: Sequence) -> EntropyValue:
    """-sum w log w over the blocks of `labels` under Fraction atom weights;
    0 log 0 = 0."""
    blocks: dict = {}
    for w, lab in zip(weights, labels):
        blocks[lab] = blocks.get(lab, Fraction(0)) + w
    total = EntropyValue.zero()
    for w in blocks.values():
        if w > 0:
            total = total - w * log_fraction(w)
    return total


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
    joint_w = block_weights(joint)
    f_w = block_weights(f)
    out = []
    for x in range(p.num_atoms()):
        if p.weights[x] == 0:
            out.append(EntropyValue.zero())
            continue
        cond = joint_w[joint.labels[x]] / f_w[f.labels[x]]
        out.append(-log_fraction(cond))
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


def decimal_less(a: EntropyValue, b: EntropyValue, prec: int = 120) -> bool:
    """a < b for distinct values, from b - a summed at `prec` decimal digits.

    Raises ValueError when |b - a| is within 10^(20 - prec) of zero,
    relative to the size of its terms, where `prec` digits cannot decide.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        value = scale = Decimal(0)
        for p, q in (b - a).terms.items():
            term = Decimal(q.numerator) / Decimal(q.denominator) * Decimal(p).ln()
            value += term
            scale += abs(term)
        if abs(value) <= scale * Decimal(10) ** (20 - prec):
            raise ValueError("too close to zero to decide at this precision")
        return value > 0
