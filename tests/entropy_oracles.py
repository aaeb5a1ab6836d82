"""Independent entropy oracles on Fraction weights, for the tests only.

These compute from the weights a partition reads as, through the public
FinitePartition API and EntropyValue.log_fraction, never through the
integer block counts that flab.entropy.shannon_entropy uses, so the two
routes can be cross-checked.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from flab.entropy import (
    EntropyValue,
    FinitePartition,
    SpaceMismatchError,
    check_permutation_preserves,
    join,
)


def fraction_entropy(weights: Sequence[Fraction], labels: Sequence) -> EntropyValue:
    """-sum w log w over the blocks of `labels` under Fraction atom weights;
    0 log 0 = 0."""
    blocks: dict = {}
    for w, lab in zip(weights, labels):
        blocks[lab] = blocks.get(lab, Fraction(0)) + w
    total = EntropyValue.zero()
    for w in blocks.values():
        if w > 0:
            total = total - w * EntropyValue.log_fraction(w)
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
