"""Measured free-group processes answering exact window-entropy queries.

Every process answers one window query, entropy(W) -> (value,
certificate): the entropy of the coordinate partition joined over the
window W, exactly, with what backs it:

    EXACT                entropies computed on a materialized finite model
    EXTENSION-CERTIFIED  kernel marginal backed by the constructive
                         proof that every solution on the first
                         enclosing window extends to the last one, so
                         every window of the chain gives the same marginal
    STABILIZED           kernel marginal on which two successive enclosing
                         windows agree; evidence, not a proof, since a
                         later window can still shrink the marginal

Conditioning is fixed when a process is built, not passed per query.  A
FiniteActionProcess built with `given` answers H(P^W | given) as
H(P^W v given) - H(given), with H(given) computed once when it is built,
and the skew products' relative() returns the process conditioned on
the base, whose functionals are the relative (base-conditioned) ones of
the addition formula.  Finite models memoize their answers per
canonical window key.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, Sequence

from .entropy import (
    EntropyValue,
    FinitePartition,
    conditional_entropy,
    join,
    shannon_entropy,
)
from .groups import invert_perm
from .kernels import GROWTH_CAP, ConvolutionKernel, KernelSubshift
from .skew import FiniteAction, FiniteGroupAction, SkewBundle
from .words import FreeWord, WordSet, inv, mul

CLOSURE_GUARD = 18  # most base coordinates a window's dependency closure may read

CERT_STRENGTH = {"EXACT": 0, "EXTENSION-CERTIFIED": 1, "STABILIZED": 2, "UPPER-BOUND": 3}


def weakest_certificate(certs) -> str:
    return max(certs, key=lambda c: CERT_STRENGTH[c])


class BernoulliProcess:
    """The shift on K^Gamma with uniform one-coordinate marginals.

    Window entropies have the closed form |W| log k, so every query is
    exact and the per-n functionals are constant in n.
    """

    conditioned = False

    def __init__(self, rank: int, alphabet_size: int, label: str | None = None):
        if alphabet_size < 1:
            raise ValueError("alphabet must have at least one symbol")
        self.rank = rank
        self.alphabet_size = alphabet_size
        self.label = label or f"bernoulli({alphabet_size})"

    def entropy(self, W: WordSet) -> tuple[EntropyValue, str]:
        return len(W) * EntropyValue.log_int(self.alphabet_size), "EXACT"

    def describe(self) -> dict:
        return {"type": "bernoulli", "alphabet": self.alphabet_size, "rank": self.rank}


class _ExactWindows:
    """Exact answers memoized per canonical window key; subclasses supply
    _compute(W), the (conditional) entropy of the joined window."""

    def entropy(self, W: WordSet) -> tuple[EntropyValue, str]:
        key = W.key()
        hit = self._answers.get(key)
        if hit is None:
            hit = self._answers[key] = (self._compute(W), "EXACT")
        return hit


class FiniteActionProcess(_ExactWindows):
    """A finite measured free-group action observed through a fixed partition,
    conditioned on the partition `given` when one is passed."""

    def __init__(
        self,
        action: FiniteAction,
        partition: FinitePartition,
        label: str = "finite",
        given: FinitePartition | None = None,
    ):
        if partition.space != action.space:
            raise ValueError("partition lives on a different space than the action")
        self.rank = action.rank
        self.action = action
        self.partition = partition
        self.label = label
        self.given = given
        self.conditioned = given is not None
        # H(P^W | given) = H(P^W v given) - H(given); the second term is fixed
        self._given_entropy = None if given is None else shannon_entropy(given)
        self._answers: dict[tuple, tuple[EntropyValue, str]] = {}

    def window_partition(self, W: WordSet) -> FinitePartition:
        return self.action.window_partition(self.partition, W)

    def _compute(self, W: WordSet) -> EntropyValue:
        joined = self.window_partition(W)
        if self.given is None:
            return shannon_entropy(joined)
        return shannon_entropy(join(joined, self.given)) - self._given_entropy

    def describe(self) -> dict:
        return {
            "type": "finite-action",
            "atoms": self.action.size(),
            "blocks": self.partition.num_blocks(),
            "rank": self.rank,
            "label": self.label,
        }


class KernelProcess:
    """The Haar system on the kernel subshift of a convolution operator."""

    conditioned = False

    def __init__(
        self, kernel: ConvolutionKernel, label: str | None = None, growth_cap: int = GROWTH_CAP
    ):
        self.kernel = kernel
        self.subshift = KernelSubshift(kernel, growth_cap)
        self.rank = kernel.rank
        self.label = label or f"ker(phi) {kernel!r}"

    def entropy(self, W: WordSet) -> tuple[EntropyValue, str]:
        return self.subshift.window_entropy(W)

    def describe(self) -> dict:
        return {"type": "kernel", "kernel": self.kernel.to_json(), "rank": self.rank}


class SkewProductProcess(FiniteActionProcess):
    """A finite skew product observed through P x Q.

    relative() is the same process conditioned on the base and
    fiber_process() the fiber alone, so the two sides of the collapse
    identity can be computed independently.
    """

    def __init__(
        self,
        bundle: SkewBundle,
        base_partition: FinitePartition,
        fiber_partition: FinitePartition,
        label: str = "skew",
    ):
        super().__init__(
            bundle.product,
            bundle.product_partition(base_partition, fiber_partition),
            label,
        )
        self.bundle = bundle
        self.base_partition = base_partition
        self.fiber_partition = fiber_partition

    def relative(self) -> FiniteActionProcess:
        """P x Q conditioned on the base marker, one block per base point."""
        return FiniteActionProcess(
            self.action, self.partition, self.label, self.bundle.base_marker()
        )

    def fiber_process(self) -> FiniteActionProcess:
        return FiniteActionProcess(
            self.bundle.fiber.action, self.fiber_partition, self.label + "/fiber"
        )

    def describe(self) -> dict:
        return {
            "type": "skew-product",
            "base_atoms": self.bundle.base.size(),
            "fiber_order": self.bundle.fiber.size(),
            "rank": self.rank,
            "label": self.label,
        }


class BernoulliBaseSkewProcess(_ExactWindows):
    """A skew product over a Bernoulli base with a finitely supported cocycle.

    The cocycle generator values read the base configuration on a declared
    dependence window D; window entropies enumerate base patterns on the
    dependency closure, which must stay small.  Built with
    conditioned=True (see relative()), it answers entropies conditioned
    on the base pattern.
    """

    def __init__(
        self,
        rank: int,
        base_alphabet: int,
        dependence: WordSet,
        fiber: FiniteGroupAction,
        gen_values: Sequence[Callable[[Mapping[FreeWord, int]], int]],
        fiber_partition: FinitePartition,
        label: str = "bernoulli-skew",
        conditioned: bool = False,
    ):
        if len(gen_values) != rank:
            raise ValueError("need a cocycle value function per generator")
        self.rank = rank
        self.base_alphabet = base_alphabet
        self.dependence = dependence
        self.fiber = fiber
        self.gen_values = tuple(gen_values)
        self.fiber_partition = fiber_partition
        self.label = label
        self.conditioned = conditioned
        self._answers: dict[tuple, tuple[EntropyValue, str]] = {}

    def relative(self) -> BernoulliBaseSkewProcess:
        """The same process conditioned on the base pattern."""
        return BernoulliBaseSkewProcess(
            self.rank, self.base_alphabet, self.dependence, self.fiber,
            self.gen_values, self.fiber_partition, self.label, conditioned=True,
        )

    def _needed(self, w: FreeWord) -> set[FreeWord]:
        """Base coordinates sigma(w, .) reads."""
        if not w.letters:
            return set()
        t, rest = w.letters[0], FreeWord(w.rank, w.letters[1:])
        if t > 0:
            window = self.dependence
        else:
            window = self.dependence.translate(FreeWord(w.rank, (-t,)))
        rest_inv = inv(rest)
        out = {mul(rest_inv, d) for d in window}
        out |= self._needed(rest)
        return out

    def _sigma(self, w: FreeWord, pattern: Mapping[FreeWord, int]) -> int:
        g = self.fiber.group
        if not w.letters:
            return g.identity
        t = w.letters[0]
        rest = FreeWord(w.rank, w.letters[1:])
        shifted = _shift_pattern(pattern, rest)
        head = self._sigma_letter(t, shifted)
        if not rest.letters:
            return head
        beta_t = self.fiber.action.letter_perm(t)
        return g.mul(beta_t[self._sigma(rest, pattern)], head)

    def _sigma_letter(self, t: int, pattern: Mapping[FreeWord, int]) -> int:
        g = self.fiber.group
        if t > 0:
            return self.gen_values[t - 1](pattern)
        i = -t
        s = FreeWord(self.rank, (i,))
        shifted = _shift_pattern(pattern, inv(s))
        beta_inv = invert_perm(self.fiber.action.gen_perms[i - 1])
        return g.inv(beta_inv[self.gen_values[i - 1](shifted)])

    def _enumerated_partitions(self, W: WordSet) -> tuple[FinitePartition, FinitePartition]:
        """(joint partition, base-marker partition) over enumerated patterns x fiber."""
        closure = set(W)
        for w in W:
            closure |= self._needed(inv(w))
        coords = sorted(closure, key=FreeWord.sort_key)
        if len(coords) > CLOSURE_GUARD:
            raise ValueError(f"dependency closure too large ({len(coords)} coordinates)")
        k = self.base_alphabet
        ny = self.fiber.size()
        g = self.fiber.group
        joint_labels = []
        base_labels = []
        w_list = list(W)
        inv_perms = {w: self.fiber.action.word_perm(inv(w)) for w in w_list}
        for values in product(range(k), repeat=len(coords)):
            pattern = dict(zip(coords, values))
            sigmas = {w: self._sigma(inv(w), pattern) for w in w_list}
            base_part = tuple(pattern[w] for w in w_list)
            for y in range(ny):
                fiber_part = tuple(
                    self.fiber_partition.labels[g.mul(inv_perms[w][y], sigmas[w])]
                    for w in w_list
                )
                joint_labels.append((base_part, fiber_part))
                base_labels.append(values)
        space = FinitePartition.uniform_space(len(joint_labels))
        joint = FinitePartition(space, joint_labels)
        marker = FinitePartition(space, base_labels)
        return joint, marker

    def _compute(self, W: WordSet) -> EntropyValue:
        joint, marker = self._enumerated_partitions(W)
        if self.conditioned:
            return conditional_entropy(joint, marker)
        return shannon_entropy(joint)

    def describe(self) -> dict:
        return {
            "type": "bernoulli-base-skew",
            "base_alphabet": self.base_alphabet,
            "fiber_order": self.fiber.size(),
            "rank": self.rank,
        }


def _shift_pattern(pattern: Mapping[FreeWord, int], u: FreeWord) -> dict[FreeWord, int]:
    """The pattern of alpha_u x: (alpha_u x)(u c) = x(c) over the known keys."""
    if not u.letters:
        return dict(pattern)
    return {mul(u, c): v for c, v in pattern.items()}

