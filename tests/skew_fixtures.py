"""Skew-product fixtures and a special-partition oracle, for the tests only.

No runner builds these: the verifier suites draw their cases from
flab.presets, and these give the tests independent inputs and checks.
"""

from __future__ import annotations

import random

from flab.entropy import FinitePartition, join_many
from flab.groups import FiniteGroup, all_automorphisms, invert_perm, preset_group
from flab.presets import _FIBER_PRESETS, random_finite_action
from flab.skew import Cocycle, FiniteAction, FiniteGroupAction, SkewBundle, SpecialPartition
from flab.words import CayleyTree, WordSet, ball, format_word, mul, signed_letters


def nontrivial_auto_assignments(group: FiniteGroup, rank: int, count: int = 2) -> list[list[int]]:
    """Deterministic distinct automorphism assignments, identity first."""
    autos = all_automorphisms(group)
    assignments = [[0] * rank]
    idx = 1
    while len(assignments) < count and idx < len(autos) * rank:
        pick = [0] * rank
        pick[idx % rank] = idx % len(autos)
        if pick not in assignments and any(pick):
            assignments.append(pick)
        idx += 1
    while len(assignments) < count:
        assignments.append([len(assignments) % max(1, len(autos) - 1) + 1] * rank)
    return assignments[:count]


def random_group_skew_bundle(rng: random.Random, rank: int = 2) -> tuple[SkewBundle, FiniteGroupAction]:
    """A skew bundle with random base action and random finite-group cocycle."""
    fiber_group = preset_group(_FIBER_PRESETS[rng.randrange(len(_FIBER_PRESETS))])
    autos = all_automorphisms(fiber_group)
    fiber = FiniteGroupAction(
        fiber_group, [autos[rng.randrange(len(autos))] for _ in range(rank)], rank
    )
    base = random_finite_action(rng, rank)
    gen_values = [
        [rng.randrange(fiber_group.order()) for _ in range(base.size())]
        for _ in range(rank)
    ]
    return SkewBundle(Cocycle(base, fiber, gen_values)), fiber


def is_special(group: FiniteGroup, p: FinitePartition) -> bool:
    """Structural check: blocks are exactly the cosets of a normal subgroup."""
    block_of_identity = frozenset(
        x for x in range(group.order()) if p.labels[x] == p.labels[group.identity]
    )
    if not group.is_normal(block_of_identity):
        return False
    expected = SpecialPartition(group, block_of_identity).partition
    return p.equal_mod_null(expected)


def pointwise_cocycle_failure(
    sigma, base: FiniteAction, fiber: FiniteGroupAction, max_len: int
) -> tuple[bool, dict | None]:
    """The cocycle identity checked one point at a time, as a witness oracle.

    `sigma(w, x)` is one value.  For g, then h, in ball order, then x, it
    compares sigma(gh, x) with beta_g sigma(h, x) . sigma(g, alpha_h x) and
    returns the first failing (g, h, x) in the witness format of
    `verify_cocycle_identity`.
    """
    group = fiber.group
    words = list(ball(base.rank, max_len))
    for g in words:
        beta_g = fiber.action.word_perm(g)
        for h in words:
            gh = mul(g, h)
            alpha_h = base.word_perm(h)
            for x in range(base.size()):
                lhs = sigma(gh, x)
                rhs = group.mul(beta_g[sigma(h, x)], sigma(g, alpha_h[x]))
                if lhs != rhs:
                    return False, {
                        "g": format_word(g),
                        "h": format_word(h),
                        "x": x,
                        "lhs": group.labels[lhs],
                        "rhs": group.labels[rhs],
                    }
    return True, None


def letter_perm(action: FiniteAction, letter: int) -> tuple[int, ...]:
    """alpha_t for a signed letter t, straight from the generator permutations."""
    perm = action.gen_perms[abs(letter) - 1]
    return perm if letter > 0 else invert_perm(perm)


def letter_values(cocycle: Cocycle, letter: int) -> tuple[int, ...]:
    """sigma(t, .) for a signed letter t: a generator's given values, or
    sigma(s^-1, x) = (beta_s^-1 sigma(s, alpha_s^-1 x))^-1 for an inverse."""
    if letter > 0:
        return cocycle.gen_values[letter - 1]
    g, vals = cocycle.fiber.group, cocycle.gen_values[-letter - 1]
    beta_inv, alpha_inv = letter_perm(cocycle.fiber.action, letter), letter_perm(cocycle.base, letter)
    return tuple(g.inv(beta_inv[vals[alpha_inv[x]]]) for x in range(cocycle.base.size()))


class LetterPerms:
    """alpha_w memoized by the letter tuple of w, peeling the first letter:
    alpha_{t v} = alpha_t after alpha_v.  The oracle for the id-keyed
    `FiniteAction` table, which grows from the last letter."""

    def __init__(self, action: FiniteAction):
        self.action = action
        self._memo: dict[tuple, tuple[int, ...]] = {(): tuple(range(action.size()))}

    def perm(self, key: tuple[int, ...]) -> tuple[int, ...]:
        perm = self._memo.get(key)
        if perm is None:
            head = letter_perm(self.action, key[0])
            perm = self._memo[key] = tuple([head[x] for x in self.perm(key[1:])])
        return perm


class LetterCocycle:
    """sigma(w, .) memoized by the letter tuple of w, peeling the first letter.

    For w = t v with t a letter, sigma(w, x) = beta_t sigma(v, x) .
    sigma(t, alpha_v x).  The oracle for the `Cocycle` rows, which are read
    off the skew product's word maps; it uses only the generator tables.
    """

    def __init__(self, cocycle: Cocycle):
        self.cocycle = cocycle
        self.base = LetterPerms(cocycle.base)
        # (beta_t, sigma(t, .)) for every letter t
        self._steps = {
            t: (letter_perm(cocycle.fiber.action, t), letter_values(cocycle, t))
            for t in signed_letters(cocycle.base.rank)
        }
        self._memo: dict[tuple, tuple[int, ...]] = {
            (t,): row for t, (_beta, row) in self._steps.items()
        }
        self._memo[()] = (cocycle.fiber.group.identity,) * cocycle.base.size()

    def values(self, key: tuple[int, ...]) -> tuple[int, ...]:
        out = self._memo.get(key)
        if out is None:
            table = self.cocycle.fiber.group.table
            beta_t, head = self._steps[key[0]]
            rest = key[1:]
            out = self._memo[key] = tuple([
                table[beta_t[s]][head[a]]
                for s, a in zip(self.values(rest), self.base.perm(rest))
            ])
        return out


class RecursivePerms:
    """alpha_w memoized by the id of w, each entry grown from its parent's on
    demand: alpha_{v t} = alpha_v after alpha_t.  The oracle for the
    sweep-filled `FiniteAction` table; it reads the last letter from the
    decoded word, so it shares no slot arithmetic with the sweep."""

    def __init__(self, action: FiniteAction):
        self.action = action
        self.tree = CayleyTree(action.rank)
        self._memo: dict[int, tuple[int, ...]] = {0: tuple(range(action.size()))}

    def perm(self, i: int) -> tuple[int, ...]:
        perm = self._memo.get(i)
        if perm is None:
            head = self.perm(self.tree.parent(i))
            step = letter_perm(self.action, self.tree.word(i).letters[-1])
            perm = self._memo[i] = tuple([head[x] for x in step])
        return perm


class RecursiveRows:
    """sigma(w, .) memoized by the id of w, grown from its parent v and last
    letter t on demand: sigma(v t, x) = beta_v sigma(t, x) . sigma(v, alpha_t x).
    The oracle for the `Cocycle` rows read off the sweep-filled product table."""

    def __init__(self, cocycle: Cocycle):
        self.cocycle = cocycle
        self.tree = CayleyTree(cocycle.base.rank)
        self.betas = RecursivePerms(cocycle.fiber.action)
        self._memo: dict[int, tuple[int, ...]] = {
            0: (cocycle.fiber.group.identity,) * cocycle.base.size()
        }

    def row(self, i: int) -> tuple[int, ...]:
        out = self._memo.get(i)
        if out is None:
            table = self.cocycle.fiber.group.table
            v, t = self.tree.parent(i), self.tree.word(i).letters[-1]
            sigma_t, alpha_t = letter_values(self.cocycle, t), letter_perm(self.cocycle.base, t)
            beta_v, head = self.betas.perm(v), self.row(v)
            out = self._memo[i] = tuple([table[beta_v[s]][head[a]] for s, a in zip(sigma_t, alpha_t)])
        return out


def joined_window(action: FiniteAction, p: FinitePartition, W: WordSet) -> FinitePartition:
    """P^W as the join of every alpha_w P, one canonicalized partition per
    word: the oracle for `FiniteAction.window_partition`."""
    oracle = RecursivePerms(action)
    return join_many(p.apply_permutation(oracle.perm(i)) for i in sorted(W.ids()))
