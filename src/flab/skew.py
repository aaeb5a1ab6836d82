"""Skew products of free-group actions over finite bases and finite fiber groups.

A `Cocycle` is the skew product X x_sigma G: one base `FiniteAction`,
one fiber `FiniteGroupAction` (a `FiniteAction` on a group, by
automorphisms), the generator values of sigma, on which a free group
imposes no relations, and the product action with its lifted
partitions.  The skew action T_g(x, y) = (alpha_g x,
beta_g(y) . sigma(g, x)) moves the base and then right-multiplies the
fiber by the cocycle value, and the cocycle identity

    sigma(g h, x) = (beta_g sigma(h, x)) . sigma(g, alpha_h x)

is what makes it an action.  All verifiers here are exhaustive and
exact: finite spaces make the "up to measure zero" clauses literal
equalities.

Z is the free group of rank 1, so the one-dimensional inequality
|H(Q^m) - H(Q_x^m)| <= m K(Q) runs on a rank-1 `Cocycle`.

Words enter as ids (see `flab.words`).  The word maps alpha_w of a
finite action lie in the finite group the alpha_s generate, so each
`FiniteAction` numbers the distinct ones it meets as states (0 the
identity) and keeps, per instance, each state's permutation, a state x
letter-slot table whose cells, alpha_{v t} = alpha_v after alpha_t, are
composed once each, and one word id -> state table: a window fills it
by `CayleyTree.sweep`, a whole ball in id order off `words.ball_steps`,
each id one cell from its parent.  Joining alpha_w P twice changes
nothing, so P^W depends only on the set of states over W and zips one
label column per state; each action memoises that set by W's ids, since
the states over a set of ids are a function of the generators alone.  A
`Cocycle` reads sigma(w, .) off T_w once per state, and the cocycle
check forms each right-hand side once per distinct datum.  A FreeWord is
encoded once where a caller passes one and decoded only for a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import entropy
from .entropy import (
    EntropyValue,
    FinitePartition,
    _as_space,
    _MeasureSpace,
    check_permutation_preserves,
    join,
    join_many,
    shannon_entropy,
)
from .groups import FiniteGroup, invert_perm
from .spec import is_int
from .words import CayleyTree, FreeWord, WordSet, ball, ball_size, ball_steps, format_word


class FiniteAction:
    """A free-group action on a finite measured space by per-generator bijections.

    `weights` is a sequence of atom weights or an existing space (such as
    another action's `space`); the action holds the validated space, which
    every partition built on it shares.
    """

    def __init__(self, weights: Sequence[Fraction], gen_perms: Sequence[Sequence[int]], rank: int):
        space = _as_space(weights)
        if len(gen_perms) != rank:
            raise ValueError("need one permutation per generator")
        perms = tuple(tuple(p) for p in gen_perms)
        for p in perms:
            check_permutation_preserves(space, p)
        self.space = space
        self.rank = rank
        self.gen_perms = perms
        # alpha_t for every letter t, in slot order: a, A, b, B, ...
        self._steps = [q for p in perms for q in (p, invert_perm(p))]
        # _maps[k] is state k's map (_index inverts it), _next[k 2r + s] the state of
        # alpha_v after alpha_t for alpha_v in state k, t in slot s; _state by word id
        identity = tuple(range(len(space.counts)))
        self._maps, self._index, self._next = [identity], {identity: 0}, {}
        self._tree, self._state = CayleyTree(rank), {0: 0}
        self._windows: dict[frozenset[int], frozenset[int]] = {}  # W's ids -> window_states(W)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self.space.weights

    def size(self) -> int:
        return len(self.space.counts)

    def word_perm(self, w: FreeWord) -> tuple[int, ...]:
        """alpha_w as a permutation; alpha_{uv} = alpha_u after alpha_v."""
        i = self._tree.id(w)
        return self._maps[self._states((i,))[i]]

    def _states(self, ids: Iterable[int]) -> dict[int, int]:
        """The state table filled for the given ids and their ancestors in one sweep."""
        return self._fill(self._tree.sweep(ids, self._state))

    def _fill(self, steps: Iterable[tuple[int, int, int]]) -> dict[int, int]:
        """The state table filled for (id, parent, last slot) triples, parents first, as
        `CayleyTree.sweep` lists a window or `ball_steps` a whole ball: one cell per id."""
        state, cells, r2 = self._state, self._next, len(self._steps)
        for i, v, s in steps:
            k = state[v] * r2 + s
            state[i] = cells[k] if k in cells else self._compose(k)
        return state

    def _compose(self, k: int) -> int:
        """Fill cell k: alpha_v after alpha_t, a new state unless an old one."""
        head, step = self._maps[k // len(self._steps)], self._steps[k % len(self._steps)]
        perm = tuple([head[x] for x in step])
        t = self._next[k] = self._index.setdefault(perm, len(self._maps))
        if t == len(self._maps):
            self._maps.append(perm)
        return t

    def window_states(self, W: WordSet) -> frozenset[int]:
        """The states of alpha_w over W: joining alpha_w P twice changes nothing, so P^W
        depends on no more.  Memoised by W's ids: the states are functions of the generators."""
        if W.rank != self.rank:
            raise ValueError(f"rank mismatch: {W.rank} != {self.rank}")
        ids = W.ids()
        states = self._windows.get(ids)
        if states is None:
            if not ids:
                raise ValueError("window partition of an empty window")
            state = self._states(ids)
            states = self._windows[ids] = frozenset([state[i] for i in ids])
        return states

    def window_partition(
        self, p: FinitePartition, W: WordSet, states: frozenset[int] | None = None
    ) -> FinitePartition:
        """P^W: the join of alpha_w P over the window, as one label column
        per distinct state, zipped and canonicalized once.  `states` is W's
        `window_states`, when the caller has them already."""
        maps = self._maps
        if states is None:
            states = self.window_states(W)
        return entropy._partition(p.space, zip(*[entropy._moved(p.labels, maps[k]) for k in states]))


class FiniteGroupAction(FiniteAction):
    """A free-group action on a finite group by automorphisms, with Haar measure."""

    def __init__(self, group: FiniteGroup, auto_perms: Sequence[Sequence[int]], rank: int):
        for p in auto_perms:
            if not group.is_automorphism(p):
                raise ValueError("generator image is not a group automorphism")
        super().__init__(FinitePartition.uniform_space(group.order()), auto_perms, rank)
        self.group = group

    def subgroup_invariant(self, sub: frozenset[int]) -> bool:
        return all(frozenset(p[x] for x in sub) == sub for p in self.gen_perms)


class SpecialPartition:
    """The partition of a finite group into cosets of a normal subgroup."""

    def __init__(self, group: FiniteGroup, subgroup: frozenset[int]):
        if not group.is_normal(subgroup):
            raise ValueError("special partitions need a normal subgroup")
        self.group = group
        self.subgroup = subgroup
        labels = [0] * group.order()
        for i, coset in enumerate(group.left_cosets(subgroup)):
            for x in coset:
                labels[x] = i
        self.partition = FinitePartition(
            FinitePartition.uniform_space(group.order()), labels
        )


class Cocycle:
    """A cocycle for (base, fiber) actions, given by its generator values.

    The cocycle is read off the skew product it defines, `product`: the
    action on base x fiber, atom (x, y) at x ny + y with weight nu(x) / ny,
    whose generators move (x, y) to T_t(x, y) = (alpha_t x, beta_t(y) . sigma(t, x)).
    Its word maps compose as T_{v t} = T_v after T_t, and

        T_v T_t (x, y) = (alpha_v alpha_t x, beta_v(beta_t(y) . sigma(t, x)) . sigma(v, alpha_t x))

    is T_{v t}(x, y) exactly when sigma(v t, x) = beta_v sigma(t, x) .
    sigma(v, alpha_t x): the cocycle identity is what makes T an action,
    and each T_w carries sigma(w, .).  Since beta_w is an automorphism,
    beta_w(e) = e, so sigma(w, x) is the fiber coordinate of T_w(x, e).
    """

    def __init__(
        self,
        base: FiniteAction,
        fiber: FiniteGroupAction,
        gen_values: Sequence[Sequence[int]],
    ):
        if base.rank != fiber.rank:
            raise ValueError("base and fiber must share the acting group rank")
        if len(gen_values) != base.rank:
            raise ValueError("need cocycle values for every generator")
        order = fiber.group.order()
        for vals in gen_values:
            if len(vals) != base.size():
                raise ValueError("cocycle table must cover every base point")
            if not all(is_int(v) and 0 <= v < order for v in vals):
                raise ValueError(f"cocycle values must be fiber elements 0..{order - 1}")
        self.base = base
        self.fiber = fiber
        self.gen_values = tuple(tuple(v) for v in gen_values)
        mul, nx = fiber.group.mul, base.size()
        space = _MeasureSpace([c for c in base.space.counts for _ in range(order)], base.space.total * order)
        perms = [
            [alpha[x] * order + mul(beta[y], vals[x]) for x in range(nx) for y in range(order)]
            for alpha, beta, vals in zip(base.gen_perms, fiber.gen_perms, self.gen_values)
        ]
        self.product = FiniteAction(space, perms, base.rank)
        self._rows: dict[int, tuple[int, ...]] = {}  # state of T_w -> sigma(w, .)

    def values(self, w: FreeWord) -> tuple[int, ...]:
        """sigma(w, .) as a table over base points."""
        return self.row(self.product._tree.id(w))

    def row(self, i: int) -> tuple[int, ...]:
        """sigma(w, .) for the word w with id i."""
        return self._read(self.product._states((i,))[i])

    def ball_rows(self, n: int) -> list[tuple[int, ...]]:
        """sigma(w, .) for every w of B(n), by id, off the product's states over the ball."""
        state, rows = self.product._fill(ball_steps(self.base.rank, n)), self._rows
        states = map(state.__getitem__, range(ball_size(self.base.rank, n)))
        return [rows[k] if k in rows else self._read(k) for k in states]

    def _read(self, k: int) -> tuple[int, ...]:
        """sigma(w, .) off T_w in state k, read once per state."""
        row = self._rows.get(k)
        if row is None:
            perm, ny, e = self.product._maps[k], self.fiber.size(), self.fiber.group.identity
            row = self._rows[k] = tuple([perm[x * ny + e] % ny for x in range(self.base.size())])
        return row

    def lift_base(self, p: FinitePartition) -> FinitePartition:
        ny = self.fiber.size()
        return FinitePartition(self.product.space, [label for label in p.labels for _ in range(ny)])

    def lift_fiber(self, q: FinitePartition) -> FinitePartition:
        return FinitePartition(self.product.space, list(q.labels) * self.base.size())

    def base_marker(self) -> FinitePartition:
        """B_X as a partition of the product: one block per base point."""
        return self.lift_base(FinitePartition.points(self.base.space))

    def product_partition(self, p: FinitePartition, q: FinitePartition) -> FinitePartition:
        return join(self.lift_base(p), self.lift_fiber(q))

    def pullback_partition(self, g: FreeWord, q: FinitePartition) -> FinitePartition:
        """P_g: the base partition pulling beta_g(Q) back under sigma(g, .)."""
        beta_gq = q.apply_permutation(self.fiber.word_perm(g))
        return FinitePartition(self.base.space, [beta_gq.labels[y] for y in self.values(g)])


def verify_cocycle_identity(
    row: Callable[[int], Sequence[int]],
    base: FiniteAction,
    fiber: FiniteGroupAction,
    max_len: int = 3,
) -> tuple[bool, dict | None]:
    """Exhaustive check of the cocycle identity over pairs of words.

    `row(i)` returns sigma(w, x) for the word w with id i and every base
    point x in order; it is called once for each id of B(2 max_len), which
    the products gh reach.  For each g in B(max_len), in id order, the rows
    of gh over all h in B(max_len), in id order, are compared, by number
    among the distinct rows, with x -> beta_g sigma(h, x) . sigma(g, alpha_h
    x), formed once per distinct (beta_g, sigma(g, .)), (sigma(h, .), alpha_h).
    The ids of gh for all g index the step table of B(2 max_len - 1) at the
    last letter of h, over those of g times the parent of h.

    Returns (ok, witness); the witness names the first failing (g, h, x)
    in the order g, then h, then x.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, not {max_len}")
    table, labels, tree = fiber.group.table, fiber.group.labels, base._tree
    ids = range(ball_size(base.rank, max_len))
    rows = [tuple(row(i)) for i in range(ball_size(base.rank, 2 * max_len))]
    number: dict[tuple[int, ...], int] = {}
    nums = [number.setdefault(r, len(number)) for r in rows]
    step = tree.step_table(2 * max_len - 1) if max_len else []
    steps = ball_steps(base.rank, max_len)
    alphas, betas = base._fill(steps), fiber._fill(steps)
    products = [list(ids)]  # the ids of g h by h, then g
    for _h, v, s in steps:
        products.append(list(map(step[s].__getitem__, products[v])))

    def rhs(g: int, h: int) -> tuple[int, ...]:
        beta_g, sigma_g = fiber._maps[betas[g]], rows[g]
        return tuple([table[beta_g[s]][sigma_g[a]] for s, a in zip(rows[h], base._maps[alphas[h]])])

    data = [(nums[h], alphas[h]) for h in ids]  # (sigma(h, .), alpha_h) by h
    first = {d: h for h, d in reversed(list(enumerate(data)))}  # the least h of each
    want: dict[tuple[int, int], list[int]] = {}  # (beta_g, sigma(g, .)) -> rhs numbers by h
    for g in ids:
        expected = want.get((betas[g], nums[g]))
        if expected is None:
            cells = {d: number.get(rhs(g, h), -1) for d, h in first.items()}
            expected = want[betas[g], nums[g]] = [cells[d] for d in data]
        got = [nums[gh[g]] for gh in products]
        if got != expected:
            h = next(h for h in ids if got[h] != expected[h])
            lhs, right = rows[products[h][g]], rhs(g, h)
            x = next(x for x in range(base.size()) if lhs[x] != right[x])
            return False, {
                "g": format_word(tree.word(g)),
                "h": format_word(tree.word(h)),
                "x": x,
                "lhs": labels[lhs[x]],
                "rhs": labels[right[x]],
            }
    return True, None


# -- the section cocycle realizing quotient-by-subgroup as a skew product ----


class SectionCocycleBundle:
    """A group action split along an invariant normal subgroup N as a cocycle.

    The least-representative section s splits G into base G/N and fiber N,
    with sigma(g, c) = alpha_g(s(c)) . s(alpha_g c)^{-1}; `cocycle` is the
    skew product over G/N with fiber N, and `verify_conjugacy` checks that
    Phi(c, n) = n . s(c) makes it the original action.
    """

    def __init__(self, ga: FiniteGroupAction, sub: frozenset[int]):
        g = ga.group
        if not g.is_normal(sub):
            if not g.is_subgroup(sub):
                raise ValueError("subgroup labels do not form a subgroup")
            raise ValueError("subgroup is not normal")
        if not ga.subgroup_invariant(sub):
            raise ValueError("subgroup is not invariant under the action")
        self.parent = ga
        elems = sorted(sub)
        to_local = {e: i for i, e in enumerate(elems)}
        table = [[to_local[g.mul(a, b)] for b in elems] for a in elems]
        fiber_group = FiniteGroup(f"{g.name}|sub", [g.labels[e] for e in elems], table)
        cosets = g.left_cosets(sub)  # in the order of their least elements
        coset_of = {x: c for c, coset in enumerate(cosets) for x in coset}
        section = self.section = [min(coset) for coset in cosets]
        base_perms, fiber_perms, gen_values = [], [], []
        for perm in ga.gen_perms:
            moved = [perm[r] for r in section]
            base_perms.append([coset_of[m] for m in moved])
            fiber_perms.append([to_local[perm[e]] for e in elems])
            gen_values.append([to_local[g.mul(m, g.inv(section[coset_of[m]]))] for m in moved])
        self.cocycle = Cocycle(
            FiniteAction(FinitePartition.uniform_space(len(section)), base_perms, ga.rank),
            FiniteGroupAction(fiber_group, fiber_perms, ga.rank),
            gen_values,
        )

    def verify_conjugacy(self, max_len: int = 3) -> tuple[bool, dict | None]:
        """Phi(c, n) = n . s(c) intertwines the skew action with the original one, exhaustively."""
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, not {max_len}")
        parent, product, fiber = self.parent, self.cocycle.product, self.cocycle.fiber.group
        g = parent.group
        # Phi at atom c ny + n of the product, with N's elements read off the fiber labels
        phi_flat = [g.mul(g.index(n), s) for s in self.section for n in fiber.labels]
        if sorted(phi_flat) != list(range(g.order())):
            return False, {"reason": "phi is not a bijection"}
        ids, steps = range(ball_size(parent.rank, max_len)), ball_steps(parent.rank, max_len)
        skew, orig = product._fill(steps), parent._fill(steps)
        for i in ids:
            skew_perm, parent_perm = product._maps[skew[i]], parent._maps[orig[i]]
            for idx in range(len(phi_flat)):
                if phi_flat[skew_perm[idx]] != parent_perm[phi_flat[idx]]:
                    c, n = divmod(idx, fiber.order())
                    return False, {
                        "word": format_word(product._tree.word(i)),
                        "coset": c,
                        "fiber": fiber.labels[n],
                    }
        return True, None


# -- partition functionals ----------------------------------------------------


def right_translate(group: FiniteGroup, q: FinitePartition, g: int) -> FinitePartition:
    """Q g = {A g : A in Q}."""
    perm = tuple(group.mul(x, g) for x in range(group.order()))
    return q.apply_permutation(perm)


def K_of(q: FinitePartition, group: FiniteGroup) -> EntropyValue:
    """sup over group elements of H(Qg | Q) + H(Q | Qg); zero iff Q is
    invariant under every right translation.  Q must be a partition of
    the group under Haar (uniform) measure, else ValueError.
    """
    if q.space.counts != (1,) * group.order():
        raise ValueError("K(Q) needs a partition of the group under Haar measure")
    return _k_of(q, [right_translate(group, q, g) for g in range(group.order())])


def _k_of(q: FinitePartition, translates: Sequence[FinitePartition]) -> EntropyValue:
    """K(Q) from the right translates Qg of Q, one per group element, under
    Haar measure: each term 2 H(Q v Qg) - H(Q) - H(Qg) is 2 H(Q v Qg) - 2 H(Q),
    since right translation permutes atoms of equal weight, so H(Qg) = H(Q)."""
    best = EntropyValue.zero()
    h_q = shannon_entropy(q)
    for qg in translates:
        value = 2 * (shannon_entropy(join(q, qg)) - h_q)
        if value > best:
            best = value
    return best


def sigma_generated(action: FiniteAction, q: FinitePartition) -> FinitePartition:
    """Smallest action-invariant partition algebra containing q (as a partition):
    each round joins the current partition with its image under every letter."""
    current = q
    while True:
        moved = [entropy._moved(current.labels, step) for step in action._steps]
        nxt = entropy._partition(current.space, zip(current.labels, *moved))
        if nxt.equal_mod_null(current):
            return current
        current = nxt


def join_special(
    group: FiniteGroup, items: Sequence[tuple[Sequence[int], SpecialPartition]]
) -> SpecialPartition:
    """The join of automorphism images T_i Q_i, verified to be special again.

    The resulting blocks are the cosets of the intersection of the T_i(N_i).
    """
    parts = []
    expected: set[int] | None = None
    for perm, sp in items:
        if not group.is_automorphism(perm):
            raise ValueError("translate by a non-automorphism")
        parts.append(sp.partition.apply_permutation(perm))
        image = {perm[x] for x in sp.subgroup}
        expected = image if expected is None else (expected & image)
    joined = join_many(parts)
    block = frozenset(
        x for x in range(group.order()) if joined.labels[x] == joined.labels[group.identity]
    )
    if block != frozenset(expected):
        raise AssertionError("joined identity block is not the intersected subgroup")
    result = SpecialPartition(group, block)
    if not joined.equal_mod_null(result.partition):
        raise AssertionError("join of special partitions failed to be special")
    return result


# -- executable partition-identity verifiers -----------------------------------


def verify_pullback_exchange(
    cocycle: Cocycle,
    g: FreeWord,
    special_q: SpecialPartition,
    p_prime: FinitePartition,
) -> bool:
    """Moving (P_g v P') x Q by the skew action equals moving both factors
    separately: exact partition identity on the finite product space."""
    q = special_q.partition
    p_g = cocycle.pullback_partition(g, q)
    combined = join(p_g, p_prime)
    lhs = cocycle.product_partition(combined, q).apply_permutation(
        cocycle.product.word_perm(g)
    )
    rhs = join(
        cocycle.lift_base(combined.apply_permutation(cocycle.base.word_perm(g))),
        cocycle.lift_fiber(q.apply_permutation(cocycle.fiber.word_perm(g))),
    )
    return lhs.equal_mod_null(rhs)


def verify_generated_algebra(
    cocycle: Cocycle, p_base: FinitePartition, special_q: SpecialPartition
) -> bool:
    """The invariant algebra of P x Q equals the one generated by
    B_X x Sigma(Q), for generating base partitions."""
    if not sigma_generated(cocycle.base, p_base).equal_mod_null(
        FinitePartition.points(cocycle.base.space)
    ):
        raise ValueError("base partition is not generating")
    lhs = sigma_generated(
        cocycle.product, cocycle.product_partition(p_base, special_q.partition)
    )
    sigma_q = sigma_generated(cocycle.fiber, special_q.partition)
    rhs = join(cocycle.base_marker(), cocycle.lift_fiber(sigma_q))
    return lhs.equal_mod_null(rhs)


def verify_window_split(
    cocycle: Cocycle, n: int, p_base: FinitePartition, special_q: SpecialPartition
) -> bool:
    """((P v R_n) x Q)^{B(n)} splits as (P v R_n)^{B(n)} x Q^{B(n)}."""
    q = special_q.partition
    window = ball(cocycle.base.rank, n)
    r_n = join_many(cocycle.pullback_partition(g, q) for g in window)
    enriched = join(p_base, r_n)
    lhs = cocycle.product.window_partition(
        cocycle.product_partition(enriched, q), window
    )
    rhs = join(
        cocycle.lift_base(cocycle.base.window_partition(enriched, window)),
        cocycle.lift_fiber(cocycle.fiber.window_partition(q, window)),
    )
    return lhs.equal_mod_null(rhs)


# -- the one-dimensional inequality on rank-1 skew products --------------------


def verify_skew_entropy_bound(
    cocycle: Cocycle, q: FinitePartition, m_max: int
) -> list[dict]:
    """|H(Q^m) - H(Q_x^m)| <= m K(Q) for every base point and m <= m_max,
    on a rank-1 cocycle (T = alpha_a, S = beta_a) and a partition Q of the
    fiber group under Haar measure; anything else raises ValueError.

    Q^m is the window partition of Q over {A^k : k < m}, and Q_x^m the
    join of S^-k(Q sigma(k, x)^-1), with S^-k = beta_{A^k} and
    sigma(k, x) = sigma(a^k, x).  Both start from Q^1 = Q_x^1 = Q and grow
    from m - 1 by one join, Q_x^m once per prefix (sigma(k, x) : k < m),
    on which alone it depends.  The right translates Qg are built once, for
    K(Q) and for the factors.  Returns one record per (x, m) with both
    sides and whether equality held.
    """
    if cocycle.base.rank != 1:
        raise ValueError(f"the skew entropy bound needs a rank-1 cocycle, not rank {cocycle.base.rank}")
    if q.space != cocycle.fiber.space:
        raise ValueError("the skew entropy bound needs a partition of the fiber group under Haar measure")
    action, group = cocycle.fiber, cocycle.fiber.group
    translates = [right_translate(group, q, g) for g in range(group.order())]
    k_q = _k_of(q, translates)
    # twisted[c] = (Q_x^m, its record but m and x) for the base points x of prefix number c = prefix[x]
    plain, twisted, prefix, records = q, [(q,)], [0] * cocycle.base.size(), []
    for m in range(1, m_max + 1):
        s_back = action.word_perm(FreeWord(1, [-1] * (m - 1)))
        sigma = cocycle.values(FreeWord(1, [1] * (m - 1)))
        plain = join(plain, q.apply_permutation(s_back))
        h_plain = shannon_entropy(plain)
        bound = m * k_q
        longer: dict[tuple[int, int], int] = {}  # (prefix number, sigma(m - 1, x)) -> the longer prefix's
        grown = []
        for x, value in enumerate(sigma):
            c = longer.setdefault((prefix[x], value), len(grown))
            if c == len(grown):
                factor = translates[group.inv(value)].apply_permutation(s_back)
                joined = join(twisted[prefix[x]][0], factor)
                h_twisted = shannon_entropy(joined)
                diff = h_plain - h_twisted
                ok = diff <= bound and (-1 * diff) <= bound
                record = {"h_plain": h_plain, "h_twisted": h_twisted, "k_q": k_q, "holds": ok, "equal": diff.is_zero()}
                grown.append((joined, record))
            prefix[x] = c
            records.append({"m": m, "x": x, **grown[c][1]})
        twisted = grown
    return records
