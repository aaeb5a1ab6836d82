"""Algebraic subshifts over Z/pZ cut out by finitely supported convolution operators.

A kernel is stored through its stencil: coeffs[s] is the d_out x d_in
matrix multiplying x(g s) in the constraint evaluated at g, so the
operator reads phi(x)(g) = sum_s coeffs[s] . x(g s).  In group-ring terms
coeffs[s] = h(s^{-1}), which makes the support of the stored map exactly
the set F = {g : h(g^{-1}) != 0} whose translates g.F are the constraint
stencils.

Cylinder measures of ker(phi) come from exact window marginals
pi_W(ker phi), one argument for every kernel, scalar or matrix-valued:
ker(phi) is a tree shift of finite type, the states that extend into
each branch of the Cayley tree are a fixed point computed once per
subshift, and pi_W(ker phi) is the solution set on hull(W) with each
exit state held to its branch's fixed point (see `KernelSubshift`).
Every marginal is labelled EXACT.  The constraint placement has one
implementation, `_site_rows` (the rows at given site ids, keyed (id,
input channel)): the hull systems and the fixed point use it on ids,
`target_map_matrix` densifies it, and `window_rows` is its word-level
view on a window.

The onto-ness decision (`is_surjective`) and the preimage solver
(`preimage_on_ball`) work on the stencil translated so that the identity
is a center of its hull (`_centered`), which cuts out the same subshift.
There a lemma (`preimage_on_ball`) gives each site of the spiral ordering
a coordinate that no earlier constraint reads; hence nonzero scalars are onto.
A matrix kernel is onto iff its dual stencil has no finitely supported
kernel element: the least fixed point of the same round map decides it,
and a "not onto" carries a checked witness (`is_surjective`).

The window systems and the onto-ness path run on word ids and
`CayleyTree` steps (see `flab.words`); FreeWords are built only at the
boundary: for arguments, for the keys and columns returned, and reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .fplinear import (
    AffineSolutionSet,
    FpMatrix,
    check_modulus,
    eliminate,
    eliminate_columns,
    rank as fp_rank,
    solve,
    solution_space_from_constraints,
)
from .spec import is_int, spec_field
from .words import (
    CayleyTree,
    FreeWord,
    WordSet,
    ball,
    ball_list,
    ball_size,
    convex_hull,
    format_word,
    identity,
    inv,
    letter_slots,
    mul,
    parse_word,
    radius_center,
)

Matrix = tuple[tuple[int, ...], ...]


class ZeroKernelError(ValueError):
    pass


def _as_matrix(value, d_out: int, d_in: int, p: int) -> Matrix:
    rows = tuple(tuple(int(x) % p for x in row) for row in value)
    if len(rows) != d_out or any(len(r) != d_in for r in rows):
        raise ValueError(f"coefficient block must be {d_out}x{d_in}")
    return rows


def _block_is_zero(m: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in m)


class ConvolutionKernel:
    """A finitely supported matrix-valued kernel over Z/pZ."""

    __slots__ = ("p", "rank", "d_in", "d_out", "coeffs")

    def __init__(
        self,
        p: int,
        rank: int,
        coeffs: Mapping[FreeWord, Sequence[Sequence[int]]],
        d_in: int = 1,
        d_out: int = 1,
    ):
        check_modulus(p)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        for field, d in (("d_in", d_in), ("d_out", d_out)):
            if d < 1:
                raise ValueError(f"{field} must be >= 1, not {d}")
        clean: dict[FreeWord, Matrix] = {}
        for w, block in coeffs.items():
            if w.rank != rank:
                raise ValueError("support word of wrong rank")
            m = _as_matrix(block, d_out, d_in, p)
            if not _block_is_zero(m):
                clean[w] = m
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ConvolutionKernel is immutable")

    def __delattr__(self, name):
        raise AttributeError("ConvolutionKernel is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar(self) -> bool:
        return self.d_in == 1 and self.d_out == 1

    def support(self) -> WordSet:
        return WordSet(self.rank, self.coeffs.keys())

    def support_words(self) -> list[FreeWord]:
        return sorted(self.coeffs, key=FreeWord.sort_key)

    def evaluate(self, x: Mapping[FreeWord, Sequence[int]], g: FreeWord) -> tuple[int, ...]:
        """phi(x)(g) for a configuration given as a dict (absent coords are 0)."""
        out = [0] * self.d_out
        for s, block in self.coeffs.items():
            val = x.get(mul(g, s))
            if val is None:
                continue
            if isinstance(val, int):
                val = (val,)
            for r in range(self.d_out):
                out[r] += sum(block[r][j] * val[j] for j in range(self.d_in))
        return tuple(v % self.p for v in out)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rank": self.rank,
            "d_in": self.d_in,
            "d_out": self.d_out,
            "coeffs": {
                format_word(w): [list(row) for row in block]
                for w, block in sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())
            },
        }

    @staticmethod
    def from_json(data: dict) -> "ConvolutionKernel":
        rank = spec_field(data, "rank", int)
        d_in = spec_field(data, "d_in", int, 1)
        d_out = spec_field(data, "d_out", int, 1)
        coeffs = {}
        for text, block in spec_field(data, "coeffs", dict).items():
            if is_int(block):
                block = [[block]]
            if not (
                isinstance(block, list)
                and all(isinstance(row, list) and all(is_int(x) for x in row) for row in block)
            ):
                raise ValueError(f"coefficient of {text!r} must be an integer or a matrix of integers")
            coeffs[parse_word(text, rank)] = block
        return ConvolutionKernel(spec_field(data, "p", int), rank, coeffs, d_in, d_out)

    def __repr__(self) -> str:
        supp = ",".join(format_word(w) for w in self.support_words())
        return f"ConvolutionKernel(p={self.p}, rank={self.rank}, {self.d_out}x{self.d_in}, supp={{{supp}}})"


def scalar_kernel(p: int, rank: int, coeffs: Mapping[str, int]) -> ConvolutionKernel:
    """Scalar kernel from word-text stencil coefficients."""
    return ConvolutionKernel(
        p, rank, {parse_word(t, rank): [[v]] for t, v in coeffs.items()}
    )


def ow_kernel() -> ConvolutionKernel:
    """The doubling map x |-> (x(g)+x(g s1), x(g)+x(g s2)) on the rank-2 binary shift."""
    rank = 2
    return ConvolutionKernel(
        2,
        rank,
        {
            identity(rank): [[1], [1]],
            parse_word("a", rank): [[1], [0]],
            parse_word("b", rank): [[0], [1]],
        },
        d_in=1,
        d_out=2,
    )


def comparison_kernel(p: int, rank: int) -> ConvolutionKernel:
    """Rows x(g s_i) - x(g); its kernel is the constant configurations."""
    coeffs: dict[FreeWord, list[list[int]]] = {
        identity(rank): [[-1] for _ in range(rank)]
    }
    for i in range(1, rank + 1):
        col = [[0] for _ in range(rank)]
        col[i - 1] = [1]
        coeffs[FreeWord(rank, (i,))] = col
    return ConvolutionKernel(p, rank, coeffs, d_in=1, d_out=rank)


class SupportGeometry(NamedTuple):
    """Stencil support F, its convex hull, radius and centers."""

    support: WordSet
    hull: WordSet
    radius: int
    centers: WordSet


def support_geometry(k: ConvolutionKernel) -> SupportGeometry:
    if k.is_zero():
        raise ZeroKernelError("zero kernel has no support geometry")
    support = k.support()
    hull = convex_hull(support)
    radius, centers = radius_center(hull)
    return SupportGeometry(support, hull, radius, centers)


def _centered(k: ConvolutionKernel) -> tuple[ConvolutionKernel, FreeWord, SupportGeometry]:
    """Translate the stencil so the identity becomes a center of its hull.

    Returns (k', c, geometry of k') with k'.coeffs[t] = k.coeffs[c t]; the
    two kernels cut out the same subshift, with constraints reindexed by
    g -> g c^{-1}.
    """
    geo = support_geometry(k)
    center = next(iter(geo.centers))
    if center.is_identity():
        return k, center, geo
    cinv = inv(center)
    coeffs = {mul(cinv, s): block for s, block in k.coeffs.items()}
    kc = ConvolutionKernel(k.p, k.rank, coeffs, k.d_in, k.d_out)
    return kc, center, support_geometry(kc)


def _stencil(k: ConvolutionKernel, tree: CayleyTree) -> list[tuple[int, tuple[int, ...], Matrix]]:
    """(id, letter slots, block) of each support word of k, in ascending id."""
    return sorted((tree.id(s), letter_slots(s.letters), block) for s, block in k.coeffs.items())


# -- window systems ---------------------------------------------------------


def _check_rank(k: ConvolutionKernel, V: WordSet):
    if V.rank != k.rank:
        raise ValueError(f"rank mismatch: {V.rank} != {k.rank}")


def window_coordinates(k: ConvolutionKernel, V: WordSet) -> list[tuple[FreeWord, int]]:
    """Column labels (word, input channel) in the canonical length-lex order."""
    return [(w, j) for w in V for j in range(k.d_in)]


def _sites(k: ConvolutionKernel, tree: CayleyTree, V: frozenset[int]) -> list[int]:
    """Ids of all g whose translated stencil support g.F lies inside V, ascending."""
    if k.is_zero():
        return []
    f0, *rest = [slots for _, slots, _ in _stencil(k, tree)]
    # g = v·f0^-1 puts g·f0 = v inside V, so only the rest of F is checked
    sites = tree.translates(V, tuple(a ^ 1 for a in reversed(f0)))
    for f in rest:
        sites = [g for g, gf in zip(sites, tree.translates(sites, f)) if gf in V]
    sites.sort()
    return sites


def constraint_sites(k: ConvolutionKernel, V: WordSet) -> list[FreeWord]:
    """All g whose translated stencil support g.F lies inside V."""
    _check_rank(k, V)
    tree = CayleyTree(k.rank)
    return [tree.word(g) for g in _sites(k, tree, V.ids())]


def _site_rows(k: ConvolutionKernel, tree: CayleyTree, sites: list[int]) -> list[dict]:
    """The constraint rows at the given site ids, keyed (id, input channel).

    The support words s place at distinct ids g·s, so each nonzero block
    entry, already reduced mod p, is a row entry of its own."""
    blocks = list(k.coeffs.values())
    columns = [tree.translates(sites, letter_slots(s.letters)) for s in k.coeffs]
    rows = []
    for n in range(len(sites)):
        placed = [(column[n], block) for column, block in zip(columns, blocks)]
        for r in range(k.d_out):
            rows.append({(gs, j): x for gs, block in placed for j, x in enumerate(block[r]) if x})
    return rows


def window_rows(k: ConvolutionKernel, V: WordSet) -> tuple[list[dict], list[FreeWord]]:
    """Sparse homogeneous constraint rows over window V plus the site index."""
    _check_rank(k, V)
    tree = CayleyTree(k.rank)
    sites = _sites(k, tree, V.ids())
    word = {i: tree.word(i) for i in V.ids()}
    rows = [{(word[i], j): v for (i, j), v in row.items()} for row in _site_rows(k, tree, sites)]
    return rows, [tree.word(g) for g in sites]


def _basis_rows(rows: list[dict], columns, p: int) -> list[dict]:
    """Linearly independent rows with the same solution space as `rows`."""
    return [row for _, row in eliminate(rows, columns, p)[0]]


def _fixed_point(k: ConvolutionKernel, tree: CayleyTree, ball: list, least: bool = False) -> tuple[list[list[dict]], int]:
    """Each branch space of the centered stencil k at a fixed point of the
    round map of `KernelSubshift`, as rows over the state coordinates (id
    in B(rho), by the letter slots in `ball`; input channel), and the
    rounds run.  From the state rows the spaces only shrink, to E_t; from
    the unit rows (least), which cut out {0}, they only grow, to the Z_t
    of `is_surjective`.  Either way equal ranks mean a fixed point."""
    p, n, letters = k.p, len(ball), range(2 * k.rank)
    keys = [(u, j) for u in range(n) for j in range(k.d_in)]
    state = _basis_rows(_site_rows(k, tree, [0]), keys, p)
    # t·w for each state coordinate w of the neighbour g·t, as seen from g
    step = list(zip(*(tree.translates(range(1, 2 * k.rank + 1), w) for w in ball)))
    branches = [[{key: 1} for key in keys] if least else state for _ in letters]
    rounds = 0
    while True:
        rounds += 1
        grown = []
        for t in letters:
            shared = {w: tw for w, tw in enumerate(step[t]) if tw < n}
            beyond = [row for s in letters if s != t ^ 1 for row in branches[s]]
            hidden = [(w, j) for w in range(n) if w not in shared for j in range(k.d_in)]
            seen = eliminate_columns(beyond, hidden, p)
            rows = state + [{(shared[w], j): v for (w, j), v in row.items()} for row in seen]
            grown.append(_basis_rows(rows, keys, p))
        if [len(rows) for rows in grown] == [len(rows) for rows in branches]:
            return branches, rounds
        branches = grown


class MarginalResult(NamedTuple):
    """Projected solution set of the kernel subshift on a window, with certificate."""

    window: WordSet
    solution_set: AffineSolutionSet
    certificate: str

    @property
    def dimension(self) -> int:
        return self.solution_set.dimension


class KernelSubshift:
    """ker(phi) as a tree shift of finite type, with a cache of exact window marginals.

    The subshift is read through the centered stencil (`_centered`), whose
    hull lies in the ball B(rho).  The state at a vertex g is x on g·B(rho)
    satisfying the constraint at g; x is in ker(phi) iff the states at
    every pair of neighbours agree where their balls overlap.  For each of
    the 2r letters t, E_t is the subspace of states at g that extend, by
    agreeing states, to every vertex of the branch through g·t.  These
    are computed once (`_fixed_point`), as the greatest fixed point of

        E_t <- {states y : some z in the meet of E_t', t' != t^-1,
                 agrees with y on B(rho) ∩ t·B(rho)}

    started from all states (Aubrun–Béal, Tree-shifts of finite type,
    TCS 2012; Piantadosi, Symbolic dynamics on free groups, DCDS 2008).
    Round k keeps the states that extend k levels into the branch.  The
    rounds only shrink the E_t, so once a round changes nothing no later
    round does, and each round that changes something lowers the total
    dimension: there are at most 2r·d_in·|B(rho)| of them.  By compactness
    a state that extends to every depth extends to the whole branch, so
    the fixed point is exact.

    The marginal on W then needs no window growth.  On a tree a branch
    meets hull(W) only through its exit edge, so x on thicken(hull(W), rho)
    is a restriction of ker(phi) iff it satisfies the constraint at every
    g in hull(W) and the state at g lies in E_t for every exit edge (g, t),
    g·t outside hull(W).  π_W(ker phi) is the projection of that solution
    set onto W, and its certificate is EXACT.
    """

    def __init__(self, kernel: ConvolutionKernel):
        if kernel.is_zero():
            raise ZeroKernelError("the zero kernel cuts out the full shift; use a Bernoulli process")
        self.kernel = kernel
        self._stencil, _, geo = _centered(kernel)
        self._tree = CayleyTree(kernel.rank)
        # letter slots of the words of B(rho), in id order
        self._ball = [letter_slots(w.letters) for w in ball_list(kernel.rank, geo.radius)]
        self.radius = geo.radius  # rho: the centered hull lies in B(rho)
        self._branches, _ = _fixed_point(self._stencil, self._tree, self._ball)
        self._cache: dict[tuple, MarginalResult] = {}

    def marginal(self, W: WordSet) -> MarginalResult:
        _check_rank(self.kernel, W)
        key = W.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = self._compute_marginal(W)
        self._cache[key] = result
        return result

    def _compute_marginal(self, W: WordSet) -> MarginalResult:
        """Project the hull system of W onto W (see the class docstring)."""
        k, tree, p = self._stencil, self._tree, self.kernel.p
        hull = sorted(tree.hull(W.ids()))
        inside = set(hull)
        rows = _site_rows(k, tree, hull)
        for t, branch in enumerate(self._branches):
            exits = [g for g, gt in zip(hull, tree.translates(hull, (t,))) if gt not in inside]
            placed = [tree.translates(exits, u) for u in self._ball]
            for e in range(len(exits)):
                rows += [{(placed[u][e], j): v for (u, j), v in row.items()} for row in branch]
        channels, kept = range(k.d_in), W.ids()
        # ids are length-lex, so descending id order eliminates the longest words first
        outer = sorted(tree.thicken(hull, self.radius) - kept, reverse=True)
        reduced = eliminate_columns(rows, [(i, j) for i in outer for j in channels], p)
        keep = window_coordinates(k, W)
        label = dict(zip([(i, j) for i in sorted(kept) for j in channels], keep))
        reduced = [{label[c]: v for c, v in row.items()} for row in reduced]
        return MarginalResult(W, solution_space_from_constraints(reduced, tuple(keep), p), "EXACT")

    def cylinder_measure(self, W: WordSet, pattern: Mapping[FreeWord, object]) -> Fraction:
        m = self.marginal(W)
        vec = []
        for w, j in window_coordinates(self.kernel, W):
            val = pattern[w]
            if isinstance(val, int):
                val = (val,)
            vec.append(val[j] % self.kernel.p)
        if m.solution_set.contains(vec):
            return Fraction(1, self.kernel.p ** m.dimension)
        return Fraction(0)


# -- surjectivity ------------------------------------------------------------


class SurjectivityReport(NamedTuple):
    surjective: bool
    kind: str
    details: dict

    def to_json(self) -> dict:
        return {"surjective": self.surjective, "kind": self.kind, **self.details}


def target_map_matrix(k: ConvolutionKernel, W: WordSet) -> tuple[FpMatrix, list]:
    """Matrix of x |-> phi(x)|_W over the variables the W-constraints read:
    the `_site_rows` at W, densified over every channel of each id read."""
    _check_rank(k, W)
    tree, d_in = CayleyTree(k.rank), k.d_in
    rows = _site_rows(k, tree, sorted(W.ids()))
    var_ids = sorted({i for row in rows for i, _ in row})
    index = {i: n * d_in for n, i in enumerate(var_ids)}
    dense = []
    for row in rows:
        out = [0] * (len(var_ids) * d_in)
        for (i, j), v in row.items():
            out[index[i] + j] = v
        dense.append(out)
    cols = [(tree.word(i), j) for i in var_ids for j in range(d_in)]
    return FpMatrix(k.p, dense, cols=len(cols)), cols


def is_surjective(k: ConvolutionKernel) -> SurjectivityReport:
    """Onto-ness of phi, with a certificate.

    Nonzero scalar kernels are onto, by the lemma of `preimage_on_ball`
    on the centered stencil, whose center and hull the certificate names.

    A matrix kernel is decided on its dual phi^ = {s^-1 : c(s)^T}, for
    which <phi(x), y> = <x, phi^(y)>.  phi has compact image, so by
    Pontryagin duality (K. Schmidt, Dynamical Systems of Algebraic Origin,
    1995) phi is onto iff no finitely supported y != 0 has phi^(y) = 0.
    On the centered dual stencil, of radius rho^, `_fixed_point` grows
    each Z_t from {0}: after round m, Z_t holds the states at g that
    extend into the branch through g·t by a y vanishing off
    g·B(m - 1 + rho^).  A finitely supported y in ker phi^ has its state
    at every vertex in every Z_t, and a state in all of them extends into
    every branch at once.  So phi is onto iff the meet of the 2r spaces
    Z_t is {0}, a rank check on their stacked rows.  Else, the fixed
    point being reached at round rounds - 1, some y != 0 in ker phi^
    vanishes off B(rounds - 2 + rho^).  The target map on B(n) loses row
    rank iff such a y vanishes off B(n): its left null vectors are those
    y.  `_witness` scans B(0), B(1), ... up to that bound, raises
    AssertionError past it, and checks phi^(y) = 0 on the stencil.
    """
    if k.is_zero():
        return SurjectivityReport(False, "zero-kernel", {})
    if k.is_scalar():
        _, center, geo = _centered(k)
        return SurjectivityReport(
            True,
            "theorem-scalar",
            {
                "center": format_word(center),
                "centered_hull": [format_word(w) for w in geo.hull],
                "hull_radius": geo.radius,
            },
        )
    dual = ConvolutionKernel(k.p, k.rank, {inv(s): list(zip(*c)) for s, c in k.coeffs.items()}, k.d_out, k.d_in)
    stencil, _, geo = _centered(dual)
    tree, states = CayleyTree(k.rank), ball_list(k.rank, geo.radius)
    branches, rounds = _fixed_point(stencil, tree, [letter_slots(w.letters) for w in states], least=True)
    keys = [(u, j) for u in range(len(states)) for j in range(dual.d_in)]
    meet = len(keys) - len(_basis_rows([row for rows in branches for row in rows], keys, k.p))
    dims = {format_word(tree.word(t + 1)): len(keys) - len(rows) for t, rows in enumerate(branches)}
    details = {"rounds": rounds, "branch_dimensions": dims, "meet_dimension": meet}
    if meet:
        details["witness"] = _witness(k, dual, rounds - 2 + geo.radius)
    return SurjectivityReport(not meet, "dual-fixed-point", details)


def _witness(k: ConvolutionKernel, dual: ConvolutionKernel, bound: int) -> dict:
    """The first ball B(n), n <= bound, whose target map loses row rank, and a
    left null vector y there, listed on its support, checked: phi^(y) = 0."""
    for n in range(bound + 1):
        m, _ = target_map_matrix(k, ball(k.rank, n))
        if (rank := fp_rank(m)) < m.rows:
            break
    else:
        raise AssertionError(f"no target map up to B({bound}) loses row rank")
    d, null = k.d_out, solve(FpMatrix(k.p, list(zip(*m.entries))), [0] * m.cols).basis[0]
    y = {g: null[i * d:i * d + d] for i, g in enumerate(ball_list(k.rank, n)) if any(null[i * d:i * d + d])}
    if any(any(dual.evaluate(y, mul(g, inv(s)))) for g in y for s in dual.coeffs):
        raise AssertionError("the witness is not in the kernel of the dual stencil")
    return {"ball": f"B({n})", "rank": rank, "rows": m.rows, "y": [[format_word(g), list(v)] for g, v in y.items()]}


# -- constructive preimages --------------------------------------------------


def _picks(stencil: list[tuple[int, tuple[int, ...], Matrix]], rank: int) -> dict:
    """For each cancelling slot b (None at e), the lemma's u: the index of the
    last stencil word in id order, so a longest one, not starting with b."""
    return {b: max(f for f, (_, s, _) in enumerate(stencil) if s[:1] != (b,)) for b in (None, *range(2 * rank))}


def preimage_on_ball(
    k: ConvolutionKernel, y: Mapping[FreeWord, int], n: int
) -> dict[FreeWord, int]:
    """A finite configuration x with phi(x)(g) = y(g) for every g in B(n).

    Runs the inductive construction behind the onto-ness theorem on the
    centered stencil k' = _centered(k) with center c: phi(x)(g) =
    phi'(x)(g·c), so the targets move to y'(g·c) = y(g) for g in B(n),
    and y' = 0 on the rest of B(n + |c|).  The sites of B(n + |c|) are
    taken in id order, the spiral ordering, and each solves its
    constraint for one coordinate g·u that no earlier constraint reads.

    Lemma.  Let k' have support F and hull H, with e a center of H and
    radius rho.  For a site g != e whose last letter is t, let u be a
    longest word of F whose first letter is not t^-1; for g = e, any
    longest word of F.  Then g·u lies outside g'·H for every earlier g'.

    Proof.  H lies in B(rho) and holds e, a center.  A longest word of H
    not starting with t^-1 has at most one neighbour in H, so it is a
    leaf of H (or all of H) and lies in F: u is one, and |g·u| = |g| + |u|
    >= |g'| + |u|.  If |u| = rho, d(g', g·u) <= rho forces g' = g.  Else
    the words of H longer than |u| start with t^-1, so are at most
    2rho - 2 apart, and a diametral pair (2rho - 1 or 2rho apart) gives
    |u| = rho - 1 and diameter 2rho - 1.  Then only the parent of g is
    close enough, and it would need t·u in H; but t·u lies 2rho away from
    a rho-long word of H, which starts with t^-1.

    Each word of F has a coefficient invertible mod p.  `_picks` tabulates
    u by the cancelling slot t^-1; each step asserts its constraint, and
    the result is re-verified against k on B(n).  Sites, targets and x
    are keyed by word id; x is decoded once, at the return.
    """
    if k.is_zero():
        raise ZeroKernelError("zero kernel has no preimages")
    if not k.is_scalar():
        raise ValueError("preimage solver requires a scalar kernel")
    centered, c, _ = _centered(k)
    rank, p, tree = k.rank, k.p, CayleyTree(k.rank)
    # the spiral ordering is breadth-first: the ids 0, 1, ..., with B(n) first
    sites = range(ball_size(rank, n + len(c)))
    targets = range(ball_size(rank, n))
    given = {tree.id(g): v for g, v in y.items() if g.rank == rank}
    for g in targets:
        if g not in given:
            raise ValueError(f"target pattern missing site {format_word(tree.word(g))}")
    shifted = dict(zip(tree.translates(targets, letter_slots(c.letters)), map(given.get, targets)))
    stencil = _stencil(centered, tree)
    picks = _picks(stencil, rank)

    image = [tree.translates(sites, slots) for _, slots, _ in stencil]
    coeffs = [block[0][0] for _, _, block in stencil]
    x: dict[int, int] = {}
    for g in sites:
        f = picks[tree.last(g) ^ 1 if g else None]
        placed = [column[g] for column in image]
        target = shifted.get(g, 0) % p
        rest = sum(a * x.setdefault(gs, 0) for s, (a, gs) in enumerate(zip(coeffs, placed)) if s != f)
        x[placed[f]] = (pow(coeffs[f], -1, p) * (target - rest)) % p
        if sum(a * x[gs] for a, gs in zip(coeffs, placed)) % p != target:
            raise AssertionError("solver step failed to satisfy its constraint")

    checks = [(tree.translates(targets, slots), block[0][0]) for _, slots, block in _stencil(k, tree)]
    for g in targets:
        if sum(a * x.get(column[g], 0) for column, a in checks) % p != given[g] % p:
            raise AssertionError("preimage re-verification failed")
    words = ball_list(rank, tree.length(max(x)))
    return {words[i]: v for i, v in x.items()}
