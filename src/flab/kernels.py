"""Algebraic subshifts over Z/pZ cut out by finitely supported convolution operators.

A kernel is stored through its stencil: coeffs[s] is the d_out x d_in
matrix multiplying x(g s) in the constraint evaluated at g, so the
operator reads phi(x)(g) = sum_s coeffs[s] . x(g s).  In group-ring terms
coeffs[s] = h(s^{-1}), which makes the support of the stored map exactly
the set F = {g : h(g^{-1}) != 0} whose translates g.F are the constraint
stencils.

Cylinder measures of ker(phi) come from projecting finite window
systems onto the queried coordinates, along a chain of enclosing windows
V0 < V1 < ... < V_cap.  Each projection carries a certificate saying
what was shown:

    EXTENSION-CERTIFIED  a constructive proof, via the extreme-point step
                         of the onto-ness induction, that every V0
                         solution extends to V_cap, so the projections of
                         all windows V0 .. V_cap agree
    STABILIZED           two successive windows of the chain give the
                         same projection; evidence, not a proof, since a
                         later window can still cut the projection down
    UNCERTIFIED          neither, within the growth cap

The window path runs on integer word ids (see `flab.words`): the window
chain is a sequence of id sets, and constraint sites, constraint rows
and the extension proof's escape walk take their stencil steps on the
subshift's own `CayleyTree`.  Only the kept coordinates of a projection
are labelled by words.  `constraint_sites` and `window_rows` are the
word-level views of the same computations; the window path calls the
id-level `_sites` and `_window_rows`.

The onto-ness decision (`is_surjective`) and the preimage solver
(`preimage_on_ball`) work on the stencil translated so that the identity
is a center of its hull (`_centered`), which cuts out the same subshift.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .entropy import EntropyValue
from .fplinear import (
    AffineSolutionSet,
    FpMatrix,
    check_modulus,
    eliminate_columns,
    rank as fp_rank,
    solution_space_from_constraints,
)
from .spec import is_int, spec_field
from .words import (
    CayleyTree,
    FreeWord,
    WordSet,
    ball,
    ball_size,
    check_ordering_condition,
    convex_hull,
    distance,
    escape_walk,
    extreme_points,
    format_word,
    identity,
    inv,
    letter_slots,
    mul,
    parse_word,
    radius_center,
    spiral_ordering,
    thicken,
)

Matrix = tuple[tuple[int, ...], ...]

GROWTH_CAP = 4
WINDOW_GUARD = 80_000  # largest window (in words) the growth loop will build


class ZeroKernelError(ValueError):
    pass


class UncertifiedWindowError(RuntimeError):
    pass


class OrderingConditionError(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


def _as_matrix(value, d_out: int, d_in: int, p: int) -> Matrix:
    rows = tuple(tuple(int(x) % p for x in row) for row in value)
    if len(rows) != d_out or any(len(r) != d_in for r in rows):
        raise ValueError(f"coefficient block must be {d_out}x{d_in}")
    return rows


def _block_is_zero(m: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in m)


def _block_full_row_rank(m: Matrix, p: int) -> bool:
    return fp_rank(FpMatrix(p, m)) == len(m)


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
    """Stencil support F, its convex hull, extreme points, radius and centers."""

    support: WordSet
    hull: WordSet
    extremes: WordSet
    radius: int
    centers: WordSet

    def diameter(self) -> int:
        elems = list(self.hull)
        return max(
            (distance(a, b) for a in elems for b in elems), default=0
        )


def support_geometry(k: ConvolutionKernel) -> SupportGeometry:
    if k.is_zero():
        raise ZeroKernelError("zero kernel has no support geometry")
    support = k.support()
    hull = convex_hull(support)
    radius, centers = radius_center(hull)
    return SupportGeometry(support, hull, extreme_points(hull), radius, centers)


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


# -- window systems ---------------------------------------------------------


def window_coordinates(k: ConvolutionKernel, V: WordSet) -> list[tuple[FreeWord, int]]:
    """Column labels (word, input channel) in the canonical length-lex order."""
    return [(w, j) for w in V for j in range(k.d_in)]


def _sites(k: ConvolutionKernel, tree: CayleyTree, V: frozenset[int]) -> list[int]:
    """Ids of all g whose translated stencil support g.F lies inside V, ascending."""
    if k.is_zero():
        return []
    f0, *rest = [letter_slots(f.letters) for f in k.support_words()]
    # g = v·f0^-1 puts g·f0 = v inside V, so only the rest of F is checked
    sites = tree.translates(V, tuple(a ^ 1 for a in reversed(f0)))
    for f in rest:
        sites = [g for g, gf in zip(sites, tree.translates(sites, f)) if gf in V]
    sites.sort()
    return sites


def constraint_sites(k: ConvolutionKernel, V: WordSet) -> list[FreeWord]:
    """All g whose translated stencil support g.F lies inside V."""
    tree = CayleyTree(k.rank)
    return [tree.word(g) for g in _sites(k, tree, V.ids())]


def _window_rows(
    k: ConvolutionKernel, tree: CayleyTree, V: frozenset[int]
) -> tuple[list[dict], list[int]]:
    """Constraint rows over the ids V, keyed (id, input channel), and the site ids."""
    sites = _sites(k, tree, V)
    blocks = list(k.coeffs.values())
    columns = [tree.translates(sites, letter_slots(s.letters)) for s in k.coeffs]
    p = k.p
    rows = []
    for n in range(len(sites)):
        placed = [(column[n], block) for column, block in zip(columns, blocks)]
        for r in range(k.d_out):
            row: dict = {}
            for gs, block in placed:
                for j in range(k.d_in):
                    if block[r][j]:
                        key = (gs, j)
                        row[key] = (row.get(key, 0) + block[r][j]) % p
            rows.append({kk: v for kk, v in row.items() if v})
    return rows, sites


def window_rows(k: ConvolutionKernel, V: WordSet) -> tuple[list[dict], list[FreeWord]]:
    """Sparse homogeneous constraint rows over window V plus the site index."""
    tree = CayleyTree(k.rank)
    rows, sites = _window_rows(k, tree, V.ids())
    word = {i: tree.word(i) for i in V.ids()}
    rows = [{(word[i], j): v for (i, j), v in row.items()} for row in rows]
    return rows, [tree.word(g) for g in sites]


def _marginal_system(
    k: ConvolutionKernel, W: WordSet, V: WordSet, tree: CayleyTree | None = None
) -> AffineSolutionSet:
    """Project the window-V solution set onto the W coordinates.

    Eliminates the non-kept columns outermost-first (leaf-first in the
    tree), which keeps fill-in local for translation-invariant stencils.
    The system is built on ids; the kept columns are relabelled by words.
    """
    tree = tree or CayleyTree(k.rank)
    rows, _ = _window_rows(k, tree, V.ids())
    channels, kept = range(k.d_in), W.ids()
    length = tree.length
    outer = sorted(V.ids() - kept, key=lambda i: (-length(i), i))
    reduced = eliminate_columns(rows, [(i, j) for i in outer for j in channels], k.p)
    keep = window_coordinates(k, W)
    label = dict(zip([(i, j) for i in sorted(kept) for j in channels], keep))
    reduced = [{label[c]: v for c, v in row.items()} for row in reduced]
    return solution_space_from_constraints(reduced, tuple(keep), k.p)


def _fresh_candidates(k: ConvolutionKernel, geo: SupportGeometry) -> list[FreeWord]:
    """Stencil positions usable as the solved-for coordinate in an extension step.

    Extreme points of the hull (the whole support for a radius-0 stencil)
    whose coefficient block can produce any output value.
    """
    cands = list(geo.extremes) if len(geo.hull) > 1 else list(geo.support)
    return [f for f in cands if _block_full_row_rank(k.coeffs[f], k.p)]


def _extension_proof(
    k: ConvolutionKernel,
    tree: CayleyTree,
    fresh: list[tuple[int, ...]],
    V: WordSet,
    V2: WordSet,
) -> bool:
    """Constructive proof that every V-window solution extends to V2 >= V.

    Walks the constraints newly fitting in V2 in length-lex order; each
    must own a fresh coordinate g.f, f in `fresh` (letter slots), outside
    V and the stencils placed before it, and solving for that single
    coordinate satisfies the new constraint without disturbing any
    earlier one.  Success means the restriction map between the window
    solution spaces is onto, so their projections to any subwindow of V
    agree.
    """
    old_sites = set(_sites(k, tree, V.ids()))
    new_sites = [g for g in _sites(k, tree, V2.ids()) if g not in old_sites]
    cover = [letter_slots(s.letters) for s in k.support_words()]
    return len(tree.escape_walk(new_sites, fresh, cover, V.ids())) == len(new_sites)


class MarginalResult(NamedTuple):
    """Projected solution set of the kernel subshift on a window, with certificate."""

    window: WordSet
    solution_set: AffineSolutionSet
    certificate: str
    bounds: tuple[int, int] | None = None

    @property
    def dimension(self) -> int:
        return self.solution_set.dimension

    def is_certified(self) -> bool:
        return self.certificate != "UNCERTIFIED"


class KernelSubshift:
    """ker(phi) with an append-only cache of certified window projections."""

    def __init__(self, kernel: ConvolutionKernel, growth_cap: int = GROWTH_CAP):
        if kernel.is_zero():
            raise ZeroKernelError("the zero kernel cuts out the full shift; use a Bernoulli process")
        self.kernel = kernel
        self.growth_cap = growth_cap
        self._geometry = support_geometry(kernel)
        self._fresh = [letter_slots(f.letters) for f in _fresh_candidates(kernel, self._geometry)]
        self._tree = CayleyTree(kernel.rank)
        self._reach = max(1, self._geometry.diameter())
        self._cache: dict[tuple, MarginalResult] = {}

    def marginal(self, W: WordSet) -> MarginalResult:
        key = W.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = self._compute_marginal(W)
        self._cache[key] = result
        return result

    def _compute_marginal(self, W: WordSet) -> MarginalResult:
        """Project onto W along one chain of enclosing windows.

        V0 thickens hull(W) by the stencil diameter and V(i+1) thickens
        V(i) by one; each window is built once, when first needed.  The
        extension proof from V0 to V_cap certifies the V1 projection;
        failing it, the first two successive windows (up to V_cap and
        WINDOW_GUARD words) that agree give STABILIZED.
        """
        k, cap, tree = self.kernel, self.growth_cap, self._tree
        chain = [thicken(convex_hull(W), self._reach)]

        def window(i: int) -> WordSet:
            while len(chain) <= i:
                chain.append(thicken(chain[-1], 1))
            return chain[i]

        sets = [_marginal_system(k, W, window(0), tree), _marginal_system(k, W, window(1), tree)]
        if (
            self._fresh
            and cap >= 1
            and all(len(window(i)) <= WINDOW_GUARD for i in range(1, cap + 1))
            and _extension_proof(k, tree, self._fresh, window(0), window(cap))
        ):
            if sets[0] != sets[1]:
                raise AssertionError("extension proof contradicts computed projections")
            return MarginalResult(W, sets[1], "EXTENSION-CERTIFIED")
        i = 1
        while sets[i] != sets[i - 1]:
            i += 1
            if i > cap or len(window(i)) > WINDOW_GUARD:
                return MarginalResult(
                    W, sets[-1], "UNCERTIFIED", bounds=(sets[-1].dimension, sets[-2].dimension)
                )
            sets.append(_marginal_system(k, W, window(i), tree))
        return MarginalResult(W, sets[i], "STABILIZED")

    def _certified_marginal(self, W: WordSet) -> MarginalResult:
        """marginal(W), raising UncertifiedWindowError when it is uncertified."""
        m = self.marginal(W)
        if not m.is_certified():
            raise UncertifiedWindowError(
                f"window {W!r} failed certification; dimension bounds {m.bounds}"
            )
        return m

    def window_entropy(self, W: WordSet) -> tuple[EntropyValue, str]:
        m = self._certified_marginal(W)
        return m.dimension * EntropyValue.log_int(self.kernel.p), m.certificate

    def cylinder_measure(self, W: WordSet, pattern: Mapping[FreeWord, object]) -> Fraction:
        m = self._certified_marginal(W)
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
    """Matrix of x |-> phi(x)|_W over the variables the W-constraints read."""
    var_words = sorted({mul(g, s) for g in W for s in k.coeffs}, key=FreeWord.sort_key)
    cols = [(w, j) for w in var_words for j in range(k.d_in)]
    index = {c: i for i, c in enumerate(cols)}
    rows = []
    for g in W:
        for r in range(k.d_out):
            row = [0] * len(cols)
            for s, block in k.coeffs.items():
                gs = mul(g, s)
                for j in range(k.d_in):
                    row[index[(gs, j)]] = (row[index[(gs, j)]] + block[r][j]) % k.p
            rows.append(row)
    return FpMatrix(k.p, rows, cols=len(cols)), cols


def is_surjective(k: ConvolutionKernel, depth: int = 3) -> SurjectivityReport:
    """Onto-ness of phi, with a certificate.

    Nonzero scalar kernels are onto; the certificate re-derives the
    covering condition for the centered stencil hull along a spiral
    ordering up to the configured depth.  Matrix-valued kernels only get
    a window-level verdict, explicitly flagged as not theorem-backed.
    """
    if k.is_zero():
        return SurjectivityReport(False, "zero-kernel", {})
    if k.is_scalar():
        _, center, geo = _centered(k)
        rho, centers = geo.radius, geo.centers
        ordering = spiral_ordering(k.rank, depth)
        ok = check_ordering_condition(geo.hull, ordering)
        return SurjectivityReport(
            True,
            "theorem-scalar",
            {
                "center": format_word(center),
                "centered_hull": [format_word(w) for w in geo.hull],
                "hull_radius": rho,
                "identity_is_center": identity(k.rank) in centers,
                "ordering_depth": depth,
                "ordering_condition": ok,
            },
        )
    verdicts = {}
    for n in (0, 1):
        # every target on B(n) is attainable iff the target map has full row rank
        m, _ = target_map_matrix(k, ball(k.rank, n))
        verdicts[f"B({n})"] = fp_rank(m) == m.rows
    return SurjectivityReport(
        all(verdicts.values()),
        "window-checked",
        {"theorem_backed": False, "windows": verdicts},
    )


# -- constructive preimages --------------------------------------------------


def preimage_on_ball(
    k: ConvolutionKernel, y: Mapping[FreeWord, int], n: int
) -> dict[FreeWord, int]:
    """A finite configuration x with phi(x)(g) = y(g) for every g in B(n).

    Runs the inductive construction behind the onto-ness theorem on the
    centered stencil k' = _centered(k) with center c: phi(x)(g) =
    phi'(x)(g·c), so the targets move to y'(g·c) = y(g) for g in B(n),
    and y' = 0 on the rest of B(n + |c|).  The escape walk pairs each
    site of the spiral ordering of B(n + |c|) with an extreme-point
    coordinate outside all earlier translated hulls, and that single
    coordinate is then solved for.  Raises OrderingConditionError at the
    first site with no such coordinate, reporting its index in that
    ordering.  The result is re-verified against k on B(n).
    """
    if k.is_zero():
        raise ZeroKernelError("zero kernel has no preimages")
    if not k.is_scalar():
        raise ValueError("preimage solver requires a scalar kernel")
    centered, c, geo = _centered(k)
    support = geo.support
    # the spiral ordering is breadth-first, so B(n) is a prefix of it
    sites = spiral_ordering(k.rank, n + len(c))
    targets = sites[: ball_size(k.rank, n)]
    for g in targets:
        if g not in y:
            raise ValueError(f"target pattern missing site {format_word(g)}")
    shifted = {mul(g, c): y[g] for g in targets}
    walk = escape_walk(sites, _fresh_candidates(centered, geo), geo.hull)
    if len(walk) < len(sites):
        step = len(walk)
        raise OrderingConditionError(
            step,
            f"site {format_word(sites[step])} has no uncovered extreme coordinate at step {step}",
        )

    x: dict[FreeWord, int] = {}
    for g, f in walk:
        for s in support:
            x.setdefault(mul(g, s), 0)
        target = shifted.get(g, 0) % k.p
        coeff = centered.coeffs[f][0][0]
        rest = sum(
            centered.coeffs[s][0][0] * x[mul(g, s)] for s in support if s != f
        )
        x[mul(g, f)] = (pow(coeff, -1, k.p) * (target - rest)) % k.p
        if centered.evaluate(x, g) != (target,):
            raise AssertionError("solver step failed to satisfy its constraint")

    for g in targets:
        if k.evaluate(x, g) != (y[g] % k.p,):
            raise AssertionError("preimage re-verification failed")
    return x
