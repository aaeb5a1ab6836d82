"""Test oracles for flab.kernels, for the tests only.

Kernel marginals.  Any window V containing W gives an outer bound on
pi_W(ker phi): project the solution set of the constraints that fit
inside V onto the W coordinates.  Along the chain V0 = thicken(hull(W), reach), V(i+1) =
thicken(V(i), 1), with reach the stencil hull's diameter (at least 1),
these projections shrink towards the exact marginal.  The chain never
says when it has arrived, which is why flab computes marginals by the
tree fixed point instead; here it cross-checks that fixed point from the
other side.

The onto-ness path.  Word-level copies of `is_surjective`'s
certificate and `target_map_matrix`, and the covered sets that the
preimage induction's picks must escape, in which every product is a
FreeWord built by `mul`; flab runs the same steps on word ids.
"""

from __future__ import annotations

from flab.fplinear import FpMatrix, eliminate_columns, solution_space_from_constraints
from flab.kernels import (
    ConvolutionKernel,
    SupportGeometry,
    support_geometry,
    window_coordinates,
    window_rows,
)
from flab.words import (
    FreeWord,
    WordSet,
    convex_hull,
    format_word,
    inv,
    mul,
    thicken,
)


def distance(v, w) -> int:
    """The word metric, |v^-1 w|, by `mul`."""
    return len(mul(inv(v), w))


def window_projection(k, W, V):
    """Project the window-V solution set onto the W coordinates,
    eliminating the other columns outermost first."""
    rows, _ = window_rows(k, V)
    outer = sorted((v for v in V if v not in W), key=lambda v: (-len(v), v.sort_key()))
    reduced = eliminate_columns(rows, [(v, j) for v in outer for j in range(k.d_in)], k.p)
    return solution_space_from_constraints(reduced, tuple(window_coordinates(k, W)), k.p)


def reach(k) -> int:
    hull = list(support_geometry(k).hull)
    return max(1, max(distance(a, b) for a in hull for b in hull))


def window_chain(k, W, length: int = 5) -> list:
    """The projections onto W of the windows V0 .. V(length - 1)."""
    V = thicken(convex_hull(W), reach(k))
    out = []
    for _ in range(length):
        out.append(window_projection(k, W, V))
        V = thicken(V, 1)
    return out


def contains(outer, inner) -> bool:
    """Whether the linear solution set `inner` lies inside `outer` (same keys)."""
    return outer.keys == inner.keys and all(outer.contains(v) for v in inner.basis)



# -- the word-level onto-ness path -------------------------------------------


def word_walk(ordering, cover):
    """Each site g of `ordering`, in order, with the union of the earlier
    translates g'·cover on words: the set a coordinate picked at g must
    escape.  The set is live, so it is read before the next step."""
    covered = set()
    for g in ordering:
        yield g, covered
        covered.update(mul(g, c) for c in cover)


def old_radius_center(s):
    """Smallest rho with B(v, rho) covering s, and all such centers v."""
    elems = list(s)
    if len(elems) == 1:
        return 0, WordSet(s.rank, elems)
    best = (-1, elems[0], elems[0])
    for i, v in enumerate(elems):
        for u in elems[i + 1 :]:
            d = distance(v, u)
            if d > best[0]:
                best = (d, v, u)
    diam, u1, u2 = best
    rho = (diam + 1) // 2
    path = sorted(convex_hull(WordSet(s.rank, [u1, u2])), key=lambda g: distance(u1, g))
    candidates = [g for g in path if max(distance(g, u1), distance(g, u2)) <= rho]
    centers = [g for g in candidates if all(distance(g, u) <= rho for u in elems)]
    return rho, WordSet(s.rank, centers)


def old_geometry(k):
    support = k.support()
    hull = convex_hull(support)
    radius, centers = old_radius_center(hull)
    return SupportGeometry(support, hull, radius, centers)


def old_centered(k):
    geo = old_geometry(k)
    center = next(iter(geo.centers))
    if center.is_identity():
        return k, center, geo
    cinv = inv(center)
    kc = ConvolutionKernel(k.p, k.rank, {mul(cinv, s): b for s, b in k.coeffs.items()}, k.d_in, k.d_out)
    return kc, center, old_geometry(kc)


def old_surjectivity_certificate(k) -> dict:
    """to_json() of is_surjective(k) for a nonzero scalar kernel."""
    _, center, geo = old_centered(k)
    return {
        "surjective": True,
        "kind": "theorem-scalar",
        "center": format_word(center),
        "centered_hull": [format_word(u) for u in geo.hull],
        "hull_radius": geo.radius,
    }


def old_target_map_matrix(k, W):
    var_words = sorted({mul(g, s) for g in W for s in k.coeffs}, key=FreeWord.sort_key)
    cols = [(u, j) for u in var_words for j in range(k.d_in)]
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
