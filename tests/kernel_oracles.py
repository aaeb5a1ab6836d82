"""The enclosing-window oracle for kernel marginals, for the tests only.

Any window V containing W gives an outer bound on pi_W(ker phi): project
the solution set of the constraints that fit inside V onto the W
coordinates.  Along the chain V0 = thicken(hull(W), reach), V(i+1) =
thicken(V(i), 1), with reach the stencil hull's diameter (at least 1),
these projections shrink towards the exact marginal.  The chain never
says when it has arrived, which is why flab computes marginals by the
tree fixed point instead; here it cross-checks that fixed point from the
other side.
"""

from __future__ import annotations

from flab.fplinear import eliminate_columns, solution_space_from_constraints
from flab.kernels import support_geometry, window_coordinates, window_rows
from flab.words import convex_hull, distance, thicken


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

