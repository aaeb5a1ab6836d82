"""Measured free-group processes answering exact window-entropy queries.

There is one process per `compute-f` spec type: BernoulliProcess,
FiniteActionProcess (a `FiniteGroupAction` is one such action),
SkewProductProcess (a `Cocycle`'s product action over a finite base) and
KernelProcess.  Every process answers one window query,
entropy(W) -> EntropyValue: the entropy of the coordinate partition
joined over the window W.  Every answer is exact, by one argument per
process type:

    BernoulliProcess     the closed form |W| log k
    FiniteActionProcess  the joined partition, materialized on the finite model
    SkewProductProcess   the same, on the finite product model
    KernelProcess        dim pi_W(ker phi) log p, the marginal made exact by
                         the tree fixed point of `KernelSubshift`

Each process also supplies the one fact that each exactness argument of
`flab.finv` needs: rate_kind(s, U, d), the label of the argument that
pins a generator rate at the last increment d, and f_kind(n), the label
of the one that makes F and F* constant from row n on; None asks for
another step or row.

Conditioning is fixed when a process is built, not passed per query.  A
FiniteActionProcess built with `given` answers H(P^W | given) as
H(P^W v given) - H(given), with H(given) computed once when it is built,
and the skew products' relative() returns the process conditioned on
the base, whose functionals are the relative (base-conditioned) ones of
the addition formula.  A FiniteActionProcess, and so a skew product, keeps
its own memo of answers per set {alpha_w : w in W}, on which alone P^W depends.
The axis windows a KernelProcess splits, s^j B(N) and B(n) u sB(n), come
from `flab.words.axis_window`, kept on the shared balls (see the
per-process facts of `flab.words`).
"""

from __future__ import annotations

from itertools import dropwhile

from .entropy import EntropyValue, FinitePartition, join, shannon_entropy
from .kernels import ConvolutionKernel, KernelSubshift
from .skew import Cocycle, FiniteAction
from .words import FreeWord, WordSet, axis_window, ball

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

    def entropy(self, W: WordSet) -> EntropyValue:
        return len(W) * EntropyValue.log_int(self.alphabet_size)

    def rate_kind(self, s: FreeWord, U: list[WordSet], d: EntropyValue) -> str | None:
        """EXACT-IID once d is h(s, W) = (number of cosets <s>w meeting W) log k:
        the increments fall to that limit, one word per coset from m > diam W
        on, so the first to reach it is it; for W = B(n), the first."""
        letter = s.letters[0]
        cosets = {tuple(dropwhile(lambda a: abs(a) == letter, w.letters)) for w in U[0]}
        return "EXACT-IID" if d == len(cosets) * EntropyValue.log_int(self.alphabet_size) else None

    def f_kind(self, n: int) -> str:
        """EXACT-IID from row 1: every row of F and F* is log k (see `flab.finv`)."""
        return "EXACT-IID"

    def describe(self) -> dict:
        return {"type": "bernoulli", "alphabet": self.alphabet_size, "rank": self.rank}


class FiniteActionProcess:
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
        self._answers: dict[frozenset[int], EntropyValue] = {}
        self._atoms = sum(1 for c in action.space.counts if c)  # positive-weight ones

    def entropy(self, W: WordSet) -> EntropyValue:
        """The exact (conditional) entropy of the joined window, memoized
        per state set: P^W, the join of alpha_w P over w in W, depends only
        on the set {alpha_w : w in W} (`FiniteAction.window_states`)."""
        key = self.action.window_states(W)
        hit = self._answers.get(key)
        if hit is None:
            joined = self.action.window_partition(self.partition, W, key)
            if self.given is None:
                value = shannon_entropy(joined)
            else:
                value = shannon_entropy(join(joined, self.given)) - self._given_entropy
            hit = self._answers[key] = value
        return hit

    def rate_kind(self, s: FreeWord, U: list[WordSet], d: EntropyValue) -> None:
        """Never: each positive increment strictly refines P^U (or P^U v given),
        so a zero one comes within the number of positive-weight atoms."""
        if len(U) > self._atoms:
            raise AssertionError("a finite-model rate passed its zero-increment bound")
        return None

    def f_kind(self, n: int) -> None:
        """Never: each rise of H(B(n)) strictly refines P^{B(n)}, so they stop
        (EXACT-STABILIZED, tested first) within the positive-weight atoms."""
        if n >= self._atoms:
            raise AssertionError("a finite model passed its stabilization bound")
        return None

    def describe(self) -> dict:
        return {
            "type": "finite-action",
            "atoms": self.action.size(),
            "blocks": self.partition.num_blocks(),
            "rank": self.rank,
            "label": self.label,
        }


class KernelProcess:
    """The Haar system on the kernel subshift of a convolution operator.

    Its rates and its f rest on one split, Bowen's Markov recoding (ETDS
    2010, Nonabelian free group actions: Markov processes, the
    Abramov-Rohlin formula and Yuzvinskii's formula).  Let rho be the
    centered hull's radius (`KernelSubshift.radius`): a constraint reads x
    on some g.B(rho), of diameter <= 2 rho.  Take N >= rho, the least N
    with 2N + 2 > 2 rho, a vertex c and a letter t.  A vertex outside c.B(N) in the branch through c.t and one
    outside c.B(N) off it are at least 2N + 2 > 2 rho apart, the path
    between them passing c, so no constraint reads both: ker phi is the
    fiber product over x|c.B(N) of its restrictions to the two sides, each
    joined with c.B(N), and Haar measure makes the sides independent given
    x|c.B(N).  So the process recoded by y(c) = x|c.B(N) is Markov, and
    along each axis <s> a stationary linear Markov chain.
    """

    conditioned = False

    def __init__(self, kernel: ConvolutionKernel, label: str | None = None):
        self.kernel = kernel
        self.subshift = KernelSubshift(kernel)
        self.rank = kernel.rank
        self.label = label or f"ker(phi) {kernel!r}"

    def entropy(self, W: WordSet) -> EntropyValue:
        return self.subshift.marginal(W).dimension * EntropyValue.log_int(self.kernel.p)

    def rate_kind(self, s: FreeWord, U: list[WordSet], d: EntropyValue) -> str | None:
        """EXACT-MARKOV once the hidden states stop shrinking.

        With the separator thickness N = max(rho, longest word of W = U[0]),
        y_k = x|s^k B(N) is the chain of the class docstring, and x|s^k W =
        L(y_k).  The states y_j agreeing with zeros on U_j form V_j =
        T(V_{j-1}) n ker L, of dimension S_{j+1} = dim pi(U_j u s^j B(N)) -
        dim pi(U_j), and d_m = dim L T(V_{m-1}).  The transition T is
        monotone, so the V_j decrease; at the first m with S_{m+1} = S_m,
        V_m = V_{m-1} stays put and d_m is every later increment.  That
        takes at most S_1 + 1 steps, and one for W = B(n), n >= rho, where
        S_1 = 0.
        """
        m, dim = len(U) - 1, lambda V: self.subshift.marginal(V).dimension
        N = max(self.subshift.radius, *(len(w) for w in U[0]))
        hidden = []
        for j in (m - 1, m):
            separator = axis_window(ball(self.rank, N), s.letters[0], j)[0]  # s^j B(N)
            hidden.append(dim(U[j].union(separator)) - dim(U[j]))
        return "EXACT-MARKOV" if hidden[0] == hidden[1] else None

    def f_kind(self, n: int) -> str | None:
        """EXACT-MARKOV from row n >= rho on, after a check that raises
        AssertionError rather than print the label.

        The process recoded at N = n is Markov (class docstring), so by
        Bowen's theorem F(n) = F(P^{B(n)}) = f, and along each axis h(s,
        B(n)) = H(B(n) u sB(n)) - H(B(n)), so F*(n) = F(n): F and F* are
        constant from row rho on.  The check splits windows F already
        queries: B(n) n sB(n) = B(n - 1) u sB(n - 1) =: S, and vertices
        outside S in and off the branch through s are at least 2n + 1 >
        2 rho apart, so pi(B(n) u sB(n)) is a fiber product over pi(S):

            dim pi(B(n) u sB(n)) = 2 dim pi(B(n)) - dim pi(S),

        as dim pi(sB(n)) = dim pi(B(n)) for the shift-invariant ker phi.
        """
        if n < self.subshift.radius:
            return None
        dim = lambda V: self.subshift.marginal(V).dimension
        outer, inner = ball(self.rank, n), ball(self.rank, n - 1)
        for i in range(1, self.rank + 1):
            split = 2 * dim(outer) - dim(axis_window(inner, i, 1)[1])
            if dim(axis_window(outer, i, 1)[1]) != split:
                raise AssertionError(f"ker phi is not a fiber product over B({n - 1}) u s_{i}B({n - 1})")
        return "EXACT-MARKOV"

    def describe(self) -> dict:
        return {"type": "kernel", "kernel": self.kernel.to_json(), "rank": self.rank}


class SkewProductProcess(FiniteActionProcess):
    """A finite skew product, the cocycle's product action, observed through P x Q.

    relative() is the same process conditioned on the base and
    fiber_process() the fiber alone, so the two sides of the collapse
    identity can be computed independently.
    """

    def __init__(
        self,
        cocycle: Cocycle,
        base_partition: FinitePartition,
        fiber_partition: FinitePartition,
        label: str = "skew",
    ):
        super().__init__(
            cocycle.product,
            cocycle.product_partition(base_partition, fiber_partition),
            label,
        )
        self.cocycle = cocycle
        self.fiber_partition = fiber_partition

    def relative(self) -> FiniteActionProcess:
        """P x Q conditioned on the base marker, one block per base point."""
        return FiniteActionProcess(
            self.action, self.partition, self.label, self.cocycle.base_marker()
        )

    def fiber_process(self) -> FiniteActionProcess:
        return FiniteActionProcess(self.cocycle.fiber, self.fiber_partition, self.label + "/fiber")

    def describe(self) -> dict:
        return {
            "type": "skew-product",
            "base_atoms": self.cocycle.base.size(),
            "fiber_order": self.cocycle.fiber.size(),
            "rank": self.rank,
            "label": self.label,
        }
