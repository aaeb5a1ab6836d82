"""Reduced words in a finitely generated free group and Cayley-tree geometry.

Words are stored fully reduced as tuples of nonzero signed generator
indices: +i stands for the i-th generator, -i for its inverse.  Because
the Cayley graph of a free group is a tree, all metric notions (geodesics,
convex hulls, radii, centers) have exact combinatorial meanings and are
computed exactly here.

Text syntax: lowercase letters a..z are generators 1..26, uppercase
letters their inverses, and "e" (or the empty string) is the identity.

Construction: the public `FreeWord(rank, letters)` reduces its letters and
checks each against the rank, so it accepts any input.  The private
`_word(rank, letters)` trusts its caller to pass a reduced tuple of
in-range letters and only stores it; `identity`, `mul`, `inv`,
`neighbors`, `ball_list` and `geodesic_interval` build their results
with it, because they produce reduced words by construction.  Every
word stores its hash when it is built.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


class FreeWord:
    """A reduced word in the rank-r free group."""

    __slots__ = ("rank", "letters", "_hash")

    def __init__(self, rank: int, letters: Iterable[int] = ()):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        reduced = _reduce(letters)
        for a in reduced:
            if a == 0 or abs(a) > rank:
                raise ValueError(f"letter {a} out of range for rank {rank}")
        _set_rank(self, rank)
        _set_letters(self, reduced)
        _set_hash(self, hash((rank, reduced)))

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    def __delattr__(self, name):
        raise AttributeError("FreeWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FreeWord)
            and self._hash == other._hash
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {format_word(self)!r})"

    def sort_key(self):
        """Length-lexicographic key; fixes every deterministic iteration order.

        Letters compare by code 2i-1 for the generator s_i and 2i for its
        inverse, so a < A < b < B < ...
        """
        codes = [a + a - 1 if a > 0 else -a - a for a in self.letters]
        return (len(codes), tuple(codes))

    def is_identity(self) -> bool:
        return not self.letters


_set_rank = FreeWord.rank.__set__
_set_letters = FreeWord.letters.__set__
_set_hash = FreeWord._hash.__set__


def _word(rank: int, letters: tuple[int, ...]) -> FreeWord:
    """A FreeWord from letters the caller knows to be reduced and in range."""
    w = object.__new__(FreeWord)
    _set_rank(w, rank)
    _set_letters(w, letters)
    _set_hash(w, hash((rank, letters)))
    return w


def identity(rank: int) -> FreeWord:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return _word(rank, ())


def generator(rank: int, i: int) -> FreeWord:
    """The i-th generator (1-based); negative i gives the inverse."""
    return FreeWord(rank, (i,))


def mul(a: FreeWord, b: FreeWord) -> FreeWord:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} != {b.rank}")
    x, y = a.letters, b.letters
    i, j = len(x), 0
    while i > 0 and j < len(y) and x[i - 1] == -y[j]:
        i -= 1
        j += 1
    return _word(a.rank, x[:i] + y[j:])


def inv(a: FreeWord) -> FreeWord:
    return _word(a.rank, tuple([-l for l in reversed(a.letters)]))


def distance(v: FreeWord, w: FreeWord) -> int:
    return len(mul(inv(v), w))


def parse_word(text: str, rank: int) -> FreeWord:
    if text in ("", "e"):
        return identity(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"bad word character {ch!r} in {text!r}")
    w = FreeWord(rank, letters)
    if len(w.letters) != len(letters):
        raise ValueError(f"word text {text!r} is not reduced")
    return w


def format_word(w: FreeWord) -> str:
    if not w.letters:
        return "e"
    out = []
    for a in w.letters:
        if a > 0:
            out.append(chr(ord("a") + a - 1))
        else:
            out.append(chr(ord("A") - a - 1))
    return "".join(out)


class WordSet:
    """A finite set of words of common rank with deterministic iteration.

    Iteration is length-lexicographic, so anything derived from a WordSet
    (reports, matrix column orders) is byte-stable.
    """

    __slots__ = ("rank", "_words", "_sorted")

    def __init__(self, rank: int, words: Iterable[FreeWord] = ()):
        ws = frozenset(words)
        for w in ws:
            if w.rank != rank:
                raise ValueError("word of wrong rank in WordSet")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_words", ws)
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, name, value):
        if name == "_sorted":
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("WordSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("WordSet is immutable")

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, w: FreeWord) -> bool:
        return w in self._words

    def __iter__(self) -> Iterator[FreeWord]:
        if self._sorted is None:
            self._sorted = sorted(self._words, key=FreeWord.sort_key)
        return iter(self._sorted)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordSet)
            and self.rank == other.rank
            and self._words == other._words
        )

    def __hash__(self) -> int:
        return hash((self.rank, self._words))

    def __repr__(self) -> str:
        return "WordSet({%s})" % ", ".join(format_word(w) for w in self)

    def union(self, other: "WordSet") -> "WordSet":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return WordSet(self.rank, self._words | other._words)

    def translate(self, g: FreeWord) -> "WordSet":
        """Left translate g·S."""
        return WordSet(self.rank, (mul(g, w) for w in self._words))

    def key(self) -> tuple:
        """Canonical hashable key (used for memo tables)."""
        return tuple(w.letters for w in self)


def signed_letters(rank: int) -> list[int]:
    """All 2r signed generator indices in the canonical order s1, s1^-1, ..."""
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


def neighbors(w: FreeWord) -> list[FreeWord]:
    """w·s for s = s1, s1^-1, ..., sr, sr^-1: the parent once, children otherwise."""
    rank, x = w.rank, w.letters
    back = -x[-1] if x else 0
    return [
        _word(rank, x[:-1]) if a == back else _word(rank, x + (a,))
        for a in signed_letters(rank)
    ]


def ball_list(rank: int, n: int) -> list[FreeWord]:
    """Breadth-first enumeration of the radius-n ball around the identity.

    Children are visited in the order s1, s1^-1, ..., sr, sr^-1; every
    prefix of the output is connected, which is the property the spiral
    ordering needs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [identity(rank)]
    frontier = [identity(rank)]
    for _ in range(n):
        nxt = []
        for w in frontier:
            last = w.letters[-1] if w.letters else 0
            for a in signed_letters(rank):
                if a == -last:
                    continue
                nxt.append(_word(rank, w.letters + (a,)))
        out.extend(nxt)
        frontier = nxt
    return out


def ball(rank: int, n: int) -> WordSet:
    return WordSet(rank, ball_list(rank, n))


def ball_size(rank: int, n: int) -> int:
    """Closed-form |B(n)| in the 2r-regular tree."""
    if n == 0:
        return 1
    if rank == 1:
        return 2 * n + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**n - 1) // (q - 1)


def spiral_ordering(rank: int, n: int) -> list[FreeWord]:
    """An ordering of B(n) whose every prefix is connected, starting at e."""
    return ball_list(rank, n)


def geodesic_interval(v: FreeWord, w: FreeWord) -> WordSet:
    """Vertices on the unique tree path from v to w, inclusive."""
    if v.rank != w.rank:
        raise ValueError("rank mismatch")
    a, b = v.letters, w.letters
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    rank = v.rank
    path = [_word(rank, a[:k]) for k in range(len(a), i - 1, -1)]
    path.extend(_word(rank, b[:k]) for k in range(i + 1, len(b) + 1))
    return WordSet(rank, path)


def convex_hull(s: WordSet) -> WordSet:
    """Smallest connected superset in the Cayley tree.

    Equals the union of geodesics from any fixed basepoint of s to all
    other elements; the pairwise-geodesic union gives the same set and is
    kept as the test oracle.
    """
    if len(s) == 0:
        raise ValueError("convex hull of empty set")
    it = iter(s)
    base = next(it)
    out = {base}
    for w in it:
        out.update(geodesic_interval(base, w)._words)
    return WordSet(s.rank, out)


def is_connected(s: WordSet) -> bool:
    if len(s) == 0:
        return True
    seen = set()
    stack = [next(iter(s))]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        for u in neighbors(w):
            if u in s and u not in seen:
                stack.append(u)
    return len(seen) == len(s)


def extreme_points(s: WordSet) -> WordSet:
    """Elements of degree exactly 1 in the induced subgraph of s.

    A singleton has degree 0, hence no extreme points; downstream users
    special-case radius-0 hulls.
    """
    out = []
    for w in s:
        deg = sum(1 for u in neighbors(w) if u in s)
        if deg == 1:
            out.append(w)
    return WordSet(s.rank, out)


def radius_center(s: WordSet) -> tuple[int, WordSet]:
    """Smallest rho with B(v, rho) covering s, and all such centers v.

    In a tree every center lies on a geodesic between a diametral pair,
    so only the one or two midpoint candidates need checking.
    """
    if len(s) == 0:
        raise ValueError("radius of empty set")
    elems = list(s)
    if len(elems) == 1:
        return 0, WordSet(s.rank, elems)
    best = (-1, elems[0], elems[0])
    for i, v in enumerate(elems):
        for w in elems[i + 1 :]:
            d = distance(v, w)
            if d > best[0]:
                best = (d, v, w)
    diam, u1, u2 = best
    rho = (diam + 1) // 2
    path = sorted(geodesic_interval(u1, u2), key=lambda g: distance(u1, g))
    candidates = [g for g in path if max(distance(g, u1), distance(g, u2)) <= rho]
    centers = [
        g for g in candidates if all(distance(g, w) <= rho for w in elems)
    ]
    return rho, WordSet(s.rank, centers)


def thicken(s: WordSet, t: int) -> WordSet:
    """All words within distance t of s."""
    out = set(s._words)
    frontier = set(s._words)
    for _ in range(t):
        nxt = set()
        for w in frontier:
            for u in neighbors(w):
                if u not in out:
                    nxt.add(u)
        out.update(nxt)
        frontier = nxt
    return WordSet(s.rank, out)


def escape_walk(
    ordering: Sequence[FreeWord],
    fresh: Collection[FreeWord],
    cover: Collection[FreeWord],
    covered: Iterable[FreeWord] = (),
) -> list[tuple[FreeWord, FreeWord]]:
    """Pair each site g, in order, with its first fresh coordinate g·f.

    f is the first element of `fresh` with g·f outside `covered` and
    outside every earlier g'·cover; the walk stops at the first site that
    has none, so it is blocked at index len(result) when that is shorter
    than `ordering`.  This is the ordering step of the onto-ness
    induction.  Processing the sites in the given order loses nothing:
    the covered set only grows, so a site without a fresh coordinate
    never gains one, and any order that skips a blocked site can never
    place it either.
    """
    covered = set(covered)
    walk = []
    for g in ordering:
        f = next((f for f in fresh if mul(g, f) not in covered), None)
        if f is None:
            break
        walk.append((g, f))
        covered.update(mul(g, c) for c in cover)
    return walk


def check_ordering_condition(
    hull: WordSet, ordering: Sequence[FreeWord]
) -> bool:
    """True iff every translate g_n·hull escapes the union of the earlier ones."""
    return failing_ordering_index(hull, ordering) is None


def failing_ordering_index(
    hull: WordSet, ordering: Sequence[FreeWord]
) -> int | None:
    """First n where g_n·hull is covered by earlier translates, if any."""
    n = len(escape_walk(ordering, hull, hull))
    return None if n == len(ordering) else n
