"""Reduced words in a finitely generated free group and Cayley-tree geometry.

Words are stored fully reduced as tuples of nonzero signed generator
indices: +i stands for the i-th generator, -i for its inverse.  Because
the Cayley graph of a free group is a tree, all metric notions (geodesics,
convex hulls, radii, centers) have exact combinatorial meanings and are
computed exactly here.

Text syntax: the 25 lowercase letters a..d and f..z are generators
1..25, uppercase letters their inverses, and "e" (or the empty string) is
the identity; a word of rank above 25 has no text.

Construction: the public `FreeWord(rank, letters)` reduces its letters and
checks each against the rank, so it accepts any input.  The private
`_word(rank, letters)` trusts its caller to pass a reduced tuple of
in-range letters and only stores it; `identity`, `mul`, `inv`,
`ball_list` and the id decoding build their results with it, because
they produce reduced words by construction.  A word stores its
hash on first use: that of its doubled letters, since hash(-1) ==
hash(-2) would equate s1^-1 and s2^-1 in the letters themselves.

Integer ids.  Each reduced word of rank r also has an integer id, its
length-lex index: letters are ordered by their slot, 2i-2 for the
generator s_i and 2i-1 for its inverse (a < A < b < B < ...), e has id 0,
and the words of length n come after all shorter words, in lex order of
their slots.  This is the word's position in `ball_list`'s breadth-first
order, and integer order is `FreeWord.sort_key` order: sorting ids gives
the canonical order, which is the only ordering contract of this module.
With q = 2r - 1 and S(n) = ball_size(r, n), the children of each word
of a sphere fill the next sphere in order, and S(n) = q·S(n-1) + 2, so a
word with id i >= 1 has
    children  q·i + 2 + d  for d = 0 .. q-1, in slot order
              (the children of e are 1 .. 2r),
    parent    (i - 2) // q  (e when i = 1).
The child reached by the letter of slot s skips the inverse of i's last
letter, so d = s, or s - 1 past that inverse; a one-generator step i·s
therefore needs i's last letter too.  These two steps are the only id
arithmetic here: encoding takes one child step per letter, decoding
climbs parents for the digits, and a left translate steps from the
image of each parent.  A `CayleyTree` keeps, for the ids it has met,
their last letters; `sweep` fills those of other ids and their missing
ancestors in ascending id order, which puts every parent first.  A
`WordSet` stores ids, and `thicken`, `convex_hull`, `radius_center` and
`check_ordering_condition` run on ids, converting word arguments and
results at the boundary.

Axis windows.  `axis_window(W, i, m)` returns s_i^m W and W u s_i W u
... u s_i^m W, the windows of every F and F* row and generator rate.
They are memoised at module level per (rank, W's ids, i), so a window
is translated once per process, however many processes query it.  That
is safe because a WordSet is immutable (it only caches its decoded
words) and the windows are a function of W's ids and i alone.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import itemgetter
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
        _set_hash(self, None)

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
            and self.letters == other.letters
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        if self._hash is None:
            _set_hash(self, hash((self.rank, tuple([a + a for a in self.letters]))))
        return self._hash

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {format_word(self) if self.rank <= len(_LETTERS) else self.letters!r})"

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
    _set_hash(w, None)
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


_LETTERS = "abcdfghijklmnopqrstuvwxyz"  # generators 1..25; "e" is the identity
_CODES = {ch: i + 1 for i, ch in enumerate(_LETTERS)} | {ch.upper(): -i - 1 for i, ch in enumerate(_LETTERS)}


def _check_text_rank(rank: int) -> None:
    if rank > len(_LETTERS):
        raise ValueError(f"rank {rank} has no word text: letters name generators 1..{len(_LETTERS)}")


def parse_word(text: str, rank: int) -> FreeWord:
    _check_text_rank(rank)
    if text in ("", "e"):
        return identity(rank)
    letters = []
    for ch in text:
        if ch not in _CODES:
            raise ValueError(f"bad word character {ch!r} in {text!r}")
        letters.append(_CODES[ch])
    w = FreeWord(rank, letters)
    if len(w.letters) != len(letters):
        raise ValueError(f"word text {text!r} is not reduced")
    return w


def format_word(w: FreeWord) -> str:
    _check_text_rank(w.rank)
    return "".join(_LETTERS[a - 1] if a > 0 else _LETTERS[-a - 1].upper() for a in w.letters) or "e"


# -- integer ids -------------------------------------------------------------


def letter_slots(letters: Iterable[int]) -> tuple[int, ...]:
    """Letter slots: 2i-2 for the generator s_i, 2i-1 for its inverse."""
    return tuple(a + a - 2 if a > 0 else -a - a - 1 for a in letters)


def _word_id(rank: int, letters: Sequence[int]) -> int:
    """The length-lex id of a reduced word: one child step per letter."""
    q, i, back = 2 * rank - 1, 0, -1
    for a in letters:
        s = a + a - 2 if a > 0 else -a - a - 1
        i = q * i + 2 + s - (s > back) if i else s + 1
        back = s ^ 1
    return i


def _id_letters(rank: int, i: int) -> tuple[int, ...]:
    """The letters of the reduced word with id i: the parent steps up to
    the first letter collect the child digits, then each slot is read top
    down from its parent's, d or d + 1 at or past the inverse slot."""
    q, digits = 2 * rank - 1, []
    while i > 2 * rank:
        i, d = divmod(i - 2, q)
        digits.append(d)
    if not i:
        return ()
    s, path = i - 1, [i - 1]
    for d in reversed(digits):
        s = d + (d >= s ^ 1)
        path.append(s)
    return tuple(s // 2 + 1 if s % 2 == 0 else -(s // 2 + 1) for s in path)


def ball_steps(rank: int, n: int) -> Iterator[tuple[int, int, int]]:
    """(i, parent, last slot) for each id i >= 1 of B(n) in id order, as a sweep lists
    them but with no climb: the children of e take the slots 0 .. 2r-1, and the q
    children of each id v >= 1 of B(n - 1) the slots but the inverse of v's last."""
    q, inner = 2 * rank - 1, ball_size(rank, n - 1) - 1 if n else 0
    after = [[t for t in range(q + 1) if t != s ^ 1] for s in range(q + 1)]
    slots = list(range(q + 1)) if n else []
    for v in range(inner):
        slots += after[slots[v]]
    parents = [0] * (q + 1) + sorted(list(range(1, inner + 1)) * q)
    return zip(range(1, len(slots) + 1), parents, slots)


class CayleyTree:
    """The tree steps on the ids of the rank-r free group.

    Keeps the last-letter slot of every id it has met, grown on demand,
    so that after the first visit a one-generator step is a few integer
    operations.  An id not met yet gets its slot, and its missing
    ancestors theirs, from one `sweep`.  The table belongs to the
    instance; an owner that walks many windows keeps one tree for all of
    them.
    """

    __slots__ = ("rank", "q", "_last")

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.q = 2 * rank - 1
        self._last: dict[int, int] = {}

    def id(self, w: FreeWord) -> int:
        if w.rank != self.rank:
            raise ValueError(f"rank mismatch: {w.rank} != {self.rank}")
        i = _word_id(self.rank, w.letters)
        if i:
            self._last[i] = letter_slots(w.letters[-1:])[0]
        return i

    def word(self, i: int) -> FreeWord:
        return _word(self.rank, _id_letters(self.rank, i))

    def length(self, i: int) -> int:
        """The number of parent steps from i up to e."""
        n = 0
        while i:
            i, n = self.parent(i), n + 1
        return n

    def parent(self, i: int) -> int:
        if i == 0:
            raise ValueError("the identity has no parent")
        return (i - 2) // self.q if i > 1 else 0

    def last(self, i: int) -> int:
        """The slot of the last letter of the word with id i >= 1; an id not
        met yet is filled by a sweep over it and its missing ancestors."""
        s = self._last.get(i)
        if s is None:
            if i == 0:
                raise ValueError("the identity has no last letter")
            self.sweep((i,), self._last)
            s = self._last[i]
        return s

    def sweep(self, ids: Iterable[int], known: Collection[int]) -> list[tuple[int, int, int]]:
        """(i, parent, last slot) for each id i >= 1 outside `known` among
        the given ones and their ancestors, in ascending id order, which
        lists every parent first.  The climb from each id stops at the
        first ancestor known or listed; the slot is read from the
        parent's, through `last` when the table lacks a known parent's."""
        q, new = self.q, set()
        for i in ids:
            while i and i not in known and i not in new:
                new.add(i)
                i = (i - 2) // q if i > 1 else 0
        out, last, top = [], self._last, 2 * self.rank
        for i in sorted(new):
            if i <= top:
                v, d = 0, i - 1
            else:
                v, d = divmod(i - 2, q)
                try:
                    d += d >= last[v] ^ 1
                except KeyError:
                    d += d >= self.last(v) ^ 1
            last[i] = d
            out.append((i, v, d))
        return out

    def translates(self, ids: Iterable[int], word: Sequence[int]) -> list[int]:
        """The ids of v·w for each id v, for w given by its letter slots."""
        last, q = self._last, self.q
        out = []
        for i in ids:
            for s in word:
                if i == 0:
                    i = s + 1
                    continue
                back = last.get(i)
                if back is None:
                    back = self.last(i)
                back ^= 1
                if s == back:
                    i = (i - 2) // q if i > 1 else 0
                else:
                    i = q * i + 2 + (s if s < back else s - 1)
                    last[i] = s
            out.append(i)
        return out

    def step_table(self, n: int) -> list[list[int]]:
        """For each letter slot s, the ids of i·s for every id i of B(n), in
        id order: the parent when s is the inverse b of i's last slot, else
        the child q·i + 2 + s - (s > b) (e has b = -1), with the last
        slots of `ball_steps`."""
        q, backs = self.q, [-1] + [s ^ 1 for _i, _v, s in ball_steps(self.rank, n)]
        return [
            [q * i + 2 + s - (s > b) if s != b else (i - 2) // q if i > 1 else 0 for i, b in enumerate(backs)]
            for s in range(2 * self.rank)
        ]

    def thicken(self, ids: Iterable[int], t: int) -> set[int]:
        """All ids within distance t of the given ones."""
        q, top = self.q, range(1, 2 * self.rank + 1)
        out = set(ids)
        frontier = out
        for _ in range(t):
            nxt: set[int] = set()
            for i in frontier:
                if i == 0:
                    nxt.update(top)
                    continue
                nxt.add((i - 2) // q if i > 1 else 0)
                base = q * i + 2
                nxt.update(range(base, base + q))
            nxt -= out
            out |= nxt
            frontier = nxt
        return out

    def hull(self, ids: Iterable[int]) -> set[int]:
        """The smallest connected set of ids containing the given ones.

        Every id descends from the meet (deepest common ancestor) of all
        of them, so the hull is the union of the paths up to the meet.
        """
        ids = list(ids)
        if not ids:
            raise ValueError("convex hull of empty set")
        parent = self.parent
        out = {reduce(self.meet, ids)}
        for w in ids:
            while w not in out:
                out.add(w)
                w = parent(w)
        return out

    def meet(self, u: int, v: int) -> int:
        """The deepest common ancestor of u and v; the larger id climbs,
        since a longer word has a larger id."""
        parent = self.parent
        while u != v:
            if u > v:
                u = parent(u)
            else:
                v = parent(v)
        return u

    def distance(self, u: int, v: int) -> int:
        """|u^-1 v| = |u| + |v| - 2 |meet(u, v)|."""
        length = self.length
        return length(u) + length(v) - 2 * length(self.meet(u, v))


# -- word sets ---------------------------------------------------------------


class WordSet:
    """A finite set of words of common rank with deterministic iteration.

    The words are held as their ids.  Iteration is length-lexicographic
    (ascending id), so anything derived from a WordSet (reports, matrix
    column orders) is byte-stable; the words are decoded on the first
    iteration and kept.
    """

    __slots__ = ("rank", "_ids", "_sorted")

    def __init__(self, rank: int, words: Iterable[FreeWord] = ()):
        ids = set()
        for w in words:
            if w.rank != rank:
                raise ValueError("word of wrong rank in WordSet")
            ids.add(_word_id(rank, w.letters))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_ids", frozenset(ids))
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, name, value):
        if name == "_sorted":
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("WordSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("WordSet is immutable")

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, w: FreeWord) -> bool:
        return (
            isinstance(w, FreeWord)
            and w.rank == self.rank
            and _word_id(self.rank, w.letters) in self._ids
        )

    def __iter__(self) -> Iterator[FreeWord]:
        if self._sorted is None:
            rank = self.rank
            self._sorted = [_word(rank, _id_letters(rank, i)) for i in sorted(self._ids)]
        return iter(self._sorted)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordSet)
            and self.rank == other.rank
            and self._ids == other._ids
        )

    def __hash__(self) -> int:
        return hash((self.rank, self._ids))

    def __repr__(self) -> str:
        return "WordSet({%s})" % ", ".join(format_word(w) for w in self)

    def ids(self) -> frozenset[int]:
        return self._ids

    def union(self, other: "WordSet") -> "WordSet":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return _wordset(self.rank, self._ids | other._ids)

    def translate(self, g: FreeWord) -> "WordSet":
        """Left translate g·S, on ids: e goes to id(g), and g·v·s is one
        tree step from the image j of v, for each (v·s, v, s) of one sweep
        of S and its ancestors: the parent of j when s cancels j's last
        letter, else the child of j with last slot s."""
        rank = self.rank
        if g.rank != rank:
            raise ValueError(f"rank mismatch: {g.rank} != {rank}")
        tree = CayleyTree(rank)
        last, q = tree._last, tree.q
        image = {0: tree.id(g)}
        for i, v, s in tree.sweep(self._ids, image):
            j = image[v]
            if j == 0:
                j = s + 1
            else:
                back = last.get(j)
                if back is None:
                    back = tree.last(j)
                back ^= 1
                if s == back:
                    image[i] = (j - 2) // q if j > 1 else 0
                    continue
                j = q * j + 2 + (s if s < back else s - 1)
            last[j] = s
            image[i] = j
        return _wordset(rank, [image[i] for i in self._ids])

    def key(self) -> tuple:
        """Canonical hashable key (used for memo tables): the ascending ids."""
        return tuple(sorted(self._ids))


def _wordset(rank: int, ids: Iterable[int]) -> WordSet:
    """A WordSet from ids the caller knows to be valid for the rank."""
    s = object.__new__(WordSet)
    object.__setattr__(s, "rank", rank)
    object.__setattr__(s, "_ids", frozenset(ids))
    object.__setattr__(s, "_sorted", None)
    return s


def signed_letters(rank: int) -> list[int]:
    """All 2r signed generator indices in the canonical order s1, s1^-1, ..."""
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


def ball_list(rank: int, n: int) -> list[FreeWord]:
    """Breadth-first enumeration of the radius-n ball around the identity.

    Children are visited in the order s1, s1^-1, ..., sr, sr^-1, so the
    word at position i has id i; every prefix of the output is connected,
    which is the property the spiral ordering needs.
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
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _wordset(rank, range(ball_size(rank, n)))


def ball_size(rank: int, n: int) -> int:
    """Closed-form |B(n)| in the 2r-regular tree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    if rank == 1:
        return 2 * n + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**n - 1) // (q - 1)


# (rank, ids of W, i) -> (s_i, [W, s_i W, s_i^2 W, ...], [W, W u s_i W, ...])
_AXES: dict[tuple[int, frozenset[int], int], tuple[FreeWord, list[WordSet], list[WordSet]]] = {}


def axis_window(W: WordSet, i: int, m: int) -> tuple[WordSet, WordSet]:
    """(s_i^m W, W u s_i W u ... u s_i^m W) for the i-th generator s_i, m >= 0.

    Memoised per (rank, W's ids, i) for the whole process: the chain grows
    by one `translate` and one `union` per new m, and every later call
    returns the same instances.  Sharing is safe because a WordSet is
    immutable and these windows are a function of W's ids and i alone.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    key = (W.rank, W._ids, i)
    chain = _AXES.get(key)
    if chain is None:
        chain = _AXES[key] = (generator(W.rank, i), [W], [W])
    s, moved, joined = chain
    while len(moved) <= m:
        moved.append(moved[-1].translate(s))
        joined.append(joined[-1].union(moved[-1]))
    return moved[m], joined[m]


def spiral_ordering(rank: int, n: int) -> list[FreeWord]:
    """An ordering of B(n) whose every prefix is connected, starting at e."""
    return ball_list(rank, n)


def convex_hull(s: WordSet) -> WordSet:
    """Smallest connected superset in the Cayley tree.

    The union of the paths from each element up to the meet of all of
    them; the pairwise-geodesic union gives the same set and is kept as
    the test oracle.
    """
    return _wordset(s.rank, CayleyTree(s.rank).hull(s._ids))


def radius_center(s: WordSet) -> tuple[int, WordSet]:
    """Smallest rho with B(v, rho) covering s, and all such centers v.

    In a tree every center lies on a geodesic between a diametral pair,
    so only that geodesic is searched.  Distances are taken on ids.
    """
    if len(s) == 0:
        raise ValueError("radius of empty set")
    elems, tree = sorted(s._ids), CayleyTree(s.rank)
    dist = tree.distance
    # the first diametral pair in length-lex order
    pairs = ((dist(v, w), v, w) for v, w in combinations(elems, 2))
    diam, u1, u2 = max(pairs, key=itemgetter(0), default=(0, elems[0], elems[0]))
    rho = (diam + 1) // 2
    centers = [g for g in tree.hull((u1, u2)) if all(dist(g, w) <= rho for w in elems)]
    return rho, _wordset(s.rank, centers)


def thicken(s: WordSet, t: int) -> WordSet:
    """All words within distance t of s."""
    return _wordset(s.rank, CayleyTree(s.rank).thicken(s._ids, t))


def check_ordering_condition(hull: WordSet, ordering: Sequence[FreeWord]) -> bool:
    """True iff every translate g_n·hull escapes the union of the earlier ones."""
    tree, covered = CayleyTree(hull.rank), set()
    ids = [tree.id(g) for g in ordering]
    image = [tree.translates(ids, letter_slots(w.letters)) for w in hull]
    for placed in map(set, zip(*image)):
        if placed <= covered:
            return False
        covered |= placed
    return True
