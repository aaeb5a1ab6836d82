"""The weighted entropy functionals over ball windows and their exact limits.

For a rank-r process the basic functional is

    F(n) = (1 - 2r) H(B(n)) + sum_i H(B(n) u s_i B(n))

and the starred variant replaces the join terms by one-coordinate entropy
plus generator entropy rates,

    F*(n) = (1 - r) H(B(n)) + sum_i h(s_i, B(n)).

Every functional reads a process only through its exact window query
proc.entropy(W) -> EntropyValue (see `flab.processes`), and through
proc.rate_kind and proc.f_kind, the facts its rate and tail arguments
need.  A relative (base-conditioned) functional is the same functional
of a conditioned process, such as SkewProductProcess.relative() or a
FiniteActionProcess built with `given`, so nothing here takes a
conditioning argument.

The windows B(n) u s_i B(n) and U_m = W u s_i W u ... u s_i^m W come from
`flab.words.axis_window`, kept on the window: they depend on the window
and i, never on the process, so the processes of one addition check or
skew suite share one instance of each (see the per-process facts of
`flab.words`).

Every label a report prints comes from one vocabulary, all of it exact:

    EXACT             an exact window marginal (see `flab.kernels`)
    EXACT-ZERO        a rate pinned by a zero increment
    EXACT-IID         a Bernoulli rate, by its closed form; and f and f* of
                      a Bernoulli shift, where every row is log k since
                      (1 - r)|B(n)| + r(2r - 1)^n = 1 for r >= 1, n >= 0
    EXACT-MARKOV      a kernel rate, by the hidden-state rule; and f and f*
                      of a kernel subshift, constant from the row of its
                      hull radius on (see `KernelProcess.f_kind`)
    EXACT-STABILIZED  f and f* once the window entropies stop growing, as a
                      finite model's do within its positive-weight atoms

`is_exact` accepts a label of this vocabulary and rejects other strings.
"""

from __future__ import annotations

from typing import NamedTuple

from .entropy import EntropyValue, FinitePartition, join
from .processes import FiniteActionProcess
from .skew import sigma_generated
from .words import WordSet, axis_window, ball, generator

EXACT_LABELS = ("EXACT", "EXACT-ZERO", "EXACT-IID", "EXACT-MARKOV", "EXACT-STABILIZED")
EXACT, EXACT_ZERO, EXACT_IID, EXACT_MARKOV, EXACT_STABILIZED = EXACT_LABELS


def is_exact(label: str) -> bool:
    """True for a label of the vocabulary, every one exact; other strings raise."""
    if label not in EXACT_LABELS:
        raise ValueError(f"not a certificate label: {label!r}")
    return True


def F_of(proc, n: int) -> EntropyValue:
    """(1-2r) H(P^{B(n)}) + sum_i H(P^{B(n)} v s_i P^{B(n)}), exactly."""
    r = proc.rank
    b = ball(r, n)
    total = (1 - 2 * r) * proc.entropy(b)
    for i in range(1, r + 1):
        total = total + proc.entropy(axis_window(b, i, 1)[1])
    return total


class RateResult(NamedTuple):
    """A generator entropy rate, the increments that reached it and the
    argument (`kind`) that pins it at the last of them."""

    value: EntropyValue
    kind: str
    increments: list[EntropyValue]

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "kind": self.kind,
            "increments": [d.to_json() for d in self.increments],
        }


def generator_entropy_rate(proc, i: int, W: WordSet) -> RateResult:
    """h(s, W) for s the i-th generator, exactly, by one-sided increments.

    With U_m = W u sW u ... u s^m W, the increments d_m = H(U_m) - H(U_{m-1})
    are nonincreasing and tend to the rate.  The loop stops at the first d_m
    an argument proves to be the limit: a zero increment for every process
    (EXACT-ZERO: later translates stay measurable in U_{m-1}), or else the
    label of proc.rate_kind(s, U, d), U = [U_0, ..., U_m], which is
        BernoulliProcess     EXACT-IID when d_m is the closed form
                             (number of cosets <s>w meeting W) log k;
        FiniteActionProcess  never: a zero increment comes within the number
                             of positive-weight atoms, past which it raises;
        KernelProcess        EXACT-MARKOV when the hidden states of the
                             Markov chain x|s^m B(N) stop shrinking.
    """
    if W.rank != proc.rank:
        raise ValueError(f"rank mismatch: {W.rank} != {proc.rank}")
    s = generator(proc.rank, i)
    U, increments = [W], []
    prev = proc.entropy(W)
    while True:
        U.append(axis_window(W, i, len(U))[1])
        value = proc.entropy(U[-1])
        d, prev = value - prev, value
        increments.append(d)
        kind = EXACT_ZERO if d.is_zero() else proc.rate_kind(s, U, d)
        if kind is not None:
            return RateResult(d, kind, increments)


def F_star_of(proc, n: int) -> tuple[EntropyValue, list[RateResult]]:
    """(1-r) H(P^{B(n)}) + sum_i h(s_i, P^{B(n)}), exactly, with the rates."""
    r = proc.rank
    b = ball(r, n)
    rates = [generator_entropy_rate(proc, i, b) for i in range(1, r + 1)]
    return sum((rate.value for rate in rates), (1 - r) * proc.entropy(b)), rates


class FReport(NamedTuple):
    """Per-n table of F and F*, and f and f* read off the row where the
    tail argument `certificate` starts (see `full_report`)."""

    label: str
    rank: int
    n_max: int
    rows: list[dict]
    f_value: EntropyValue
    f_star_value: EntropyValue
    certificate: str  # the tail argument behind both f and f*
    stabilized_at: int | None  # the n with H(B(n + 1)) = H(B(n)), for EXACT-STABILIZED
    relative: bool

    def f_exact(self) -> bool:
        return is_exact(self.certificate)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "n_max": self.n_max,
            "relative": self.relative,
            "stabilized_at": self.stabilized_at,
            "f": {"value": self.f_value.to_json(), "certificate": self.certificate},
            "f_star": {"value": self.f_star_value.to_json(), "certificate": self.certificate},
            "rows": [
                {
                    "n": row["n"],
                    "F": row["F"].to_json(),
                    "F_star": row["F_star"].to_json(),
                    "rates": [rate.to_json() for rate in row["rates"]],
                }
                for row in self.rows
            ],
        }


def full_report(proc, n_max: int) -> FReport:
    """Rows n = 0, 1, ... of F and F*, and f and f* read off the row t
    from which a tail argument shows both constant.

    Row 0 is diagnostic.  At each row n >= 1, until an argument holds:
    EXACT-STABILIZED, for every process, when H(B(n)) = H(B(n - 1)), since
    then P^{B(n)}, and so every later window, is measurable in P^{B(n-1)},
    and from t = max(n - 1, 1) on F = F* = (1 - r) H(B(n - 1)); else the
    process's own fact proc.f_kind(n), with t = n.  Rows run past n_max
    until an argument holds, so f and f* are values of a printed row, and
    every row past t must repeat row t.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    r = proc.rank
    rows, cert, stabilized_at = [], None, None
    n = 0
    while n <= n_max or cert is None:
        F = F_of(proc, n)
        F_star, rates = F_star_of(proc, n)
        rows.append({"n": n, "F": F, "F_star": F_star, "rates": rates})
        if n >= 1 and cert is None:
            if proc.entropy(ball(r, n)) == proc.entropy(ball(r, n - 1)):
                cert, stabilized_at, tail = EXACT_STABILIZED, n - 1, max(n - 1, 1)
            else:
                cert, tail = proc.f_kind(n), n
        n += 1

    f, f_star = rows[tail]["F"], rows[tail]["F_star"]
    if any(row["F"] != f or row["F_star"] != f_star for row in rows[tail:]):
        raise AssertionError(f"a row past {tail} contradicts the {cert} tail")
    return FReport(proc.label, r, n_max, rows, f, f_star, cert, stabilized_at, proc.conditioned)


# -- exact values on finite models --------------------------------------------


def exact_f_finite(proc) -> tuple[EntropyValue, FReport]:
    """The f-value of a finite-model process, with its report: the rows run
    until the window entropies stop growing (see `full_report`)."""
    report = full_report(proc, 1)
    return report.f_value, report


def abramov_rokhlin_check(action, p: FinitePartition, q: FinitePartition) -> dict:
    """f(P v Q) = f(Q) + f(P | Sigma(Q)) on a finite model, exactly."""
    sigma_q = sigma_generated(action, q)
    f_join, _ = exact_f_finite(FiniteActionProcess(action, join(p, q), "P v Q"))
    f_q, _ = exact_f_finite(FiniteActionProcess(action, q, "Q"))
    f_rel, _ = exact_f_finite(FiniteActionProcess(action, p, "P", given=sigma_q))
    return {
        "f_join": f_join,
        "f_q": f_q,
        "f_relative": f_rel,
        "equal": f_join == f_q + f_rel,
    }


# -- the addition checker ------------------------------------------------------


def addition_report(total: FReport, a: FReport, b: FReport) -> dict:
    """Verdict for f(total) = f(a) + f(b), an equality of exact values."""
    equal = total.f_value == a.f_value + b.f_value
    return {
        "columns": {
            key: {"label": rep.label, "f": rep.f_value.to_json(), "certificate": rep.certificate}
            for key, rep in (("total", total), ("a", a), ("b", b))
        },
        "verdict": "EXACT-PASS" if equal else "EXACT-FAIL",
        "exact_equality": equal,
    }
