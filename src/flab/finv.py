"""The weighted entropy functionals over ball windows and their truncated infima.

For a rank-r process the basic functional is

    F(n) = (1 - 2r) H(B(n)) + sum_i H(B(n) u s_i B(n))

and the starred variant replaces the join terms by one-coordinate entropy
plus generator entropy rates,

    F*(n) = (1 - r) H(B(n)) + sum_i h(s_i, B(n)).

Every functional reads a process only through its window query
proc.entropy(W) -> EntropyValue, which is exact for every process type
(see `flab.processes`), and a rate also through proc.rate_kind, the one
fact its exactness argument needs.  A relative (base-conditioned)
functional is the same functional of a conditioned process, such as
SkewProductProcess.relative() or a FiniteActionProcess built with
`given`, so nothing here takes a conditioning argument.

Every label a report prints comes from one vocabulary:

    EXACT             an exact window marginal (see `flab.kernels`)
    EXACT-ZERO        a rate pinned by a zero increment
    EXACT-IID         a Bernoulli rate, by its closed form; and f and f* of
                      a Bernoulli shift, where every row is log k since
                      (1 - r)|B(n)| + r(2r - 1)^n = 1 for r >= 1, n >= 0
    EXACT-MARKOV      a kernel rate, by the hidden-state rule
    EXACT-STABILIZED  f and f* when the window entropies stop growing, so
                      the computed rows already hold the constant tail
    UPPER-BOUND       f and f* as a truncated infimum over n >= 1 with no
                      tail argument

Every window query and every generator rate is exact (see
`generator_entropy_rate`), so every F(n) and F*(n) row is exact, and only
f and f* can read UPPER-BOUND.  `is_exact` tests a label and rejects
other strings.
"""

from __future__ import annotations

from typing import NamedTuple

from .entropy import EntropyValue, FinitePartition, join
from .processes import BernoulliProcess, FiniteActionProcess
from .skew import sigma_generated
from .words import WordSet, ball, generator

EXACT_LABELS = ("EXACT", "EXACT-ZERO", "EXACT-IID", "EXACT-MARKOV", "EXACT-STABILIZED")
EXACT, EXACT_ZERO, EXACT_IID, EXACT_MARKOV, EXACT_STABILIZED = EXACT_LABELS
UPPER_BOUND = "UPPER-BOUND"


def is_exact(label: str) -> bool:
    """True on the EXACT level, False for UPPER-BOUND; other strings raise."""
    if label == UPPER_BOUND:
        return False
    if label not in EXACT_LABELS:
        raise ValueError(f"not a certificate label: {label!r}")
    return True


def F_of(proc, n: int) -> EntropyValue:
    """(1-2r) H(P^{B(n)}) + sum_i H(P^{B(n)} v s_i P^{B(n)}), exactly."""
    r = proc.rank
    b = ball(r, n)
    total = (1 - 2 * r) * proc.entropy(b)
    for i in range(1, r + 1):
        total = total + proc.entropy(b.union(b.translate(generator(r, i))))
    return total


class RateResult(NamedTuple):
    """A generator entropy rate, the increments that reached it and the
    argument (`kind`) that pins it at the last of them."""

    value: EntropyValue
    kind: str
    increments: list[EntropyValue]
    stabilized_at: int

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "kind": self.kind,
            "stabilized_at": self.stabilized_at,
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
    s = generator(proc.rank, i)
    U, T, increments = [W], W, []
    prev = proc.entropy(W)
    while True:
        T = T.translate(s)  # s^m W
        U.append(U[-1].union(T))
        value = proc.entropy(U[-1])
        d, prev = value - prev, value
        increments.append(d)
        kind = EXACT_ZERO if d.is_zero() else proc.rate_kind(s, U, d)
        if kind is not None:
            return RateResult(d, kind, increments, len(increments))


def F_star_of(proc, n: int) -> tuple[EntropyValue, list[RateResult]]:
    """(1-r) H(P^{B(n)}) + sum_i h(s_i, P^{B(n)}), exactly, with the rates."""
    r = proc.rank
    b = ball(r, n)
    rates = [generator_entropy_rate(proc, i, b) for i in range(1, r + 1)]
    return sum((rate.value for rate in rates), (1 - r) * proc.entropy(b)), rates


class FReport(NamedTuple):
    """Per-n table of F and F* with running infima and the tail certificate."""

    label: str
    rank: int
    n_max: int
    rows: list[dict]
    f_value: EntropyValue
    f_star_value: EntropyValue
    certificate: str  # the tail argument behind both f and f*
    stabilized_at: int | None
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
                    "running_inf_F": row["inf_F"].to_json(),
                    "running_inf_F_star": row["inf_F_star"].to_json(),
                    "rates": [rate.to_json() for rate in row["rates"]],
                }
                for row in self.rows
            ],
        }


def _stabilization_point(proc, cap: int) -> int | None:
    """The least n < cap with H(P^{B(n+1)}) = H(P^{B(n)}), or None."""
    for n in range(cap):
        if proc.entropy(ball(proc.rank, n + 1)) == proc.entropy(ball(proc.rank, n)):
            return n
    return None


def full_report(proc, n_max: int) -> FReport:
    """Rows n = 0..n_max (n = 0 is diagnostic; infima use n >= 1 only)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    inf_F = inf_F_star = None
    for n in range(n_max + 1):
        F = F_of(proc, n)
        F_star, rates = F_star_of(proc, n)
        if n >= 1:
            inf_F = F if inf_F is None else min(inf_F, F)
            inf_F_star = F_star if inf_F_star is None else min(inf_F_star, F_star)
        rows.append(
            {
                "n": n,
                "F": F,
                "F_star": F_star,
                "rates": rates,
                "inf_F": inf_F if inf_F is not None else F,
                "inf_F_star": inf_F_star if inf_F_star is not None else F_star,
            }
        )

    stabilized_at = _stabilization_point(proc, n_max)
    if stabilized_at is not None:
        # window entropies are constant beyond the stabilization point, so the
        # computed rows already contain the constant tail value
        cert = EXACT_STABILIZED
    elif isinstance(proc, BernoulliProcess):
        # every i.i.d. row is log k (see the module docstring)
        if not all(row["F"] == rows[1]["F"] for row in rows[1:]):
            raise AssertionError("i.i.d. closed form violated by computed rows")
        cert = EXACT_IID
    else:
        cert = UPPER_BOUND

    return FReport(
        proc.label, proc.rank, n_max, rows, inf_F, inf_F_star, cert, stabilized_at, proc.conditioned
    )


# -- exact values on finite models --------------------------------------------


def exact_f_finite(proc) -> tuple[EntropyValue, FReport]:
    """The exact f-value of a finite-model process (window joins stabilize).

    Searches for the stabilization point and truncates one step past it;
    the report is then EXACT by the tail argument.
    """
    n_stab = _stabilization_point(proc, proc.action.size() + 2)
    if n_stab is None:
        raise AssertionError("finite model failed to stabilize within the cap")
    report = full_report(proc, max(1, n_stab + 1))
    if not report.f_exact():
        raise AssertionError("stabilized finite model produced a non-exact report")
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
    """Verdict for f(total) = f(a) + f(b).

    EXACT triples get an exact equality verdict; all-bound triples get the
    aligned per-n consistency table; mixed certificate levels are refused
    as INCOMPARABLE.
    """
    levels = [r.f_exact() for r in (total, a, b)]
    out = {
        "columns": {
            key: {"label": rep.label, "f": rep.f_value.to_json(), "certificate": rep.certificate}
            for key, rep in (("total", total), ("a", a), ("b", b))
        }
    }
    if all(levels):
        equal = total.f_value == a.f_value + b.f_value
        out["verdict"] = "EXACT-PASS" if equal else "EXACT-FAIL"
        out["exact_equality"] = equal
        return out
    if not any(levels):
        n_common = min(total.n_max, a.n_max, b.n_max)
        if n_common < 1:
            out["verdict"] = "INCOMPARABLE"
            return out
        table = []
        for n in range(1, n_common + 1):
            lhs = total.rows[n]["inf_F"]
            rhs = a.rows[n]["inf_F"] + b.rows[n]["inf_F"]
            table.append(
                {"n": n, "total_inf": lhs.to_json(), "sum_inf": rhs.to_json(), "equal": lhs == rhs}
            )
        out["verdict"] = "BOUND-CONSISTENT"
        out["rows"] = table
        return out
    out["verdict"] = "INCOMPARABLE"
    out["reason"] = "mixed certificate levels"
    return out
