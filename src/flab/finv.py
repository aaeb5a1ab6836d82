"""The weighted entropy functionals over ball windows and their truncated infima.

For a rank-r process the basic functional is

    F(n) = (1 - 2r) H(B(n)) + sum_i H(B(n) u s_i B(n))

and the starred variant replaces the join terms by one-coordinate entropy
plus generator entropy rates,

    F*(n) = (1 - r) H(B(n)) + sum_i h(s_i, B(n)).

Every functional reads a process only through its window query
proc.entropy(W) -> (value, certificate).  A relative (base-conditioned)
functional is the same functional of a conditioned process, such as
SkewProductProcess.relative() or a FiniteActionProcess built with
`given`, so nothing here takes a conditioning argument.

Truncated infima over n >= 1 are upper bounds by definition; a report is
flagged EXACT only when a tail argument pins the remaining n: window
entropies stabilizing (finite models and finite-kernel systems) or the
i.i.d. closed form (Bernoulli shifts), where every row is log k because
(1 - r)|B(n)| + r(2r - 1)^n = 1 for every r >= 1 and n >= 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .entropy import EntropyValue, FinitePartition, join
from .processes import BernoulliProcess, FiniteActionProcess, weakest_certificate
from .skew import sigma_generated
from .words import WordSet, ball, generator

M_CAP = 10  # most one-sided increments a generator entropy rate takes


def F_of(proc, n: int) -> tuple[EntropyValue, str]:
    """(1-2r) H(P^{B(n)}) + sum_i H(P^{B(n)} v s_i P^{B(n)}), exactly,
    with the weakest certificate of the window entropies it used."""
    r = proc.rank
    b = ball(r, n)
    value, cert = proc.entropy(b)
    total = (1 - 2 * r) * value
    certs = [cert]
    for i in range(1, r + 1):
        value, cert = proc.entropy(b.union(b.translate(generator(r, i))))
        total = total + value
        certs.append(cert)
    return total, weakest_certificate(certs)


class RateResult(NamedTuple):
    """A generator entropy rate with its stabilization evidence."""

    value: EntropyValue
    kind: str
    increments: list[EntropyValue]
    stabilized_at: int | None
    window_certificate: str

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "kind": self.kind,
            "stabilized_at": self.stabilized_at,
            "increments": [d.to_json() for d in self.increments],
            "window_certificate": self.window_certificate,
        }


def generator_entropy_rate(proc, i: int, W: WordSet, stable_threshold: int = 3) -> RateResult:
    """Entropy rate along the i-th generator, via one-sided window increments.

    The increments H(union of m+1 translates) - H(union of m translates)
    are nonincreasing; a zero increment certifies rate exactly zero
    (later translates stay measurable in the earlier joins), while a run
    of `stable_threshold` equal positive increments is reported as
    STABLE(t), the last of M_CAP increments otherwise as an upper bound.
    """
    s = generator(proc.rank, i)
    U = W
    prev, cert = proc.entropy(U)
    certs = [cert]
    increments: list[EntropyValue] = []
    T = W
    for m in range(1, M_CAP + 1):
        T = T.translate(s)  # s^m W
        U = U.union(T)
        value, cert = proc.entropy(U)
        certs.append(cert)
        d = value - prev
        prev = value
        increments.append(d)
        if d.is_zero():
            return RateResult(
                EntropyValue.zero(), "EXACT-ZERO", increments, m, weakest_certificate(certs)
            )
        if len(increments) >= stable_threshold and all(
            increments[-k] == d for k in range(1, stable_threshold + 1)
        ):
            return RateResult(
                d,
                f"STABLE({stable_threshold})",
                increments,
                m,
                weakest_certificate(certs),
            )
    return RateResult(
        increments[-1], "UPPER-BOUND", increments, None, weakest_certificate(certs)
    )


def F_star_of(
    proc, n: int, stable_threshold: int = 3
) -> tuple[EntropyValue, str, list[RateResult]]:
    """(1-r) H(P^{B(n)}) + sum_i h(s_i, P^{B(n)}), with the weakest certificate."""
    r = proc.rank
    b = ball(r, n)
    total = (1 - r) * proc.entropy(b)[0]
    rates = []
    for i in range(1, r + 1):
        rate = generator_entropy_rate(proc, i, b, stable_threshold)
        rates.append(rate)
        total = total + rate.value
    kinds = [rate.kind for rate in rates]
    if any(k == "UPPER-BOUND" for k in kinds):
        cert = "UPPER-BOUND"
    elif any(k.startswith("STABLE") for k in kinds):
        cert = f"STABLE({stable_threshold})"
    else:
        cert = "EXACT"
    return total, cert, rates


class FReport(NamedTuple):
    """Per-n table of F and F* with running infima and exactness flags."""

    label: str
    rank: int
    n_max: int
    rows: list[dict]
    f_value: EntropyValue
    f_certificate: str
    f_star_value: EntropyValue
    f_star_certificate: str
    stabilized_at: int | None
    relative: bool

    def f_exact(self) -> bool:
        return self.f_certificate.startswith("EXACT")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "n_max": self.n_max,
            "relative": self.relative,
            "stabilized_at": self.stabilized_at,
            "f": {"value": self.f_value.to_json(), "certificate": self.f_certificate},
            "f_star": {
                "value": self.f_star_value.to_json(),
                "certificate": self.f_star_certificate,
            },
            "rows": [
                {
                    "n": row["n"],
                    "F": row["F"].to_json(),
                    "F_certificate": row["F_cert"],
                    "F_star": row["F_star"].to_json(),
                    "F_star_certificate": row["F_star_cert"],
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
        if proc.entropy(ball(proc.rank, n + 1))[0] == proc.entropy(ball(proc.rank, n))[0]:
            return n
    return None


def full_report(proc, n_max: int, stable_threshold: int = 3) -> FReport:
    """Rows n = 0..n_max (n = 0 is diagnostic; infima use n >= 1 only)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    inf_F = inf_F_star = None
    for n in range(n_max + 1):
        F, F_cert = F_of(proc, n)
        F_star, F_star_cert, rates = F_star_of(proc, n, stable_threshold)
        if n >= 1:
            inf_F = F if inf_F is None else min(inf_F, F)
            inf_F_star = F_star if inf_F_star is None else min(inf_F_star, F_star)
        rows.append(
            {
                "n": n,
                "F": F,
                "F_cert": F_cert,
                "F_star": F_star,
                "F_star_cert": F_star_cert,
                "rates": rates,
                "inf_F": inf_F if inf_F is not None else F,
                "inf_F_star": inf_F_star if inf_F_star is not None else F_star,
            }
        )

    stabilized_at = _stabilization_point(proc, n_max)
    if stabilized_at is not None:
        # window entropies are constant beyond the stabilization point, so the
        # computed rows already contain the constant tail value
        cert = "EXACT-STABILIZED"
    elif isinstance(proc, BernoulliProcess):
        # every i.i.d. row is log k (see the module docstring)
        if not all(row["F"] == rows[1]["F"] for row in rows[1:]):
            raise AssertionError("i.i.d. closed form violated by computed rows")
        cert = "EXACT-IID"
    else:
        cert = "UPPER-BOUND"

    return FReport(
        proc.label,
        proc.rank,
        n_max,
        rows,
        inf_F,
        cert,
        inf_F_star,
        cert,
        stabilized_at,
        proc.conditioned,
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
            "total": {"label": total.label, "f": total.f_value.to_json(), "certificate": total.f_certificate},
            "a": {"label": a.label, "f": a.f_value.to_json(), "certificate": a.f_certificate},
            "b": {"label": b.label, "f": b.f_value.to_json(), "certificate": b.f_certificate},
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
