"""The weighted entropy functionals over ball windows and their truncated infima.

For a rank-r process the basic functional is

    F(n) = (1 - 2r) H(B(n)) + sum_i H(B(n) u s_i B(n))

and the starred variant replaces the join terms by one-coordinate entropy
plus generator entropy rates,

    F*(n) = (1 - r) H(B(n)) + sum_i h(s_i, B(n)).

Truncated infima over n >= 1 are upper bounds by definition; a report is
flagged EXACT only when a tail argument pins the remaining n: window
entropies stabilizing (finite models and finite-kernel systems) or the
i.i.d. closed form (Bernoulli shifts), where the per-n value is constant.
"""

from __future__ import annotations

from .entropy import EntropyValue, FinitePartition
from .processes import weakest_certificate
from .words import FreeWord, WordSet, ball, ball_size, generator


def _union_window(proc, n: int, i: int) -> WordSet:
    b = ball(proc.rank, n)
    return b.union(b.translate(generator(proc.rank, i)))


def _entropy(proc, W: WordSet, given=None) -> EntropyValue:
    if given is None:
        return proc.entropy(W)
    return proc.conditional_entropy(W, given)


def _window_cert(proc, W: WordSet, given=None) -> str:
    if given is None:
        return proc.entropy_certificate(W)
    return "EXACT"


def F_of(proc, n: int, given=None) -> tuple[EntropyValue, str]:
    """(1-2r) H(P^{B(n)}) + sum_i H(P^{B(n)} v s_i P^{B(n)}), exactly,
    with the weakest certificate of the window entropies it used."""
    r = proc.rank
    b = ball(r, n)
    certs = [_window_cert(proc, b, given)]
    total = (1 - 2 * r) * _entropy(proc, b, given)
    for i in range(1, r + 1):
        W = _union_window(proc, n, i)
        total = total + _entropy(proc, W, given)
        certs.append(_window_cert(proc, W, given))
    return total, weakest_certificate(certs)


class RateResult:
    """A generator entropy rate with its stabilization evidence."""

    __slots__ = ("value", "kind", "increments", "stabilized_at", "window_certificate")

    def __init__(self, value, kind, increments, stabilized_at, window_certificate):
        self.value = value
        self.kind = kind
        self.increments = increments
        self.stabilized_at = stabilized_at
        self.window_certificate = window_certificate

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "kind": self.kind,
            "stabilized_at": self.stabilized_at,
            "increments": [d.to_json() for d in self.increments],
            "window_certificate": self.window_certificate,
        }


def generator_entropy_rate(
    proc,
    i: int,
    W: WordSet,
    given=None,
    stable_threshold: int = 3,
    m_cap: int = 10,
) -> RateResult:
    """Entropy rate along the i-th generator, via one-sided window increments.

    The increments H(union of m+1 translates) - H(union of m translates)
    are nonincreasing; a zero increment certifies rate exactly zero
    (later translates stay measurable in the earlier joins), while a run
    of `stable_threshold` equal positive increments is reported as
    STABLE(t), the last increment otherwise as an upper bound.
    """
    s = generator(proc.rank, i)
    U = W
    prev = _entropy(proc, U, given)
    certs = [_window_cert(proc, U, given)]
    increments: list[EntropyValue] = []
    shift = s
    for m in range(1, m_cap + 1):
        U = U.union(W.translate(shift))
        shift = FreeWord(proc.rank, shift.letters + s.letters)
        value = _entropy(proc, U, given)
        certs.append(_window_cert(proc, U, given))
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
    proc, n: int, given=None, stable_threshold: int = 3, m_cap: int = 10
) -> tuple[EntropyValue, str, list[RateResult]]:
    """(1-r) H(P^{B(n)}) + sum_i h(s_i, P^{B(n)}), with the weakest certificate."""
    r = proc.rank
    b = ball(r, n)
    total = (1 - r) * _entropy(proc, b, given)
    rates = []
    kinds = []
    for i in range(1, r + 1):
        rate = generator_entropy_rate(
            proc, i, b, given, stable_threshold=stable_threshold, m_cap=m_cap
        )
        rates.append(rate)
        total = total + rate.value
        kinds.append(rate.kind)
    if any(k == "UPPER-BOUND" for k in kinds):
        cert = "UPPER-BOUND"
    elif any(k.startswith("STABLE") for k in kinds):
        cert = f"STABLE({stable_threshold})"
    else:
        cert = "EXACT"
    return total, cert, rates


class FReport:
    """Per-n table of F and F* with running infima and exactness flags."""

    def __init__(self, label, rank, n_max, rows, f_value, f_certificate,
                 f_star_value, f_star_certificate, stabilized_at, relative):
        self.label = label
        self.rank = rank
        self.n_max = n_max
        self.rows = rows
        self.f_value = f_value
        self.f_certificate = f_certificate
        self.f_star_value = f_star_value
        self.f_star_certificate = f_star_certificate
        self.stabilized_at = stabilized_at
        self.relative = relative

    def f_exact(self) -> bool:
        return self.f_certificate.startswith("EXACT")

    def f_star_exact(self) -> bool:
        return self.f_star_certificate.startswith("EXACT")

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


def _iid_identity_holds(rank: int, upto: int = 64) -> bool:
    # (1-r)|B(n)| + r (2r-1)^n == 1 makes every i.i.d. row equal log k
    return all(
        (1 - rank) * ball_size(rank, n) + rank * (2 * rank - 1) ** n == 1
        for n in range(upto)
    )


def full_report(
    proc,
    n_max: int,
    given=None,
    label: str | None = None,
    stable_threshold: int = 3,
    m_cap: int = 10,
) -> FReport:
    """Rows n = 0..n_max (n = 0 is diagnostic; infima use n >= 1 only)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rank = proc.rank
    rows = []
    inf_F = inf_F_star = None
    for n in range(n_max + 1):
        F, F_cert = F_of(proc, n, given)
        F_star, F_star_cert, rates = F_star_of(
            proc, n, given, stable_threshold=stable_threshold, m_cap=m_cap
        )
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

    stabilized_at = None
    for n in range(n_max):
        if _entropy(proc, ball(rank, n + 1), given) == _entropy(proc, ball(rank, n), given):
            stabilized_at = n
            break

    if stabilized_at is not None:
        # window entropies are constant beyond the stabilization point, so the
        # computed rows already contain the constant tail value
        f_cert = "EXACT-STABILIZED"
        f_star_cert = "EXACT-STABILIZED"
    elif getattr(proc, "iid_closed_form", False) and _iid_identity_holds(rank):
        if not all(row["F"] == rows[1]["F"] for row in rows[1:]):
            raise AssertionError("i.i.d. closed form violated by computed rows")
        f_cert = "EXACT-IID"
        f_star_cert = "EXACT-IID"
    else:
        f_cert = "UPPER-BOUND"
        f_star_cert = "UPPER-BOUND"

    return FReport(
        label or getattr(proc, "label", "process"),
        rank,
        n_max,
        rows,
        inf_F,
        f_cert,
        inf_F_star,
        f_star_cert,
        stabilized_at,
        relative=given is not None,
    )


# -- exact values on finite models --------------------------------------------


def exact_f_finite(proc, given=None, n_cap: int | None = None) -> tuple[EntropyValue, FReport]:
    """The exact f-value of a finite-model process (window joins stabilize).

    Searches for the stabilization point and truncates one step past it;
    the report is then EXACT by the tail argument.
    """
    rank = proc.rank
    cap = n_cap if n_cap is not None else proc.action.size() + 2
    n_stab = None
    for n in range(cap):
        if _entropy(proc, ball(rank, n + 1), given) == _entropy(proc, ball(rank, n), given):
            n_stab = n
            break
    if n_stab is None:
        raise AssertionError("finite model failed to stabilize within the cap")
    report = full_report(proc, max(1, n_stab + 1), given=given)
    if not report.f_exact():
        raise AssertionError("stabilized finite model produced a non-exact report")
    return report.f_value, report


def abramov_rokhlin_check(action, p: FinitePartition, q: FinitePartition) -> dict:
    """f(P v Q) = f(Q) + f(P | Sigma(Q)) on a finite model, exactly."""
    from .entropy import join
    from .processes import FiniteActionProcess
    from .skew import sigma_generated

    sigma_q = sigma_generated(action, q)
    f_join, _ = exact_f_finite(FiniteActionProcess(action, join(p, q), "P v Q"))
    f_q, _ = exact_f_finite(FiniteActionProcess(action, q, "Q"))
    f_rel, _ = exact_f_finite(FiniteActionProcess(action, p, "P"), given=sigma_q)
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
