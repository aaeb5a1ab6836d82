"""Inputs, jobs and output checks of the three benchmark workloads.

Each job is one call into the public API followed by the CLI's
`json.dumps(report, sort_keys=True, indent=2)`, so its time is what the
matching `flab` subcommand spends minus interpreter start-up.  A job's
check compares its report with values the mathematics fixes; certificate
strings are deliberately not checked, so promoting or demoting a
certificate is not a failure.

    kernel-certify  run_algebraic on p=2 {e:1, A:1} and p=3 {e:1, A:1, B:2}
                    at n_max=1, then run_ornstein_weiss and
                    run_generalization("Z/3") at n_max=2; the seed is
                    RunConfig.seed, which draws the preimage re-check
    finite-verify   run_verifier_suite on each of the eight suites alone,
                    for three seeds drawn from the workload seed, and
                    run_compute_f on four process specs drawn from it
    onto-oracle     every scalar stencil supported in B(1) with identity
                    coefficient 1, for p in {2, 3}: is_surjective, every target on B(0) and B(1) solved
                    through target_map_matrix and fplinear.solve, and one
                    seeded preimage_on_ball target on B(2)
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

from flab import fplinear, kernels, suite, words

RANK = 2


class Job:
    """One timed call; `check(report)` returns the reasons it is wrong."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def build(workload: str, seed: int, small: bool = False) -> list[Job]:
    """The jobs of one workload; the same seed gives the same jobs."""
    workloads = {
        "kernel-certify": _kernel_certify,
        "finite-verify": _finite_verify,
        "onto-oracle": _onto_oracle,
    }
    return workloads[workload](seed, small)


# -- exact values as the reports print them ----------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def log_terms(coeff: int, n: int) -> dict[str, str]:
    """The `terms` of coeff * log(n) in an EntropyValue report."""
    return {
        str(p): str(Fraction(coeff * e))
        for p, e in sorted(_factor(n).items())
        if coeff * e
    }


def _f_terms(rep: dict) -> dict:
    return rep["f"]["value"]["terms"]


def _status(report: dict) -> list[str]:
    status = report.get("status")
    return [] if status == "PASS" else [f"status {status}"]


# -- kernel-certify ----------------------------------------------------------

# The kernel runs stop at n_max=1, where a pass is short enough to be
# repeated about ten times in one run; at n_max=2 a pass takes 11 s.
KERNEL_STENCILS = [(2, {"e": 1, "A": 1}), (3, {"e": 1, "A": 1, "B": 2})]
KERNEL_N_MAX = 1
COLUMN_VERDICTS = ("EXACT-ZERO", "TIGHT", "CONSISTENT")


def _check_kernel(report: dict) -> list[str]:
    errors = _status(report)
    verdict = report.get("column_vs_zero", {}).get("verdict")
    if verdict not in COLUMN_VERDICTS:
        errors.append(f"kernel column verdict {verdict}")
    recheck = report.get("preimage_recheck", {})
    if not recheck.get("targets") or recheck.get("targets") != recheck.get("verified"):
        errors.append(f"preimage re-check {recheck}")
    if not report.get("surjectivity", {}).get("surjective"):
        errors.append("nonzero scalar kernel reported not onto")
    return errors


def _check_ow(report: dict) -> list[str]:
    errors = _status(report)
    addition = report.get("addition", {})
    if addition.get("verdict") != "EXACT-PASS":
        errors.append(f"addition verdict {addition.get('verdict')}")
    columns = addition.get("columns", {})
    # log 2 = -log 2 + log 4
    for column, coeff, n in (("total", 1, 2), ("a", -1, 2), ("b", 1, 4)):
        got = columns.get(column, {}).get("f", {}).get("terms")
        if got != log_terms(coeff, n):
            errors.append(f"ow column {column}: f terms {got}")
    return errors


def _check_gen(order: int):
    def check(report: dict) -> list[str]:
        errors = _status(report)
        got = _f_terms(report["reports"]["constants"])
        want = log_terms(-(RANK - 1), order)
        if got != want:
            errors.append(f"constants f terms {got}, want {want}")
        return errors

    return check


def _kernel_certify(seed: int, small: bool) -> list[Job]:
    cfg = suite.RunConfig(rank=RANK, n_max=1 if small else 2, seed=seed)
    jobs = []
    kernel_cfg = suite.RunConfig(rank=RANK, n_max=KERNEL_N_MAX, seed=seed)
    for p, coeffs in KERNEL_STENCILS[: 1 if small else 2]:
        kernel = kernels.scalar_kernel(p, RANK, coeffs)
        label = ",".join(f"{w}:{c}" for w, c in coeffs.items())
        jobs.append(
            Job(
                f"kernel p={p} {{{label}}}",
                lambda kernel=kernel: suite.run_algebraic(kernel_cfg, kernel),
                _check_kernel,
            )
        )
    jobs.append(Job("ow", lambda: suite.run_ornstein_weiss(cfg), _check_ow))
    jobs.append(Job("gen Z/3", lambda: suite.run_generalization(cfg, "Z/3"), _check_gen(3)))
    return jobs


# -- finite-verify -----------------------------------------------------------

VERIFY_SEEDS = 3
# every suite `flab verify` runs; each is a job of its own, as with
# `flab verify --suite NAME`, so that no job is long
VERIFY_SUITES = [
    "cocycle", "special", "skew-entropy-bound", "relative-collapse",
    "pullback-exchange", "generated-algebra", "window-split", "addition-formula",
]
SMALL_SUITES = ["special", "addition-formula"]
GROUP_ORDERS = {
    "Z/2": 2, "Z/3": 3, "Z/4": 4, "Z/5": 5, "Z/6": 6, "Z/8": 8,
    "Z/2xZ/2": 4, "D4": 8, "Q8": 8,
}
# (group, subgroup) pairs whose subgroup is characteristic, hence normal and
# invariant under whatever automorphisms the generators are given
CHARACTERISTIC = [
    ("Z/4", ["0", "2"]),
    ("Z/6", ["0", "3"]),
    ("Z/6", ["0", "2", "4"]),
    ("Z/8", ["0", "4"]),
    ("Z/8", ["0", "2", "4", "6"]),
    ("D4", ["r0", "r2"]),
    ("D4", ["r0", "r1", "r2", "r3"]),
    ("Q8", ["1", "-1"]),
]
CYCLIC = [2, 3, 4]


def process_specs(rng: random.Random) -> list[tuple[dict, dict]]:
    """(spec, expected f terms): points partitions have f = -(r-1) log |space|."""
    k = rng.randint(2, 6)
    group = rng.choice(sorted(GROUP_ORDERS))
    sec_group, sub = rng.choice(CHARACTERISTIC)
    base, fiber = rng.choice(CYCLIC), rng.choice(CYCLIC)

    def autos():
        return [rng.randrange(64) for _ in range(RANK)]

    return [
        ({"type": "bernoulli", "k": k, "rank": RANK}, log_terms(1, k)),
        (
            {"type": "finite_group", "group": {"preset": group}, "autos": autos(), "rank": RANK},
            log_terms(-(RANK - 1), GROUP_ORDERS[group]),
        ),
        (
            {
                "type": "skew_section",
                "group": {"preset": sec_group},
                "autos": autos(),
                "subgroup": sub,
                "rank": RANK,
            },
            log_terms(-(RANK - 1), GROUP_ORDERS[sec_group]),
        ),
        (
            {
                "type": "skew_custom",
                "base_group": {"preset": f"Z/{base}"},
                "base_autos": autos(),
                "fiber_group": {"preset": f"Z/{fiber}"},
                "fiber_autos": autos(),
                "cocycle": [[str(rng.randrange(fiber)) for _ in range(base)] for _ in range(RANK)],
                "rank": RANK,
            },
            log_terms(-(RANK - 1), base * fiber),
        ),
    ]


def _check_verify(report: dict) -> list[str]:
    errors = _status(report)
    for s in report.get("suites", []):
        bad = [c["name"] for c in s["cases"] if not c["passed"]]
        if bad or not s["passed"]:
            errors.append(f"suite {s['name']} failing cases {bad}")
    return errors


def _check_compute_f(want: dict):
    def check(report: dict) -> list[str]:
        errors = _status(report)
        got = _f_terms(report["report"])
        if got != want:
            errors.append(f"f terms {got}, want {want}")
        return errors

    return check


def _finite_verify(seed: int, small: bool) -> list[Job]:
    rng = random.Random(f"finite-verify/{seed}")
    seeds = [rng.randrange(1, 1 << 31) for _ in range(1 if small else VERIFY_SEEDS)]
    jobs = [
        Job(
            f"verify seed={s} {name}",
            lambda s=s, name=name: suite.run_verifier_suite(suite.RunConfig(rank=RANK, seed=s), [name]),
            _check_verify,
        )
        for s in seeds
        for name in (SMALL_SUITES if small else VERIFY_SUITES)
    ]
    cfg = suite.RunConfig(rank=RANK, n_max=1 if small else 2, seed=seed)
    for spec, want in process_specs(rng):
        jobs.append(
            Job(
                f"compute-f {spec['type']}",
                lambda spec=spec: suite.run_compute_f(cfg, spec),
                _check_compute_f(want),
            )
        )
    return jobs


# -- onto-oracle -------------------------------------------------------------

ONTO_PRIMES = (2, 3)
PREIMAGE_RADIUS = 2


def stencils(primes=ONTO_PRIMES) -> list[tuple[int, dict]]:
    """Every scalar stencil x(g) + sum_{s != e} c(s) x(g s) with s in B(1),
    as (p, {word: coeff}): 16 for p=2 and 81 for p=3."""
    identity, *others = words.ball_list(RANK, 1)
    out = []
    for p in primes:
        for coeffs in product(range(p), repeat=len(others)):
            stencil = {identity: 1}
            stencil.update((w, c) for w, c in zip(others, coeffs) if c)
            out.append((p, stencil))
    return out


def _onto_report(kernel, target: dict, radius: int) -> dict:
    p = kernel.p
    surj = kernels.is_surjective(kernel)
    oracle = {}
    for n in (0, 1):
        m, _cols = kernels.target_map_matrix(kernel, words.ball(RANK, n))
        solvable = sum(
            1
            for y in product(range(p), repeat=m.rows)
            if not fplinear.solve(m, list(y)).is_empty()
        )
        oracle[f"B({n})"] = {"targets": p**m.rows, "solvable": solvable}
    x = kernels.preimage_on_ball(kernel, target, radius)
    return {
        "kernel": kernel.to_json(),
        "surjectivity": surj.to_json(),
        "oracle": oracle,
        "preimage": [[words.format_word(w), v] for w, v in sorted(x.items(), key=lambda kv: kv[0].sort_key())],
    }


def _check_onto(stencil: dict, p: int, target: dict):
    def check(report: dict) -> list[str]:
        errors = []
        theorem = report["surjectivity"]["surjective"]
        oracle = all(o["solvable"] == o["targets"] for o in report["oracle"].values())
        if not (theorem and oracle):
            errors.append(f"theorem says {theorem}, oracle says {oracle}, truth is True")
        # phi(x)(g) = sum_s c(s) x(g s), re-evaluated here from the stencil
        x = {words.parse_word(w, RANK): v for w, v in report["preimage"]}
        for g, want in target.items():
            got = sum(c * x.get(words.mul(g, s), 0) for s, c in stencil.items()) % p
            if got != want:
                errors.append(f"preimage misses target at {words.format_word(g)}")
                break
        return errors

    return check


def _onto_oracle(seed: int, small: bool) -> list[Job]:
    rng = random.Random(f"onto-oracle/{seed}")
    radius = 1 if small else PREIMAGE_RADIUS
    sites = words.ball_list(RANK, radius)
    jobs = []
    for p, stencil in stencils(ONTO_PRIMES[:1] if small else ONTO_PRIMES):
        kernel = kernels.ConvolutionKernel(p, RANK, {w: [[c]] for w, c in stencil.items()})
        target = {g: rng.randrange(p) for g in sites}
        label = ",".join(f"{words.format_word(w)}:{c}" for w, c in stencil.items())
        jobs.append(
            Job(
                f"onto p={p} {{{label}}}",
                lambda kernel=kernel, target=target: _onto_report(kernel, target, radius),
                _check_onto(stencil, p, target),
            )
        )
    return jobs
