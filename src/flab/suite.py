"""Runners behind the CLI subcommands: example families and verifier suites.

Every runner returns a plain JSON-serializable dict with a top-level
"status" of PASS or FAIL; exact quantities appear as
{"terms": ..., "float": ...} pairs so reports stay byte-stable and
tolerance-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entropy import EntropyValue, FinitePartition, is_prime
from .finv import (
    F_star_of,
    abramov_rokhlin_check,
    addition_report,
    full_report,
)
from .groups import group_from_json, normal_subgroups, preset_group
from .kernels import (
    ConvolutionKernel,
    KernelSubshift,
    comparison_kernel,
    is_surjective,
    ow_kernel,
    preimage_on_ball,
    support_geometry,
)
from .presets import (
    DEFAULT_SEED,
    group_action,
    make_rng,
    random_finite_action,
    random_partition,
    random_z_skew,
    section_bundles,
    skew_test_cases,
    trivial_action,
)
from .processes import (
    BernoulliProcess,
    FiniteActionProcess,
    KernelProcess,
    SkewProductProcess,
)
from .skew import (
    Cocycle,
    FiniteGroupAction,
    K_of,
    SectionCocycleBundle,
    SpecialPartition,
    join_special,
    verify_cocycle_identity,
    verify_generated_algebra,
    verify_pullback_exchange,
    verify_skew_entropy_bound,
    verify_window_split,
)
from .spec import spec_field
from .words import ball, ball_size, format_word, parse_word


@dataclass
class RunConfig:
    rank: int = 2
    n_max: int = 2
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "n_max": self.n_max,
            "seed": self.seed,
        }


def _points_process(action: FiniteGroupAction) -> FiniteActionProcess:
    """A finite group under automorphisms, observed through its points."""
    return FiniteActionProcess(action, FinitePartition.points(action.space), action.group.name)


def _marginal_table(sub: KernelSubshift, rank: int, radii) -> dict:
    """The dimension and certificate of each ball marginal B(n), n in radii."""
    dims = {}
    for n in radii:
        m = sub.marginal(ball(rank, n))
        dims[f"B({n})"] = {"dimension": m.dimension, "certificate": m.certificate}
    return dims


def run_ornstein_weiss(cfg: RunConfig) -> dict:
    """The doubling-map family: log 2 = -log 2 + log 4, all columns exact."""
    if cfg.rank != 2:
        raise ValueError("the doubling-map example lives over the rank-2 free group")
    kernel = ow_kernel()
    kproc = KernelProcess(kernel, "kernel of the doubling map")
    dims = _marginal_table(kproc.subshift, 2, range(3))
    surj = is_surjective(kernel)

    full = full_report(BernoulliProcess(2, 2, "full shift on Z/2"), cfg.n_max)
    n_col = full_report(kproc, cfg.n_max)
    image = full_report(BernoulliProcess(2, 4, "full shift on Z/2 x Z/2"), cfg.n_max)
    addition = addition_report(full, n_col, image)

    ok = (
        addition["verdict"] == "EXACT-PASS"
        and all(d["dimension"] == 1 for d in dims.values())
        and surj.surjective
    )
    return {
        "command": "ow",
        "config": cfg.to_json(),
        "kernel": kernel.to_json(),
        "kernel_window_dimensions": dims,
        "surjectivity": surj.to_json(),
        "reports": {
            "full_shift": full.to_json(),
            "kernel_column": n_col.to_json(),
            "image": image.to_json(),
        },
        "addition": addition,
        "status": "PASS" if ok else "FAIL",
    }


def run_generalization(cfg: RunConfig, k_name: str) -> dict:
    """log|K| = -(r-1) log|K| + r log|K| for a finite abelian K."""
    group = preset_group(k_name)
    if not group.is_abelian():
        raise ValueError(
            f"{k_name} is not abelian: the comparison map x(g s_i) - x(g) needs "
            "commuting coordinates, so only finite abelian groups are supported"
        )
    r = cfg.rank
    k = group.order()
    total = full_report(BernoulliProcess(r, k, f"full shift on {group.name}"), cfg.n_max)
    constants = full_report(_points_process(trivial_action(group, r)), cfg.n_max)
    image = full_report(BernoulliProcess(r, k**r, f"full shift on {group.name}^{r}"), cfg.n_max)
    addition = addition_report(total, constants, image)

    comparison = {"applicable": False}
    if is_prime(k):
        ck = comparison_kernel(k, r)
        # named before the marginals run: past rank 25 its words have no text
        comparison = {"applicable": True, "kernel": ck.to_json()}
        dims = comparison["window_dimensions"] = _marginal_table(KernelSubshift(ck), r, (1, 2))
        comparison["constants_only"] = all(d["dimension"] == 1 for d in dims.values())

    expected_constants = -(r - 1) * EntropyValue.log_int(k)
    ok = (
        addition["verdict"] == "EXACT-PASS"
        and constants.f_value == expected_constants
        and (not comparison["applicable"] or comparison["constants_only"])
    )
    return {
        "command": "gen",
        "config": cfg.to_json(),
        "k": k_name,
        "reports": {
            "full_shift": total.to_json(),
            "constants": constants.to_json(),
            "image": image.to_json(),
        },
        "expected_constants_f": expected_constants.to_json(),
        "comparison_kernel": comparison,
        "addition": addition,
        "status": "PASS" if ok else "FAIL",
    }


def run_algebraic(cfg: RunConfig, kernel: ConvolutionKernel) -> dict:
    """F/F* tables for a kernel subshift, of its own rank, and its exact column checked against zero."""
    if kernel.is_zero():
        raise ValueError("the zero kernel cuts out the full shift; nothing to run")
    if not kernel.is_scalar():
        raise ValueError("the algebraic family runs on scalar kernels")
    surj = is_surjective(kernel)
    geo = support_geometry(kernel)
    kproc = KernelProcess(kernel, "kernel subshift")
    rep = full_report(kproc, cfg.n_max)
    full = full_report(
        BernoulliProcess(kernel.rank, kernel.p, f"full shift on Z/{kernel.p}"), cfg.n_max
    )

    window_dims = _marginal_table(kproc.subshift, kernel.rank, range(min(cfg.n_max, 2) + 1))
    zero_pattern = {w: 0 for w in ball(kernel.rank, 1)}
    zero_measure = kproc.subshift.cylinder_measure(ball(kernel.rank, 1), zero_pattern)

    exact_zero = rep.f_value.is_zero() and rep.f_star_value.is_zero()
    column_verdict = "EXACT-ZERO" if exact_zero else "EXACT-NONZERO"

    rng = make_rng(cfg.seed)
    recheck = {"targets": 0, "verified": 0}
    for _ in range(5):
        y = {g: rng.randrange(kernel.p) for g in ball(kernel.rank, 1)}
        x = preimage_on_ball(kernel, y, 1)
        recheck["targets"] += 1
        if all(kernel.evaluate(x, g) == (y[g],) for g in ball(kernel.rank, 1)):
            recheck["verified"] += 1

    ok = (
        surj.surjective
        and column_verdict == "EXACT-ZERO"
        and recheck["targets"] == recheck["verified"]
    )
    return {
        "command": "kernel",
        "config": replace(cfg, rank=kernel.rank).to_json(),
        "kernel": kernel.to_json(),
        "support_hull": [format_word(w) for w in geo.hull],
        "surjectivity": surj.to_json(),
        "window_dimensions": window_dims,
        "cylinder_measures": {
            "all-zero pattern on B(1)": str(zero_measure),
        },
        "reports": {
            "kernel_column": rep.to_json(),
            "full_shift": full.to_json(),
        },
        "column_vs_zero": {
            "verdict": column_verdict,
            "implied_true_value": EntropyValue.zero().to_json(),
            "note": "the addition theorem for an onto scalar phi pins f(ker phi) "
            "at (d_in - d_out) log p = 0",
        },
        "preimage_recheck": recheck,
        "status": "PASS" if ok else "FAIL",
    }


# -- verifier suites ------------------------------------------------------------


def _suite_cocycle(cfg: RunConfig, inject_bug: str | None) -> dict:
    cases, bundles = [], section_bundles()
    for name, bundle in bundles:
        rows = bundle.cocycle.ball_rows(6)  # every row the check reads
        ok_eq, wit_eq = verify_cocycle_identity(
            rows.__getitem__, bundle.cocycle.base, bundle.cocycle.fiber, max_len=3
        )
        ok_phi, wit_phi = bundle.verify_conjugacy(max_len=3)
        cases.append(
            {
                "name": name,
                "cocycle_identity": ok_eq,
                "conjugacy": ok_phi,
                "witness": wit_eq or wit_phi,
                "passed": ok_eq and ok_phi,
            }
        )
    if inject_bug == "negate-cocycle":
        name, bundle = bundles[0]
        cocycle = bundle.cocycle
        fiber = cocycle.fiber.group
        bump = next(x for x in range(fiber.order()) if x != fiber.identity)

        length_two = range(ball_size(2, 1), ball_size(2, 2))

        def corrupted(i):
            row = cocycle.row(i)
            return [fiber.mul(value, bump) for value in row] if i in length_two else row

        ok, witness = verify_cocycle_identity(
            corrupted, cocycle.base, cocycle.fiber, max_len=2
        )
        cases.append(
            {
                "name": name + " [injected bug: perturbed length-2 values]",
                "cocycle_identity": ok,
                "conjugacy": None,
                "witness": witness,
                "passed": ok,
            }
        )
    return {"name": "cocycle", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_special(cfg: RunConfig) -> dict:
    cases = []
    z8 = preset_group("Z/8")
    triple = tuple((3 * x) % 8 for x in range(8))
    q1 = SpecialPartition(z8, frozenset({0, 4}))
    q2 = SpecialPartition(z8, frozenset({0, 2, 4, 6}))
    joined = join_special(z8, [(triple, q1), (tuple(range(8)), q2)])
    cases.append(
        {
            "name": "Z/8 join of translated coset partitions",
            "subgroup_order": len(joined.subgroup),
            "passed": joined.subgroup == frozenset({0, 4}),
        }
    )
    for name in ("Z/4", "D4", "Q8"):
        group = preset_group(name)
        for sub in normal_subgroups(group):
            sp = SpecialPartition(group, sub)
            cases.append(
                {
                    "name": f"K({name} cosets of order-{len(sub)} subgroup) = 0",
                    "passed": K_of(sp.partition, group).is_zero(),
                }
            )
    return {"name": "special", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_skew_entropy_bound(cfg: RunConfig) -> dict:
    rng = make_rng(cfg.seed)
    cases = []
    for idx in range(20):
        cocycle, q, special = random_z_skew(rng)
        records = verify_skew_entropy_bound(cocycle, q, 5)
        holds = all(r["holds"] for r in records)
        equal_ok = (not special) or all(r["equal"] for r in records)
        cases.append(
            {
                "name": f"seeded system {idx} (fiber {cocycle.fiber.group.name}, special={special})",
                "inequality": holds,
                "equality_for_special": equal_ok,
                "passed": holds and equal_ok,
            }
        )
    return {"name": "skew-entropy-bound", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_relative_collapse(cfg: RunConfig) -> dict:
    cases = []
    for case in skew_test_cases():
        cocycle = case["cocycle"]
        proc = SkewProductProcess(
            cocycle,
            FinitePartition.points(cocycle.base.space),
            case["special"].partition,
        )
        relative = proc.relative()
        fiber_proc = proc.fiber_process()
        ok = True
        for n in range(cfg.n_max + 1):
            lhs, _ = F_star_of(relative, n)
            rhs, _ = F_star_of(fiber_proc, n)
            ok = ok and lhs == rhs
        cases.append(
            {
                "name": case["name"],
                "nontrivial_cocycle": case["nontrivial_cocycle"],
                "passed": ok,
            }
        )
    return {"name": "relative-collapse", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_pullback_exchange(cfg: RunConfig) -> dict:
    rng = make_rng(cfg.seed + 1)
    cases = []
    for case in skew_test_cases()[:8]:
        cocycle = case["cocycle"]
        p_prime = random_partition(rng, cocycle.base.size())
        ok = all(
            verify_pullback_exchange(cocycle, parse_word(text, 2), case["special"], p_prime)
            for text in ("e", "a", "B", "ab", "aB")
        )
        cases.append({"name": case["name"], "passed": ok})
    return {"name": "pullback-exchange", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_generated_algebra(cfg: RunConfig) -> dict:
    cases = []
    for case in skew_test_cases()[:8]:
        cocycle = case["cocycle"]
        p = FinitePartition.points(cocycle.base.space)
        ok = verify_generated_algebra(cocycle, p, case["special"])
        cases.append({"name": case["name"], "passed": ok})
    return {"name": "generated-algebra", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_window_split(cfg: RunConfig) -> dict:
    cases = []
    for case in skew_test_cases()[:4]:
        cocycle = case["cocycle"]
        p = FinitePartition.points(cocycle.base.space)
        ok = all(verify_window_split(cocycle, n, p, case["special"]) for n in (1, 2))
        cases.append({"name": case["name"], "passed": ok})
    return {"name": "window-split", "cases": cases, "passed": all(c["passed"] for c in cases)}


def _suite_addition_formula(cfg: RunConfig) -> dict:
    rng = make_rng(cfg.seed)
    cases = []
    for idx in range(10):
        act = random_finite_action(rng)
        p = random_partition(rng, act.size())
        q = random_partition(rng, act.size())
        result = abramov_rokhlin_check(act, p, q)
        cases.append(
            {
                "name": f"seeded action {idx} ({act.size()} atoms)",
                "f_join": result["f_join"].to_json(),
                "f_q": result["f_q"].to_json(),
                "f_relative": result["f_relative"].to_json(),
                "passed": result["equal"],
            }
        )
    return {"name": "addition-formula", "cases": cases, "passed": all(c["passed"] for c in cases)}


_SUITES = {
    "cocycle": _suite_cocycle,
    "special": _suite_special,
    "skew-entropy-bound": _suite_skew_entropy_bound,
    "relative-collapse": _suite_relative_collapse,
    "pullback-exchange": _suite_pullback_exchange,
    "generated-algebra": _suite_generated_algebra,
    "window-split": _suite_window_split,
    "addition-formula": _suite_addition_formula,
}


def run_verifier_suite(
    cfg: RunConfig, suites: list[str] | None = None, inject_bug: str | None = None
) -> dict:
    if cfg.rank != 2:
        # every suite builds its cases over the rank-2 free group (and the
        # skew-entropy bound over rank 1), whatever the configured rank
        raise ValueError("the verifier suites run over the rank-2 free group")
    selection = list(_SUITES) if suites is None else suites
    for k, name in enumerate(selection):
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(_SUITES)}")
        if name in selection[:k]:
            raise ValueError(f"suite {name!r} is selected twice")
    if inject_bug is not None and "cocycle" not in selection:
        raise ValueError(
            f"the injected bug {inject_bug!r} corrupts the cocycle suite, which is not selected"
        )
    results = [_SUITES[name](cfg, inject_bug) if name == "cocycle" else _SUITES[name](cfg) for name in selection]
    passed = all(s["passed"] for s in results)
    return {
        "command": "verify",
        "config": cfg.to_json(),
        "suites": results,
        "status": "PASS" if passed else "FAIL",
    }


# -- process specs for compute-f -------------------------------------------------


def _label_indices(group, labels, key: str) -> list[int]:
    if not isinstance(labels, list) or any(lab not in group.labels for lab in labels):
        raise ValueError(f"spec field {key!r} must list element labels of {group.name}")
    return [group.index(lab) for lab in labels]


def process_from_spec(spec: dict, cfg: RunConfig):
    kind = spec_field(spec, "type", str)
    rank = spec_field(spec, "rank", int, cfg.rank)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if kind == "bernoulli":
        return BernoulliProcess(rank, spec_field(spec, "k", int))
    if kind == "finite_group":
        group = group_from_json(spec_field(spec, "group", dict))
        return _points_process(
            group_action(group, spec_field(spec, "autos", list, [0] * rank), rank)
        )
    if kind == "kernel":
        kernel = ConvolutionKernel.from_json(spec_field(spec, "kernel", dict))
        if "rank" in spec and rank != kernel.rank:
            raise ValueError(f"spec field 'rank' is {rank} but the kernel's rank is {kernel.rank}")
        return KernelProcess(kernel)
    if kind == "skew_section":
        group = group_from_json(spec_field(spec, "group", dict))
        action = group_action(group, spec_field(spec, "autos", list, [0] * rank), rank)
        sub = frozenset(_label_indices(group, spec_field(spec, "subgroup", list), "subgroup"))
        cocycle = SectionCocycleBundle(action, sub).cocycle
        return SkewProductProcess(
            cocycle,
            FinitePartition.points(cocycle.base.space),
            FinitePartition.points(cocycle.fiber.space),
            f"{group.name} over subgroup of order {len(sub)}",
        )
    if kind == "skew_custom":
        base_group = group_from_json(spec_field(spec, "base_group", dict))
        fiber_group = group_from_json(spec_field(spec, "fiber_group", dict))
        base = group_action(base_group, spec_field(spec, "base_autos", list), rank)
        fiber = group_action(fiber_group, spec_field(spec, "fiber_autos", list), rank)
        gen_values = [
            _label_indices(fiber_group, row, "cocycle")
            for row in spec_field(spec, "cocycle", list)
        ]
        return SkewProductProcess(
            Cocycle(base, fiber, gen_values),
            FinitePartition.points(base.space),
            FinitePartition.points(fiber.space),
            "custom skew product",
        )
    raise ValueError(f"unknown process type {kind!r}")


def run_compute_f(cfg: RunConfig, spec: dict) -> dict:
    proc = process_from_spec(spec, cfg)
    rep = full_report(proc, cfg.n_max)
    out = {
        "command": "compute-f",
        "config": replace(cfg, rank=proc.rank).to_json(),
        "process": proc.describe(),
        "report": rep.to_json(),
        "status": "PASS",
    }
    if isinstance(proc, SkewProductProcess):
        out["relative_report"] = full_report(proc.relative(), cfg.n_max).to_json()
    return out
