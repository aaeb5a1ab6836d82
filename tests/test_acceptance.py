"""Acceptance gate: every criterion runs at zero tolerance and prints one line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary; all entropy comparisons are exact EntropyValue equalities.
"""

import os
import sys
from fractions import Fraction
from itertools import product

import pytest

from flab.entropy import EntropyValue, FinitePartition
from flab.finv import (
    F_of,
    F_star_of,
    abramov_rokhlin_check,
    addition_report,
    exact_f_finite,
    full_report,
    generator_entropy_rate,
)
from flab.fplinear import solve
from flab.groups import preset_group
from flab.kernels import (
    ConvolutionKernel,
    KernelSubshift,
    comparison_kernel,
    is_surjective,
    ow_kernel,
    preimage_on_ball,
    scalar_kernel,
    target_map_matrix,
)
from flab.presets import (
    DEFAULT_SEED,
    group_action,
    make_rng,
    random_finite_action,
    random_partition,
    random_z_skew,
    section_pair_catalog,
    skew_test_cases,
    trivial_action,
)
from flab.processes import BernoulliProcess, FiniteActionProcess, KernelProcess, SkewProductProcess
from flab.skew import SectionCocycleBundle, verify_cocycle_identity, verify_skew_entropy_bound
from flab.words import WordSet, ball, ball_size, mul, parse_word
from kernel_oracles import window_projection
from skew_fixtures import nontrivial_auto_assignments

SEED = int(os.environ.get("FLAB_SEED", DEFAULT_SEED))


def report_line(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}", file=sys.stderr)
    assert ok, f"criterion {number} failed: {text}"


def points_process(group, rank=2, auto_indices=None):
    action = (
        trivial_action(group, rank)
        if auto_indices is None
        else group_action(group, auto_indices, rank)
    )
    return FiniteActionProcess(
        action,
        FinitePartition.points(FinitePartition.uniform_space(group.order())),
        group.name,
    )


def test_criterion_1_ornstein_weiss_triple():
    full = full_report(BernoulliProcess(2, 2), 2)
    n_col = full_report(KernelProcess(ow_kernel()), 2)
    image = full_report(BernoulliProcess(2, 4), 2)
    ok = (
        full.f_exact()
        and n_col.f_exact()
        and image.f_exact()
        and full.f_value == EntropyValue.log_int(2)
        and image.f_value == EntropyValue.log_int(4)
        and n_col.f_value == -1 * EntropyValue.log_int(2)
        and full.f_value == n_col.f_value + image.f_value
        and addition_report(full, n_col, image)["verdict"] == "EXACT-PASS"
    )
    report_line(1, ok, "log2 = -log2 + log4 with all three columns exact (r=2)")


def test_criterion_2_finite_group_formula():
    checked = 0
    ok = True
    for name in ("Z/4", "Z/2xZ/2", "D4"):
        group = preset_group(name)
        expected_order = group.order()
        for rank in (2, 3):
            assignments = nontrivial_auto_assignments(group, rank, count=2)
            assert len({tuple(a) for a in assignments}) >= 2
            for assignment in assignments:
                proc = points_process(group, rank, assignment)
                f, rep = exact_f_finite(proc)
                expected = -(rank - 1) * EntropyValue.log_int(expected_order)
                ok = ok and f == expected and rep.f_exact()
                checked += 1
    report_line(2, ok, f"f = -(r-1) log|G| exact on {checked} (group, rank, autos) cases")


def test_criterion_3_generalization_family():
    ok = True
    for k, rank in product((2, 3), (2, 3)):
        total = full_report(BernoulliProcess(rank, k), 2)
        constants = full_report(points_process(preset_group(f"Z/{k}"), rank), 2)
        image = full_report(BernoulliProcess(rank, k**rank), 2)
        verdict = addition_report(total, constants, image)
        ok = ok and verdict["verdict"] == "EXACT-PASS"
        ok = ok and constants.f_value == -(rank - 1) * EntropyValue.log_int(k)
        sub = KernelSubshift(comparison_kernel(k, rank))
        for n in (1, 2):
            m = sub.marginal(ball(rank, n))
            ok = ok and m.certificate == "EXACT" and m.dimension == 1
    report_line(3, ok, "log|K| = -(r-1)log|K| + r log|K| for K in {Z/2, Z/3}, r in {2,3}; comparison kernels compute to the constants on B(1), B(2)")


def test_criterion_4_algebraic_family():
    proc = KernelProcess(scalar_kernel(2, 2, {"e": 1, "A": 1}))
    f0 = F_of(proc, 0)
    f1 = F_of(proc, 1)
    fstar0, _ = F_star_of(proc, 0)
    rep = full_report(proc, 2)
    ok = (
        f0.is_zero()
        and f1.is_zero()
        and fstar0.is_zero()
        and rep.f_value.is_zero()
        and rep.f_star_value.is_zero()
    )
    report_line(4, ok, "edge kernel (p=2, r=2): F(0) = F(1) = F*(0) = 0, and f = f* = 0")


def _all_window_targets_solvable(kernel, W):
    matrix, _ = target_map_matrix(kernel, W)
    return all(
        not solve(matrix, list(y)).is_empty()
        for y in product(range(kernel.p), repeat=matrix.rows)
    )


def test_criterion_5_surjectivity_oracle_equivalence():
    support = list(ball(2, 1))
    counts = {2: 0, 3: 0}
    ok = True
    for p in (2, 3):
        for values in product(range(p), repeat=len(support)):
            if not any(values):
                continue
            kernel = ConvolutionKernel(
                p, 2, {w: [[v]] for w, v in zip(support, values) if v}
            )
            counts[p] += 1
            theorem = is_surjective(kernel).surjective
            oracle = all(
                _all_window_targets_solvable(kernel, ball(2, n)) for n in (0, 1)
            )
            ok = ok and theorem and oracle and (theorem == oracle)
    ok = ok and counts[2] == 2**5 - 1 and counts[3] == 3**5 - 1
    report_line(
        5,
        ok,
        f"theorem-backed onto-ness agrees with exhaustive B(0)/B(1) target solvability for all {counts[2]} + {counts[3]} nonzero scalar kernels supported in B(1)",
    )


def test_criterion_6_preimage_solver():
    rng = make_rng(SEED)
    kernels = [
        scalar_kernel(2, 2, {"e": 1, "A": 1}),
        scalar_kernel(2, 2, {"e": 1, "a": 1, "b": 1}),
        scalar_kernel(3, 2, {"e": 1, "A": 2}),
        scalar_kernel(3, 2, {"e": 1, "a": 1, "b": 2}),
        scalar_kernel(5, 2, {"a": 3, "B": 2}),
    ]
    verified = 0
    for kernel in kernels:
        for _ in range(20):
            y = {g: rng.randrange(kernel.p) for g in ball(2, 1)}
            x = preimage_on_ball(kernel, y, 1)
            if all(kernel.evaluate(x, g) == (y[g],) for g in ball(2, 1)):
                verified += 1
    report_line(6, verified == 100, f"{verified}/100 seeded targets on B(1) re-verify exactly across 5 kernels")


def test_criterion_7_cocycle_and_conjugacy():
    failures = 0
    pairs = section_pair_catalog()
    for pair in pairs:
        bundle = SectionCocycleBundle(pair["action"], pair["subgroup"])
        ok_eq, _ = verify_cocycle_identity(
            bundle.cocycle.row, bundle.cocycle.base, bundle.cocycle.fiber, max_len=3
        )
        ok_phi, _ = bundle.verify_conjugacy(max_len=3)
        if not (ok_eq and ok_phi):
            failures += 1
    report_line(
        7,
        failures == 0,
        f"cocycle identity and conjugacy hold exhaustively (words of length <= 3, all points) on all {len(pairs)} preset pairs",
    )


def test_criterion_8_relative_collapse():
    cases = skew_test_cases()
    nontrivial = 0
    ok = True
    for case in cases:
        cocycle = case["cocycle"]
        proc = SkewProductProcess(
            cocycle,
            FinitePartition.points(cocycle.base.weights),
            case["special"].partition,
        )
        relative = proc.relative()
        fiber_proc = proc.fiber_process()
        for n in range(3):
            lhs, _ = F_star_of(relative, n)
            rhs, _ = F_star_of(fiber_proc, n)
            ok = ok and lhs == rhs
        if case["nontrivial_cocycle"]:
            nontrivial += 1
    ok = ok and nontrivial >= 3
    report_line(
        8,
        ok,
        f"relative F* of the skew equals fiber F* exactly for n <= 2 on {len(cases)} special-partition cases ({nontrivial} with nontrivial cocycles)",
    )


def test_criterion_9_per_m_inequality():
    rng = make_rng(SEED)
    ok = True
    special_count = 0
    for _ in range(20):
        cocycle, q, special = random_z_skew(rng)
        records = verify_skew_entropy_bound(cocycle, q, 5)
        ok = ok and all(r["holds"] for r in records)
        if special:
            special_count += 1
            ok = ok and all(r["equal"] for r in records)
    report_line(
        9,
        ok and special_count >= 3,
        f"|H(Q^m) - H(Q_x^m)| <= m K(Q) for m <= 5 on 20 seeded skew systems; equality on all {special_count} K(Q) = 0 instances",
    )


def test_criterion_10_abramov_rokhlin():
    rng = make_rng(SEED)
    ok = True
    for _ in range(10):
        action = random_finite_action(rng)
        p = random_partition(rng, action.size())
        q = random_partition(rng, action.size())
        result = abramov_rokhlin_check(action, p, q)
        ok = ok and result["equal"]
    report_line(10, ok, "f(P v Q) = f(Q) + f(P | Sigma(Q)) exactly on 10 seeded finite actions")


def test_criterion_11_property_suites():
    rng = make_rng(SEED + 11)
    checks = []

    # Kolmogorov consistency and shift invariance of cylinder measures
    for kernel in (scalar_kernel(2, 2, {"e": 1, "A": 1}), ow_kernel()):
        sub = KernelSubshift(kernel)
        W = WordSet(2, [parse_word("e", 2), parse_word("a", 2)])
        W2 = W.union(WordSet(2, [parse_word("b", 2)]))
        p = kernel.p
        consistent = True
        for base_vals in product(range(p), repeat=len(W) * kernel.d_in):
            it = iter(base_vals)
            base = {w: tuple(next(it) for _ in range(kernel.d_in)) for w in W}
            total = Fraction(0)
            extra = [v for v in W2 if v not in W]
            for ext in product(range(p), repeat=len(extra) * kernel.d_in):
                it2 = iter(ext)
                pattern = dict(base)
                pattern.update(
                    {v: tuple(next(it2) for _ in range(kernel.d_in)) for v in extra}
                )
                total += sub.cylinder_measure(W2, pattern)
            consistent = consistent and total == sub.cylinder_measure(W, base)
        g = parse_word("ab", 2)
        invariant = True
        for vals in product(range(p), repeat=len(W) * kernel.d_in):
            it = iter(vals)
            pattern = {w: tuple(next(it) for _ in range(kernel.d_in)) for w in W}
            moved = {mul(g, w): pattern[w] for w in W}
            invariant = invariant and sub.cylinder_measure(W, pattern) == sub.cylinder_measure(
                W.translate(g), moved
            )
        checks.append(("kolmogorov+shift " + repr(kernel), consistent and invariant))

    # monotone and subadditive window entropies
    procs = [
        BernoulliProcess(2, 3),
        KernelProcess(scalar_kernel(2, 2, {"e": 1, "A": 1})),
        points_process(preset_group("D4"), 2, [1, 3]),
    ]
    pool = list(ball(2, 2))
    mono = True
    for proc in procs:
        for _ in range(5):
            A = WordSet(2, rng.sample(pool, rng.randint(1, 3)))
            B = WordSet(2, rng.sample(pool, rng.randint(1, 3)))
            union = A.union(B)
            hA, hB, hU = proc.entropy(A), proc.entropy(B), proc.entropy(union)
            mono = mono and hA <= hU and hB <= hU and hU <= hA + hB
    checks.append(("monotone+subadditive", mono))

    # nonincreasing rate increments
    dec = True
    for proc in procs:
        for i in (1, 2):
            rate = generator_entropy_rate(proc, i, ball(2, 1))
            dec = dec and all(b <= a for a, b in zip(rate.increments, rate.increments[1:]))
    checks.append(("nonincreasing increments", dec))

    # ball-size closed form
    balls_ok = all(
        len(ball(r, n)) == ball_size(r, n) for r in (2, 3) for n in range(6)
    )
    checks.append(("ball closed form", balls_ok))

    # projected-dimension stabilization by B(n+2) for support inside B(2)
    kernels = [
        scalar_kernel(2, 2, {"e": 1, "A": 1}),
        scalar_kernel(2, 2, {"e": 1, "a": 1, "b": 1}),
        scalar_kernel(3, 2, {"e": 1, "aa": 2}),
        scalar_kernel(3, 2, {"A": 1, "b": 2, "ab": 1}),
        ow_kernel(),
    ]
    pool2 = list(ball(2, 2))
    for _ in range(5):
        words = rng.sample(pool2, rng.randint(1, 3))
        kernels.append(ConvolutionKernel(3, 2, {w: [[rng.randint(1, 2)]] for w in words}))
    stab = True
    for kernel in kernels:
        for n in (0, 1):
            W = ball(2, n)
            a = window_projection(kernel, W, ball(2, n + 2))
            b = window_projection(kernel, W, ball(2, n + 3))
            stab = stab and a == b
    checks.append(("stabilization by B(n+2)", stab))

    ok = all(passed for _name, passed in checks)
    failed = [name for name, passed in checks if not passed]
    report_line(
        11,
        ok,
        "property suites (consistency, shift invariance, monotonicity, subadditivity, rate monotonicity, ball counts, stabilization)"
        + (f"; failed: {failed}" if failed else ""),
    )
