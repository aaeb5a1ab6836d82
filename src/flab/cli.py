"""Command-line front end: byte-stable JSON reports for the example families.

Exit codes: 0 when the report's status is PASS, 1 when it is FAIL, 2 on
malformed input or options or an --out path that cannot be written (a
one-line error, no report).  FLAB_SEED
seeds the randomized verifier suites (a fixed default otherwise).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .kernels import ConvolutionKernel
from .presets import DEFAULT_SEED
from .suite import (
    RunConfig,
    run_algebraic,
    run_compute_f,
    run_generalization,
    run_ornstein_weiss,
    run_verifier_suite,
)

_EXIT = {"PASS": 0, "FAIL": 1}


def _render_table(report: dict) -> str:
    """Human-readable view derived from the JSON report, never computed separately."""
    lines = [f"command: {report.get('command')}   status: {report.get('status')}"]
    # compute-f keeps its tables under "report" and, for a skew product, "relative_report"
    tables = report.get("reports") or {k: report[k] for k in ("report", "relative_report") if k in report}
    for name, rep in tables.items():
        lines.append(f"-- {name}: {rep['label']}")
        lines.append("   n |        F        |       F*")
        for row in rep["rows"]:
            lines.append(f"   {row['n']} | {row['F']['float']:>15.12f} | {row['F_star']['float']:>15.12f}")
        lines.append(
            f"   f = {rep['f']['value']['float']:.12f} [{rep['f']['certificate']}]  "
            f"f* = {rep['f_star']['value']['float']:.12f} [{rep['f_star']['certificate']}]"
        )
    if "addition" in report:
        lines.append(f"addition verdict: {report['addition']['verdict']}")
    for suite in report.get("suites", []):
        ok = sum(1 for c in suite["cases"] if c["passed"])
        lines.append(f"suite {suite['name']}: {ok}/{len(suite['cases'])} cases pass")
        for case in suite["cases"]:
            if not case["passed"]:
                lines.append(f"  FAIL {case['name']}: {case.get('witness')}")
    return "\n".join(lines)


def _emit(report: dict, out: str | None, pretty: bool) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if pretty:
        print(_render_table(report), file=sys.stderr)
    return _EXIT.get(report.get("status", "FAIL"), 1)


def _add_common(sub):
    sub.add_argument("--nmax", type=int, default=2, help="largest ball radius n, or where f is read off if later")
    sub.add_argument("--out", default=None, help="write the JSON report to this path")
    sub.add_argument("--pretty", action="store_true", help="also print a table to stderr")


def _config(args) -> RunConfig:
    text = os.environ.get("FLAB_SEED")
    try:
        seed = DEFAULT_SEED if text is None else int(text)
    except ValueError:
        raise ValueError(f"FLAB_SEED must be an integer, not {text!r}") from None
    return RunConfig(rank=getattr(args, "rank", RunConfig.rank), n_max=args.nmax, seed=seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flab",
        description="exact f-invariant computations for free-group actions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ow = subs.add_parser("ow", help="run the doubling-map example family")
    _add_common(ow)

    gen = subs.add_parser("gen", help="run the finite-abelian generalization family")
    gen.add_argument("--k", required=True, help="finite abelian group preset, e.g. Z/3")
    gen.add_argument("--rank", type=int, default=2, help="rank of the free group (a-d, f-z name at most 25)")
    _add_common(gen)

    ker = subs.add_parser("kernel", help="run a convolution-kernel subshift")
    ker.add_argument("--spec", required=True, help="path to a kernel spec JSON file, which fixes the rank")
    _add_common(ker)

    ver = subs.add_parser("verify", help="run the verifier suites")
    ver.add_argument(
        "--suite",
        default="all",
        help="comma-separated suites (cocycle,special,skew-entropy-bound,"
        "relative-collapse,pullback-exchange,generated-algebra,window-split,"
        "addition-formula), 'all', or 'none'",
    )
    ver.add_argument(
        "--inject-bug",
        default=None,
        choices=["negate-cocycle"],
        help="deliberately corrupt a cocycle table to demonstrate detection",
    )
    _add_common(ver)

    cf = subs.add_parser("compute-f", help="compute F/F* tables for a process spec")
    cf.add_argument("--process", required=True, help="path to a process spec JSON file")
    _add_common(cf)

    args = parser.parse_args(argv)

    try:
        cfg = _config(args)
        if args.command == "ow":
            report = run_ornstein_weiss(cfg)
        elif args.command == "gen":
            report = run_generalization(cfg, args.k)
        elif args.command == "kernel":
            with open(args.spec) as fh:
                kernel = ConvolutionKernel.from_json(json.load(fh))
            report = run_algebraic(cfg, kernel)
        elif args.command == "verify":
            if args.suite == "all":
                suites = None
            elif args.suite in ("none", ""):
                suites = []
            else:
                suites = [s.strip() for s in args.suite.split(",") if s.strip()]
            report = run_verifier_suite(cfg, suites, inject_bug=args.inject_bug)
        elif args.command == "compute-f":
            with open(args.process) as fh:
                spec = json.load(fh)
            report = run_compute_f(cfg, spec)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
            return 2
        return _emit(report, args.out, args.pretty)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
