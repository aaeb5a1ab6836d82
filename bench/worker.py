"""One pass of one benchmark workload, in a fresh process.

Imports flab from the checkout's `src` directory, builds the workload's
inputs (the set-up time), runs every job once, optionally under the
tracer, checks every report after the timed jobs, and prints one JSON
object on standard output.  Before and after each job it times a few
calls of a fixed reference computation, which tell how fast the host
runs Python around that job.

    python3 bench/worker.py --workload onto-oracle --seed 1 [--trace SPANS] [--small]
    python3 bench/worker.py --workload onto-oracle --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


# Timed calls of the reference computation per pass, spread evenly over the
# gaps between the jobs.
REFERENCE_PER_PASS = 400


def reference_work() -> int:
    """A fixed piece of interpreter work like flab's own, about 0.2 ms: row
    elimination mod 3 on small int lists, tuple keys in a dict, and
    Fraction sums.  Its time tracks how fast the host runs Python now."""
    from fractions import Fraction

    rows = [[(i * j + i + 2 * j + 1) % 3 for j in range(10)] for i in range(10)]
    rank = 0
    for col in range(10):
        pivot = next((r for r in range(rank, 10) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]  # 1 and 2 are their own inverses mod 3
        rows[rank] = [v * inv % 3 for v in rows[rank]]
        for r in range(10):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % 3 for a, b in zip(rows[r], rows[rank])]
        rank += 1
    counts: dict = {}
    for i in range(400):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    total = sum((Fraction(1, k) for k in range(1, 30)), Fraction(0))
    return rank + len(counts) + total.denominator % 7


def time_reference(times: int) -> list[float]:
    """Seconds taken by each of `times` reference calls.  The cyclic garbage
    collector is off meanwhile, so flab's live objects cannot slow them."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(times):
            t0 = time.perf_counter()
            reference_work()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if gc_was_on:
            gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--trace", metavar="SPANS", default=None,
        help="run under the tracer and write the spans to this .jsonl.gz file",
    )
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flab", "__init__.py")):
        print(f"error: no flab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.small)
    setup_s = time.perf_counter() - start

    import flab

    if os.path.dirname(os.path.abspath(flab.__file__)) != os.path.join(SRC, "flab"):
        print(f"error: flab imported from {flab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    def run_and_render(job):
        report = job.run()
        return report, workloads.render(report)

    outcomes = []
    # reference[i] is timed just before job i; the last one after the last job
    reference = []
    per_gap = -(-REFERENCE_PER_PASS // len(jobs))
    try:
        for job in jobs:
            reference.append(time_reference(per_gap))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    report, text = run_and_render(job)
                else:
                    report, text = tracer.run_job(job.name, lambda: run_and_render(job))
            except Exception as exc:  # a raising job is a failed job, not a crash
                report, text = None, None
                error = f"{type(exc).__name__}: {exc}"
            else:
                error = None
            outcomes.append((job, time.perf_counter() - t0, report, text, error))
        reference.append(time_reference(per_gap))
    finally:
        if tracer is not None:
            tracer.restore()

    results = []
    for i, (job, seconds, report, text, error) in enumerate(outcomes):
        if error:
            errors = [error]
        else:
            try:
                errors = job.check(report)
            except (KeyError, TypeError) as exc:
                errors = [f"report lacks a checked field: {type(exc).__name__}: {exc}"]
        results.append(
            {
                "name": job.name,
                "seconds": seconds,
                # one reference call's time around the job, in seconds
                "reference_s": statistics.median(reference[i] + reference[i + 1]),
                "errors": errors,
                "sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
            }
        )
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["self_s_total"] = tracer.self_time_total()
        out["left_wrapped"] = tracing.leftover_wrappers()
        out["spans"] = len(tracer.spans)
        tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
