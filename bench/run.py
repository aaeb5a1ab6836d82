"""Benchmark of the flab workloads: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload kernel-certify --seed 1 --seconds 40 --trace 0

Runs passes of the workload, each in a fresh worker process (so caches
start cold, as for a CLI user), one after another until --seconds have
passed; a pass that would end past them is not started.  A pass imports
flab from the checkout's `src`, builds the inputs from the seed and runs
every job once; a pass takes a few seconds, so a run makes about ten.
A set-up-only worker after each pass adds a sample to the set-up time,
which is their median.  Every report is checked against values the
mathematics fixes; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs run, "failed": jobs failing their check,
     "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones.  Each job is timed as
the fastest of its passes and wall_s sums those times.  wall_ref measures
each job in calls of a fixed reference computation timed just before and
after it, takes the median over passes and sums over jobs, so it does not
move when the host as a whole runs slower.  wall_s and per-job latency
percentiles are printed on information lines.  With --trace 1 the runner
alternates untraced and traced passes; the metrics are the per-layer ones
from the traced passes (medians), plus the tracing overhead, and every
count must repeat exactly between traced passes.  Spans go to .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("kernel-certify", "finite-verify", "onto-oracle")

SETUP_PROBES_PER_PASS = 1
TIME_LIMIT_S = 170.0  # the whole run, workers included, ends before this


class BenchError(RuntimeError):
    pass


def worker(deadline: float, *args: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    # Other tenants of the host slow it down, by up to 60% and for seconds
    # to minutes at a time.  A reference computation timed just before and
    # just after each job slows with it, so a job's time divided by the
    # reference call time around it stays put; wall_ref sums each job's
    # median of that ratio over the passes.  wall_s, each job's fastest
    # time summed, is shown for scale.
    ratios: dict[str, list[float]] = {}
    fastest: dict[str, float] = {}
    for p in passes:
        for j in p["jobs"]:
            ratios.setdefault(j["name"], []).append(j["seconds"] / j["reference_s"])
            fastest[j["name"]] = min(j["seconds"], fastest.get(j["name"], math.inf))
    samples = list(fastest.values())
    wall_s = sum(samples)
    wall_ref = sum(statistics.median(r) for r in ratios.values())
    reference_s = statistics.median(j["reference_s"] for p in passes for j in p["jobs"])
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["errors"])
    print(
        f"jobs: {len(samples)}, each timed as the fastest of {len(passes)} passes; "
        f"set-up samples: {len(setups)}; failed_ratio: {failed / attempted:.6f}"
    )
    print(f"wall_s: {wall_s} s, the fastest job times summed (not gated)")
    print(f"reference_s: {reference_s} s per reference call, median (not gated)")
    # Per-job latency is shown but not gated: with a handful of unlike jobs
    # per pass its run-to-run spread is wider than any allowed bound.  It
    # counts every job run of every pass, and a percentile is shown only
    # with at least ten samples beyond it.
    runs = [j["seconds"] for p in passes for j in p["jobs"]]
    print(f"job_p50_s: {statistics.median(runs)} s over {len(runs)} job runs (not gated)")
    if len(runs) - math.ceil(0.95 * len(runs)) >= 10:
        print(f"job_p95_s: {percentile(runs, 0.95)} s over {len(runs)} job runs (not gated)")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_ref": metric(wall_ref, "ref"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "passed_ratio": metric(1 - failed / attempted, "ratio"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    problems = []
    for p in traced:
        if p["left_wrapped"]:
            problems.append(f"attributes left wrapped after the traced pass: {p['left_wrapped']}")
        if p["self_s_total"] > p["wall_s"]:
            problems.append(f"span self times {p['self_s_total']} exceed wall_s {p['wall_s']}")
    first = traced[0]["layers"]
    for p in traced[1:]:
        for name, value in first.items():
            if tracer.is_count(name) and p["layers"][name] != value:
                problems.append(f"count {name} changed between traced passes: {value} != {p['layers'][name]}")
    metrics = {}
    for name in first:
        values = [p["layers"][name] for p in traced]
        if tracer.is_count(name):
            metrics[name] = metric(values[0], "count")
        else:
            unit = "ratio" if name.endswith("_ratio") else "s"
            metrics[name] = metric(statistics.median(values), unit)
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead_s"] = metric(overhead, "s")
    print(f"traced passes: {len(traced)}, spans per pass: {[p['spans'] for p in traced]}")
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    plain, traced, setups = [], [], []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    while True:
        step_start = time.monotonic()
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            spans = os.path.join(OUT_DIR, f"spans-{workload}-pass{len(traced)}.jsonl.gz")
            result = worker(deadline, *base, "--trace", spans)
            traced.append(result)
        else:
            result = worker(deadline, *base)
            plain.append(result)
            setups.append(result["setup_s"])
            # set-up-only workers between passes spread the set-up samples over the run
            for _ in range(0 if trace else SETUP_PROBES_PER_PASS):
                setups.append(worker(deadline, *base, "--setup-only")["setup_s"])
        kind = "traced" if use_trace else "plain"
        failed = [j["name"] for j in result["jobs"] if j["errors"]]
        print(
            f"pass {len(plain) + len(traced)} ({kind}): wall_s {result['wall_s']:.4f} "
            f"setup_s {result['setup_s']:.4f} peak_rss_mb {result['peak_rss_mb']:.1f} "
            f"jobs {len(result['jobs'])} failed {failed}"
        )
        for j in result["jobs"]:
            for err in j["errors"]:
                print(f"  FAIL {j['name']}: {err}")
        # stop before a pass that would end past --seconds, judging its
        # length by the pass just made
        now = time.monotonic()
        enough = traced if trace else plain
        if enough and now + (now - step_start) - start > seconds:
            break

    digests = {j["name"]: j["sha256"] for j in plain[0]["jobs"]}
    stable = all({j["name"]: j["sha256"] for j in p["jobs"]} == digests for p in plain + traced)
    print(json.dumps({"report_sha256": digests, "identical_across_passes": stable}, sort_keys=True))

    passes = plain + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["errors"])
    problems = []
    if trace:
        metrics, problems = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flab", "__init__.py")):
        print(f"error: no flab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
