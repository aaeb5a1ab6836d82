"""Self-test of the benchmark at small sizes; takes well under a minute.

    python3 bench/selftest.py

For every workload it runs one untraced and two traced small passes, each in
a fresh worker process, and fails unless

- every job passes its output check, traced or not;
- tracing leaves every report byte-identical (same sha256);
- no flab module or class attribute is still wrapped after a traced pass;
- span self times sum to no more than the pass's wall_s;
- every count metric repeats exactly between the two traced passes;
- BENCHMARK.json names exactly the metrics the runner prints.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import tracer

SEED = 1


def check_workload(workload: str) -> list[str]:
    deadline = time.monotonic() + run.TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(SEED), "--small"]
    plain = run.worker(deadline, *base)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    spans = os.path.join(run.OUT_DIR, f"selftest-{workload}.jsonl.gz")
    traced = [run.worker(deadline, *base, "--trace", spans) for _ in range(2)]
    problems = []
    for p in [plain] + traced:
        for j in p["jobs"]:
            problems += [f"{j['name']}: {e}" for e in j["errors"]]
    digests = [{j["name"]: j["sha256"] for j in p["jobs"]} for p in [plain] + traced]
    if any(d != digests[0] for d in digests):
        problems.append("reports differ between untraced and traced passes")
    _metrics, layer_problems = run.per_layer([plain], traced)
    problems += layer_problems
    print(
        f"{workload}: {len(plain['jobs'])} jobs, untraced wall_s {plain['wall_s']:.3f}, "
        f"traced wall_s {traced[0]['wall_s']:.3f}, spans {traced[0]['spans']}"
    )
    return problems


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    fake_pass = {
        "peak_rss_mb": 1.0,
        "jobs": [{"name": "job", "seconds": 1.0, "reference_s": 0.001, "errors": []}],
    }
    printed = list(run.end_to_end([fake_pass], [1.0]))
    if end_to_end != printed:
        problems.append(f"end_to_end in BENCHMARK.json {end_to_end} != printed {printed}")
    per_layer = [m["name"] for m in spec["per_layer"]]
    if per_layer != tracer.metric_names() + ["trace.overhead_s"]:
        problems.append("per_layer in BENCHMARK.json differs from the tracer's metric names")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from the runner's")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    for workload in run.WORKLOADS:
        problems += check_workload(workload)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
