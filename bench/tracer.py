"""Out-of-tree instrumentation of the flab layers for the traced benchmark pass.

The tracer replaces public functions and methods of the flab modules with
wrappers, records spans (name, start, end, parent span, job id) in memory
for the coarse ones and plain call counters for the hot ones, and puts every
original back in `restore()`.  Names that other modules copied with
`from .x import y` are rebound as well, so a call through any module sees
the wrapper.  No file under src/flab is touched.

Self time of a span is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

_MARK = "__bench_wrapped__"

# (module, attribute path, extra-count hook name or None).  Coarse functions:
# each call is a span.
SPANNED = [
    ("words", "thicken", "thicken"),
    ("words", "convex_hull", None),
    ("words", "spiral_ordering", None),
    ("words", "check_ordering_condition", None),
    ("kernels", "KernelSubshift.marginal", "marginal"),
    ("kernels", "constraint_sites", "constraint_sites"),
    ("kernels", "window_rows", "window_rows"),
    ("kernels", "is_surjective", None),
    ("kernels", "target_map_matrix", None),
    ("kernels", "preimage_on_ball", None),
    ("fplinear", "eliminate_columns", "eliminate_columns"),
    ("fplinear", "solution_space_from_constraints", None),
    ("fplinear", "solve", "solve"),
    ("fplinear", "rank", None),
    ("entropy", "join", "join"),
    ("entropy", "join_many", None),
    ("entropy", "shannon_entropy", None),
    ("entropy", "conditional_entropy", None),
    ("skew", "FiniteAction.word_perm", None),
    ("skew", "FiniteAction.window_partition", None),
    ("skew", "verify_cocycle_identity", None),
    ("skew", "verify_pullback_exchange", None),
    ("skew", "verify_generated_algebra", None),
    ("skew", "verify_window_split", None),
    ("skew", "verify_skew_entropy_bound", None),
    ("groups", "all_automorphisms", None),
    ("processes", "BernoulliProcess.entropy", None),
    ("processes", "FiniteActionProcess.entropy", None),
    ("processes", "KernelProcess.entropy", None),
    ("processes", "SkewProductProcess.entropy", None),
    ("finv", "full_report", "full_report"),
    ("finv", "generator_entropy_rate", "generator_entropy_rate"),
    ("finv", "exact_f_finite", None),
    ("suite", "run_ornstein_weiss", None),
    ("suite", "run_generalization", None),
    ("suite", "run_algebraic", None),
    ("suite", "run_verifier_suite", None),
    ("suite", "run_compute_f", None),
]

# Hot functions: a call counter only, no span, to keep the overhead down.
COUNTED = [
    ("words", "mul", "words.mul.calls"),
    ("words", "FreeWord.__init__", "words.FreeWord.new"),
    ("entropy", "EntropyValue.__lt__", "entropy.EntropyValue.lt.calls"),
    ("groups", "FiniteGroup.mul", "groups.FiniteGroup.mul.calls"),
]

MARGINAL_CERTS = ("EXTENSION-CERTIFIED", "STABILIZED", "UNCERTIFIED")

# spans whose time including their children is reported as well
INCLUSIVE = {"kernels.marginal"}

# shorter metric names where the owning class adds nothing
_ALIASES = {"kernels.KernelSubshift.marginal": "kernels.marginal"}


def span_name(module: str, path: str) -> str:
    name = f"{module}.{path}"
    return _ALIASES.get(name, name)


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    out = []
    extras = {
        "thicken": ["out_words"],
        "marginal": ["hit_ratio"] + [f"cert.{c}" for c in MARGINAL_CERTS],
        "constraint_sites": ["sites"],
        "window_rows": ["rows"],
        "eliminate_columns": ["rows_in", "cols_eliminated", "nnz_in", "nnz_out"],
        "solve": ["cells"],
        "join": ["atoms_in"],
        "generator_entropy_rate": ["increments"],
    }
    for module, path, hook in SPANNED:
        name = span_name(module, path)
        if module == "suite":
            out.append(f"{name}.total_s")
            continue
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in INCLUSIVE:
            out.append(f"{name}.total_s")
        out += [f"{name}.{e}" for e in extras.get(hook, [])]
    out += [metric for _m, _p, metric in COUNTED]
    out += ["finv.f_exact_count", "job.self_s"]
    return out


def is_count(metric: str) -> bool:
    return not metric.endswith(("_s", "_ratio"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list[list] = []  # [span index, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._seen_keys = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn, hook):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, depth = self._stack, self.spans, self._depth
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if not depth[name]:
                    stats[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                spans[frame[0]] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        return wrapper

    def _counted(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_job(self, job_id: str, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        try:
            return self._spanned("job", fn, None)()
        finally:
            self.job = None

    # -- installing and restoring ------------------------------------------

    def install(self):
        """Wrap every listed function of the flab modules."""
        for module, path, hook in SPANNED:
            name = span_name(module, path)
            hook_fn = _HOOKS.get(hook)
            self._wrap(module, path, lambda fn, n=name, h=hook_fn: self._spanned(n, fn, h))
        for module, path, metric in COUNTED:
            self._wrap(module, path, lambda fn, m=metric: self._counted(m, fn))

    def _wrap(self, module, path, make):
        owner = importlib.import_module(f"flab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        # an inherited method may already be wrapped on the base class
        base = original.__wrapped__ if getattr(original, _MARK, False) else original
        wrapper = make(base)
        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = base
        owned = attr in vars(owner)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)
        if outer:
            return
        # rebind copies made by `from .x import y` in every flab module
        for mod in _flab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def restore(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for module, path, _hook in SPANNED:
            name = span_name(module, path)
            calls, self_s, total_s = self.stats.get(name, (0, 0.0, 0.0))
            if module == "suite" or name in INCLUSIVE:
                out[f"{name}.total_s"] = total_s
            if module != "suite":
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        marginal_calls = out["kernels.marginal.calls"]
        hits = self.counts["kernels.marginal.hits"]
        out["kernels.marginal.hit_ratio"] = (
            hits / marginal_calls if marginal_calls else 0.0
        )
        for metric in metric_names():
            if metric not in out:
                out[metric] = self.counts.get(metric, 0)
        out["job.self_s"] = self.stats.get("job", (0, 0.0, 0.0))[1]
        return {k: out[k] for k in metric_names()}

    def self_time_total(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end, parent span index, job id."""
        with gzip.open(path, "wt") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, job]) + "\n")


def _flab_modules():
    return [m for k, m in list(sys.modules.items()) if k == "flab" or k.startswith("flab.")]


def leftover_wrappers() -> list[str]:
    """Names of flab module or class attributes that are still tracer wrappers."""
    left = []
    for mod in _flab_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        left.append(f"{mod.__name__}.{key}.{attr}")
    return left


# -- per-function count hooks ---------------------------------------------------


def _hook_thicken(tracer, name, args, result):
    tracer.counts[f"{name}.out_words"] += len(result)


def _hook_marginal(tracer, name, args, result):
    sub, window = args[0], args[1]
    seen = tracer._seen_keys.setdefault(sub, set())
    key = window.key()
    if key in seen:
        tracer.counts[f"{name}.hits"] += 1
    else:
        seen.add(key)
        tracer.counts[f"{name}.cert.{result.certificate}"] += 1


def _hook_constraint_sites(tracer, name, args, result):
    tracer.counts[f"{name}.sites"] += len(result)


def _hook_window_rows(tracer, name, args, result):
    tracer.counts[f"{name}.rows"] += len(result[0])


def _hook_eliminate_columns(tracer, name, args, result):
    # the kernels layer passes the rows as a list, so they are still readable
    rows, order = args[0], args[1]
    tracer.counts[f"{name}.rows_in"] += len(rows)
    tracer.counts[f"{name}.cols_eliminated"] += len(order)
    tracer.counts[f"{name}.nnz_in"] += sum(len(r) for r in rows)
    tracer.counts[f"{name}.nnz_out"] += sum(len(r) for r in result)


def _hook_solve(tracer, name, args, result):
    m = args[0]
    tracer.counts[f"{name}.cells"] += m.rows * m.cols


def _hook_join(tracer, name, args, result):
    tracer.counts[f"{name}.atoms_in"] += len(args[0].weights)


def _hook_full_report(tracer, name, args, result):
    if result.f_exact():
        tracer.counts["finv.f_exact_count"] += 1


def _hook_generator_entropy_rate(tracer, name, args, result):
    tracer.counts[f"{name}.increments"] += len(result.increments)


_HOOKS = {
    "thicken": _hook_thicken,
    "marginal": _hook_marginal,
    "constraint_sites": _hook_constraint_sites,
    "window_rows": _hook_window_rows,
    "eliminate_columns": _hook_eliminate_columns,
    "solve": _hook_solve,
    "join": _hook_join,
    "full_report": _hook_full_report,
    "generator_entropy_rate": _hook_generator_entropy_rate,
}
