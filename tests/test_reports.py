"""Golden digests of whole reports: the byte-stable output, pinned in CI.

Each digest is the sha256 of the report as the CLI prints it,
json.dumps(report, sort_keys=True, indent=2).  The first four were
recorded before the word layer switched to trusted construction, stored
hashes and integer length-lex keys; the verifier and the finite-group and
skew-product compute-f digests (the skew ones carry a relative_report)
were recorded before the processes answered every window through one
memoized entropy query with conditioning fixed at construction; the p=3
kernel digest was recorded before the window path moved to integer word
ids.  All ten were re-recorded once when the kernel marginals moved to
the tree fixed point: `config` lost `window_cap` and `p`, and the kernel
certificates EXTENSION-CERTIFIED and STABILIZED became EXACT, every other
byte unchanged.  A change that alters any byte of these reports fails
here.  Every certificate and rate kind in them, and in the 2x2 plateau
kernel's compute-f report, must be a label of finv's vocabulary.
"""

import hashlib
import json

import pytest

from flab import suite
from flab.finv import is_exact
from flab.kernels import scalar_kernel

FINITE_GROUP = {"type": "finite_group", "group": {"preset": "Z/4"}, "autos": [1, 0], "rank": 2}
SKEW_SECTION = {
    "type": "skew_section",
    "group": {"preset": "Z/4"},
    "autos": [1, 0],
    "subgroup": ["0", "2"],
    "rank": 2,
}
SKEW_CUSTOM = {
    "type": "skew_custom",
    "base_group": {"preset": "Z/2"},
    "base_autos": [0, 0],
    "fiber_group": {"preset": "Z/2"},
    "fiber_autos": [0, 0],
    "cocycle": [["0", "1"], ["0", "0"]],
    "rank": 2,
}
PLATEAU = {
    "type": "kernel",
    "kernel": {
        "p": 2,
        "rank": 2,
        "d_in": 2,
        "d_out": 2,
        "coeffs": {"B": [[1, 0], [0, 0]], "a": [[0, 1], [1, 0]]},
    },
}

RUNS = {
    "ow": lambda: suite.run_ornstein_weiss(suite.RunConfig(n_max=2)),
    "gen Z/3": lambda: suite.run_generalization(suite.RunConfig(n_max=2), "Z/3"),
    "kernel p=2 {e:1,A:1}": lambda: suite.run_algebraic(
        suite.RunConfig(n_max=1), scalar_kernel(2, 2, {"e": 1, "A": 1})
    ),
    "kernel p=3 {e:1,A:1,B:2}": lambda: suite.run_algebraic(
        suite.RunConfig(n_max=1), scalar_kernel(3, 2, {"e": 1, "A": 1, "B": 2})
    ),
    "compute-f bernoulli": lambda: suite.run_compute_f(
        suite.RunConfig(n_max=2), {"type": "bernoulli", "k": 2}
    ),
    "verify all": lambda: suite.run_verifier_suite(suite.RunConfig()),
    "verify cocycle negate-cocycle": lambda: suite.run_verifier_suite(
        suite.RunConfig(), ["cocycle"], "negate-cocycle"
    ),
    "compute-f finite_group": lambda: suite.run_compute_f(suite.RunConfig(), FINITE_GROUP),
    "compute-f skew_section": lambda: suite.run_compute_f(suite.RunConfig(), SKEW_SECTION),
    "compute-f skew_custom": lambda: suite.run_compute_f(suite.RunConfig(), SKEW_CUSTOM),
}

GOLDEN = {
    "ow": "3693a978ed5ec449337ccc3757fd940d6c05d84eb1aed4fba9608eb48042f7e0",
    "gen Z/3": "f23dd26e7e48fa16a8c387301919b47388b788599a4fd1e3fb03832f08ff9cd3",
    "kernel p=2 {e:1,A:1}": "16da933949395b230ac8189854e2e06493ea720bb38d5dd82c2c202cd12f205d",
    "kernel p=3 {e:1,A:1,B:2}": "9cadc588ae9efdfffc2ba7407fb92e2ca4e2fc3044678017f99ea17ec782fecf",
    "compute-f bernoulli": "d95561bb212fbd3ac05f947e410ee2cd2a26877cecef49a4267a972ec7bb521f",
    "verify all": "5e84d71594d8d7f4e96c0f961e2b5aa3bdad83fdf394e23ed66e0d9951874e6e",
    "verify cocycle negate-cocycle": "98b2f7dd235c43bb351dbc27bfefb91eb4e8526444858325ccbc628a4e796b0d",
    "compute-f finite_group": "9ee3ad038eee618585537b545a50d9973b40d7923aa8d578b704f6438eb8eb4f",
    "compute-f skew_section": "18dc7c87ace800b2794c77d2af441d784fb916ba0eb5f7d5c1a2ebe379609e83",
    "compute-f skew_custom": "30c8321507eefc7ba646196411c6f4473d7efae03be745c964f59b314afd7dd2",
}

# the injected cocycle bug must be detected, so that report fails
STATUS = {"verify cocycle negate-cocycle": "FAIL"}


# the label walk also reads the 2x2 plateau kernel, the matrix-kernel case
LABELLED = {
    **RUNS,
    "compute-f kernel_plateau": lambda: suite.run_compute_f(suite.RunConfig(), PLATEAU),
}


@pytest.fixture(scope="module")
def report_of():
    """Builds each report once per module, for the digest and label tests."""
    built = {}

    def build(name: str) -> dict:
        if name not in built:
            built[name] = LABELLED[name]()
        return built[name]

    return build


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_digest(name, report_of):
    report = report_of(name)
    assert report["status"] == STATUS.get(name, "PASS")
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


LABEL_KEYS = {"certificate", "F_certificate", "F_star_certificate", "window_certificate"}


def labels(node):
    """Every certificate string and rate kind in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in LABEL_KEYS:
                yield value
            elif key == "rates":
                yield from (rate["kind"] for rate in value)
            yield from labels(value)
    elif isinstance(node, list):
        for item in node:
            yield from labels(item)


@pytest.mark.parametrize("name", sorted(LABELLED))
def test_every_label_is_in_the_vocabulary(name, report_of):
    for label in set(labels(report_of(name))):
        is_exact(label)  # raises ValueError outside finv's vocabulary


def test_label_walk_reaches_every_level(report_of):
    found = {label for name in LABELLED for label in labels(report_of(name))}
    assert found == {
        "EXACT",
        "EXACT-ZERO",
        "EXACT-STABILIZED",
        "EXACT-IID",
        "STABLE(3)",
        "UPPER-BOUND",
    }
