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
byte unchanged.  All ten were re-recorded once more when every generator
rate became exact: `config` lost `stable_threshold`; each STABLE(3) rate
became EXACT-IID (Bernoulli) or EXACT-MARKOV (kernel), with its
`increments` and `stabilized_at` cut at the new stop; the always-EXACT
fields `window_certificate` (rates) and `F_certificate` and
`F_star_certificate` (rows) went; every value stayed the same.  A change
that alters any byte of these reports fails here.  Every certificate and
rate kind in them, and in the 2x2 plateau kernel's compute-f report,
must be a label of finv's vocabulary, and every rate kind an exact one.
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
    "ow": "7847002c7162a0b11819b8cc0bb7f641ffc8786c3dae1242952c5cf22f1ad828",
    "gen Z/3": "cd1c09a420bdd75edb356087a8f02f59fe8fe266444f113135937a1a106cd4a6",
    "kernel p=2 {e:1,A:1}": "23d46f3df047834e2abe2590aa445506d7d919e246df0aa3f59ddf00f66badb0",
    "kernel p=3 {e:1,A:1,B:2}": "f25e2ad6cf325be5cacc81e4b4a93fd2f5f79869bf60af0353650b81db3588ea",
    "compute-f bernoulli": "737ac406e591e2a3fc59c5c6718e311cf31d79cdcc29865627c52e43364f4a15",
    "verify all": "ac48acf0d213855120cc94ed360c3fcd88c40fe972ed91d0ac4efcab5640d066",
    "verify cocycle negate-cocycle": "6d56b3c478e6992d48defef0c84706f1e3fbd333c325d2e657f3bb17c9131fea",
    "compute-f finite_group": "f118a580b515aa66ccea790bce459ece3ef6a70d9393f376390bfe58ebe04ab6",
    "compute-f skew_section": "9be4478ca5eedf66ac07c38e391e82010d9e41383f01188b30e2ff8337286066",
    "compute-f skew_custom": "b8f124ca726d5849e6702030f5557992394a82459ca96e3af401afca2640a08c",
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


def labels(node):
    """(field, label) for every certificate string and rate kind in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "certificate":
                yield key, value
            elif key == "rates":
                yield from (("kind", rate["kind"]) for rate in value)
            yield from labels(value)
    elif isinstance(node, list):
        for item in node:
            yield from labels(item)


@pytest.mark.parametrize("name", sorted(LABELLED))
def test_every_label_is_in_the_vocabulary(name, report_of):
    for _, label in set(labels(report_of(name))):
        is_exact(label)  # raises ValueError outside finv's vocabulary


def test_label_walk_reaches_every_level(report_of):
    found = {pair for name in LABELLED for pair in labels(report_of(name))}
    assert {label for _, label in found} == {
        "EXACT",
        "EXACT-ZERO",
        "EXACT-IID",
        "EXACT-MARKOV",
        "EXACT-STABILIZED",
        "UPPER-BOUND",
    }
    # every rate is pinned by an argument
    assert {label for field, label in found if field == "kind"} == {
        "EXACT-ZERO",
        "EXACT-IID",
        "EXACT-MARKOV",
    }
