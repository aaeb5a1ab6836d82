"""Golden digests of whole reports: the byte-stable output, pinned in CI.

Each digest is the sha256 of the report as the CLI prints it,
json.dumps(report, sort_keys=True, indent=2).  The first four were
recorded before the word layer switched to trusted construction, stored
hashes and integer length-lex keys; the verifier and the finite-group and
skew-product compute-f digests (the skew ones carry a relative_report)
were recorded before the processes answered every window through one
memoized entropy query with conditioning fixed at construction; the p=3
kernel digest was recorded before the window path moved to integer word
ids.  A change
that alters any byte of these reports fails here.
"""

import hashlib
import json

import pytest

from flab import suite
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
    "ow": "c862ff16c0b2c3b260efbe475079a570a053042dd3877002d9a9c0ce7d65b8a6",
    "gen Z/3": "cdfe656a73a5c557fc701d6ab2719cef401ffd3ccb5e4e2b8ca6971b70506d79",
    "kernel p=2 {e:1,A:1}": "5ae06dbd262b5e6fd619de7a6e4943bed583ef16089eaab6256547f8226fde10",
    "kernel p=3 {e:1,A:1,B:2}": "527b0e34877cdf2e0a89befbef6e2f2d398243da92bbd1c0ea665be34cef163d",
    "compute-f bernoulli": "797b34a6927be1c5aadc867bc42b0218eeacd408893dfcd0ac29b91b9b4caef4",
    "verify all": "d74e3dd1be4f9b057cc4b5384e6dbb296a707079ea96027eb98ed5f3706436f2",
    "verify cocycle negate-cocycle": "3ef8c482f1d6433ed1a3eb17ba162bfc00c5d4a5ab47401750a440aa4dca7925",
    "compute-f finite_group": "4ae98eb4a52c9a4a17001e7860865c4d87a1c44dc62738fae1a3cbe9290253bc",
    "compute-f skew_section": "9ca6fba4e26ec402fa2da4c30b7260d796e039c19e1a0ccc5d168049dcb87dd6",
    "compute-f skew_custom": "eb9fce62071ffaff62764f2192a43b9ea4d5b748280f8582536e55aff1bece8e",
}

# the injected cocycle bug must be detected, so that report fails
STATUS = {"verify cocycle negate-cocycle": "FAIL"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_digest(name):
    report = RUNS[name]()
    assert report["status"] == STATUS.get(name, "PASS")
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
