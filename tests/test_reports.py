"""Golden digests of whole reports: the byte-stable output, pinned in CI.

Each digest is the sha256 of the report as the CLI prints it,
json.dumps(report, sort_keys=True, indent=2), recorded before the word
layer switched to trusted construction, stored hashes and integer
length-lex keys.  A change that alters any byte of these reports fails
here.
"""

import hashlib
import json

import pytest

from flab import suite
from flab.kernels import scalar_kernel

RUNS = {
    "ow": lambda: suite.run_ornstein_weiss(suite.RunConfig(n_max=2)),
    "gen Z/3": lambda: suite.run_generalization(suite.RunConfig(n_max=2), "Z/3"),
    "kernel p=2 {e:1,A:1}": lambda: suite.run_algebraic(
        suite.RunConfig(n_max=1), scalar_kernel(2, 2, {"e": 1, "A": 1})
    ),
    "compute-f bernoulli": lambda: suite.run_compute_f(
        suite.RunConfig(n_max=2), {"type": "bernoulli", "k": 2}
    ),
}

GOLDEN = {
    "ow": "c862ff16c0b2c3b260efbe475079a570a053042dd3877002d9a9c0ce7d65b8a6",
    "gen Z/3": "cdfe656a73a5c557fc701d6ab2719cef401ffd3ccb5e4e2b8ca6971b70506d79",
    "kernel p=2 {e:1,A:1}": "5ae06dbd262b5e6fd619de7a6e4943bed583ef16089eaab6256547f8226fde10",
    "compute-f bernoulli": "797b34a6927be1c5aadc867bc42b0218eeacd408893dfcd0ac29b91b9b4caef4",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_digest(name):
    report = RUNS[name]()
    assert report["status"] == "PASS"
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
