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
`F_star_certificate` (rows) went; every value stayed the same.  Eight
were re-recorded once more when every f became exact: each rate lost its
`stabilized_at`, always the length of its `increments` (the two verify
digests carry no rate and stayed); in the two kernel reports the column's
f and f* certificates went from UPPER-BOUND to EXACT-MARKOV, the column
verdict from TIGHT to EXACT-ZERO, and its note now cites the addition
theorem; every value stayed the same.  The same eight were re-recorded
once more when the running infima went: every row lost
`running_inf_F` and `running_inf_F_star`, which nothing but the
`--pretty` table read, and the two kernel reports' scalar surjectivity
certificate lost `identity_is_center`, true by construction; each new
report is the old one with those keys deleted, and every value stayed
the same.  The two kernel digests were re-recorded once more when the
preimage solver's escape walk gave way to the centered-hull lemma: the
scalar surjectivity certificate lost `ordering_depth` and the
always-true `ordering_condition`; each new report is the old one with
those keys deleted.  The ow digest was re-recorded once when matrix
onto-ness moved to the dual stencil's least fixed point: its
`surjectivity` object went from the window-checked verdict (kind,
`theorem_backed`, `windows`) to kind dual-fixed-point with `rounds`,
`branch_dimensions` and `meet_dimension`; every other byte of it
stayed the same.  A change that alters any byte of
these reports fails here.  Every certificate and rate kind in them, and
in the 2x2 plateau kernel's compute-f report, must be a label of finv's
vocabulary, all of it exact.
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
    "ow": "910895f09e46a3b9b255d16e76ea9d72d52b99e55d1c0fc22602ac45e25f4714",
    "gen Z/3": "68a16bb6c2a902645a0e126c7231d4c5f9f5ab1d18f0c10527b300c0bc398524",
    "kernel p=2 {e:1,A:1}": "7f624df9793f46d2046efa5581a7650fb6f0e7446d01ffdaf14f2d83b41ccd19",
    "kernel p=3 {e:1,A:1,B:2}": "3c444b26b2a1b4d1728e7ca808080ce96e4182d4b28563165ee893f4ddd0dd04",
    "compute-f bernoulli": "acbb7c06791beea65ab0bef6827d70c7d5c56c0a8ad3cca34830f44f8091d479",
    "verify all": "ac48acf0d213855120cc94ed360c3fcd88c40fe972ed91d0ac4efcab5640d066",
    "verify cocycle negate-cocycle": "6d56b3c478e6992d48defef0c84706f1e3fbd333c325d2e657f3bb17c9131fea",
    "compute-f finite_group": "a337b1743bf56d1f8324a4abfb13b66e06770d56de83dabd9fe8e6656d83c5c2",
    "compute-f skew_section": "594baad42aaf11aad2b3d212e783e565118631ea70e3b74eae7fa3f251d3291d",
    "compute-f skew_custom": "428e049d998c24b600c7f207cede557a1f92296b2a0f69f2693df63fe0c7b337",
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
    }
    # f and f* are read off a tail by each of the three arguments
    assert {label for field, label in found if field == "certificate"} == {
        "EXACT",
        "EXACT-IID",
        "EXACT-MARKOV",
        "EXACT-STABILIZED",
    }
    # every rate is pinned by an argument
    assert {label for field, label in found if field == "kind"} == {
        "EXACT-ZERO",
        "EXACT-IID",
        "EXACT-MARKOV",
    }
