import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import flab
from flab import suite
from flab.cli import main
from flab.kernels import ConvolutionKernel
from flab.suite import RunConfig, run_verifier_suite
from test_reports import GOLDEN


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestOw:
    def test_pass_and_exact_triple(self, capsys):
        code, report = run_cli(["ow"], capsys)
        assert code == 0 and report["status"] == "PASS"
        assert report["addition"]["verdict"] == "EXACT-PASS"
        assert report["reports"]["full_shift"]["f"]["value"]["terms"] == {"2": "1"}
        assert report["reports"]["kernel_column"]["f"]["value"]["terms"] == {"2": "-1"}
        assert report["reports"]["image"]["f"]["value"]["terms"] == {"2": "2"}

    def test_kernel_dimension_evidence(self, capsys):
        _, report = run_cli(["ow"], capsys)
        assert all(
            d["dimension"] == 1 for d in report["kernel_window_dimensions"].values()
        )
        surj = report["surjectivity"]
        assert surj["surjective"] and surj["kind"] == "dual-fixed-point"
        assert surj["meet_dimension"] == 0 and "witness" not in surj

    def test_rank_option_is_refused(self, capsys):
        # the doubling map lives over rank 2, so there is no rank to choose
        with pytest.raises(SystemExit) as exc:
            main(["ow", "--rank", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank" in capsys.readouterr().err


class TestGen:
    @pytest.mark.parametrize("k,rank,coeff", [("Z/3", 2, "-1"), ("Z/2", 3, "-2")])
    def test_triples(self, capsys, k, rank, coeff):
        code, report = run_cli(["gen", "--k", k, "--rank", str(rank)], capsys)
        assert code == 0 and report["status"] == "PASS"
        assert report["addition"]["verdict"] == "EXACT-PASS"
        base = k.split("/")[1]
        assert report["expected_constants_f"]["terms"] == {base: coeff}

    def test_comparison_kernel_constants(self, capsys):
        _, report = run_cli(["gen", "--k", "Z/3"], capsys)
        comp = report["comparison_kernel"]
        assert comp["applicable"] and comp["constants_only"]

    def test_nonprime_abelian_skips_comparison(self, capsys):
        code, report = run_cli(["gen", "--k", "Z/4"], capsys)
        assert code == 0 and not report["comparison_kernel"]["applicable"]

    def test_rank_five_names_each_support_word_once(self, capsys):
        # "e" named both the identity and the fifth generator, so s5's block
        # overwrote the identity's
        code, report = run_cli(["gen", "--k", "Z/2", "--rank", "5", "--nmax", "1"], capsys)
        coeffs = report["comparison_kernel"]["kernel"]["coeffs"]
        assert code == 0 and sorted(coeffs) == ["a", "b", "c", "d", "e", "f"]
        assert coeffs["e"] == [[1]] * 5 and coeffs["f"] == [[0]] * 4 + [[1]]

    def test_rank_past_the_alphabet_exits_2(self, capsys):
        code = main(["gen", "--k", "Z/3", "--rank", "26"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_nonabelian_rejected(self, capsys):
        code = main(["gen", "--k", "D4"])
        err = capsys.readouterr().err
        assert code == 2 and "abelian" in err


class TestKernel:
    def test_edge_kernel_run(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(
            json.dumps({"p": 2, "rank": 2, "coeffs": {"e": [[1]], "A": [[1]]}})
        )
        code, report = run_cli(["kernel", "--spec", str(spec), "--nmax", "2"], capsys)
        assert code == 0 and report["status"] == "PASS"
        assert report["column_vs_zero"]["verdict"] == "EXACT-ZERO"
        assert report["reports"]["kernel_column"]["f"]["certificate"] == "EXACT-MARKOV"
        rows = report["reports"]["kernel_column"]["rows"]
        assert all(row["F"]["terms"] == {} for row in rows)
        assert report["preimage_recheck"]["verified"] == 5

    def test_delta_kernel_exact_zero(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 2, "coeffs": {"e": [[1]]}}))
        code, report = run_cli(["kernel", "--spec", str(spec)], capsys)
        assert code == 0
        assert report["column_vs_zero"]["verdict"] == "EXACT-ZERO"

    def test_p3_variant(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(
            json.dumps({"p": 3, "rank": 2, "coeffs": {"e": [[1]], "A": [[1]], "B": [[2]]}})
        )
        code, report = run_cli(["kernel", "--spec", str(spec)], capsys)
        assert code == 0 and report["preimage_recheck"]["verified"] == 5

    def test_period_seven_rate_is_exact(self, tmp_path, capsys):
        # increments 3 log 2 repeat three times before the rate 2 log 2; with
        # it F*(1) = f* = 0, as the addition theorem gives for an onto scalar;
        # f = 0 is read off row rho = 4, past --nmax 1, where F(1) = log 2
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 2, "coeffs": {"e": 1, "aaaaaaa": 1}}))
        code, report = run_cli(["kernel", "--spec", str(spec), "--nmax", "1"], capsys)
        assert code == 0
        column = report["reports"]["kernel_column"]
        rate = column["rows"][1]["rates"][0]
        assert rate["value"]["terms"] == {"2": "2"} and rate["kind"] == "EXACT-MARKOV"
        assert column["rows"][1]["F_star"]["terms"] == {}
        assert column["f_star"]["value"]["terms"] == {}
        assert [row["n"] for row in column["rows"]] == [0, 1, 2, 3, 4]
        assert column["rows"][1]["F"]["terms"] == {"2": "1"}
        assert column["f"]["value"]["terms"] == {} and column["f"]["certificate"] == "EXACT-MARKOV"
        assert report["column_vs_zero"]["verdict"] == "EXACT-ZERO"

    def test_zero_kernel_rejected(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 2, "coeffs": {}}))
        code = main(["kernel", "--spec", str(spec)])
        assert code == 2

    @pytest.mark.parametrize(
        "field, value, coeffs",
        [("d_out", -1, {"e": 1}), ("d_in", 0, {"e": [[]]}), ("d_out", 0, {"e": 1}), ("d_in", -2, {"e": 1})],
    )
    def test_dimension_below_one_names_the_field(self, tmp_path, capsys, field, value, coeffs):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 2, field: value, "coeffs": coeffs}))
        assert main(["kernel", "--spec", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {field} must be >= 1, not {value}\n"

    def test_config_carries_the_spec_rank(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 1, "coeffs": {"e": 1, "a": 1}}))
        code, report = run_cli(["kernel", "--spec", str(spec), "--nmax", "1"], capsys)
        assert code == 0 and report["config"]["rank"] == report["kernel"]["rank"] == 1

    def test_rank_option_is_refused(self, tmp_path, capsys):
        # the spec fixes the rank, so there is none to choose
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"p": 2, "rank": 1, "coeffs": {"e": 1, "a": 1}}))
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--spec", str(spec), "--rank", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank" in capsys.readouterr().err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, report = run_cli(["verify", "--suite", "all"], capsys)
        assert code == 0 and report["status"] == "PASS"
        names = {s["name"] for s in report["suites"]}
        assert names == {
            "cocycle",
            "special",
            "skew-entropy-bound",
            "relative-collapse",
            "pullback-exchange",
            "generated-algebra",
            "window-split",
            "addition-formula",
        }

    def test_single_suite(self, capsys):
        code, report = run_cli(["verify", "--suite", "addition-formula"], capsys)
        assert code == 0 and len(report["suites"]) == 1

    def test_empty_selection(self, capsys):
        code, report = run_cli(["verify", "--suite", "none"], capsys)
        assert code == 0 and report["suites"] == []

    def test_skew_cases_are_built_at_most_once(self, monkeypatch):
        # the four suites that read the skew cases share one build, and a
        # selection without them builds none
        builds = []
        real = suite.skew_test_cases

        def counting(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(suite, "skew_test_cases", counting)
        assert run_verifier_suite(RunConfig())["status"] == "PASS"
        assert len(builds) == 1
        builds.clear()
        assert run_verifier_suite(RunConfig(), ["special"])["status"] == "PASS"
        assert builds == []

    def test_section_pairs_are_split_once_per_run(self, monkeypatch):
        # the cocycle suite, its injected bug and the skew cases share one
        # split of each of the seven section pairs
        splits = []
        real = suite.SectionCocycleBundle.__init__

        def counting(self, *args):
            splits.append(args)
            real(self, *args)

        monkeypatch.setattr(suite.SectionCocycleBundle, "__init__", counting)
        for inject_bug in (None, "negate-cocycle"):
            splits.clear()
            run_verifier_suite(RunConfig(), inject_bug=inject_bug)
            assert len(splits) == 7
        splits.clear()
        run_verifier_suite(RunConfig(), ["special", "addition-formula"])
        assert splits == []

    def test_injected_bug_fails_with_witness(self, capsys):
        code, report = run_cli(
            ["verify", "--suite", "cocycle", "--inject-bug", "negate-cocycle"], capsys
        )
        assert code == 1 and report["status"] == "FAIL"
        failing = [
            c for s in report["suites"] for c in s["cases"] if not c["passed"]
        ]
        assert len(failing) == 1 and failing[0]["witness"] is not None

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_repeated_suite_rejected(self, capsys):
        # the repeated suite used to run twice and be listed twice
        assert main(["verify", "--suite", "special,special"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite 'special' is selected twice\n"
        with pytest.raises(ValueError, match="'cocycle'"):
            run_verifier_suite(RunConfig(), ["cocycle", "special", "cocycle"])

    @pytest.mark.parametrize("target", ["missing/report.json", ""])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        # a missing directory, or a directory as the path: the write used
        # to raise past the error handler with a traceback and exit 1
        out = tmp_path / target
        assert main(["verify", "--suite", "special", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_injected_bug_needs_the_cocycle_suite(self, capsys):
        for selection in ("special", "none", "relative-collapse,window-split"):
            assert main(["verify", "--suite", selection, "--inject-bug", "negate-cocycle"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestComputeF:
    @pytest.mark.parametrize(
        "spec, rank",
        [
            ({"type": "kernel", "kernel": {"p": 2, "rank": 1, "coeffs": {"e": 1, "a": 1}}}, 1),
            ({"type": "bernoulli", "k": 2, "rank": 3}, 3),
            ({"type": "bernoulli", "k": 2}, 2),
        ],
    )
    def test_config_carries_the_process_rank(self, tmp_path, capsys, spec, rank):
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(spec))
        code, report = run_cli(["compute-f", "--process", str(path), "--nmax", "1"], capsys)
        assert code == 0 and report["config"]["rank"] == report["process"]["rank"] == rank

    def test_rank_option_is_refused(self, tmp_path, capsys):
        # a spec fixes its own rank (2 by default), so --rank 5 was ignored
        path = tmp_path / "proc.json"
        path.write_text(json.dumps({"type": "kernel", "kernel": {"p": 2, "rank": 1, "coeffs": {"e": 1, "a": 1}}}))
        with pytest.raises(SystemExit) as exc:
            main(["compute-f", "--process", str(path), "--rank", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank" in capsys.readouterr().err

    def test_kernel_spec_rank_must_be_the_kernels(self, tmp_path, capsys):
        # a top-level rank that disagrees with kernel.rank was read and then
        # ignored; an equal one still runs
        kernel = {"p": 2, "rank": 2, "coeffs": {"e": 1, "A": 1}}
        path = tmp_path / "proc.json"
        path.write_text(json.dumps({"type": "kernel", "rank": 5, "kernel": kernel}))
        assert main(["compute-f", "--process", str(path), "--nmax", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: spec field 'rank' is 5 but the kernel's rank is 2\n"
        path.write_text(json.dumps({"type": "kernel", "rank": 2, "kernel": kernel}))
        code, report = run_cli(["compute-f", "--process", str(path), "--nmax", "1"], capsys)
        assert code == 0 and report["config"]["rank"] == 2

    def test_bernoulli_spec(self, tmp_path, capsys):
        spec = tmp_path / "proc.json"
        spec.write_text(json.dumps({"type": "bernoulli", "k": 4, "rank": 2}))
        code, report = run_cli(["compute-f", "--process", str(spec)], capsys)
        assert code == 0
        assert report["report"]["f"]["value"]["terms"] == {"2": "2"}

    def test_finite_group_spec_with_table(self, tmp_path, capsys):
        # explicit multiplication table (Z/2) and explicit permutation autos
        spec = tmp_path / "proc.json"
        spec.write_text(
            json.dumps(
                {
                    "type": "finite_group",
                    "group": {"name": "C2", "elements": ["0", "1"], "table": [[0, 1], [1, 0]]},
                    "autos": [[0, 1], [0, 1]],
                    "rank": 2,
                }
            )
        )
        code, report = run_cli(["compute-f", "--process", str(spec)], capsys)
        assert code == 0
        assert report["report"]["f"]["value"]["terms"] == {"2": "-1"}

    def test_skew_section_spec(self, tmp_path, capsys):
        spec = tmp_path / "proc.json"
        spec.write_text(
            json.dumps(
                {
                    "type": "skew_section",
                    "group": {"preset": "Z/4"},
                    "autos": [1, 0],
                    "subgroup": ["0", "2"],
                    "rank": 2,
                }
            )
        )
        code, report = run_cli(["compute-f", "--process", str(spec)], capsys)
        assert code == 0
        assert report["report"]["f"]["value"]["terms"] == {"2": "-2"}
        assert "relative_report" in report

    @pytest.mark.parametrize("labels", [[], ["1"], ["0", "1"]])
    def test_skew_section_labels_that_are_not_a_subgroup(self, tmp_path, capsys, labels):
        # none of these is a subgroup of Z/4, so the error says that rather
        # than that the subgroup is not normal
        spec = tmp_path / "proc.json"
        spec.write_text(json.dumps(
            {"type": "skew_section", "group": {"preset": "Z/4"}, "autos": [1, 0], "subgroup": labels}
        ))
        assert main(["compute-f", "--process", str(spec), "--nmax", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: subgroup labels do not form a subgroup\n"
        spec.write_text(json.dumps(
            {"type": "skew_section", "group": {"preset": "Z/4"}, "autos": [1, 0], "subgroup": ["0", "2"]}
        ))
        assert main(["compute-f", "--process", str(spec), "--nmax", "1"]) == 0

    def test_skew_custom_cocycle_table(self, tmp_path, capsys):
        spec = tmp_path / "proc.json"
        spec.write_text(
            json.dumps(
                {
                    "type": "skew_custom",
                    "base_group": {"preset": "Z/2"},
                    "base_autos": [0, 0],
                    "fiber_group": {"preset": "Z/2"},
                    "fiber_autos": [0, 0],
                    "cocycle": [["0", "1"], ["0", "0"]],
                    "rank": 2,
                }
            )
        )
        code, report = run_cli(["compute-f", "--process", str(spec)], capsys)
        assert code == 0
        assert report["report"]["f"]["value"]["terms"] == {"2": "-2"}

    def test_explicit_automorphisms_on_a_group_past_the_catalog(self, tmp_path, capsys):
        # the automorphism catalog stops at order 8, but a permutation list is
        # checked by itself; an index into the catalog still exits 2
        z9 = {
            "name": "C9",
            "elements": [str(x) for x in range(9)],
            "table": [[(x + y) % 9 for y in range(9)] for x in range(9)],
        }
        spec = tmp_path / "proc.json"
        doubling = [2 * x % 9 for x in range(9)]
        spec.write_text(json.dumps({"type": "finite_group", "group": z9, "autos": [doubling, list(range(9))]}))
        code, report = run_cli(["compute-f", "--process", str(spec)], capsys)
        assert code == 0 and report["status"] == "PASS"
        assert report["report"]["f"]["value"]["terms"] == {"3": "-2"}
        assert report["report"]["f"]["certificate"] == "EXACT-STABILIZED"
        spec.write_text(json.dumps({"type": "finite_group", "group": z9, "autos": [1, 0]}))
        assert main(["compute-f", "--process", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        {"type": "finite_group", "group": {"preset": "Z/4"}, "autos": [[0, 2, 1, 3], [0, 1, 2, 3]]},
        {"type": "skew_custom", "base_group": {"preset": "Z/2"}, "base_autos": [0, 0],
         "fiber_group": {"preset": "Z/4"}, "fiber_autos": [[0, 2, 1, 3], [0, 1, 2, 3]],
         "cocycle": [["0", "1"], ["0", "0"]]},
    ])
    def test_a_permutation_that_is_no_automorphism_exits_2(self, tmp_path, capsys, spec):
        # swapping 1 and 2 in Z/4 is a bijection but not a homomorphism
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(spec))
        assert main(["compute-f", "--process", str(path), "--nmax", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "automorphism" in err

    def test_pretty_renders_the_compute_f_tables(self, tmp_path, capsys):
        spec = tmp_path / "proc.json"
        spec.write_text(json.dumps({"type": "bernoulli", "k": 2}))
        assert main(["compute-f", "--process", str(spec), "--pretty", "--nmax", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("   f = ") == 1
        spec.write_text(json.dumps(
            {"type": "skew_section", "group": {"preset": "Z/4"}, "autos": [1, 0],
             "subgroup": ["0", "2"]}
        ))
        assert main(["compute-f", "--process", str(spec), "--pretty", "--nmax", "1"]) == 0
        err = capsys.readouterr().err
        assert "-- report: " in err and "-- relative_report: " in err
        assert err.count("   f = ") == 2

    @pytest.mark.parametrize("rank", [0, -3])
    @pytest.mark.parametrize("kind", ["bernoulli", "finite_group", "kernel", "skew_section", "skew_custom"])
    def test_a_rank_below_one_is_named(self, tmp_path, capsys, kind, rank):
        # the rank itself is named, not the generator permutations it leaves unmatched
        spec = next(spec for command, spec, _ in VALID_SPECS if command == "compute-f" and spec["type"] == kind)
        path = tmp_path / "proc.json"
        path.write_text(json.dumps({**spec, "rank": rank}))
        assert main(["compute-f", "--process", str(path), "--nmax", "1"]) == 2
        assert capsys.readouterr() == ("", "error: rank must be >= 1\n")

    def test_bad_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "proc.json"
        spec.write_text(json.dumps({"type": "nonsense"}))
        assert main(["compute-f", "--process", str(spec)]) == 2


# one valid spec per kind, with the CLI command and, for the spec and each
# object nested in it (by key path), the fields it may not drop
KERNEL_FIELDS = ("p", "rank", "coeffs")
VALID_SPECS = [
    ("kernel", {"p": 2, "rank": 2, "coeffs": {"e": 1, "A": 1}}, {(): KERNEL_FIELDS}),
    ("kernel", {"p": 2, "rank": 2, "d_in": 1, "d_out": 2,
                "coeffs": {"e": [[1], [1]], "a": [[1], [0]], "b": [[0], [1]]}}, {(): KERNEL_FIELDS}),
    ("compute-f", {"type": "bernoulli", "k": 2, "rank": 2}, {(): ("type", "k")}),
    ("compute-f", {"type": "finite_group", "group": {"preset": "Z/4"}, "autos": [1, 0]},
     {(): ("type", "group"), ("group",): ("preset",)}),
    ("compute-f", {"type": "finite_group", "autos": [[0, 1], [0, 1]],
                   "group": {"name": "C2", "elements": ["0", "1"], "table": [[0, 1], [1, 0]]}},
     {(): ("type", "group"), ("group",): ("elements", "table")}),
    ("compute-f", {"type": "kernel", "kernel": {"p": 2, "rank": 2, "coeffs": {"e": 1, "A": 1}}},
     {(): ("type", "kernel"), ("kernel",): KERNEL_FIELDS}),
    ("compute-f", {"type": "skew_section", "group": {"preset": "Z/4"}, "autos": [1, 0],
                   "subgroup": ["0", "2"]},
     {(): ("type", "group", "subgroup"), ("group",): ("preset",)}),
    ("compute-f", {"type": "skew_custom", "base_group": {"preset": "Z/2"}, "base_autos": [0, 0],
                   "fiber_group": {"preset": "Z/2"}, "fiber_autos": [0, 0],
                   "cocycle": [["0", "1"], ["0", "0"]]},
     {(): ("type", "base_group", "fiber_group", "base_autos", "fiber_autos", "cocycle"),
      ("base_group",): ("preset",), ("fiber_group",): ("preset",)}),
]

# values of the wrong JSON type for every spec field
WRONG_TYPES = [None, True, 1.5, "x", [], {}, [["x"]], {"x": None}]


def _run_quiet(command, spec) -> tuple[int, str]:
    flag = "--spec" if command == "kernel" else "--process"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, flag, str(path), "--nmax", "1"])
    return code, err.getvalue()


class TestMalformedSpecs:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dropped_or_mistyped_field_exits_2(self, data):
        command, spec, objects = data.draw(st.sampled_from(VALID_SPECS))
        spec = json.loads(json.dumps(spec))
        path = data.draw(st.sampled_from(sorted(objects)))
        target = spec
        for key in path:
            target = target[key]
        if data.draw(st.booleans()):
            del target[data.draw(st.sampled_from(objects[path]))]
        else:
            field = data.draw(st.sampled_from(sorted(target)))
            wrong = data.draw(st.sampled_from(WRONG_TYPES))
            assume(type(wrong) is not type(target[field]))
            target[field] = wrong
        code, err = _run_quiet(command, spec)
        assert code == 2, (spec, err)
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_options_exit_2(self, capsys, monkeypatch):
        assert main(["ow", "--nmax", "0"]) == 2
        assert main(["gen", "--k", "Z/3", "--rank", "0"]) == 2
        monkeypatch.setenv("FLAB_SEED", "abc")
        assert main(["verify", "--suite", "none"]) == 2
        assert capsys.readouterr().err.count("error: ") == 3

    def test_non_integer_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FLAB_SEED", "abc")
        assert main(["verify", "--suite", "special"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: FLAB_SEED must be an integer, not 'abc'\n"

    def test_retired_stable_threshold_option_is_refused(self, capsys):
        # every rate is exact, so there is no increment run left to configure
        with pytest.raises(SystemExit) as exc:
            main(["ow", "--stable-threshold", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stable-threshold" in capsys.readouterr().err

    def test_verify_refuses_a_rank_its_suites_do_not_run(self, capsys):
        # every suite runs over rank 2, so the option is gone
        for rank in ("1", "2", "3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--rank", rank])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "unrecognized arguments: --rank" in err

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("kernel", {"rank": 2, "coeffs": {"e": 1}}),
            ("kernel", [1, 2]),
            ("compute-f", {"type": "bernoulli"}),
            ("compute-f", [{"type": "bernoulli", "k": 2}]),
        ],
    )
    def test_reported_cases_exit_2_without_traceback(self, tmp_path, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        flag = "--spec" if command == "kernel" else "--process"
        env = dict(os.environ, PYTHONPATH=str(Path(flab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "flab.cli", command, flag, str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["ow", "--out", str(out1)]) == 0
        assert main(["ow", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--suite", "addition-formula,skew-entropy-bound", "--out", str(out1)]) == 0
        assert main(["verify", "--suite", "addition-formula,skew-entropy-bound", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_a_fresh_process_prints_what_a_warm_one_builds(self):
        # preset groups, with their automorphisms and normal subgroups, are
        # kept for the whole process; a cold CLI run and two warm library
        # runs give the same bytes, the golden ones
        env = dict(os.environ, PYTHONPATH=str(Path(flab.__file__).parents[1]))
        env.pop("FLAB_SEED", None)
        cold = subprocess.run(
            [sys.executable, "-m", "flab.cli", "verify"], capture_output=True, text=True, env=env
        )
        assert cold.returncode == 0 and cold.stderr == ""
        warm = [json.dumps(run_verifier_suite(RunConfig()), sort_keys=True, indent=2) + "\n" for _ in range(2)]
        assert warm == [cold.stdout] * 2
        assert hashlib.sha256(cold.stdout[:-1].encode()).hexdigest() == GOLDEN["verify all"]

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("compute-f", {"type": "skew_section", "group": {"preset": "D4"}, "autos": [3, 5], "subgroup": ["r0", "r2"]}),
            ("kernel", {"p": 3, "rank": 2, "coeffs": {"e": 1, "A": 1, "B": 2}}),
        ],
    )
    def test_axis_windows_kept_for_the_process_change_no_byte(self, tmp_path, monkeypatch, command, spec):
        # the axis windows of F and F* are memoised for the whole process; a
        # cold CLI run, a library run that builds them and one that reuses
        # them give the same bytes
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(Path(flab.__file__).parents[1]))
        flag, nmax = ("--process", "2") if command == "compute-f" else ("--spec", "1")
        cold = subprocess.run(
            [sys.executable, "-m", "flab.cli", command, flag, str(path), "--nmax", nmax],
            capture_output=True, text=True, env=env,
        )
        assert cold.returncode == 0 and cold.stderr == ""
        monkeypatch.setattr(flab.words, "_AXES", {})
        cfg = RunConfig(n_max=int(nmax))
        if command == "compute-f":
            run = lambda: suite.run_compute_f(cfg, spec)
        else:
            run = lambda: suite.run_algebraic(cfg, ConvolutionKernel.from_json(spec))
        warm = [json.dumps(run(), sort_keys=True, indent=2) + "\n" for _ in range(2)]
        assert warm == [cold.stdout] * 2

    def test_exact_fields_never_floats(self, capsys):
        _, report = run_cli(["ow"], capsys)
        for rep in report["reports"].values():
            for term in rep["f"]["value"]["terms"].values():
                assert isinstance(term, str)

    def test_pretty_table_derives_from_json(self, capsys):
        code = main(["ow", "--pretty"])
        captured = capsys.readouterr()
        assert code == 0
        assert "addition verdict: EXACT-PASS" in captured.err
