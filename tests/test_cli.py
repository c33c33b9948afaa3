"""Command line behavior: reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lagrel.cli import _build_parser, _relation_from_file, main
from lagrel.exact_linalg import matrix_to_payload

from conftest import built_relation
from test_golden_reports import GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_gl11(tmp_path, capsys):
    path = tmp_path / "gl11.json"
    code, _, _ = run(capsys, "wgrs", "build", "gl", "1", "1", "--out", str(path))
    assert code == 0
    return path


def test_analyze_gl11_report(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "4")
    assert code == 0
    report = json.loads(out)
    assert report["invariant_dimensions"] == [1, 1, 2, 3, 4]
    assert report["num_components"] == 2
    assert report["weyl_order"] == 1
    assert report["one_regular"] is True
    assert report["semiregular"] is True
    assert "bilinear_convention" in report
    assert report["atypicality_histogram"] == {"0": 1, "1": 1}


def test_analyze_with_separation_certificate(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "2",
                       "--x", "1,0", "--y", "0,1", "--dmax", "4")
    assert code == 0
    report = json.loads(out)
    assert report["separation"]["status"] == "separated"
    assert report["separation"]["degree"] == 2


def test_analyze_is_deterministic(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    _, out1, _ = run(capsys, "analyze", str(path), "--degree", "3")
    _, out2, _ = run(capsys, "analyze", str(path), "--degree", "3")
    assert out1 == out2


def test_analyze_empty_generators_is_diagonal(tmp_path, capsys):
    path = tmp_path / "triv.json"
    path.write_text(json.dumps({"form": [["1/1", "0/1"], ["0/1", "-1/1"]], "generators": []}))
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["num_components"] == 1
    assert report["invariant_dimensions"] == [1, 2, 3]


def test_analyze_product_generators_file_is_semiregular(tmp_path, capsys):
    # gl(1|1) x gl(2|1): two 1-regular factors, hence semiregular
    prod = built_relation("gl", 1, 1).product(built_relation("gl", 2, 1))
    path = tmp_path / "gl11xgl21.json"
    path.write_text(json.dumps({
        "form": matrix_to_payload(prod.form.gram),
        "generators": [{"space": matrix_to_payload(c.space.basis)} for c in prod.components],
    }))
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["num_components"], report["one_regular"]) == (12, False)
    assert report["semiregular"] is True
    # weyl_order is the atypicality-0 count of the file's closure, which is |W|
    rel = _relation_from_file(json.loads(path.read_text()), len(prod))
    assert report["weyl_order"] == rel.atypicality_histogram()[0] == len(rel.weyl_group)


def test_analyze_needs_both_points_exit_1(tmp_path, capsys):
    path = str(build_gl11(tmp_path, capsys))
    for flag in ("--x", "--y"):
        code, out, err = run(capsys, "analyze", path, flag, "1,0")
        assert (code, out, err) == (1, "", "error: --x and --y must be given together\n")


def test_analyze_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err


def test_analyze_non_lagrangian_generator_exit_1(tmp_path, capsys):
    path = tmp_path / "nonlag.json"
    payload = {
        "form": [["1/1", "0/1"], ["0/1", "-1/1"]],
        "generators": [{"space": [["1/1", "0/1", "0/1", "0/1"]]}],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "Lagrangian" in err


def test_closure_bound_exit_2(tmp_path, capsys):
    path = tmp_path / "boost.json"
    payload = {
        "form": [["0/1", "1/1"], ["1/1", "0/1"]],
        "generators": [
            {"space": [["1/1", "0/1", "2/1", "0/1"], ["0/1", "1/1", "0/1", "1/2"]]}
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(path), "--max-components", "32")
    assert code == 2
    assert "closure" in err


def test_invariants_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "invariants", str(path), "--degree", "3")
    assert code == 0
    report = json.loads(out)
    assert report["invariant_dimensions"] == [1, 1, 2, 3]
    assert report["bases"]["1"] == [{"0,1": "1/1", "1,0": "1/1"}]


def test_separate_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "separate", str(path), "--x", "1,0", "--y", "0,1")
    assert code == 0
    report = json.loads(out)
    assert report["separation"]["status"] == "separated"
    assert report["separation"]["degree"] == 2
    code, out, _ = run(capsys, "separate", str(path), "--x", "0,0", "--y", "2,-2")
    report = json.loads(out)
    assert report["separation"]["status"] == "equivalent"
    assert report["membership"] is True


def test_separate_command_exhausted(tmp_path, capsys):
    path = tmp_path / "gl21.json"
    assert run(capsys, "wgrs", "build", "gl", "2", "1", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "separate", str(path), "--x", "1,2,3", "--y", "4,5,7", "--dmax", "0")
    assert code == 0
    report = json.loads(out)
    assert (report["separation"], report["membership"]) == ({"status": "exhausted"}, False)


def test_generators_file_form_checks(tmp_path, capsys):
    # a generator may repeat the file's form, but not name another; a file needs roots or generators
    form = [["1/1", "0/1"], ["0/1", "-1/1"]]
    diagonal = {"space": [["1/1", "0/1", "1/1", "0/1"], ["0/1", "1/1", "0/1", "1/1"]]}
    cases = [
        ({"form": form, "generators": [{**diagonal, "form": form}]}, 0, ""),
        ({"form": form, "generators": [{**diagonal, "form": [["1/1", "0/1"], ["0/1", "1/1"]]}]},
         1, "error: nested relation form disagrees with the file form\n"),
        ({"form": form}, 1, "error: input file needs either a 'roots' or a 'generators' key\n"),
    ]
    for payload, expected_code, expected_err in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "analyze", str(path), "--degree", "1")
        assert (code, err) == (expected_code, expected_err)
        if code == 0:
            assert json.loads(out)["num_components"] == 1


def test_discriminant_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "discriminant", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 1
    assert report["polynomial"] == {"0,1": "1/1", "1,0": "1/1"}


def test_discriminant_of_an_empty_discriminant_is_one(tmp_path, capsys):
    # gl(3|0) has no isotropic roots: analyze reports it 1-regular with an empty
    # discriminant, and discriminant reports T = 1 of degree 0
    path = tmp_path / "gl30.json"
    assert run(capsys, "wgrs", "build", "gl", "3", "0", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert (report["one_regular"], report["discriminant"]) == (True, [])
    code, out, err = run(capsys, "discriminant", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["degree"], report["hyperplanes"]) == (0, [])
    assert report["polynomial"] == {"0,0,0": "1/1"}


def test_discriminant_of_a_relation_that_is_not_one_regular_exit_1(tmp_path, capsys):
    # gl(1|1) x gl(1|1): two orbits of discriminant hyperplanes
    prod = built_relation("gl", 1, 1).product(built_relation("gl", 1, 1))
    path = tmp_path / "gl11xgl11.json"
    path.write_text(json.dumps({
        "form": matrix_to_payload(prod.form.gram),
        "generators": [{"space": matrix_to_payload(c.space.basis)} for c in prod.components],
    }))
    code, out, err = run(capsys, "discriminant", str(path))
    assert (code, out, err) == (1, "", "error: relation is not 1-regular with a codimension-1 witness\n")


def test_wgrs_validate_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "wgrs", "validate", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["num_roots"] == 2


def test_wgrs_relation_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "wgrs", "relation", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["num_components"] == 2
    assert len(report["components"]) == 2


def test_wgrs_reduce_round_trip(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    out_path = tmp_path / "reduced.json"
    code, _, _ = run(capsys, "wgrs", "reduce", str(path), "--root", "0", "--out", str(out_path))
    assert code == 0
    reduced = json.loads(out_path.read_text())
    assert reduced["roots"] == []
    code, out, _ = run(capsys, "wgrs", "validate", str(out_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_wgrs_reduce_bad_index_exit_1(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, _, err = run(capsys, "wgrs", "reduce", str(path), "--root", "7")
    assert code == 1
    assert "isotropic" in err


def test_wgrs_reduce_without_isotropic_roots_exit_1(tmp_path, capsys):
    path = tmp_path / "gl20.json"
    code, _, _ = run(capsys, "wgrs", "build", "gl", "2", "0", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "wgrs", "reduce", str(path), "--root", "0")
    assert (code, out) == (1, "")
    assert err == "error: the root system has no isotropic roots to reduce by\n"


def test_wgrs_classes_command(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, _ = run(capsys, "wgrs", "classes", str(path), "--v", "0,0", "--vprime", "3,-3")
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["witness"]["coefficients"] == ["3"]
    code, out, _ = run(capsys, "wgrs", "classes", str(path), "--v", "1,0", "--vprime", "0,1")
    assert json.loads(out)["equivalent"] is False


def test_wgrs_classes_wrong_length_exit_1(tmp_path, capsys):
    path = tmp_path / "gl20.json"
    code, _, _ = run(capsys, "wgrs", "build", "gl", "2", "0", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "wgrs", "classes", str(path), "--v", "1,0,5", "--vprime", "0,1")
    assert code == 1
    assert out == ""
    assert "vector length disagrees with form dimension" in err


def test_user_supplied_root_system_file(tmp_path, capsys):
    # a non-catalog system loaded from a file: two orthogonal isotropic pairs
    payload = {
        "gram": [
            ["1/1", "0/1", "0/1", "0/1"],
            ["0/1", "-1/1", "0/1", "0/1"],
            ["0/1", "0/1", "1/1", "0/1"],
            ["0/1", "0/1", "0/1", "-1/1"],
        ],
        "roots": [
            ["1/1", "-1/1", "0/1", "0/1"],
            ["-1/1", "1/1", "0/1", "0/1"],
            ["0/1", "0/1", "1/1", "-1/1"],
            ["0/1", "0/1", "-1/1", "1/1"],
        ],
    }
    path = tmp_path / "double.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "wgrs", "validate", str(path))
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "analyze", str(path), "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["num_components"] == 4
    assert report["one_regular"] is False
    assert report["semiregular"] is True


def test_verify_unknown_suite_exit_1(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1
    assert "unknown suite" in err


def test_verify_monoid_suite_small_seeded(capsys):
    from lagrel.cli import suite_monoid

    results = suite_monoid(seed=1, pairs=60)
    assert all(bad == 0 for _, bad in results.values())


def test_zero_denominator_on_command_line_exit_1(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    code, out, err = run(capsys, "separate", str(path), "--x", "1/0,0", "--y", "0,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "1/0" in err


def test_zero_denominator_in_root_system_file_exit_1(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    payload = json.loads(path.read_text())
    payload["roots"][0][0] = "1/0"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "1/0" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "analyze")
    assert code == 1
    assert out == "" and "required" in err
    path = build_gl11(tmp_path, capsys)
    # discriminant reads no degree, so the option is gone
    code, out, err = run(capsys, "discriminant", str(path), "--degree", "3")
    assert code == 1
    assert out == "" and "unrecognized arguments" in err


def test_negative_degree_exit_1(tmp_path, capsys):
    path = str(build_gl11(tmp_path, capsys))
    for argv in (("analyze", path, "--degree"), ("analyze", path, "--dmax"),
                 ("invariants", path, "--degree"), ("separate", path, "--x", "1,0", "--y", "0,1", "--dmax")):
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out) == (1, ""), argv
        assert f"argument {argv[-1]}: expected a non-negative integer, got '-1'" in err
    code, out, _ = run(capsys, "invariants", path, "--degree", "0")
    assert code == 0 and json.loads(out)["invariant_dimensions"] == [1]


# each script breaks one internal check, then prints what the check reported,
# which must be the same with and without python -O
BROKEN_CHECKS = {
    "closure description": ("""
from lagrel import wgrs
from lagrel.cli import suite_wgrs
wgrs.closure = lambda form, generators, max_components: None
print(suite_wgrs(0)["component_description"])
""", "(0, 13)\n"),
    "idempotent collapse": ("""
from lagrel import linear_relations as lr
from lagrel.exact_linalg import Subspace
e = lr.idempotent_relation(lr.suite_form(2), Subspace.from_vectors([[1, -1]]))
lr.idempotent_relation = lambda form, v0: lr.diagonal(form)
try:
    lr.classify_idempotent(e)
except AssertionError as exc:
    print(exc)
""", "idempotent does not match its collapse form\n"),
    "iso-set cardinality": ("""
from lagrel.cli import suite_wgrs
from lagrel.wgrs import RootSystem
class Padded(tuple):
    def __len__(self):
        return tuple.__len__(self) + sum(p[0] == 0 for p in self)
iso_sets = RootSystem.iso_sets.func
RootSystem.iso_sets = property(lambda self: tuple(map(Padded, iso_sets(self))))
print(suite_wgrs(0)["isoset_cardinality"])
""", "(11, 2)\n"),
    "two-step involution": ("""
from lagrel.cli import suite_wgrs
from lagrel.linear_relations import Isometry
Isometry.is_identity = lambda self: False
print(suite_wgrs(0)["two_step_witness"])
""", "(172, 16)\n"),
    "inverse idempotent": ("""
from lagrel.cli import suite_monoid
from lagrel.exact_linalg import Subspace
from lagrel.linear_relations import LinearRelation
p2 = LinearRelation.p2.func
LinearRelation.p2 = property(lambda self: Subspace(self.n, p2(self).rows[:-1]))
print(suite_monoid(1, 50)["inverse_composition_idempotent"])
""", "(0, 50)\n"),
    "non-isotropic iso-span": ("""
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from lagrel import linear_relations as lr
from lagrel.cli import main
from lagrel.exact_linalg import Subspace
lr._random_iso_span = lambda form, rng: Subspace(form.dim, [[1] + [0] * (form.dim - 1)])
out, err = StringIO(), StringIO()
with redirect_stdout(out), redirect_stderr(err):
    code = main(["verify", "monoid", "--seed", "1"])
print(code, repr(out.getvalue()), err.getvalue(), end="")
""", "1 '' error: atypicality is defined for Lagrangian relations\n"),
    "reduction square": ("""
from lagrel.cli import suite_reduction
from lagrel.wgrs import RootSystem
reduce_by_root = RootSystem.reduce_by_root
RootSystem.reduce_by_root = lambda self, alpha: RootSystem(
    reduce_by_root(self, alpha).form, reduce_by_root(self, alpha).roots[1:])
print(suite_reduction(0)["reduction_square"])
""", "(3, 4)\n"),
    "reduction filters": ("""
from lagrel import cli
from lagrel import linear_relations as lr
cli.idempotent_relation = lambda form, v0: lr.diagonal(form)
print(cli.suite_reduction(0)["reduction_filters"])
""", "(3, 9)\n"),
    "relation weyl group": ("""
from lagrel.exact_linalg import BilinearForm
from lagrel.linear_relations import Isometry, generate_group, graph
from lagrel.relation_monoid import LagrangianEquivalenceRelation
form = BilinearForm.diagonal([1, 1, 1])
s12, s23 = (Isometry.reflection(form, r) for r in ((1, -1, 0), (0, 1, -1)))
s3 = [graph(w) for w in generate_group(form, [s12, s23], 6)]
print(LagrangianEquivalenceRelation(form, [graph(s12), graph(s23)]).verify_closed(),
      LagrangianEquivalenceRelation(form, s3, generators=[graph(s12)]).verify_closed(),
      LagrangianEquivalenceRelation(form, s3).verify_closed())
""", "False False True\n"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_CHECKS))
def test_internal_checks_run_under_python_O(name):
    script, expected = BROKEN_CHECKS[name]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (0, expected), (flags, done.stderr)


def test_weyl_group_bound_exit_2(tmp_path, capsys, monkeypatch):
    # |W| of gl(3|0) is 6, past a bound of 5; a roots file's relation walks W before its
    # components, so it reports the Weyl group's bound even under a larger --max-components
    from lagrel import wgrs

    path = tmp_path / "gl30.json"
    code, _, _ = run(capsys, "wgrs", "build", "gl", "3", "0", "--out", str(path))
    assert code == 0
    monkeypatch.setattr(wgrs, "MAX_COMPONENTS", 5)
    for argv in (("wgrs", "classes", str(path), "--v", "1,0,0", "--vprime", "0,1,0"),
                 ("wgrs", "relation", str(path), "--max-components", "100")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: Weyl group generation exceeded its bound\n"), argv


def test_relation_bound_is_the_component_count(tmp_path, capsys):
    # gl(4|1) has 120 components, the diagonal counted: a bound of 119 stops the build
    path = tmp_path / "gl41.json"
    code, _, _ = run(capsys, "wgrs", "build", "gl", "4", "1", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "wgrs", "relation", str(path), "--max-components", "119")
    assert (code, out, err) == (2, "", "error: closure exceeded 119 components; the closure may be infinite\n")
    code, out, err = run(capsys, "wgrs", "relation", str(path), "--max-components", "120")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["gl-4-1 wgrs relation"]


def test_closure_bound_counts_the_generators_exit_2(tmp_path, capsys):
    # the diagonal alone fills a bound of 1, so the idempotent E breaks it
    path = build_gl11(tmp_path, capsys)
    code, out, err = run(capsys, "wgrs", "relation", str(path), "--max-components", "1")
    assert (code, out, err) == (2, "", "error: closure exceeded 1 components; the closure may be infinite\n")


def test_missing_json_key_is_named_exit_1(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"form": [["1/1", "0/1"], ["0/1", "-1/1"]], "generators": [{}]}))
    # a generators file is no root system, and its generator has no "space"
    for argv, key in ((("wgrs", "relation"), "gram"), (("analyze",), "space")):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (1, "", f"error: missing key '{key}'\n")


def _long_options(parser):
    """{command: its "--" options} for every leaf command of parser, e.g. "wgrs build"."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update({f"{name} {k}".strip(): v for k, v in _long_options(sub).items()})
            return out
    return {"": {o for a in parser._actions for o in a.option_strings if o.startswith("--") and o != "--help"}}


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Each command takes exactly these options")[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = {cmd.strip().strip("`"): set(re.findall(r"`(--[a-z-]+)`", opts)) for cmd, opts in rows}
    assert documented == _long_options(_build_parser())


def test_invalid_root_system_file_exit_1(tmp_path, capsys):
    path = build_gl11(tmp_path, capsys)
    payload = json.loads(path.read_text())
    payload["roots"] = payload["roots"][:1]  # -alpha missing
    path.write_text(json.dumps(payload))
    errors = []
    for argv in (("analyze", str(path)), ("wgrs", "relation", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "symmetry" in err
        errors.append(err)
    assert errors[0] == errors[1]


def test_zero_max_components_exit_1(tmp_path, capsys):
    # 0 is a bound like any other, not "no bound given"
    path = build_gl11(tmp_path, capsys)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"form": [["1/1", "0/1"], ["0/1", "-1/1"]], "generators": []}))
    for argv in (("wgrs", "relation", str(path)), ("analyze", str(path)), ("analyze", str(gens))):
        code, out, err = run(capsys, *argv, "--max-components", "0")
        assert code == 1
        assert out == ""
        assert err == "error: closure bounds must be positive\n"
