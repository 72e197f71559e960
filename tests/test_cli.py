import argparse
import functools
import json

import pytest

from ncgkit.checks import CheckResult
from ncgkit.cli import (
    SchemaViolation,
    build_parser,
    load_scenario,
    main,
    render_value,
)
from ncgkit.scalars import QQi


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_checks_text(capsys):
    code, out = run_cli(capsys, "list-checks")
    assert code == 0
    assert out.startswith("ncgkit-checks v1")
    assert "induction-identity" in out
    assert "cech-suite" in out


def test_list_checks_module_filter(capsys):
    code, out = run_cli(capsys, "list-checks", "--module", "cech")
    assert code == 0
    assert "cech-suite" in out
    assert "induction-identity" not in out


def test_list_checks_json(capsys):
    code, out = run_cli(capsys, "list-checks", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ids = {c["id"] for c in doc}
    assert "index-suite" in ids and "sobolev-suite" in ids
    assert "index-focus" in ids and "dd-class-builtin" in ids


def test_every_runner_parameter_has_one_rule():
    from ncgkit.checks import CHECKS, PARAM_RULES, check_params

    taken = set()
    for spec in CHECKS:
        names = set(check_params(spec.check_id)) - {"seed"}
        assert names <= set(PARAM_RULES), spec.check_id
        taken |= names
    assert taken == set(PARAM_RULES)


def test_every_parameter_flag_maps_to_its_rule():
    """The flags that set a check parameter (all but --seed, --out, --format
    and the catalog's --module) name a rule, and offer its values."""
    from ncgkit.checks import PARAM_RULES

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = 0
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if not action.option_strings or action.dest in (
                    "help", "seed", "out", "format", "module"):
                continue
            flags += 1
            assert action.dest in PARAM_RULES, (command, action.dest)
            if action.choices is not None:
                assert tuple(action.choices) == PARAM_RULES[action.dest].choices
    assert flags >= 5


def test_dd_class_passes_and_is_byte_identical(capsys):
    code1, out1 = run_cli(capsys, "dd-class", "--seed", "11")
    code2, out2 = run_cli(capsys, "dd-class", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "overall: pass" in out1


def test_dd_class_seed_changes_details(capsys):
    _, out1 = run_cli(capsys, "dd-class", "--seed", "11")
    _, out2 = run_cli(capsys, "dd-class", "--seed", "12")
    assert "overall: pass" in out1 and "overall: pass" in out2


def test_report_written_to_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run_cli(capsys, "dd-class", "--seed", "5", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_default_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCGKIT_OUT", str(tmp_path / "reports"))
    code, out = run_cli(capsys, "dd-class", "--seed", "5")
    assert code == 0
    assert (tmp_path / "reports" / "dd-class.report").read_text() == out


def test_json_format(capsys):
    code, out = run_cli(capsys, "dd-class", "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["checks"][0]["id"] == "cech-suite"


class TestScenarios:
    def write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_valid_scenario_runs(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "kind": "cech", "seed": 9, "params": {"rephasings": 5},
        })
        code, out = run_cli(capsys, "dd-class", "--scenario", path)
        assert code == 0
        assert "seed: 9" in out

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "bogus", "seed": 1})
        code, _ = run_cli(capsys, "dd-class", "--scenario", path)
        assert code == 2

    def test_kind_command_mismatch_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "index", "seed": 1})
        code, _ = run_cli(capsys, "dd-class", "--scenario", path)
        assert code == 2

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "cech"})
        code, _ = run_cli(capsys, "dd-class", "--scenario", path)
        assert code == 2

    def test_unknown_param_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "kind": "cech", "seed": 1, "params": {"bogus_flag": 1},
        })
        code, _ = run_cli(capsys, "dd-class", "--scenario", path)
        assert code == 2

    def test_unreadable_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "dd-class", "--scenario", "/nonexistent.json")
        assert code == 2

    def test_load_scenario_validates(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"kind": "cech", "seed": -1}')
        with pytest.raises(SchemaViolation):
            load_scenario(str(path))


def test_verify_identities_smoke(capsys):
    code, out = run_cli(
        capsys, "verify-identities", "--trials", "4", "--k-max", "2",
        "--seed", "3",
    )
    assert code == 0
    assert "overall: pass" in out
    for cid in ("induction-identity", "partition-counts", "chain-character",
                "complex-operators", "bianchi-trace", "twisted-complex",
                "lift-representative", "pushforward"):
        assert f"check: {cid}" in out


def test_other_suites_smoke(capsys):
    # character-comparison takes no trials, so chkr-compare runs without them
    for argv in (("chkr-compare",), ("spectral", "--trials", "4"),
                 ("algebroid", "--trials", "4")):
        code, out = run_cli(capsys, *argv, "--seed", "3")
        assert code == 0, (argv, out)
        assert "overall: pass" in out


def test_scenario_files_shipped_with_repo(capsys):
    import pathlib

    root = pathlib.Path(__file__).parent.parent / "scenarios"
    code, out = run_cli(
        capsys, "dd-class", "--scenario", str(root / "cech-rephasings.json"),
    )
    assert code == 0
    assert "seed: 11" in out
    code, out = run_cli(
        capsys, "index", "--scenario", str(root / "index-bott-refine.json"),
    )
    assert code == 0
    assert "chern_integer: -1" in out


def test_index_focus_flags(capsys):
    code, out = run_cli(
        capsys, "index", "--geometry", "sphere2", "--projection", "bott",
        "--refine", "1",
    )
    assert code == 0
    assert "integer_24x48: -2" in out
    assert "chern_integer: -1" in out
    assert "residual_trend_nonincreasing: true" in out


def test_index_focus_fails_on_a_rising_residual_trend(capsys, monkeypatch):
    """Every residual under the 1e-4 gate, but rising with refinement: the
    verdict must agree with the reported trend."""
    from ncgkit import checks

    residuals = iter([1e-7, 1e-6, 1e-5])
    monkeypatch.setattr(checks, "local_index", lambda g, p, residual_tol: {
        "raw": -2.0, "integer": -2, "residual": next(residuals)})
    code, out = run_cli(capsys, "index", "--geometry", "torus2",
                        "--projection", "constant", "--refine", "2")
    assert code == 1
    assert "residual_trend_nonincreasing: false" in out
    assert "overall: fail" in out


def test_explicit_refine_zero_wins_over_scenario(capsys):
    import pathlib

    scenario = pathlib.Path(__file__).parent.parent / "scenarios" / "index-bott-refine.json"
    code, out = run_cli(capsys, "index", "--scenario", str(scenario), "--refine", "0")
    assert code == 0
    assert "  refine: 0\n" in out
    raw = [ln for ln in out.splitlines() if "raw_" in ln]
    assert len(raw) == 1 and raw[0].startswith("  raw_24x48: ")


def _integers(out):
    return {ln.split(":")[0].strip(): int(ln.split(":")[1])
            for ln in out.splitlines() if ln.startswith("  integer_")}


@pytest.mark.parametrize("projection", ["bott", "bott-dilated"])
def test_index_is_even_and_stable_under_refinement(capsys, projection):
    seen = set()
    for refine in range(4):
        code, out = run_cli(capsys, "index", "--geometry", "sphere2",
                            "--projection", projection, "--refine", str(refine))
        assert code == 0, out
        integers = _integers(out)
        assert len(integers) == refine + 1
        seen |= set(integers.values())
    assert len(seen) == 1
    assert seen.pop() % 2 == 0


@pytest.mark.parametrize("geometry", ["sphere2", "torus2"])
@pytest.mark.parametrize("projection", ["zero", "constant"])
def test_trivial_projections_have_index_zero(capsys, geometry, projection):
    for refine in range(4):
        code, out = run_cli(capsys, "index", "--geometry", geometry,
                            "--projection", projection, "--refine", str(refine))
        assert code == 0, out
        assert set(_integers(out).values()) == {0}


def test_index_focus_rejects_bad_combination(capsys):
    code, _ = run_cli(
        capsys, "index", "--geometry", "torus2", "--projection", "bott",
    )
    assert code == 2


def test_ddclass_builtin_scenario(capsys):
    code, out = run_cli(capsys, "dd-class", "--scenario", "pauli-triangle")
    assert code == 0
    assert "mu[0,1,2]: i" in out


def test_ddclass_builtin_sphere_nerve(capsys):
    code, out = run_cli(capsys, "dd-class", "--scenario", "coboundary-s3")
    assert code == 0
    assert "class_invariants" in out
    assert "torsion_witness_found: true" in out


def _minus_last_edge(data):
    from ncgkit import cech, linalg

    edges = dict(data.edges)
    edges[(0, 2)] = linalg.mat_neg(edges[(0, 2)])
    return cech.TransitionData(data.nerve, 2, edges)


@pytest.mark.parametrize("scenario,target,plant", [
    # g(0,2) = -sz: mu(0,1,2) becomes -i
    ("pauli-triangle", "pauli_triangle",
     lambda real: lambda: _minus_last_edge(real())),
    # a non-zero class for coboundary data
    ("coboundary-s3", "h3_class",
     lambda real: lambda delta, nerve: real([1, 0, 0, 0, 0], nerve)),
    # a cochain whose coboundary is not rank * delta
    ("coboundary-s3", "torsion_witness",
     lambda real: lambda pc, n: [0] * len(pc.nerve.k_simplices(2))),
])
def test_ddclass_builtin_fails_on_a_planted_wrong_answer(capsys, monkeypatch,
                                                         scenario, target, plant):
    from ncgkit import cech

    code, out = run_cli(capsys, "dd-class", "--scenario", scenario)
    assert code == 0 and "status: pass" in out
    monkeypatch.setattr(cech, target, plant(getattr(cech, target)))
    code, out = run_cli(capsys, "dd-class", "--scenario", scenario)
    assert code == 1
    assert "status: fail" in out and "overall: fail" in out


def _stub_runner(spec, passed, ran):
    """A runner with the signature of ``spec.runner`` that records its call
    and returns the given verdict."""
    @functools.wraps(spec.runner)
    def run(**params):
        ran.append(spec.check_id)
        return CheckResult(spec.check_id, passed, {"reason": "forced"})
    return run


def test_failing_check_exits_one(capsys, monkeypatch):
    from ncgkit.checks import CHECKS_BY_ID

    for argv, check_id in [
        (("dd-class",), "cech-suite"),
        (("dd-class", "--scenario", "coboundary-s3"), "dd-class-builtin"),
        (("index", "--projection", "zero"), "index-focus"),
    ]:
        ran = []
        spec = CHECKS_BY_ID[check_id]
        monkeypatch.setattr(spec, "runner", _stub_runner(spec, False, ran))
        code, out = run_cli(capsys, *argv)
        assert ran == [check_id]
        assert code == 1
        assert "overall: fail" in out


def test_verify_identities_fails_when_every_form_reads_zero(capsys, monkeypatch):
    """A zero test that always says zero makes every identity pass; the
    planted-defect controls of the exact checks must then fail the run."""
    from ncgkit.forms import MatrixForm

    monkeypatch.setattr(MatrixForm, "is_zero", lambda self: True)
    code, out = run_cli(capsys, "verify-identities", "--trials", "1")
    assert code == 1
    assert out.count("planted_defect_seen: false") == 4
    assert "overall: fail" in out


@pytest.mark.parametrize("m, dim", [(1, 2), (2, 3), (3, 4)])
def test_planted_defects_of_the_linear_checks(m, dim):
    """The controls of bianchi-trace and twisted-complex read the defect
    they plant: m dx_0 for a doubled nabla(x_0 Id), and d beta for a shift
    by beta = x_0 dx_1 dx_2 without the matching twist."""
    import random

    from ncgkit.checks import (_PlantedDefect, _control_elements, _shift_defect,
                               _trace_exchange_defect)
    from ncgkit.forms import ExactForm, MatrixForm, exterior_d
    from ncgkit.randgen import random_connection, random_matrix_form
    from ncgkit.scalars import Chart, PolyScalar

    rng = random.Random(dim)
    chart = Chart.affine(dim)
    conn = random_connection(chart, m, rng, poly_deg=1)
    (target,) = _control_elements(conn, 1)
    assert _trace_exchange_defect(conn, target).is_zero()
    dx0 = MatrixForm.from_scalar(PolyScalar.const(chart, m), 1, (0,))
    assert _trace_exchange_defect(_PlantedDefect(conn, target), target) == dx0
    if dim >= 3:
        c = exterior_d(random_matrix_form(chart, 1, rng, 2, poly_deg=1))
        beta = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0), 1, (1, 2))
        one = ExactForm.identity(chart, 1)
        assert _shift_defect(c, c - exterior_d(beta), beta, one).is_zero()
        assert _shift_defect(c, c, beta, one) == exterior_d(beta)


def test_render_value_rationals():
    from fractions import Fraction

    assert render_value(QQi(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert render_value(Fraction(5, 3)) == "5/3"
    assert render_value(True) == "true"
    assert render_value([1, 2]) == "[1, 2]"


def test_numpy_scalars_render_as_python_values():
    """numpy scalars in a report print as the Python values they hold."""
    import numpy as np

    from ncgkit.cli import render_report_json, render_report_text

    assert [render_value(v) for v in (
        np.bool_(True), np.bool_(False), np.int64(-3), np.float64(0.1),
        np.complex128(complex(1.5, -2.0)), [np.int64(2), np.float64(0.5)],
    )] == ["true", "false", "-3", "0.1", "1.5-2.0j", "[2, 0.5]"]
    details = {"flag": np.bool_(True), "count": np.int64(-3),
               "residual": np.float64(2.5e-17),
               "trace": np.complex128(complex(1.5, -2.0)),
               "spectrum": [np.float64(0.5), np.int64(2)]}
    args = ("spectral", 7, {"refine": np.int64(2)},
            [CheckResult("numpy-scalars", True, details)])
    assert render_report_text(*args) == (
        "ncgkit-report v1\ncommand: spectral\nseed: 7\nparams:\n  refine: 2\n"
        "check: numpy-scalars\n  status: pass\n  flag: true\n  count: -3\n"
        "  residual: 2.5e-17\n  trace: 1.5-2.0j\n  spectrum: [0.5, 2]\n"
        "overall: pass\n")
    assert render_report_json(*args) == (
        '{\n "checks": [\n  {\n   "details": {\n    "count": -3,\n'
        '    "flag": true,\n    "residual": 2.5e-17,\n    "spectrum": [\n'
        '     0.5,\n     2\n    ],\n    "trace": {\n     "im": -2.0,\n'
        '     "re": 1.5\n    }\n   },\n   "id": "numpy-scalars",\n'
        '   "status": "pass"\n  }\n ],\n "command": "spectral",\n'
        ' "overall": "pass",\n "params": {\n  "refine": 2\n },\n "seed": 7\n}\n')


EXACT_THEN_NUMERIC = """
import contextlib, io, json, sys
import ncgkit.cli as cli

cli.build_parser()

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

def numpy_loaded():
    from ncgkit import _numpy

    return [m for m in ("numpy._core", "numpy.core") if m in sys.modules], _numpy.loaded()

codes = [run("verify-identities", "--scenario", "scenarios/identities-smoke.json"),
         run("algebroid", "--trials", "5")]
exact = numpy_loaded()
codes.append(run("index", "--geometry", "sphere2", "--projection", "bott",
                 "--refine", "0"))
print(json.dumps({"codes": codes, "exact": exact, "numeric": numpy_loaded()}))
"""


def test_exact_commands_never_load_numpy():
    """In a fresh interpreter the exact commands run without numpy; the first
    numeric request loads it and still passes."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "NCGKIT_OUT"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-c", EXACT_THEN_NUMERIC], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0]
    assert got["exact"] == [[], False]
    assert got["numeric"][0] != [] and got["numeric"][1]


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("verify-identities", "dd-class", "index", "chkr-compare",
                "spectral", "algebroid", "list-checks"):
        assert cmd in text


@pytest.mark.parametrize("argv, usage, error", [
    (("index", "--geometry", "plane"), "usage: ncgkit index ",
     "argument --geometry: invalid choice: 'plane'"),
    (("index", "--refine", "x"), "usage: ncgkit index ",
     "argument --refine: invalid int value: 'x'"),
    (("index", "--no-such-flag"), "usage: ncgkit ",
     "unrecognized arguments: --no-such-flag"),
])
def test_usage_errors_return_2_in_process(capsys, argv, usage, error):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert error in captured.err


def test_help_returns_0_in_process(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ncgkit ")


class TestRejectsBadInput:
    """Out-of-range counts, mistyped values and parameters that no check of
    the command takes exit 2 before any check runs."""

    @pytest.mark.parametrize("argv", [
        ("verify-identities", "--trials", "0"),
        ("verify-identities", "--k-max", "0"),
        ("spectral", "--trials", "-3"),
        ("index", "--refine", "-1"),
        ("index", "--geometry", "sphere2", "--projection", "bott", "--refine", "-1"),
        # a negative seed, on every subcommand that takes one
        ("verify-identities", "--seed", "-1"),
        ("dd-class", "--seed", "-3"),
        ("dd-class", "--scenario", "pauli-triangle", "--seed", "-3"),
        ("index", "--seed", "-1"),
        ("index", "--geometry", "sphere2", "--projection", "bott", "--seed", "-1"),
        ("chkr-compare", "--seed", "-1"),
        ("spectral", "--seed", "-2", "--trials", "1"),
        ("algebroid", "--seed", "-1"),
        ("verify-identities", "--scenario", "scenarios/identities-smoke.json",
         "--seed", "-1"),
        # a module that no check belongs to lists nothing
        ("list-checks", "--module", "nosuch"),
    ])
    def test_out_of_range_flag_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("algebroid", "--trial", "3"),
        ("index", "--ref", "0"),
        ("index", "--geo", "torus2", "--proj", "zero"),
        ("dd-class", "--scen", "pauli-triangle"),
        ("list-checks", "--mod", "cyclic"),
    ])
    def test_abbreviated_flag_exit_2(self, capsys, argv):
        """A prefix of a flag is no flag: argparse's prefix matching is off."""
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("doc", [
        {"kind": "cech", "seed": True},
        {"kind": "cech", "seed": -1},
        {"kind": "spectral", "seed": -2, "params": {"trials": 1}},
        {"kind": "index", "seed": 7, "params": {"refine": "1"}},
        {"kind": "cech", "seed": 7, "params": {"rephasings": 0}},
        {"kind": "identities", "seed": 7, "params": {"trials": 2.5}},
        {"kind": "index", "seed": 7, "params": {"dilation": "0.5"}},
        # a dilation must be finite with |dilation| < 1
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott-dilated", "dilation": float("nan")}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott-dilated", "dilation": -3.0}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott", "dilation": float("inf")}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott-dilated", "dilation": 1.0}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott", "dilation": -1}},
        # parameters that no check of the command takes
        {"kind": "index", "seed": 7, "params": {"trials": 3}},
        {"kind": "index", "seed": 7, "params": {"geometry": "sphere2", "k_max": 2}},
        {"kind": "index", "seed": 7, "params": {"dilation": 0.5}},
        {"kind": "cech", "seed": 7, "params": {"trials": 3}},
        {"kind": "identities", "seed": 7, "params": {"refine": 1}},
        {"kind": "chkr-compare", "seed": 7, "params": {"vectors": 5}},
        # a dilation that the run ignores: only the reference projections
        # on the sphere take one
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "constant", "dilation": 0.5}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "zero", "dilation": 0.25}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "torus2", "projection": "constant", "dilation": 0.5}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "torus2", "projection": "zero", "dilation": 0.0}},
        {"kind": "index", "seed": 7, "params": {"projection": "zero", "dilation": 0.5}},
        # values outside the lists of geometries and projections, and the
        # reference projection off the sphere
        {"kind": "index", "seed": 7, "params": {"geometry": "plane"}},
        {"kind": "index", "seed": 7, "params": {"projection": ""}},
        {"kind": "index", "seed": 7, "params": {"geometry": "torus2"}},
        {"kind": "index", "seed": 7, "params": {
            "geometry": "torus2", "projection": "bott-dilated", "dilation": 0.5}},
        # a seed is no parameter
        {"kind": "cech", "seed": 7, "params": {"seed": 3}},
        # a misspelt top-level key, which would otherwise run refine 0
        {"kind": "index", "seed": 1, "parms": {"refine": 5}},
    ])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        command = {"cech": "dd-class", "index": "index", "chkr-compare": "chkr-compare",
                   "identities": "verify-identities", "spectral": "spectral"}[doc["kind"]]
        code, out = run_cli(capsys, command, "--scenario", str(path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv,params", [
        (("index", "--refine", "8"), None),
        (("index", "--geometry", "sphere2", "--projection", "bott", "--refine", "8"), None),
        (("index", "--geometry", "torus2", "--projection", "zero", "--refine", "10"), None),
        (("index",), {"refine": 8}),
        (("index",), {"geometry": "sphere2", "projection": "bott", "refine": 10}),
        # a flag above the bound is rejected over a valid scenario value
        (("index", "--refine", "8"), {"geometry": "torus2", "projection": "zero",
                                      "refine": 1}),
    ])
    def test_refine_above_its_bound_exit_2(self, tmp_path, capsys, monkeypatch,
                                           argv, params):
        """Each refine level multiplies the grid side by 1.5; a level above
        7 exits 2 before any grid is built.  Building one raises here, so a
        missed check fails at once instead of allocating the grid."""
        from ncgkit.geom import Geometry

        def no_grid(*args, **kwargs):
            raise AssertionError("a quadrature grid was built")

        monkeypatch.setattr(Geometry, "sphere2", staticmethod(no_grid))
        monkeypatch.setattr(Geometry, "torus2", staticmethod(no_grid))
        if params is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"kind": "index", "seed": 7, "params": params}))
            argv += ("--scenario", str(path))
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "refine must be an integer from 0 to 7" in captured.err

    @pytest.mark.parametrize("k_top,code", [(21, 2), (20, 0)])
    def test_k_top_bound(self, tmp_path, capsys, monkeypatch, k_top, code):
        """partition-counts enumerates F(k_top + 1) compositions; a k_top
        above 20 exits 2.  The checks are stubbed and run in this process,
        so only the rule is under test."""
        import os

        import ncgkit.cli

        ran = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ncgkit.cli, "run_check", lambda check_id, **params: (
            ran.append(params) or CheckResult(check_id, True, {})))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"kind": "identities", "seed": 7,
                                    "params": {"k_top": k_top}}))
        got = main(["verify-identities", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert got == code
        if code:
            assert captured.out == "" and not ran
            assert "k_top must be an integer from 1 to 20" in captured.err
        else:
            assert ran and all(params["k_top"] == 20 for params in ran)

    @pytest.mark.parametrize("times,code", [
        ([], 2), ([-50.0], 2), ([1.0, -50.0], 2), ([float("nan")], 2),
        ([float("inf")], 2), ([1.0, True], 2), ([1.0] * 65, 2),
        ([0.0], 0), ([0.5] * 64, 0),
    ])
    def test_times_rule(self, tmp_path, capsys, monkeypatch, times, code):
        """times is a nonempty list of at most 64 finite numbers >= 0: an
        empty list, a negative, NaN or infinite time, a bool and a 65th
        entry exit 2, and t = 0 runs.  The checks are stubbed and run in
        this process, so only the rule is under test."""
        import os

        import ncgkit.cli

        ran = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ncgkit.cli, "run_check", lambda check_id, **params: (
            ran.append(params) or CheckResult(check_id, True, {})))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"kind": "spectral", "seed": 1,
                                    "params": {"times": times}}))
        got = main(["spectral", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert got == code
        if code:
            assert captured.out == "" and not ran
            assert "times must be a list of 1 to 64 finite numbers >= 0" in captured.err
        else:
            assert ran and all(params["times"] == times for params in ran)

    def test_unresolved_dilation_fails_with_its_residual(self, tmp_path, capsys):
        """A valid dilation that the grid cannot resolve is a failing
        check that reports its residual, not an internal error."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"kind": "index", "seed": 7, "params": {
            "geometry": "sphere2", "projection": "bott-dilated", "dilation": 0.99}}))
        code, out = run_cli(capsys, "index", "--scenario", str(path))
        assert code == 1
        assert "  status: fail" in out
        residual = float(out.split("chern_residual: ")[1].split()[0])
        assert 1e-6 < residual < 1

    @pytest.mark.parametrize("argv", [
        ("index", "--trials", "3", "--refine", "0"),
        ("index", "--geometry", "sphere2", "--projection", "bott", "--trials", "3"),
        ("dd-class", "--trials", "3"),
        ("dd-class", "--scenario", "pauli-triangle", "--trials", "3"),
        ("chkr-compare", "--trials", "3"),
    ])
    def test_unused_flag_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    # The request shapes of perfbench/workloads.py; the check runners are
    # stubbed, since only the parameter routing is under test.
    @pytest.mark.parametrize("argv,scenario", [
        (("verify-identities", "--scenario", "scenarios/identities-smoke.json"), None),
        (("verify-identities", "--k-max", "5", "--trials", "3", "--seed", "11"), None),
        (("algebroid", "--seed", "11"), None),
        (("algebroid", "--trials", "20", "--seed", "11"), None),
        (("index", "--geometry", "torus2", "--projection", "zero", "--refine", "4"), None),
        (("index", "--seed", "11"), None),
        (("chkr-compare", "--seed", "11"), None),
        (("index",), {"kind": "index", "seed": 11, "params": {
            "geometry": "sphere2", "projection": "bott", "dilation": 0.25,
            "refine": 2}}),
        (("index", "--scenario", "scenarios/index-bott-refine.json"), None),
        (("index", "--geometry", "sphere2", "--projection", "bott"), None),
        (("dd-class",), {"kind": "cech", "seed": 11, "params": {"rephasings": 30}}),
        (("dd-class", "--seed", "11"), None),
        (("dd-class", "--scenario", "coboundary-s3", "--seed", "11"), None),
        (("spectral", "--seed", "11"), None),
        (("dd-class", "--scenario", "pauli-triangle"), None),
        (("dd-class", "--scenario", "scenarios/cech-rephasings.json"), None),
        # the largest refine level, by flag and by scenario
        (("index", "--refine", "7"), None),
        (("index", "--geometry", "sphere2", "--projection", "bott", "--refine", "7"), None),
        (("index",), {"kind": "index", "seed": 7, "params": {"refine": 7}}),
    ])
    def test_benchmark_requests_accepted(self, tmp_path, capsys, monkeypatch,
                                         argv, scenario):
        import pathlib

        from ncgkit.checks import CHECKS

        monkeypatch.chdir(pathlib.Path(__file__).parent.parent)
        ran = []
        for spec in CHECKS:
            monkeypatch.setattr(spec, "runner", _stub_runner(spec, True, ran))
        if scenario is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario))
            argv += ("--scenario", str(path))
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert ran


@pytest.mark.parametrize("sequence", [
    [("dd-class", "--seed", "11", "--format", "json"), ("dd-class", "--seed", "11")],
    [("index", "--geometry", "torus2", "--projection", "zero", "--refine", "2"),
     ("index", "--geometry", "torus2", "--projection", "zero")],
], ids=["format", "refine"])
def test_in_process_calls_leak_no_parser_state(capsys, monkeypatch, sequence):
    """``main`` reuses one parser per process; a flag of one call does not
    carry over to the next, so each call prints the bytes and exit status
    of the same request in a fresh interpreter."""
    import os
    import pathlib
    import subprocess
    import sys

    monkeypatch.delenv("NCGKIT_OUT", raising=False)
    got = [run_cli(capsys, *argv) for argv in sequence]
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "NCGKIT_OUT"}
    env["PYTHONPATH"] = str(root / "src")
    for argv, (code, out) in zip(sequence, got):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ncgkit.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout)
    assert got[0][1] != got[1][1]


# -- the checks of one request in forked workers --------------------------


def _cpus(monkeypatch, n):
    """Make ``n`` CPUs usable and numpy read as not loaded, so a request
    runs in min(checks, n) processes."""
    import os

    from ncgkit import _numpy

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(_numpy, "loaded", lambda: False)


def _no_child_left():
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ("verify-identities", "--trials", "1"),
    ("spectral", "--seed", "11"),
    ("index", "--seed", "11"),
])
def test_forked_workers_print_the_bytes_of_one_process(capsys, monkeypatch, argv):
    """A request run as it is, and dealt over three processes, prints the
    bytes and exit status of the same request run in one process."""
    import os

    as_is = run_cli(capsys, *argv)
    _no_child_left()
    _cpus(monkeypatch, 3)
    three = run_cli(capsys, *argv)
    _no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_cli(capsys, *argv) == as_is == three
    assert as_is[0] == 0


def test_processes_never_outnumber_the_checks(capsys, monkeypatch):
    import os

    from ncgkit.checks import CHECKS

    for spec in CHECKS:
        monkeypatch.setattr(spec, "runner", _stub_runner(spec, True, []))
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    _cpus(monkeypatch, 64)
    for argv, n_checks in [(("verify-identities",), 8), (("spectral",), 3),
                           (("index",), 2), (("algebroid",), 1)]:
        forks.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\ncheck: ") == n_checks
        assert len(forks) == n_checks - 1
    _no_child_left()


@pytest.mark.parametrize("reason", ["another thread runs", "numpy is loaded"])
def test_no_fork_while(capsys, monkeypatch, reason):
    import os
    import threading

    from ncgkit import _numpy
    from ncgkit.checks import CHECKS

    for spec in CHECKS:
        monkeypatch.setattr(spec, "runner", _stub_runner(spec, True, []))

    def no_fork():
        raise AssertionError(f"forked while {reason}")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 8)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if reason == "another thread runs":
        thread.start()
    else:
        monkeypatch.setattr(_numpy, "loaded", lambda: True)
    try:
        code, out = run_cli(capsys, "verify-identities")
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert code == 0
    assert out.count("status: pass") == 8


def _raising_runner(spec, message):
    @functools.wraps(spec.runner)
    def run(**params):
        raise ValueError(message)
    return run


@pytest.mark.parametrize("raising", [
    ("complex-operators",),                      # a child's slot only
    ("partition-counts", "chain-character"),     # a child's check comes first
    ("induction-identity", "partition-counts"),  # this process's check comes first
    ("twisted-complex", "pushforward"),          # two checks of one child's slot
])
def test_a_raising_check_reports_the_first_in_suite_order(capsys, monkeypatch, raising):
    """exit 3 and the error of the first raising check in suite order, for
    every number of processes."""
    import os

    from ncgkit.checks import CHECKS_BY_ID
    from ncgkit.cli import SUITE_OF_COMMAND

    for check_id in SUITE_OF_COMMAND["verify-identities"]:
        spec = CHECKS_BY_ID[check_id]
        stub = (_raising_runner(spec, f"raised by {check_id}") if check_id in raising
                else _stub_runner(spec, True, []))
        monkeypatch.setattr(spec, "runner", stub)
    want = f"internal error: ValueError: raised by {raising[0]}\n"
    for n in (1, 2, 3, 8):
        _cpus(monkeypatch, n)
        code = main(["verify-identities"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (3, "", want), n
        _no_child_left()


def test_a_failing_check_in_a_child_fails_the_report(capsys, monkeypatch):
    """A stub running in a child cannot append to this process's list of
    runs, so the report shows which checks ran and which failed."""
    from ncgkit.checks import CHECKS_BY_ID
    from ncgkit.cli import SUITE_OF_COMMAND

    suite = SUITE_OF_COMMAND["verify-identities"]
    for check_id in suite:
        spec = CHECKS_BY_ID[check_id]
        monkeypatch.setattr(spec, "runner", _stub_runner(
            spec, check_id != "complex-operators", []))
    _cpus(monkeypatch, 2)
    code, out = run_cli(capsys, "verify-identities")
    assert code == 1
    assert [line[len("check: "):] for line in out.splitlines()
            if line.startswith("check: ")] == suite
    assert "check: complex-operators\n  status: fail\n" in out
    assert out.count("status: fail") == 1
    assert out.endswith("overall: fail\n")
    _no_child_left()


def test_a_child_that_dies_without_results_is_an_internal_error(capsys, monkeypatch):
    import os

    from ncgkit.checks import CHECKS_BY_ID

    parent = os.getpid()
    spec = CHECKS_BY_ID["morita-suite"]  # slot 1 of spectral, in a child

    @functools.wraps(spec.runner)
    def die(**params):
        assert os.getpid() != parent, "the stub must run in a child"
        os._exit(1)

    monkeypatch.setattr(spec, "runner", die)
    for other in ("sobolev-suite", "torus-heat-trace"):
        monkeypatch.setattr(CHECKS_BY_ID[other], "runner",
                            _stub_runner(CHECKS_BY_ID[other], True, []))
    _cpus(monkeypatch, 2)
    code = main(["spectral"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("internal error: RuntimeError: a check process ended "
                   "before it sent its results\n")
    _no_child_left()


def test_children_are_killed_when_this_process_raises_first(capsys, monkeypatch):
    """When the first check of the request raises here, no child can hold
    an earlier error: every child is killed and reaped, not waited for."""
    import time

    from ncgkit.checks import CHECKS_BY_ID
    from ncgkit.cli import SUITE_OF_COMMAND

    for check_id in SUITE_OF_COMMAND["verify-identities"]:
        spec = CHECKS_BY_ID[check_id]

        @functools.wraps(spec.runner)
        def hang(**params):
            time.sleep(60)

        monkeypatch.setattr(spec, "runner", hang)
    spec = CHECKS_BY_ID["induction-identity"]
    monkeypatch.setattr(spec, "runner", _raising_runner(spec, "first"))
    _cpus(monkeypatch, 4)
    t0 = time.perf_counter()
    code = main(["verify-identities"])
    assert time.perf_counter() - t0 < 30
    assert (code, capsys.readouterr().err) == (
        3, "internal error: ValueError: first\n")
    _no_child_left()
