"""Smoke runs of the scripts under ``scripts/`` as a user would start them."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("scripts/identity_fuzz.py", "--trials", "3"),
    ("scripts/index_refinement_study.py", "--levels", "2"),
])
def test_script_runs(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag", ["--trials", "--k-max", "--dim-max"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_identity_fuzz_rejects_counts_below_one(flag, value):
    proc = run_script("scripts/identity_fuzz.py", flag, value)
    assert proc.returncode == 2
    assert "must be at least 1" in proc.stderr


@pytest.mark.parametrize("argv", [("--base", "0"), ("--levels", "-1")])
def test_index_refinement_study_rejects_counts_below_one(argv):
    proc = run_script("scripts/index_refinement_study.py", *argv)
    assert proc.returncode == 2
    assert "must be at least 1" in proc.stderr


def test_mutants_rejects_an_unknown_name():
    proc = run_script("scripts/mutants.py", "no-such-mutant")
    assert proc.returncode == 2
    assert "unknown mutant no-such-mutant" in proc.stderr
