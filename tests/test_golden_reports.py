"""Byte-identical reports for the float-free exact-identities requests.

The expected SHA-256 of each report is read from the benchmark's reference
table ``perfbench/references.json``; this test never writes it.  Both
requests go through the PolyScalar product kernel and ``psi``, so a change
there that alters a verdict, a count or a rational in the report fails here.
"""

import hashlib
import json
import pathlib

import pytest

from ncgkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())

REQUESTS = [
    "verify-identities --scenario scenarios/identities-smoke.json",
    "algebroid --seed 528022",
]


@pytest.mark.parametrize("request_key", REQUESTS)
def test_report_matches_reference(request_key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NCGKIT_OUT", raising=False)
    code = main(request_key.split())
    report = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert hashlib.sha256(report).hexdigest() == REFERENCES[request_key]
