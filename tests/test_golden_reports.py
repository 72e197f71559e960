"""Byte-identical reports for shipped scenarios and fixed requests.

The expected SHA-256 of each report is read from the benchmark's reference
table ``perfbench/references.json``; this test never writes it.  The
``verify-identities`` and ``algebroid`` requests go through the PolyScalar
product kernel and ``psi``; the ``dd-class`` requests through the Čech
cocycle and the H^3 presentation; ``spectral`` through the exact QQi matrix
product of the Morita lift; ``index`` through the sampled-jet path; ``chkr-compare`` sums polynomial
terms on a grid in the key order of ``coeffs``, so it locks that order.  A change
that alters a verdict, a count or a number in a report fails here.  The
``index``, ``dd-class`` and ``spectral`` reports carry floats from numpy
quadrature and eigensolvers, so their digests hold for the numpy and
OpenBLAS they were recorded with, on x86-64.
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
    "index --scenario scenarios/index-bott-refine.json",
    "dd-class --scenario scenarios/cech-rephasings.json",
    "dd-class --scenario pauli-triangle",
    "dd-class --scenario coboundary-s3",
    "index --geometry sphere2 --projection bott",
    "spectral --seed 697131",
    # grid sums over coeffs in key order reach the printed floats here
    "chkr-compare --seed 527780",
]

# the geometry x projection pairs of the benchmark's jet grid; refine 0..4
# locks the float bytes, sign of zero included, of the sampled-jet path
INDEX_FOCUS = (
    ("sphere2", "bott"), ("sphere2", "bott-dilated"), ("sphere2", "constant"),
    ("sphere2", "zero"), ("torus2", "constant"), ("torus2", "zero"),
)
REQUESTS += [
    f"index --geometry {g} --projection {p} --refine {r}"
    for r in range(5) for g, p in INDEX_FOCUS
]


@pytest.mark.parametrize("request_key", REQUESTS)
def test_report_matches_reference(request_key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NCGKIT_OUT", raising=False)
    code = main(request_key.split())
    report = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert hashlib.sha256(report).hexdigest() == REFERENCES[request_key]
