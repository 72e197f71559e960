"""Command-line front end: scenario execution and verification reports.

Subcommands map onto check groups; every run is reproducible from the
scenario (kind, seed, params) and emits a line-oriented key-value report
(or JSON with --format json).  Rational values render as numerator /
denominator strings so nothing is lost to decimals.

Exit status: 0 all checks passed, 1 at least one check failed,
2 scenario or argument schema violation, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .checks import CHECKS, CheckResult, check_params, run_check
from .scalars import QQi

SUITE_OF_COMMAND = {
    "verify-identities": [
        "induction-identity", "partition-counts", "chain-character",
        "complex-operators", "bianchi-trace", "twisted-complex",
        "lift-representative", "pushforward",
    ],
    "dd-class": ["cech-suite"],
    "index": ["index-suite", "pairing-consistency"],
    "chkr-compare": ["character-comparison"],
    "spectral": ["sobolev-suite", "morita-suite", "torus-heat-trace"],
    "algebroid": ["derivation-suite"],
}

SCENARIO_KINDS = {
    "identities": "verify-identities",
    "cech": "dd-class",
    "index": "index",
    "chkr-compare": "chkr-compare",
    "spectral": "spectral",
    "algebroid": "algebroid",
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _at_least(low: int):
    return f"an integer >= {low}", lambda v: _is_int(v) and v >= low


def _between(low: int, high: int):
    return (f"an integer from {low} to {high}",
            lambda v: _is_int(v) and low <= v <= high)


# What each scenario or command-line parameter must be.  A count below its
# lower bound would run no trials and report a vacuous pass, or fail inside
# a check as an internal error.
PARAM_RULES = {
    "trials": _at_least(1),
    "k_max": _at_least(1),
    "k_top": _at_least(1),
    # each level multiplies the grid side by 1.5 and the peak memory by
    # about 2.2: an index run peaks at 540 MiB at refine 7 and would pass
    # 1 GiB at 8
    "refine": _between(0, 7),
    "resolution": _at_least(1),
    "rephasings": _at_least(1),
    "vectors": _at_least(1),
    "n_max": _at_least(1),
    "times": ("a list of numbers",
              lambda v: isinstance(v, list) and all(map(_is_real, v))),
    "geometry": ("a string", lambda v: isinstance(v, str)),
    "projection": ("a string", lambda v: isinstance(v, str)),
    # |dilation| >= 1 degenerates the conformal flow: p is no projection
    "dilation": ("a finite number with |dilation| < 1",
                 lambda v: _is_real(v) and math.isfinite(v) and abs(v) < 1),
}

# The expected answers of the built-in dd-class scenarios; the verdict of
# a built-in run is that every listed fact has its expected value.
DD_BUILTIN_EXPECTED = {
    # the spin lifts: mu(0,1,2) = i, and the unit-determinant lift is
    # exact with mu_n^2 = 1
    "pauli-triangle": {"mu_first": QQi(0, 1), "normalized_exact": True,
                       "normalized_mu_squared": QQi(1)},
    # lifts h_i h_j^* times unit phases: the class is zero for every seed,
    # and a witness w with d w = rank * delta exists
    "coboundary-s3": {"class_zero": True, "torsion_witness": True},
}

# What the single-geometry index run (``index --geometry/--projection``) takes.
INDEX_FOCUS_PARAMS = ("geometry", "projection", "refine", "dilation")


class SchemaViolation(ValueError):
    pass


def validate_param(name: str, value) -> None:
    what, ok = PARAM_RULES[name]
    if not ok(value):
        raise SchemaViolation(f"parameter {name} must be {what}, got {value!r}")


def render_value(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, QQi):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, complex):
        re, im = float(v.real), float(v.imag)
        return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(render_value(x) for x in v) + "]"
    return str(v)


def render_report_text(command: str, seed: int, params: Dict[str, object],
                       results: List[CheckResult]) -> str:
    lines = ["ncgkit-report v1", f"command: {command}", f"seed: {seed}"]
    if params:
        lines.append("params:")
        for k in sorted(params):
            lines.append(f"  {k}: {render_value(params[k])}")
    for res in results:
        lines.append(f"check: {res.check_id}")
        lines.append(f"  status: {'pass' if res.passed else 'fail'}")
        for k, v in res.details.items():
            lines.append(f"  {k}: {render_value(v)}")
    overall = all(r.passed for r in results)
    lines.append(f"overall: {'pass' if overall else 'fail'}")
    return "\n".join(lines) + "\n"


def render_report_json(command: str, seed: int, params: Dict[str, object],
                       results: List[CheckResult]) -> str:
    def jsonable(v):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, (QQi, Fraction)):
            return render_value(v)
        if isinstance(v, complex):
            return {"re": float(v.real), "im": float(v.imag)}
        if isinstance(v, (list, tuple)):
            return [jsonable(x) for x in v]
        if isinstance(v, dict):
            return {k: jsonable(x) for k, x in v.items()}
        if isinstance(v, (bool, int, float, str)) or v is None:
            return v
        return str(v)

    doc = {
        "command": command,
        "seed": seed,
        "params": {k: jsonable(v) for k, v in sorted(params.items())},
        "checks": [
            {"id": r.check_id, "status": "pass" if r.passed else "fail",
             "details": {k: jsonable(v) for k, v in r.details.items()}}
            for r in results
        ],
        "overall": "pass" if all(r.passed for r in results) else "fail",
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_scenario(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaViolation(f"cannot read scenario: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("scenario must be a JSON object")
    kind = doc.get("kind")
    if kind not in SCENARIO_KINDS:
        raise SchemaViolation(f"unknown scenario kind {kind!r}")
    seed = doc.get("seed")
    if not _is_int(seed) or seed < 0:
        raise SchemaViolation("scenario requires a nonnegative integer seed")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaViolation("scenario params must be an object")
    unknown = set(params) - set(PARAM_RULES)
    if unknown:
        raise SchemaViolation(f"unknown scenario params: {sorted(unknown)}")
    for name, value in params.items():
        validate_param(name, value)
    return doc


def _emit(text: str, out: Optional[str], command: str) -> None:
    if out is None:
        out_dir = os.environ.get("NCGKIT_OUT")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(out_dir, f"{command}.report")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _reject_unused(command: str, unused) -> None:
    if unused:
        raise SchemaViolation(
            f"{command} takes no parameter {', '.join(sorted(unused))}")


def _run_suite(command: str, args) -> int:
    seed = args.seed
    if seed < 0:
        raise SchemaViolation(f"--seed must be a nonnegative integer, got {seed}")
    params: Dict[str, object] = {}
    builtin = command == "dd-class" and args.scenario in DD_BUILTIN_EXPECTED
    if args.scenario and not builtin:
        doc = load_scenario(args.scenario)
        if SCENARIO_KINDS[doc["kind"]] != command:
            raise SchemaViolation(
                f"scenario kind {doc['kind']!r} does not match command {command!r}"
            )
        seed = doc["seed"]
        params.update(doc.get("params", {}))
    # a flag given on the command line wins over the scenario
    for name in ("trials", "k_max", "refine", "geometry", "projection"):
        value = getattr(args, name, None)
        if value is not None:
            validate_param(name, value)
            params[name] = value
    if builtin:
        _reject_unused(command, params)
        return _run_ddclass_builtin(args)
    if command == "index" and (params.get("geometry") or params.get("projection")):
        _reject_unused(command, set(params) - set(INDEX_FOCUS_PARAMS))
        return _run_index_focus(args, seed, params)
    suite = SUITE_OF_COMMAND[command]
    _reject_unused(command, [
        k for k in params if not any(k in check_params(c) for c in suite)])
    results = []
    for check_id in suite:
        results.append(run_check(check_id, seed=seed, **params))
    renderer = render_report_json if args.format == "json" else render_report_text
    _emit(renderer(command, seed, params, results), args.out, command)
    return 0 if all(r.passed for r in results) else 1


def _run_ddclass_builtin(args) -> int:
    """Named transition-data scenarios with full cocycle/class output."""
    import random as _random

    from . import cech
    from .checks import _coboundary_type_data, CheckResult

    name = args.scenario
    details: Dict[str, object] = {"scenario": name}
    if name == "pauli-triangle":
        data = cech.pauli_triangle()
    else:
        rng = _random.Random(args.seed)
        data = _coboundary_type_data(rng, cech.boundary_of_4_simplex())
    pc = cech.phase_cocycle(data)
    first = data.nerve.k_simplices(2)[0]
    for tri in data.nerve.k_simplices(2)[:4]:
        details[f"mu[{','.join(map(str, tri))}]"] = pc.mu[tri]
    details["delta"] = pc.delta_vector()
    details["delta_residual"] = pc.residual
    facts: Dict[str, object] = {"mu_first": pc.mu[first]}
    if data.nerve.k_simplices(3):
        cls = cech.h3_class(pc.delta_vector(), data.nerve)
        details["class_invariants"] = cls.invariants
        details["class_coordinates"] = cls.coordinates
        witness = cech.torsion_witness(pc, data.rank)
        details["torsion_witness_found"] = witness is not None
        facts["class_zero"] = cls.is_zero
        facts["torsion_witness"] = cech.is_torsion_witness(pc, witness, data.rank)
    normalized = cech.normalize_determinant(data)
    pc_n = cech.phase_cocycle(normalized)
    details["determinant_normalized_exact"] = normalized.exact
    details["mu_normalized_first"] = pc_n.mu[first]
    facts["normalized_exact"] = normalized.exact
    facts["normalized_mu_squared"] = pc_n.mu[first] ** 2
    passed = all(facts.get(k) == v for k, v in DD_BUILTIN_EXPECTED[name].items())
    result = CheckResult(f"dd-class:{name}", passed, details)
    renderer = render_report_json if args.format == "json" else render_report_text
    _emit(renderer("dd-class", args.seed, {"scenario": name}, [result]),
          args.out, "dd-class")
    return 0 if passed else 1


def _run_index_focus(args, seed: int, params: Dict[str, object]) -> int:
    """Single-geometry index run with raw value, snap, residual and trend."""
    from .checks import CheckResult
    from .geom import (
        Geometry,
        bott_projection,
        chern_number,
        constant_projection,
        local_index,
    )

    geometry = params.get("geometry") or "sphere2"
    projection = params.get("projection") or "bott"
    refine = params.get("refine", 0)
    dilation = float(params.get("dilation", 0.0))
    if geometry not in ("sphere2", "torus2"):
        raise SchemaViolation(f"unknown geometry {geometry!r}")
    if projection not in ("bott", "constant", "zero", "bott-dilated"):
        raise SchemaViolation(f"unknown projection {projection!r}")
    if geometry == "torus2" and projection in ("bott", "bott-dilated"):
        raise SchemaViolation("the reference projection lives on the sphere")

    def build(geom):
        from .forms import MatrixForm

        if projection == "bott":
            return bott_projection(geom, dilation)
        if projection == "bott-dilated":
            return bott_projection(geom, dilation or 0.5)
        if projection == "constant":
            return constant_projection(geom, 1, 2)
        return MatrixForm.zero(geom.chart, 2, "jet", geom.n_nodes)

    resolutions = [(24, 48) if geometry == "sphere2" else (32, 32)]
    for _ in range(int(refine)):
        a, b = resolutions[-1]
        resolutions.append((a + a // 2, b + b // 2))
    details: Dict[str, object] = {
        "geometry": geometry, "projection": projection,
    }
    passed = True
    residuals = []
    base = None  # the geometry and projection of the first resolution
    for res in resolutions:
        geom = (Geometry.sphere2(*res) if geometry == "sphere2"
                else Geometry.torus2(res[0]))
        p_form = build(geom)
        base = base or (geom, p_form)
        # no tolerance here: a residual the grid cannot resolve fails the
        # check below and is reported
        out = local_index(geom, p_form, residual_tol=math.inf)
        residuals.append(out["residual"])
        tag = f"{res[0]}x{res[1]}"
        details[f"raw_{tag}"] = out["raw"]
        details[f"integer_{tag}"] = out["integer"]
        details[f"residual_{tag}"] = out["residual"]
        passed = passed and out["residual"] < 1e-4
    trend = all(b <= max(a, 1e-10) for a, b in zip(residuals, residuals[1:]))
    details["residual_trend_nonincreasing"] = trend
    passed = passed and trend
    if geometry == "sphere2" and projection in ("bott", "bott-dilated"):
        cn = chern_number(*base, residual_tol=math.inf)
        details["chern_integer"] = cn["integer"]
        details["chern_residual"] = cn["residual"]
        passed = passed and cn["residual"] < 1e-6
    result = CheckResult("index-focus", passed, details)
    renderer = render_report_json if args.format == "json" else render_report_text
    run_params = {"geometry": geometry, "projection": projection,
                  "refine": int(refine)}
    _emit(renderer("index", seed, run_params, [result]), args.out, "index")
    return 0 if passed else 1


def _run_list_checks(args) -> int:
    if args.format == "json":
        doc = [
            {"id": c.check_id, "module": c.module, "description": c.description}
            for c in CHECKS
            if args.module in (None, c.module)
        ]
        sys.stdout.write(json.dumps(doc, indent=1) + "\n")
        return 0
    lines = ["ncgkit-checks v1"]
    for c in CHECKS:
        if args.module not in (None, c.module):
            continue
        lines.append(f"check: {c.check_id}")
        lines.append(f"  module: {c.module}")
        lines.append(f"  description: {c.description}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="ncgkit",
        description="verification suites for the twisted-index toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--scenario", type=str, default=None,
                       help="JSON scenario file (kind, seed, params)")
        p.add_argument("--out", type=str, default=None,
                       help="report file (default: $NCGKIT_OUT/<command>.report)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-identities",
                       help="exact identities: derivative recursion, boundary "
                            "operators, flatness, twisted complex")
    common(p)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("dd-class",
                       help="transition-cocycle suite on finite nerves")
    common(p)

    p = sub.add_parser("index", help="curvature-integral index on geometries")
    common(p)
    p.add_argument("--refine", type=int, default=None)
    p.add_argument("--geometry", choices=("sphere2", "torus2"), default=None)
    p.add_argument("--projection",
                   choices=("bott", "constant", "zero", "bott-dilated"),
                   default=None)

    p = sub.add_parser("chkr-compare",
                       help="class-level agreement of the two character maps")
    common(p)

    p = sub.add_parser("spectral",
                       help="Sobolev scales, module lifts, heat supertrace")
    common(p)

    p = sub.add_parser("algebroid", help="derivation cochain suite")
    common(p)

    p = sub.add_parser("list-checks", help="catalog of verification checks")
    p.add_argument("--module", type=str, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-checks":
            return _run_list_checks(args)
        return _run_suite(args.command, args)
    except SchemaViolation as exc:
        sys.stderr.write(f"schema violation: {exc}\n")
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
