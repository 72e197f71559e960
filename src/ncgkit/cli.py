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
import os
import sys
import threading
from fractions import Fraction
from typing import Dict, List, Optional

from . import _numpy
from .checks import (
    BOTT_PROJECTIONS,
    CHECKS,
    DD_BUILTIN_EXPECTED,
    PARAM_RULES,
    CheckResult,
    SchemaViolation,
    check_params,
    run_check,
    validate_param,
)
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


def _is_numpy_scalar(v) -> bool:
    """``isinstance(v, numpy.generic)``, read off the type's bases by name
    so that rendering a report never loads numpy."""
    return any(c.__module__ == "numpy" and c.__qualname__ == "generic"
               for c in type(v).__mro__)


def render_value(v) -> str:
    if _is_numpy_scalar(v):
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
        if _is_numpy_scalar(v):
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
    extra = sorted(set(doc) - {"kind", "seed", "params"})
    if extra:
        raise SchemaViolation(f"unknown scenario keys {extra}; a scenario takes kind, seed, params")
    kind = doc.get("kind")
    if kind not in SCENARIO_KINDS:
        raise SchemaViolation(f"unknown scenario kind {kind!r}")
    seed = doc.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SchemaViolation("scenario requires a nonnegative integer seed")
    if not isinstance(doc.get("params", {}), dict):
        raise SchemaViolation("scenario params must be an object")
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


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 while another thread runs or
    once numpy is loaded.

    A forked child has only the thread that forked, so a lock that another
    thread holds would never be released there; numpy's BLAS may keep
    threads that ``threading`` does not count.  A process with numpy also
    has twice the writable memory, and after a fork it takes a page fault
    on each page of it that it writes again, which costs about what its
    short numeric checks gain.
    """
    if threading.active_count() > 1 or _numpy.loaded():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_slot(check_ids: List[str], seed: int, params) -> tuple:
    """Run checks in order until one raises: (results, the exception or None)."""
    results = []
    try:
        for c in check_ids:
            results.append(run_check(c, seed=seed, **params))
    except Exception as exc:
        return results, exc
    return results, None


def _fork_slot(check_ids: List[str], seed: int, params) -> tuple:
    """Run a slot in a forked child, which pickles what ``_run_slot``
    returns down a pipe; (pid, read end of the pipe)."""
    import pickle

    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        data = pickle.dumps(_run_slot(check_ids, seed, params))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _end(pid: int) -> None:
    import signal

    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _collect(pid: int, r: int) -> tuple:
    """What a forked slot sent; the child is ended and reaped either way."""
    import pickle

    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
    finally:
        _end(pid)
    if not data:
        raise RuntimeError("a check process ended before it sent its results")
    return pickle.loads(data)


def _run_checks(check_ids: List[str], seed: int, params) -> List[CheckResult]:
    """Run the checks of a request in up to one process per usable CPU.

    The checks are dealt round robin; this process runs slot 0 and a forked
    child runs each other slot.  Results come back in the order of
    ``check_ids``.  When checks raise, the one first in that order is
    raised, as in a run in one process; a child whose slot starts after it
    is killed instead of waited for.
    """
    workers = min(len(check_ids), _usable_cpus())
    slots = [check_ids[w::workers] for w in range(workers)]
    outcomes = []  # (results, exception or None) of slots 0, 1, ...

    def failures():  # (position in check_ids, exception) of each slot that raised
        return [(v + workers * len(res), exc)
                for v, (res, exc) in enumerate(outcomes) if exc is not None]

    pending = []
    try:
        for slot in slots[1:]:
            pending.append(_fork_slot(slot, seed, params))
        outcomes.append(_run_slot(slots[0], seed, params))
        # the next slot's first check is at position len(outcomes)
        while pending and all(len(outcomes) < p for p, _ in failures()):
            outcomes.append(_collect(*pending.pop(0)))
    finally:
        for pid, r in pending:
            os.close(r)
            _end(pid)
    if failures():
        raise min(failures(), key=lambda f: f[0])[1]
    results = [None] * len(check_ids)
    for w, (res, _) in enumerate(outcomes):
        results[w::workers] = res
    return results


def _run_suite(command: str, args) -> int:
    """Select the checks of a request, check every parameter given, run the
    checks and emit one report; 0 when every check passed, else 1."""
    seed = args.seed
    if seed < 0:
        raise SchemaViolation(f"--seed must be a nonnegative integer, got {seed}")
    flags = {k: v for k, v in vars(args).items() if k in PARAM_RULES and v is not None}
    given = []  # (name, value) of every parameter given, scenario file first
    builtin = command == "dd-class" and args.scenario in DD_BUILTIN_EXPECTED
    if args.scenario is not None and not builtin:
        del flags["scenario"]  # a scenario file, not a built-in scenario name
        doc = load_scenario(args.scenario)
        if SCENARIO_KINDS[doc["kind"]] != command:
            raise SchemaViolation(
                f"scenario kind {doc['kind']!r} does not match command {command!r}"
            )
        seed = doc["seed"]
        given += doc.get("params", {}).items()
    given += flags.items()
    params = dict(given)  # a flag given on the command line wins over the scenario
    if builtin:
        check_ids = ["dd-class-builtin"]
    elif command == "index" and ("geometry" in params or "projection" in params):
        check_ids = ["index-focus"]
    else:
        check_ids = SUITE_OF_COMMAND[command]
    takes = {k for c in check_ids for k in check_params(c)} - {"seed"}
    shown = params
    if check_ids == ["index-focus"]:
        # the report shows the grid it ran on, whether given or not
        params = {**check_params("index-focus"), **params}
        shown = {k: v for k, v in params.items() if k != "dilation"}
        if params["projection"] not in BOTT_PROJECTIONS:
            takes.discard("dilation")
    for name, value in given:
        if name not in takes:
            raise SchemaViolation(f"{command} takes no parameter {name}")
        validate_param(name, value)
    results = _run_checks(check_ids, seed, params)
    renderer = render_report_json if args.format == "json" else render_report_text
    _emit(renderer(command, seed, shown, results), args.out, command)
    return 0 if all(r.passed for r in results) else 1


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
        allow_abbrev=False,
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

    p = sub.add_parser("verify-identities", allow_abbrev=False,
                       help="exact identities: derivative recursion, boundary "
                            "operators, flatness, twisted complex")
    common(p)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("dd-class", allow_abbrev=False,
                       help="transition-cocycle suite on finite nerves")
    common(p)

    p = sub.add_parser("index", allow_abbrev=False,
                       help="curvature-integral index on geometries")
    common(p)
    p.add_argument("--refine", type=int, default=None)
    p.add_argument("--geometry", choices=PARAM_RULES["geometry"].choices, default=None)
    p.add_argument("--projection", choices=PARAM_RULES["projection"].choices,
                   default=None)

    p = sub.add_parser("chkr-compare", allow_abbrev=False,
                       help="class-level agreement of the two character maps")
    common(p)

    p = sub.add_parser("spectral", allow_abbrev=False,
                       help="Sobolev scales, module lifts, heat supertrace")
    common(p)

    p = sub.add_parser("algebroid", allow_abbrev=False, help="derivation cochain suite")
    common(p)

    p = sub.add_parser("list-checks", allow_abbrev=False,
                       help="catalog of verification checks")
    p.add_argument("--module", choices=sorted({c.module for c in CHECKS}), default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help
        return exc.code
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
