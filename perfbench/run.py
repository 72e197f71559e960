#!/usr/bin/env python3
"""Closed-loop benchmark of the ncgkit command line.

Run from the root of an ncgkit checkout:

    python3 perfbench/run.py --workload exact-identities --seed 7 --seconds 20 --trace 0

One client in one thread calls ``ncgkit.cli.main(argv)`` in-process, captures
its report and sends the next request only after the previous one returned.
The workload seed fixes the request pass (see ``workloads.py``); the run
repeats the pass until ``--seconds`` have gone by, always finishing the pass
it is in.

Every report is hashed.  A request fails when it exits non-zero, reports
``overall: fail``, differs from its digest in ``references.json`` or differs
from an earlier run of the same request.

With ``--trace 1`` the run instead makes one traced pass with the wrappers
of ``tracer.py`` installed, removes them, makes one untraced pass, and
replays the PolyScalar multiply corpus.  Call counts then depend only on the
seed.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One client, one BLAS thread: fewer threads than cores keeps runs steady on
# a shared machine.  This has to happen before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("NCGKIT_OUT", None)  # reports go to the benchmark, not to files

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import workloads
from workloads import Request

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
SETUP_SAMPLES = 5
SETUP_CODE = ("import sys\nimport ncgkit.cli as cli\ncli.build_parser()\n"
              "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
PERCENTILES = (75, 90, 95, 99, 99.9)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- environment -----------------------------------------------------------


def measure_setup(root: str) -> List[float]:
    """Wall time from spawning an interpreter until it has imported
    ``ncgkit.cli`` and built the parser.  An unmeasured first spawn writes
    the bytecode cache, as an installed package would have it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rc = proc.wait(timeout=120)
        if rc != 0 or line != b"ready\n":
            raise BenchError(f"set-up interpreter exited with {rc}")
        if i:
            samples.append(dt)
    return samples


def blas_info() -> Tuple[Optional[str], Optional[int]]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        version = None
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(root, "scenarios", "*.json")))
    for path in files:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: str, args) -> dict:
    import numpy as np

    version, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": version,
        "blas_threads": threads,
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- requests ----------------------------------------------------------------


def run_request(cli, argv: List[str]) -> Tuple[int, bytes, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)  # looked up per call, so a traced main is used
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 1
    dt = time.perf_counter() - t0
    return rc, out.getvalue().encode("utf-8"), err.getvalue(), dt


class Ledger:
    """Outcome, digest and latency of every request sent."""

    def __init__(self, references: Dict[str, str]):
        self.references = references
        self.first_digest: Dict[str, str] = {}
        self.latencies: Dict[str, List[float]] = defaultdict(list)  # by request key
        self.by_command: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []

    def record(self, req: Request, rc: int, report: bytes, err: str, dt: float) -> None:
        digest = hashlib.sha256(report).hexdigest()
        first = self.first_digest.setdefault(req.key, digest)
        self.attempted += 1
        self.latencies[req.key].append(dt)
        self.by_command[req.command].append(dt)
        reason = None
        if rc != 0:
            reason = f"exit status {rc}: {err.strip()[-300:]}"
        elif not report.endswith(b"\noverall: pass\n"):
            reason = "report says overall: fail"
        elif self.references.get(req.key, digest) != digest:
            reason = "report differs from its recorded reference"
        elif first != digest:
            reason = "report differs from an earlier run of the same request"
        if reason is not None:
            self.failures.append((req.key, reason))

    def combined_digest(self, requests: List[Request]) -> str:
        h = hashlib.sha256()
        for req in requests:
            h.update(f"{req.key}\t{self.first_digest.get(req.key)}\n".encode())
        return h.hexdigest()


def materialize(requests: List[Request], workdir: str) -> List[List[str]]:
    """The argv of each request, writing generated scenarios to ``workdir``."""
    argvs = []
    for i, req in enumerate(requests):
        argv = list(req.argv)
        if req.scenario is not None:
            path = os.path.join(workdir, f"scenario-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(req.scenario, fh, sort_keys=True)
            argv += ["--scenario", path]
        argvs.append(argv)
    return argvs


def one_pass(cli, requests, argvs, ledger: Ledger) -> Tuple[float, float]:
    """Send every request once; return the pass time and its golden part."""
    golden = 0.0
    t0 = time.perf_counter()
    for req, argv in zip(requests, argvs):
        rc, report, err, dt = run_request(cli, argv)
        ledger.record(req, rc, report, err, dt)
        if req.golden:
            golden += dt
    return time.perf_counter() - t0, golden


# -- statistics and output ---------------------------------------------------


def tail(samples: List[float]) -> Optional[Tuple[float, float, int]]:
    """Highest listed percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    best = None
    for q in PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            best = (q, s[rank - 1], n - rank)
    return best


def describe(name: str, value, unit: str, samples: Optional[List[float]], n: int) -> str:
    line = f"metric {name} = {value!r} {unit} (n={n}"
    if samples:
        t = tail(samples)
        if t is not None:
            line += f", p{t[0]:g}={t[1]!r} {unit} with {t[2]} beyond"
    return line + ")"


def declared_metrics(root: str) -> Tuple[List[dict], List[dict]]:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return spec["end_to_end"], spec["per_layer"]


def emit(declared: List[dict], measured: Dict[str, tuple], ledger: Ledger) -> None:
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            raise BenchError(f"declared metric {m['name']} was not measured")
        value, samples, n = measured[m["name"]]
        print(describe(m["name"], value, m["unit"], samples, n))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for command, lat in sorted(ledger.by_command.items()):
        print(describe(f"{command}.p50_s", statistics.median(lat), "s", lat, len(lat)))
    ratio = len(ledger.failures) / ledger.attempted
    print(f"metric fail_ratio = {ratio!r} ratio (n={ledger.attempted})")
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))


# -- main ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncgkit", "cli.py")):
        raise BenchError("run this from the root of an ncgkit checkout (no src/ncgkit/cli.py)")
    end_to_end, per_layer = declared_metrics(root)
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        references = json.load(fh)

    sys.path.insert(0, os.path.join(root, "src"))
    import ncgkit.cli as cli

    requests = workloads.build(args.workload, args.seed)
    ledger = Ledger(references)
    workdir = os.path.join(".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir)
    try:
        argvs = materialize(requests, workdir)
        if args.trace:
            measured = traced_run(cli, requests, argvs, ledger)
            declared = per_layer
        else:
            measured = timed_run(cli, root, requests, argvs, ledger, args.seconds)
            declared = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(root, args), sort_keys=True))
    for i, (req, argv) in enumerate(zip(requests, argvs)):
        lat = ledger.latencies[req.key]
        print("# request " + json.dumps({
            "index": i, "argv": argv, "scenario": req.scenario, "golden": req.golden,
            "sha256": ledger.first_digest.get(req.key),
            "latency_s": [round(x, 6) for x in lat]}))
    print(f"# combined_report_sha256 {ledger.combined_digest(requests)}")
    for key, reason in ledger.failures:
        print(f"# failed {key}: {reason}")
    emit(declared, measured, ledger)
    return 0


def timed_run(cli, root, requests, argvs, ledger, seconds) -> Dict[str, tuple]:
    setup = measure_setup(root)
    passes, golden = [], []
    start = time.perf_counter()
    while True:
        pass_s, golden_s = one_pass(cli, requests, argvs, ledger)
        passes.append(pass_s)
        golden.append(golden_s)
        if time.perf_counter() - start >= seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup), setup, len(setup)),
        "verdict_s": (statistics.median(passes), passes, len(passes)),
        "golden_s": (statistics.median(golden), golden, len(golden)),
        "peak_rss_mib": (rss_mib, None, 1),
    }


def traced_run(cli, requests, argvs, ledger) -> Dict[str, tuple]:
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        traced_s, _ = one_pass(cli, requests, argvs, ledger)
    finally:
        t.uninstall()
    untraced_s, _ = one_pass(cli, requests, argvs, ledger)
    corpus = tracer.capture_corpus()
    corpus_s, mismatches = tracer.replay_corpus(corpus)
    ledger.attempted += 1  # the corpus replay is checked like a request
    if mismatches:
        ledger.failures.append((
            "PolyScalar corpus replay",
            f"{mismatches} replayed products in {tracer.CORPUS_REPEATS} replays "
            "differ from the captured ones"))
    measured = {name: (value, None, n) for name, (value, n) in t.values().items()}
    measured["scalars.PolyScalar.mul.corpus_s"] = (corpus_s, None, tracer.CORPUS_REPEATS)
    print(f"# corpus {len(corpus)} PolyScalar x PolyScalar products from "
          "check_induction_identity(seed=7), fastest of "
          f"{tracer.CORPUS_REPEATS} replays")
    measured["trace.traced_verdict_s"] = (traced_s, None, 1)
    measured["trace.untraced_verdict_s"] = (untraced_s, None, 1)
    measured["trace.overhead_ratio"] = (traced_s / untraced_s, None, 1)
    return measured


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
