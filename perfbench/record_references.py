#!/usr/bin/env python3
"""Record the report digests that ``perfbench/run.py`` checks requests against.

Run from the root of an ncgkit checkout whose reports are known to be right:

    python3 perfbench/record_references.py

It sends every workload's pass at the default seed once, so the golden
probes and the default-seed requests are all covered, and writes the
SHA-256 of each report to ``perfbench/references.json``.
"""

import json
import os
import shutil
import sys

import run  # first: it fixes the BLAS thread count before numpy is imported
import workloads


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import ncgkit.cli as cli

    ledger = run.Ledger({})
    workdir = os.path.join(".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in sorted(workloads.WORKLOADS):
            requests = workloads.build(name, workloads.DEFAULT_SEED)
            run.one_pass(cli, requests, run.materialize(requests, workdir), ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ledger.failures:
        for key, reason in ledger.failures:
            sys.stderr.write(f"{key}: {reason}\n")
        return 1
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(ledger.first_digest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ledger.first_digest)} digests in {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
