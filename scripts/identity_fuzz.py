#!/usr/bin/env python3
"""Long-running fuzz over the exact identity suite.

Cranks the trial counts far past the acceptance levels; every identity
is decided in exact arithmetic, so any nonzero defect is a real bug.
"""

import argparse
import random
import sys
import time

from ncgkit.characters import cyclic_defect, induction_defect
from ncgkit.cyclic import Chain, connes_B, hochschild_b, tensor_is_zero
from ncgkit.forms import exterior_d
from ncgkit.randgen import random_algebra_element, random_connection, random_qqi
from ncgkit.scalars import Chart


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=positive_int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k-max", type=positive_int, default=4)
    ap.add_argument("--dim-max", type=positive_int, default=4)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    bad = 0
    for trial in range(args.trials):
        dim = trial % args.dim_max + 1
        m = trial % 3 + 1
        k = trial % args.k_max + 1
        chart = Chart.affine(dim) if trial % 2 else Chart.torus(dim)
        conn = random_connection(chart, m, rng, terms=1)
        als = [random_algebra_element(chart, m, rng, terms=1)
               for _ in range(k + 1)]
        checks = [
            induction_defect(conn, als).is_zero(),
            cyclic_defect(conn, als).is_zero(),
            conn.nabla(conn.sigma).is_zero(),
            (conn.nabla(als[0]).trace() - exterior_d(als[0].trace())).is_zero(),
        ]
        ch = Chain(k, [(random_qqi(rng), tuple(als))])
        mixed = hochschild_b(connes_B(ch)) + connes_B(hochschild_b(ch))
        checks.append(mixed.is_zero() or tensor_is_zero(mixed))
        if not all(checks):
            bad += 1
            print(f"DEFECT at trial {trial}: dim={dim} m={m} k={k} {checks}")
        if trial and trial % 100 == 0:
            print(f"... {trial} trials, {time.time() - t0:.0f}s")
    print(f"{args.trials} trials, {bad} defects, {time.time() - t0:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
