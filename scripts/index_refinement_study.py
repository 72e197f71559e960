#!/usr/bin/env python3
"""Index residual versus quadrature resolution on the sphere.

The standard degree-one projection has trig-polynomial integrands, so
the Gauss-Legendre rule saturates immediately; the conformally dilated
variant produces a genuine exponential refinement trend.
"""

import argparse

from ncgkit.checks import PARAM_RULES
from ncgkit.geom import Geometry, bott_projection, chern_number, local_index

# The sphere grid of ``index --refine 7`` (406 x 819), which peaks at about
# 265 MiB; a larger last grid exits 2 before any grid is built.
MAX_NODES = 406 * 819


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def dilation(text: str) -> float:
    value = float(text)
    rule = PARAM_RULES["dilation"]
    if not rule.ok(value):
        raise argparse.ArgumentTypeError(f"must be {rule.what}, got {value}")
    return value


def ladder(base: int, levels: int):
    """The grid sides of the study, each level 1.5 times the last, cut
    after the first grid with more than ``MAX_NODES`` nodes."""
    grids = [(base, 2 * base)]
    while len(grids) < levels and grids[-1][0] * grids[-1][1] <= MAX_NODES:
        a, b = grids[-1]
        grids.append((a + (a + 1) // 2, b + (b + 1) // 2))
    return grids


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--dilation", type=dilation, default=0.5)
    ap.add_argument("--levels", type=positive_int, default=5)
    ap.add_argument("--base", type=positive_int, default=3)
    args = ap.parse_args(argv)

    grids = ladder(args.base, args.levels)
    a, b = grids[-1]
    if a * b > MAX_NODES:
        ap.error(f"level {len(grids)} is a {a} x {b} grid, more than the "
                 f"{MAX_NODES} nodes of index --refine 7")
    print(f"{'resolution':>12s} {'standard':>12s} {'dilated':>12s}")
    for res in grids:
        g = Geometry.sphere2(*res)
        std = local_index(g, bott_projection(g), residual_tol=1.0)
        dil = local_index(g, bott_projection(g, args.dilation), residual_tol=1.0)
        print(f"{res[0]:5d}x{res[1]:<6d} {std['residual']:12.3e} {dil['residual']:12.3e}")
    g = Geometry.sphere2(24, 48)
    cn = chern_number(g, bott_projection(g))
    li = local_index(g, bott_projection(g))
    print(f"reference values at 24x48: chern {cn['integer']}, index {li['integer']}")


if __name__ == "__main__":
    main()
