#!/usr/bin/env python3
"""Index residual versus quadrature resolution on the sphere.

The standard degree-one projection has trig-polynomial integrands, so
the Gauss-Legendre rule saturates immediately; the conformally dilated
variant produces a genuine exponential refinement trend.
"""

import argparse

from ncgkit.geom import Geometry, bott_projection, chern_number, local_index


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dilation", type=float, default=0.5)
    ap.add_argument("--levels", type=positive_int, default=5)
    ap.add_argument("--base", type=positive_int, default=3)
    args = ap.parse_args()

    res = (args.base, 2 * args.base)
    print(f"{'resolution':>12s} {'standard':>12s} {'dilated':>12s}")
    for _ in range(args.levels):
        g = Geometry.sphere2(*res)
        std = local_index(g, bott_projection(g), residual_tol=1.0)
        dil = local_index(g, bott_projection(g, args.dilation), residual_tol=1.0)
        print(f"{res[0]:5d}x{res[1]:<6d} {std['residual']:12.3e} {dil['residual']:12.3e}")
        res = (res[0] + (res[0] + 1) // 2, res[1] + (res[1] + 1) // 2)
    g = Geometry.sphere2(24, 48)
    cn = chern_number(g, bott_projection(g))
    li = local_index(g, bott_projection(g))
    print(f"reference values at 24x48: chern {cn['integer']}, index {li['integer']}")


if __name__ == "__main__":
    main()
