#!/usr/bin/env python3
"""Assemble a biharmonic solution Delta^2 u = A and export it as a grid.

Example:
    python scripts/biharmonic_demo.py --rhs "16" --h2 "z^2" --out u.csv
"""

import argparse

import numpy as np

from pompeiu.geometry import DiskDomain, wirtinger_split
from pompeiu.operators import evaluate_on_grid, field_from_expression
from pompeiu.solver import solve_biharmonic


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rhs", default="16", help="real-valued source expression")
    parser.add_argument("--h1", default="0", help="holomorphic part multiplied by |z|^2")
    parser.add_argument("--h2", default="0", help="holomorphic part (real part is harmonic)")
    parser.add_argument("--R", type=float, default=1.0)
    parser.add_argument("--grid", type=int, default=33)
    parser.add_argument("--nr", type=int, default=64)
    parser.add_argument("--ntheta", type=int, default=128)
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout summary)")
    args = parser.parse_args(argv)

    domain = DiskDomain(args.R)
    rhs = field_from_expression(args.rhs, domain)
    u = solve_biharmonic(rhs, field_from_expression(args.h1, domain),
                         field_from_expression(args.h2, domain), (args.nr, args.ntheta))

    # residual spot check: Delta^2 = 16 d^2 dbar^2
    stencil = wirtinger_split(2, 2)
    h = (1e-12) ** (1 / 6) * args.R
    pts = [0.25 * args.R, (0.1 + 0.2j) * args.R, (-0.3 - 0.1j) * args.R]
    for z in pts:
        got = 16 * stencil.apply_richardson(u, z, h).real
        want = complex(rhs(np.asarray(z))).real
        print(f"z = {z:.3f}: Delta^2 u = {got:.6f} (target {want:.6f})")

    if args.out:
        grid = evaluate_on_grid(u, domain, args.grid,
                                config={"rhs": args.rhs, "h1": args.h1, "h2": args.h2,
                                        "radius": args.R,
                                        "resolution": [args.nr, args.ntheta]})
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(grid.to_csv_text())
        print(f"wrote {args.grid}x{args.grid} grid to {args.out}")


if __name__ == "__main__":
    main()
