#!/usr/bin/env python3
"""Error of the disk area transforms by target distance and rule resolution.

The measurement behind `quadrature.DEFAULT_COUNTS`.  For each |z|/R and each
resolution, prints one row: the worst absolute error of every op over ANGLES
targets at that distance, against `oracle.exact_transform` compositions,
which never touch the kernels.  The ops are T = (1,0), 2T (the regularized
square kernel, d/dz T) and the mixed T^mu Tbar^nu.  The field is a
degree-(d, d) polynomial in z and conj(z) with seeded unit-modulus
coefficients on the unit disk, so values are O(1); d plus the largest order
must stay within the reference's `oracle.MAX_POLY_DEGREE` (8).  `default` is
DEFAULT_COUNTS, passed as explicit counts: at the default counts T and
T^mu Tbar^nu take the disk-centred core instead
(`scripts/transform_accuracy.py` measures it).

    PYTHONPATH=src python3 scripts/rule_table.py [--ratios 0.5,0.9] \\
        [--resolutions default,16x32,64x128] [--ops T,2T,1x1,2x2] \\
        [--degree 2] [--angles 5] [--seed 0]
"""

import argparse
import cmath

import numpy as np

from pompeiu.geometry import DiskDomain
from pompeiu.operators import apply_2T, transform
from pompeiu.oracle import PolynomialField, exact_transform
from pompeiu.quadrature import DEFAULT_COUNTS

RATIOS = "0,0.5,0.8,0.9,0.95,0.98,0.99,0.999,0.999999"
RESOLUTIONS = "default,16x32,32x64,64x128"
OPS = "T,2T,1x1,2x2,3x1,1x3"
DISK = DiskDomain(1.0)


def _pairs(text: str) -> tuple[int, int]:
    """`16x32` -> (16, 32); `default` -> DEFAULT_COUNTS."""
    return DEFAULT_COUNTS if text == "default" else tuple(int(part) for part in text.split("x"))


def seeded_field(degree: int, seed: int) -> PolynomialField:
    """sum over p, q <= degree of c_pq z^p conj(z)^q with |c_pq| = 1."""
    phases = np.random.default_rng(seed).random((degree + 1, degree + 1))
    return PolynomialField(np.exp(2j * np.pi * phases))


def exact(poly: PolynomialField, op: str) -> PolynomialField:
    """The op applied to `poly` by exact polynomial calculus."""
    if op == "2T":
        return exact_transform(poly, 1.0).wirtinger(1, 0)
    mu, nu = (1, 0) if op == "T" else _pairs(op)
    for _ in range(nu):
        poly = exact_transform(poly, 1.0, conjugate=True)
    for _ in range(mu):
        poly = exact_transform(poly, 1.0)
    return poly


def value(field, op: str, z: complex, resolution) -> complex:
    """The op at z by the target-centred rule at explicit counts."""
    if op == "2T":
        return apply_2T(field, z, resolution)
    return transform(field, z, *((1, 0) if op == "T" else _pairs(op)), resolution)


def worst_error(poly: PolynomialField, op: str, ratio: float, resolution,
                angles: int) -> float:
    """Worst |value - exact| over `angles` targets at |z| = ratio (R = 1)."""
    field, want = poly.to_field(DISK), exact(poly, op)
    targets = [ratio * cmath.exp(1j * (0.3 + 2 * np.pi * k / angles)) for k in range(angles)]
    return max(abs(value(field, op, z, resolution) - complex(want(np.asarray(z))))
               for z in targets)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ratios", default=RATIOS, help="comma list of |z|/R")
    parser.add_argument("--resolutions", default=RESOLUTIONS,
                        help="comma list of NRxNTHETA, or `default` for DEFAULT_COUNTS")
    parser.add_argument("--ops", default=OPS, help="comma list of T, 2T and MUxNU")
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument("--angles", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    poly = seeded_field(args.degree, args.seed)
    ops = args.ops.split(",")
    print(f"worst absolute error over {args.angles} angles, degree-({args.degree},"
          f"{args.degree}) field, seed {args.seed}")
    print(f"{'|z|/R':>9} {'resolution':>16} " + "".join(f"{op:>9}" for op in ops))
    for ratio in (float(text) for text in args.ratios.split(",")):
        for text in args.resolutions.split(","):
            resolution = _pairs(text)
            label = text if text != "default" else "default " + "x".join(map(str, resolution))
            errors = [worst_error(poly, op, ratio, resolution, args.angles) for op in ops]
            print(f"{ratio:>9g} {label:>16} " + "".join(f"{err:9.1e}" for err in errors))


if __name__ == "__main__":
    main()
