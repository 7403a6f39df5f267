#!/usr/bin/env python3
"""Error of the disk area transforms by target distance and rule resolution.

The measurement behind `quadrature.RESOLUTION_TABLE`.  For each |z|/R and
each resolution, prints one row: the worst absolute error of every op over
ANGLES targets at that distance, against `oracle.exact_transform`
compositions, which never touch the kernels.  The ops are T = (1,0), 2T (the
regularized square kernel, d/dz T) and the mixed T^mu Tbar^nu.  The field is
a degree-(d, d) polynomial in z and conj(z) with seeded unit-modulus
coefficients on the unit disk, so values are O(1); d plus the largest order
must stay within the reference's `oracle.MAX_POLY_DEGREE` (8).  `default`
is the table row printed while the field's total degree 2d plus the op's
orders (2 for 2T) is at most `quadrature.TABLE_DEGREE`, and at least 64x128
above it (`--degree 4` with 2x2, for one), passed as explicit counts: at
the default counts T and T^mu Tbar^nu take the disk-centred core instead
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
from pompeiu.quadrature import DEFAULT_RESOLUTION, RESOLUTION_TABLE, rule_counts

RATIOS = "0,0.5,0.8,0.9,0.95,0.98,0.99,0.999,0.999999"
RESOLUTIONS = "default,16x32,16x48,24x64,24x96,32x128,64x128"
OPS = "T,2T,1x1,2x2,3x1,1x3"
DISK = DiskDomain(1.0)


def _pairs(text: str) -> tuple[int, int] | None:
    """`16x32` -> (16, 32); `default` -> None."""
    return None if text == "default" else tuple(int(part) for part in text.split("x"))


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
    """The op at z by the target-centred rule (`default`: the table's counts)."""
    mu, nu = (2, 0) if op == "2T" else (1, 0) if op == "T" else _pairs(op)
    if resolution == DEFAULT_RESOLUTION:
        resolution = tuple(rule_counts(DISK, z, resolution, field.degree + mu + nu)[0].tolist())
    if op == "2T":
        return apply_2T(field, z, resolution)
    return transform(field, z, mu, nu, resolution)


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
                        help="comma list of NRxNTHETA, or `default` for the table's choice")
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
            resolution = _pairs(text) or DEFAULT_RESOLUTION
            row = next(counts for edge, counts in RESOLUTION_TABLE if min(ratio, 1.0) <= edge)
            label = text if text != "default" else "default " + "x".join(map(str, row))
            errors = [worst_error(poly, op, ratio, resolution, args.angles) for op in ops]
            print(f"{ratio:>9g} {label:>16} " + "".join(f"{err:9.1e}" for err in errors))


if __name__ == "__main__":
    main()
