#!/usr/bin/env python3
"""Resolution sweep: quadrature error on golden integrals and kernel oracles.

Prints one table per experiment; each row doubles the rule resolution.
"""

import argparse

import numpy as np

from pompeiu.geometry import DiskDomain
from pompeiu.kernels import c3
from pompeiu.operators import ScalarField, apply_T, constant_field, field_from_expression
from pompeiu.oracle import lemma_lhs_quadrature
from pompeiu.solver import SolutionSpec, fd_residual, solve_pde

RESOLUTIONS = [(8, 16), (16, 32), (32, 64), (64, 128), (128, 256)]


def table(title, rows):
    print(f"\n{title}")
    print(f"  {'resolution':>12}  {'error':>12}  {'ratio':>8}")
    prev = None
    for res, err in rows:
        ratio = f"{prev / err:8.1f}" if prev and err > 0 else "       -"
        print(f"  {str(res):>12}  {err:12.3e}  {ratio}")
        prev = err


def monomial_transform(domain, z, l):
    f = ScalarField(lambda w: np.conj(np.asarray(w, dtype=complex)) ** l, domain)
    want = np.conj(z) ** (l + 1) / (l + 1)
    return [(res, abs(apply_T(f, z, res) - want)) for res in RESOLUTIONS]


def kernel_oracle(a, b, mu, nu, radius):
    want = 2j * np.pi * c3(a, b, mu, nu, radius)
    return [(res, abs(lemma_lhs_quadrature("lem6", a, b, (mu, nu), radius, res) - want))
            for res in RESOLUTIONS]


def pde_residual(domain, pts):
    rhs = field_from_expression("1+z*zbar", domain)
    zero = constant_field(0, domain)
    spec = SolutionSpec(1, 1, rhs, (zero,), (zero,))
    rows = []
    for res in RESOLUTIONS:
        u = solve_pde(spec, resolution=res)
        rows.append((res, float(np.max(fd_residual(u, 1, 1, rhs, pts)))))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--R", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    domain = DiskDomain(args.R)
    rng = np.random.default_rng(args.seed)
    z = 0.4 * args.R * np.exp(2j * np.pi * rng.random())
    a = 0.5 * args.R * np.exp(2j * np.pi * rng.random())
    b = -0.45 * args.R * np.exp(2j * np.pi * rng.random())

    table(f"transform of zbar^3 at z = {z:.3f}", monomial_transform(domain, z, 3))
    table(f"two-center oracle vs c3(2,2), a = {a:.3f}, b = {b:.3f}",
          kernel_oracle(a, b, 2, 2, args.R))
    pts = [0.3 * args.R, 0.2j * args.R, (-0.25 + 0.1j) * args.R]
    table("solution residual, d dbar u = 1 + |z|^2", pde_residual(domain, pts))


if __name__ == "__main__":
    main()
