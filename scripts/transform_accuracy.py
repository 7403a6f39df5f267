#!/usr/bin/env python3
"""Accuracy of T^mu Tbar^nu at the default counts: disk-centred core against rule.

For every kernel-table entry (mu, nu) with mu + nu <= BAND (8, the degree cap
of `oracle.PolynomialField`), R in RADII, |z|/R in RATIOS at five angles each
and seeds 0 .. SEEDS - 1, takes a field of degree BAND - mu - nu with seeded
unit-modulus coefficients and compares two quadratures against
`oracle.exact_transform` compositions, which never touch the kernels: the
default counts (the disk-centred core) and the target-centred rule at the
counts its table gives that target (`quadrature.rule_counts`).  An error is
|value - exact| over the largest |exact| of the entry's targets.  Prints one
JSON line: each route's worst error, and the worst per entry, keyed "mu,nu".

    PYTHONPATH=src python3 scripts/transform_accuracy.py [--seeds 10] [--band 8]
"""

import argparse
import json

import numpy as np

from pompeiu.geometry import DiskDomain
from pompeiu.operators import transform
from pompeiu.oracle import PolynomialField, exact_transform
from pompeiu.quadrature import DEFAULT_RESOLUTION, rule_counts

RADII = (1.0, 2.5)
RATIOS = (0.0, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1.0)
ANGLES = 5


def errors(seed: int, radius: float, mu: int, nu: int, band: int) -> tuple[float, float]:
    """(core, rule) worst errors for one seeded field of degree band - mu - nu."""
    rng = np.random.default_rng([seed, mu, nu])
    degree = band - mu - nu
    poly = PolynomialField.from_dict({(p, q): np.exp(2j * np.pi * rng.random())
                                      for p in range(degree + 1) for q in range(degree + 1 - p)})
    field = poly.to_field(DiskDomain(radius))
    z = radius * np.outer(RATIOS, np.exp(1j * (0.3 + 2 * np.pi * np.arange(ANGLES) / ANGLES)))
    z = z.ravel()
    exact = poly
    for _ in range(nu):
        exact = exact_transform(exact, radius, conjugate=True)
    for _ in range(mu):
        exact = exact_transform(exact, radius)
    want = exact(z)
    core = transform(field, z, mu, nu)
    counts = rule_counts(field.domain, z, DEFAULT_RESOLUTION, field.degree + mu + nu).tolist()
    rule = np.array([transform(field, w, mu, nu, tuple(c)) for w, c in zip(z, counts)])
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(core - want)) / scale), float(np.max(np.abs(rule - want)) / scale)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0 .. SEEDS - 1")
    parser.add_argument("--band", type=int, default=8, help="field degree plus orders")
    args = parser.parse_args(argv)
    entries = {}
    for mu in range(args.band + 1):
        for nu in range(args.band + 1 - mu):
            if mu or nu:
                worst = np.max([errors(seed, radius, mu, nu, args.band)
                                for seed in range(args.seeds) for radius in RADII], axis=0)
                entries[f"{mu},{nu}"] = [float(e) for e in worst]
    print(json.dumps({"core": max(e[0] for e in entries.values()),
                      "rule": max(e[1] for e in entries.values()), "entries": entries}))


if __name__ == "__main__":
    main()
