#!/usr/bin/env python3
"""Accuracy of T^mu Tbar^nu at the default counts: disk-centred core against rule.

The reference never touches the kernels or the core: it composes
`oracle.transform_monomials`, the exact monomial rule, in `fractions.Fraction`
(the real and imaginary parts apart, since the rule's factors are real), and
sums each angular mode's radial polynomial at |z| in integers, rounded once.
Targets are |z|/R in RATIOS at five angles each, on R in RADII, for seeds
0 .. SEEDS - 1, and an error is |value - exact| over the largest |exact| of
the entry's targets.  Prints one JSON line.

Default: every kernel-table entry (mu, nu) with mu + nu <= BAND (8), on a
field of degree BAND - mu - nu with seeded unit-modulus coefficients, against
two quadratures: the default counts (the disk-centred core) and the
target-centred rule at `quadrature.DEFAULT_COUNTS`.  Each route's worst
error, and the worst per entry as [core, rule], keyed "mu,nu".

--orders N: every (mu, nu) up to (N, N), for fields of degree 0 and 4, on the
core alone (the rule's kernels lose digits at high orders; see
`scripts/kernel_accuracy.py`).  The worst error, and the worst per entry as
[degree 0, degree 4].

    PYTHONPATH=src python3 scripts/transform_accuracy.py [--seeds 10] [--band 8]
    PYTHONPATH=src python3 scripts/transform_accuracy.py --orders 20 [--seeds 1]
"""

import argparse
import json
import math
from fractions import Fraction

import numpy as np

from pompeiu.geometry import DiskDomain
from pompeiu.operators import transform
from pompeiu.oracle import PolynomialField, transform_monomials
from pompeiu.quadrature import DEFAULT_COUNTS

RADII = (1.0, 2.5)
RATIOS = (0.0, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1.0)
ANGLES = 5
DEGREES = (0, 4)


def seeded_field(rng, degree: int) -> dict:
    """Unit-modulus coefficients of every z^p zbar^q with p + q <= degree."""
    return {(p, q): np.exp(2j * np.pi * rng.random())
            for p in range(degree + 1) for q in range(degree + 1 - p)}


def targets(radius: float) -> np.ndarray:
    z = radius * np.outer(RATIOS, np.exp(1j * (0.3 + 2 * np.pi * np.arange(ANGLES) / ANGLES)))
    return z.ravel()


def exact_parts(coefficients: dict) -> tuple[dict, dict]:
    """The real and imaginary parts of complex coefficients, as Fractions."""
    return tuple({key: Fraction(getattr(complex(c), part)) for key, c in coefficients.items()}
                 for part in ("real", "imag"))


def compose(parts, radius: Fraction, conjugate: bool, count: int):
    """`count` exact (conjugate) transforms of both parts."""
    for _ in range(count):
        parts = tuple(transform_monomials(part, radius, conjugate) for part in parts)
    return parts


def _radial_sum(terms: dict, rho: Fraction) -> float:
    """sum c rho^e over {e: c}, exactly in integers, rounded once."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    top, a, b = max(terms), rho.numerator, rho.denominator
    num = 0
    for e in range(top, -1, -1):   # Horner: num = sum of c_e scale a^e b^(top - e)
        num *= a
        if e in terms:
            num += terms[e].numerator * (scale // terms[e].denominator) * b ** (top - e)
    return num / (scale * b ** top)


def exact_values(parts, z: np.ndarray) -> np.ndarray:
    """sum c z^p zbar^q at each z: mode p - q's radial sum at the float |z|
    exactly (`_radial_sum`), times e^{i (p - q) arg z} in floats."""
    modes: dict = {}
    for part, unit in zip(parts, (1, 1j)):
        for (p, q), c in part.items():
            if c:
                modes.setdefault((p - q, unit), {})[p + q] = c
    values = np.zeros(z.shape, dtype=complex)
    for i, point in enumerate(z.tolist()):
        rho, alpha = Fraction(abs(point)), np.angle(point)
        values[i] = sum(unit * _radial_sum(terms, rho) * np.exp(1j * m * alpha)
                        for (m, unit), terms in modes.items())
    return values


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def errors(seed: int, radius: float, mu: int, nu: int, band: int) -> tuple[float, float]:
    """(core, rule) worst errors for one seeded field of degree band - mu - nu."""
    coefficients = seeded_field(np.random.default_rng([seed, mu, nu]), band - mu - nu)
    field = PolynomialField.from_dict(coefficients).to_field(DiskDomain(radius))
    z = targets(radius)
    parts = compose(exact_parts(coefficients), Fraction(radius), True, nu)
    want = exact_values(compose(parts, Fraction(radius), False, mu), z)
    core, rule = transform(field, z, mu, nu), transform(field, z, mu, nu, DEFAULT_COUNTS)
    return relative_error(core, want), relative_error(rule, want)


def sweep(seed: int, radius: float, degree: int, orders: int) -> dict:
    """{(mu, nu): core error} for every (mu, nu) up to (orders, orders), one field."""
    coefficients = seeded_field(np.random.default_rng([seed, degree]), degree)
    field = PolynomialField.from_dict(coefficients).to_field(DiskDomain(radius))
    z = targets(radius)
    out, parts = {}, exact_parts(coefficients)
    for nu in range(orders + 1):
        composed = parts
        for mu in range(orders + 1):
            if mu or nu:
                out[mu, nu] = relative_error(transform(field, z, mu, nu),
                                             exact_values(composed, z))
            composed = compose(composed, Fraction(radius), False, 1)
        parts = compose(parts, Fraction(radius), True, 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0 .. SEEDS - 1")
    parser.add_argument("--band", type=int, default=8, help="field degree plus orders")
    parser.add_argument("--orders", type=int, default=None,
                        help="sweep every (mu, nu) up to (ORDERS, ORDERS) on the core alone")
    args = parser.parse_args(argv)
    if args.orders is not None:
        worst: dict = {}
        for column, degree in enumerate(DEGREES):
            for seed in range(args.seeds):
                for radius in RADII:
                    for key, error in sweep(seed, radius, degree, args.orders).items():
                        entry = worst.setdefault(f"{key[0]},{key[1]}", [0.0] * len(DEGREES))
                        entry[column] = max(entry[column], error)
        print(json.dumps({"core": max(max(e) for e in worst.values()), "entries": worst}))
        return
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
