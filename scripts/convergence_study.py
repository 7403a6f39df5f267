#!/usr/bin/env python3
"""Resolution sweep: quadrature error on golden integrals and kernel oracles.

Prints one table per experiment; each row doubles the rule resolution.

`--nested` instead sizes `oracle.NestedOracle`'s grid radii, a count of
Chebyshev-Lobatto radii, at its own base and top rules: for every candidate
it prints the worst error against exact compositions of
`oracle.transform_monomials` over the cells (depth 1-4, R = 1 and 2.5, (4,4)
and (5,5) fields, |z|/R from 0 to 1; each cell the worst of its words, its
NESTED_ANGLES targets and the fields of NESTED_SEEDS, relative to
max(R^depth, |value|)), the cells above ROUND_OFF or refused (outside the
envelope that `NestedOracle.evaluate` enforces at those counts), the points
`_PolarGridField` evaluates and the milliseconds on the benchmark's six
crosscheck words (on the first seed's (4,4) field).  Then it names the
candidate with the fewest points and every cell at most ROUND_OFF, and prints
every cell at the oracle's counts, with (6,6) fields as the envelope's edge.

    PYTHONPATH=src python3 scripts/convergence_study.py [--R 1] [--seed 0]
    PYTHONPATH=src python3 scripts/convergence_study.py --nested [12:12x16:16x32,...]
"""

import argparse
import itertools
import time
from contextlib import contextmanager

import numpy as np

from pompeiu import oracle
from pompeiu.errors import DepthCap
from pompeiu.geometry import DiskDomain
from pompeiu.kernels import c3
from pompeiu.operators import ScalarField, apply_T, constant_field, field_from_expression
from pompeiu.oracle import (NESTED_RESOLUTION, NESTED_TOP_RESOLUTION, NestedOracle,
                            PolynomialField, lemma_lhs_quadrature, transform_monomials)
from pompeiu.solver import SolutionSpec, fd_residual, solve_pde

RESOLUTIONS = [(8, 16), (16, 32), (32, 64), (64, 128), (128, 256)]

#: Chebyshev radius counts at the oracle's own base and top rules
NESTED_CANDIDATES = [(radii, NESTED_RESOLUTION, NESTED_TOP_RESOLUTION)
                     for radii in (10, 12, 14, 16, 20, 24)]
NESTED_WORDS = {1: (("T",), ("Tbar",)), 2: (("T", "Tbar"), ("T", "T"), ("Tbar", "T")),
                3: (("T", "T", "Tbar"), ("T", "Tbar", "Tbar")),
                4: (("T", "T", "Tbar", "Tbar"), ("T", "T", "T", "T"))}
NESTED_RATIOS = (0.0, 0.3, 0.7, 0.9, 0.99, 1.0)
NESTED_ANGLES = (0.7, 1.9, 3.2, 4.4, 5.6)
#: a cell's worst over several seeded fields: on one seed the cells are not
#: monotone in the counts (near |z| = 0, depth 4 reads cancelling contributions)
NESTED_SEEDS = (0, 1, 2)
#: the fields the counts are sized on, and the envelope's edge: the oracle refuses
#: depth 3 and 4 on a (6,6) field at its counts
NESTED_SIZES, EDGE_SIZE = (4, 5), 6
ROUND_OFF = 1e-13
#: the crosscheck workload's nested words and targets (`perfbench/workloads.py`)
CROSSCHECK_WORDS = [("T",) * mu + ("Tbar",) * nu for mu, nu in ((1, 1), (2, 1), (1, 2))]
CROSSCHECK_TARGETS = (0.18 + 0.22j, -0.31 + 0.12j)


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


def scaled_field(size: int, R: float, seed: int) -> PolynomialField:
    """A seeded (size, size)-coefficient polynomial in z/R and conj(z)/R."""
    rng = np.random.default_rng([seed, size])
    degrees = np.add.outer(np.arange(size), np.arange(size))
    return PolynomialField((rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size))) / R ** degrees)


@contextmanager
def nested_counts(radii: int, base, top):
    """NestedOracle at these counts, and a list that collects the number of
    points each `_PolarGridField._modes` call is handed."""
    saved = oracle.NESTED_GRID_SHAPE, oracle.NESTED_RESOLUTION, oracle.NESTED_TOP_RESOLUTION
    modes, points = oracle._PolarGridField._modes, []

    def counted(self, z, *at):
        points.append(z.size)
        return modes(self, z, *at)

    oracle.NESTED_GRID_SHAPE = (radii, saved[0][1])
    oracle.NESTED_RESOLUTION, oracle.NESTED_TOP_RESOLUTION = tuple(base), tuple(top)
    oracle._PolarGridField._modes = counted
    try:
        yield points
    finally:
        oracle.NESTED_GRID_SHAPE, oracle.NESTED_RESOLUTION, oracle.NESTED_TOP_RESOLUTION = saved
        oracle._PolarGridField._modes = modes


def nested_cells(config, sizes=NESTED_SIZES) -> dict:
    """(depth, R, field size, |z|/R) -> the worst error of the cell's words,
    angles and seeds, or None where the oracle refuses the cell (DepthCap); the
    exact values compose `transform_monomials`, which has no degree cap."""
    worst = {}
    with nested_counts(*config):
        for seed, R, size in itertools.product(NESTED_SEEDS, (1.0, 2.5), sizes):
            poly = scaled_field(size, R, seed)
            nested = NestedOracle(poly.to_field(DiskDomain(R)))
            for depth, words in NESTED_WORDS.items():
                for word in words:
                    terms = dict(np.ndenumerate(poly.coeffs))
                    for op in reversed(word):
                        terms = transform_monomials(terms, R, conjugate=op == "Tbar")
                    for ratio in NESTED_RATIOS:
                        key = (depth, R, size, ratio)
                        targets = ratio * R * np.exp(1j * np.array(NESTED_ANGLES))
                        want = sum(c * targets ** p * np.conj(targets) ** q
                                   for (p, q), c in terms.items())
                        try:
                            got = nested.evaluate(targets, word)
                        except DepthCap:   # the same for every word, seed and |z| of the cell
                            worst[key] = None
                            continue
                        err = np.max(np.abs(got - want) / np.maximum(R ** depth, np.abs(want)))
                        worst[key] = max(worst.get(key, 0.0), float(err))
    return worst


def crosscheck_cost(config, seed: int, repeats: int = 3) -> tuple[int, float]:
    """Points `_PolarGridField` evaluates and the median milliseconds for the
    crosscheck workload's six nested evaluations on a seeded (4,4) field."""
    field = scaled_field(4, 1.0, seed).to_field(DiskDomain(1.0))
    times = []
    with nested_counts(*config) as points:
        for _ in range(repeats):
            points.clear()
            start = time.perf_counter()
            nested = NestedOracle(field)
            for word, z in itertools.product(CROSSCHECK_WORDS, CROSSCHECK_TARGETS):
                nested.evaluate(z, word)
            times.append(time.perf_counter() - start)
        return sum(points), 1e3 * float(np.median(times))


def _config(text: str):
    """`12:12x16:16x32` -> (12, (12, 16), (16, 32))."""
    radii, base, top = text.split(":")
    return int(radii), *(tuple(int(n) for n in part.split("x")) for part in (base, top))


def _label(config) -> str:
    radii, base, top = config
    return f"{radii}:{base[0]}x{base[1]}:{top[0]}x{top[1]}"


def nested_table(candidates) -> None:
    current = (oracle.NESTED_GRID_SHAPE[0], oracle.NESTED_RESOLUTION,
               oracle.NESTED_TOP_RESOLUTION)
    seeds = ",".join(map(str, NESTED_SEEDS))
    print(f"\nNestedOracle counts (radii:base:top), seeds {seeds}, cells above {ROUND_OFF:g} "
          "or refused")
    print(f"  {'counts':>16}  {'worst':>9}  {'above':>5}  {'points':>7}  {'ms':>6}")
    rows = []
    for config in dict.fromkeys([current, *candidates]):
        errors = nested_cells(config)
        measured = [err for err in errors.values() if err is not None]
        above = len(errors) - sum(err <= ROUND_OFF for err in measured)   # refused included
        points, ms = crosscheck_cost(config, NESTED_SEEDS[0])
        rows.append((points, config, above))
        print(f"  {_label(config):>16}  {max(measured, default=0.0):9.2e}  {above:5d}  "
              f"{points:7d}  {ms:6.1f}")
    fit = [row for row in rows if row[2] == 0]
    if fit:
        points, config, _ = min(fit)
        print(f"  fewest points with every cell <= {ROUND_OFF:g}: {_label(config)} "
              f"({points} points); the oracle's: {_label(current)}")
    else:
        print(f"  no candidate has every cell <= {ROUND_OFF:g}; the oracle's: {_label(current)}")

    print(f"\ncells at the oracle's {_label(current)}; the {EDGE_SIZE}x{EDGE_SIZE} field "
          f"is the envelope's edge")
    print(f"  {'depth':>5}  {'R':>4}  {'field':>5}  {'|z|/R':>5}  {'error':>9}")
    cells = nested_cells(current, NESTED_SIZES + (EDGE_SIZE,))
    for (depth, R, size, ratio), err in sorted(cells.items()):
        value = "  refused" if err is None else f"{err:9.2e}{'  above' if err > ROUND_OFF else ''}"
        print(f"  {depth:5d}  {R:4g}  {size:2d}x{size:<2d}  {ratio:5g}  {value}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--R", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the tables; --nested takes NESTED_SEEDS")
    parser.add_argument("--nested", nargs="?", const="all", default=None,
                        help="size NestedOracle's counts: `all` candidates, or a comma "
                             "list of radii:base:top such as 12:12x16:16x32")
    args = parser.parse_args(argv)
    if args.nested is not None:
        candidates = (NESTED_CANDIDATES if args.nested == "all"
                      else [_config(text) for text in args.nested.split(",")])
        nested_table(candidates)
        return

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
