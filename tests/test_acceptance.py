"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here; "relative" always means against
max(1, |value|) so near-zero samples cannot inflate a ratio.
"""

import time

import numpy as np

from pompeiu.geometry import DiskDomain, MultiIndex, PolydiscDomain, wirtinger_split
from pompeiu.kernels import c2, c3, c3_special_cases
from pompeiu.operators import (ScalarField, apply_conjugate_dual, apply_mixed,
                               apply_polydisc, apply_S, apply_T, apply_T_power,
                               constant_field, field_from_expression)
from pompeiu.oracle import (NestedOracle, PolynomialField, check_norm_bound,
                            lemma_lhs_quadrature)
from pompeiu.solver import SolutionSpec, fd_residual, solve_pde

DISK = DiskDomain(1.0)
ZERO = constant_field(0, DISK)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})")
    return ok


def rel(diff: float, value: float) -> float:
    return diff / max(1.0, abs(value))


def disk_points(rng, count, radius):
    return [complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
            for _ in range(count)]


def separated_pairs(rng, count, radius=0.85, min_gap=0.05):
    pairs = []
    while len(pairs) < count:
        a, b = disk_points(rng, 2, radius)
        if abs(a - b) >= min_gap:
            pairs.append((a, b))
    return pairs


def random_poly(rng, size):
    return PolynomialField(rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for a, b in separated_pairs(rng, 20):
        for mu in (1, 2, 3):
            for nu in (1, 2, 3):
                lhs = lemma_lhs_quadrature("lem6", a, b, (mu, nu), 1.0, (64, 128))
                rhs = 2j * np.pi * c3(a, b, mu, nu, 1.0)
                worst = max(worst, rel(abs(lhs - rhs), abs(lhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 120.0
    assert report(1, "closed-form kernel vs quadrature oracle", ok,
                  f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_contour_lemma():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for a, b in separated_pairs(rng, 4, radius=0.8):
        for l in (1, 2, 3, 4):
            for nu in (1, 2, 3, 4):
                lhs = lemma_lhs_quadrature("lem5", a, b, (l, nu), 1.0, contour_count=256)
                rhs = 2j * np.pi * c2(a, b, l, nu, 1.0)
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    assert report(2, "boundary residue sum vs contour quadrature", ok,
                  f"worst abs err {worst:.2e}")


def test_criterion_3_exact_golden_transforms():
    rng = np.random.default_rng(1003)
    pts = disk_points(rng, 10, 0.8)
    worst = 0.0
    for l in range(6):
        f = ScalarField(
            lambda w, l=l: np.conj(np.asarray(w, dtype=complex)) ** l, DISK)
        for z in pts:
            want = np.conj(z) ** (l + 1) / (l + 1)
            got = apply_T(f, z, (64, 128))
            worst = max(worst, rel(abs(got - want), abs(want)))
    ok = worst <= 1e-8
    assert report(3, "monomial transform goldens", ok, f"worst rel err {worst:.2e}")


def test_criterion_4_closed_form_vs_nested():
    rng = np.random.default_rng(1004)
    targets = [0.18 + 0.22j, -0.31 + 0.12j]
    worst = 0.0
    for _ in range(2):
        f = random_poly(rng, (4, 4)).to_field(DISK)
        oracle = NestedOracle(f)
        for k in (1, 2, 3):
            for z in targets:
                closed = apply_T_power(f, z, k, (64, 128))
                nested = oracle.evaluate(z, ["T"] * k)
                worst = max(worst, rel(abs(closed - nested), abs(closed)))
        for mu, nu in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
            for z in targets:
                closed = apply_mixed(f, z, mu, nu, (64, 128))
                nested = oracle.evaluate(z, ["T"] * mu + ["Tbar"] * nu)
                worst = max(worst, rel(abs(closed - nested), abs(closed)))
    ok = worst <= 1e-5
    assert report(4, "single-integral forms vs nested composition", ok,
                  f"worst rel err {worst:.2e}")


def test_criterion_5_inversion():
    rng = np.random.default_rng(1005)
    stencil = wirtinger_split(0, 1)
    worst = 0.0
    for _ in range(2):
        poly = random_poly(rng, (3, 3))
        f = poly.to_field(DISK)
        for z in disk_points(rng, 4, 0.7):
            fd = stencil.apply_richardson(lambda w: apply_T(f, w, (64, 128)), z, 1e-3)
            want = complex(poly(np.asarray(z)))
            worst = max(worst, rel(abs(fd - want), abs(want)))
    ok = worst <= 1e-3
    assert report(5, "dbar of transform recovers the field", ok,
                  f"worst rel err {worst:.2e}")


def test_criterion_6_interior_identity():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(2):
        poly = random_poly(rng, (4, 4))
        f = poly.to_field(DISK)
        dbar_f = poly.wirtinger(0, 1).to_field(DISK)
        for z in disk_points(rng, 5, 0.7):
            got = apply_T(dbar_f, z, (64, 128)) + apply_S(f, z, 256)
            worst = max(worst, abs(got - complex(poly(np.asarray(z)))))
    ok = worst <= 1e-8
    assert report(6, "interior identity T dbar f + S f = f", ok,
                  f"worst abs err {worst:.2e}")


def test_criterion_7_pde_residuals_and_trend():
    pts = [0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.15j]
    rhs_smooth = field_from_expression("1+z*zbar", DISK)

    # mu = nu = 1 at the working resolution; the log-weighted rule reaches the
    # finite-difference floor (about 1e-9) from (8, 16) on, so the trend is
    # taken on the way down to it (5.7e-6 -> 5.2e-10)
    spec11 = SolutionSpec(1, 1, rhs_smooth, (ZERO,), (ZERO,))
    res11 = {}
    for resolution in ((4, 8), (8, 16), (64, 128)):
        u = solve_pde(spec11, resolution=resolution)
        r = fd_residual(u, 1, 1, rhs_smooth, pts)
        res11[resolution] = max(rel(v, complex(rhs_smooth(np.asarray(z))))
                                for v, z in zip(r, pts))
    ok11 = res11[(64, 128)] <= 1e-2
    trend11 = res11[(8, 16)] <= 0.5 * res11[(4, 8)]

    # mu = nu = 2, including the bilaplacian identity on the (2,2) transform;
    # the floor is about 1e-7 here, so the trend is again taken above it
    # (9.4e-3 -> 3.1e-7)
    spec22 = SolutionSpec(2, 2, rhs_smooth, (ZERO, ZERO), (ZERO, ZERO))
    res22 = {}
    for resolution in ((4, 8), (8, 16), (64, 128)):
        u = solve_pde(spec22, resolution=resolution)
        r = fd_residual(u, 2, 2, rhs_smooth, pts)
        res22[resolution] = max(rel(v, complex(rhs_smooth(np.asarray(z))))
                                for v, z in zip(r, pts))
    ok22 = res22[(64, 128)] <= 5e-2
    trend22 = res22[(8, 16)] <= 0.5 * res22[(4, 8)]

    # Delta^2 (T^2 Tbar^2 A) = 16 A, via FD on the closed-form transform
    rhs16 = constant_field(16.0, DISK)
    u22 = lambda z: apply_mixed(rhs16, z, 2, 2, (64, 128))
    rbi = fd_residual(u22, 2, 2, rhs16, pts)
    okbi = max(r / 16.0 for r in rbi) <= 5e-2

    ok = ok11 and trend11 and ok22 and trend22 and okbi
    assert report(
        7, "solution residuals with resolution trend", ok,
        f"m=2 res {res11[(64, 128)]:.2e} trend x{res11[(4, 8)] / res11[(8, 16)]:.1f}, "
        f"m=4 res {res22[(64, 128)]:.2e} trend x{res22[(4, 8)] / res22[(8, 16)]:.1f}, "
        f"bilaplacian {max(r / 16.0 for r in rbi):.2e}")


def test_criterion_8_polydisc_separability():
    p2 = PolydiscDomain(2, 1.0)
    cases = [
        ("z1*z2bar", "z", "zbar"),
        ("z1*z1bar*z2", "z*zbar", "z"),
    ]
    pts = [(0.2 + 0.1j, -0.3 + 0.25j), (0.35 - 0.2j, 0.15 + 0.3j)]
    orders = [((1, 1), (1, 1)), ((2, 1), (1, 2))]
    worst = 0.0
    for text2, t1, t2 in cases:
        f2 = field_from_expression(text2, p2)
        g1 = field_from_expression(t1, DISK)
        g2 = field_from_expression(t2, DISK)
        for (mu, nu) in orders:
            for z in pts:
                got = apply_polydisc(f2, z, MultiIndex(mu), MultiIndex(nu), (24, 48))
                want = (apply_mixed(g1, z[0], mu[0], nu[0], (24, 48))
                        * apply_mixed(g2, z[1], mu[1], nu[1], (24, 48)))
                worst = max(worst, rel(abs(got - want), abs(want)))
    ok = worst <= 1e-3
    assert report(8, "polydisc tensor operator vs factor products", ok,
                  f"worst rel err {worst:.2e}")


def test_criterion_9_conjugation_symmetry():
    rng = np.random.default_rng(1009)
    # real-valued field: hermitian coefficient matrix
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    herm = (base + np.conj(base.T)) / 2
    f_real = PolynomialField(herm).to_field(DISK)
    f_cplx = random_poly(rng, (3, 3)).to_field(DISK)
    worst = 0.0
    for z in disk_points(rng, 3, 0.7):
        for mu, nu in ((1, 1), (2, 1), (2, 2)):
            direct = apply_conjugate_dual(f_real, z, mu, nu, (32, 64))
            mirrored = np.conj(apply_mixed(f_real, z, mu, nu, (32, 64)))
            worst = max(worst, abs(direct - mirrored))
            direct = apply_conjugate_dual(f_cplx.conjugate(), z, mu, nu, (32, 64))
            mirrored = np.conj(apply_mixed(f_cplx, z, mu, nu, (32, 64)))
            worst = max(worst, abs(direct - mirrored))
    ok = worst <= 1e-10
    assert report(9, "conjugate-dual identity", ok, f"worst abs err {worst:.2e}")


def test_criterion_10_explicit_kernel_table():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for a, b in separated_pairs(rng, 50, min_gap=0.02):
        for (mu, nu), special in c3_special_cases.items():
            want = special(a, b, 1.0)
            got = c3(a, b, mu, nu, 1.0)
            worst = max(worst, rel(abs(got - want), abs(want)))
    ok = worst <= 1e-12
    assert report(10, "explicit low-order kernels vs general formula", ok,
                  f"worst rel err {worst:.2e}")


def test_criterion_11_norm_bound():
    rng = np.random.default_rng(1011)
    rows = [
        (PolynomialField.from_dict({(0, 0): 1.0}), 0.25, 1, 1),
        (PolynomialField.from_dict({(1, 1): 1.0}), 0.5, 1, 1),
        (random_poly(rng, (3, 3)), 0.75, 1, 1),
        (PolynomialField.from_dict({(2, 1): 1.0}), 0.25, 2, 1),
        (random_poly(rng, (3, 3)), 0.5, 1, 2),
        (PolynomialField.from_dict({(1, 2): 1.0}), 0.75, 2, 1),
        (PolynomialField.from_dict({(2, 2): 1.0}), 0.25, 2, 2),
        (random_poly(rng, (3, 3)), 0.5, 2, 2),
        (PolynomialField.from_dict({(3, 1): 1.0}), 0.75, 3, 1),
        (random_poly(rng, (2, 2)), 0.25, 1, 3),
    ]
    all_hold = True
    tightest = np.inf
    for i, (poly, alpha, mu, nu) in enumerate(rows):
        f = poly.to_field(DISK)
        rep = check_norm_bound(f, mu, nu, alpha, sup_points=6, pairs=6, seed=100 + i)
        all_hold = all_hold and rep.holds
        if rep.lhs > 0:
            tightest = min(tightest, rep.rhs / rep.lhs)
    assert report(11, "semi-norm growth bound (one-sided)", all_hold,
                  f"all 10 hold, smallest rhs/lhs margin x{tightest:.3g}")
