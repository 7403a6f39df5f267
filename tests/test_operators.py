import cmath
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pompeiu
from pompeiu.errors import DimensionCap, DomainError, NonFiniteSample, PompeiuError
from pompeiu.geometry import DiskDomain, MultiIndex, PolydiscDomain, wirtinger_split
from pompeiu.operators import (ScalarField, apply_2T, apply_2Tbar, apply_conjugate_dual,
                               apply_mixed, apply_polydisc, apply_S, apply_Sbar,
                               apply_T, apply_T_power, apply_Tbar, apply_Tbar_power,
                               constant_field, evaluate_on_grid, field_from_expression,
                               transform, worker_count)
from pompeiu.kernels import TWO_PI_I
from pompeiu.oracle import PolynomialField, exact_transform
from pompeiu.quadrature import build_contour_rule, integrate
from pompeiu.solver import HolomorphicPolynomial, SolutionSpec, solve_pde

DISK = DiskDomain(1.0)
RES = (64, 128)


def zbar_power_field(l):
    return ScalarField(lambda w: np.conj(np.asarray(w, dtype=complex)) ** l,
                       DISK, f"zbar^{l}")


def interior_points(seed, count, radius):
    rng = np.random.default_rng(seed)
    return [complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
            for _ in range(count)]


def test_T_of_zero_field():
    zero = constant_field(0.0, DISK)
    assert apply_T(zero, 0.3 + 0.1j, RES) == 0


@pytest.mark.parametrize("l", range(6))
def test_T_monomial_golden(l):
    # T(zbar^l)(z) = zbar^(l+1)/(l+1) on the unit disk
    f = zbar_power_field(l)
    for z in interior_points(5, 4, 0.8):
        want = np.conj(z) ** (l + 1) / (l + 1)
        got = apply_T(f, z, RES)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_T_general_polynomial_matches_exact_transform():
    rng = np.random.default_rng(9)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    exact = exact_transform(poly, DISK.radius)
    f = poly.to_field(DISK)
    for z in interior_points(2, 4, 0.7):
        got = apply_T(f, z, RES)
        want = complex(exact(np.asarray(z)))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_Tbar_general_polynomial_matches_exact_transform():
    rng = np.random.default_rng(10)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    exact = exact_transform(poly, DISK.radius, conjugate=True)
    f = poly.to_field(DISK)
    for z in interior_points(3, 3, 0.7):
        assert apply_Tbar(f, z, RES) == pytest.approx(complex(exact(np.asarray(z))),
                                                      rel=1e-8, abs=1e-9)


def test_Tbar_is_conjugate_of_T_on_conjugated_field():
    rng = np.random.default_rng(12)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    for z in interior_points(4, 3, 0.7):
        direct = apply_Tbar(f, z, RES)
        via_conj = np.conj(apply_T(f.conjugate(), z, RES))
        assert direct == pytest.approx(via_conj, rel=1e-10, abs=1e-12)


def test_S_of_constant_is_constant():
    one = constant_field(1.0, DISK)
    for z in interior_points(6, 3, 0.6):
        assert apply_S(one, z) == pytest.approx(1.0, abs=1e-12)


def test_S_of_zbar_vanishes_inside():
    # on the boundary zbar = R^2/z, and the residues at 0 and z cancel
    f = zbar_power_field(1)
    assert apply_S(f, 0.4 + 0.2j) == pytest.approx(0.0, abs=1e-12)


def test_Sbar_of_constant():
    one = constant_field(1.0, DISK)
    assert apply_Sbar(one, 0.3 - 0.2j) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_S_inside_its_envelope_is_the_plain_trapezoid_sum(R):
    # the envelope check only refuses targets: accepted values are unchanged
    f = field_from_expression("1+z*zbar", DiskDomain(R))
    rule = build_contour_rule(R, 256)
    for z in [q * R * cmath.exp(1j * t) for q in (0.6, 0.7) for t in (0.0, 1.1, 4.0)]:
        want = complex(integrate(rule, lambda w: f(w) / (w - z)) / TWO_PI_I)
        assert apply_S(f, z) == want


@pytest.mark.parametrize("count", (8, 256))
def test_S_refuses_targets_outside_its_aliasing_envelope(count):
    f = field_from_expression("1+z*zbar", DiskDomain(2.5))
    edge = 2.5 * 1e-10 ** (1.0 / count)   # where the aliasing factor (|z|/R)^count is 1e-10
    assert cmath.isfinite(apply_S(f, 0.999 * edge, count))
    for op in (apply_S, apply_Sbar):
        with pytest.raises(DomainError):
            op(f, 1.001 * edge * 1j, count)
    # at 256 nodes the edge is 0.914 R; at 0.999 R the trapezoid sum reads 8.85 for the exact 2
    with pytest.raises(DomainError):
        apply_S(field_from_expression("1+z*zbar", DISK), 0.999)


def test_2T_of_zbar_vanishes():
    # d(T zbar) = d(zbar^2/2) = 0 and the regularized kernel computes it
    f = zbar_power_field(1)
    for z in interior_points(7, 3, 0.6):
        assert abs(apply_2T(f, z, RES)) < 1e-9


def test_2T_matches_fd_derivative_of_T():
    rng = np.random.default_rng(13)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    stencil = wirtinger_split(1, 0)
    for z in interior_points(8, 2, 0.6):
        fd = stencil.apply_richardson(lambda w: apply_T(f, w, RES), z, 1e-3 * DISK.radius)
        assert apply_2T(f, z, RES) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_2T_non_finite_target_value_raises():
    # f(z) itself overflows at the target, before any quadrature sample
    f = field_from_expression("z^3", DiskDomain(1e150))
    with pytest.raises(NonFiniteSample, match="at the target"):
        apply_2T(f, 1e120)


def test_2Tbar_mirrors_2T():
    rng = np.random.default_rng(14)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    z = 0.25 - 0.15j
    direct = apply_2Tbar(f, z, RES)
    via_conj = np.conj(apply_2T(f.conjugate(), z, RES))
    assert direct == pytest.approx(via_conj, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# Interior identity and inversion
# ---------------------------------------------------------------------------

def test_interior_identity_T_dbar_plus_S():
    # T(dbar f) + S(f) = f at interior points, with exact symbolic dbar f
    rng = np.random.default_rng(15)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    f = poly.to_field(DISK)
    dbar_f = poly.wirtinger(0, 1).to_field(DISK)
    for z in interior_points(9, 5, 0.7):
        got = apply_T(dbar_f, z, RES) + apply_S(f, z)
        assert abs(got - complex(poly(np.asarray(z)))) <= 1e-8


def test_inversion_dbar_of_T_recovers_field():
    rng = np.random.default_rng(16)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    stencil = wirtinger_split(0, 1)
    for z in interior_points(10, 4, 0.7):
        fd = stencil.apply_richardson(lambda w: apply_T(f, w, RES), z, 1e-3)
        want = complex(poly(np.asarray(z)))
        assert abs(fd - want) <= 1e-3 * max(1.0, abs(want))


def test_dual_interior_identity_Tbar_d_plus_Sbar():
    # the mirrored identity: Tbar(d f) + Sbar(f) = f at interior points
    rng = np.random.default_rng(24)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    f = poly.to_field(DISK)
    d_f = poly.wirtinger(1, 0).to_field(DISK)
    for z in interior_points(14, 4, 0.7):
        got = apply_Tbar(d_f, z, RES) + apply_Sbar(f, z)
        assert abs(got - complex(poly(np.asarray(z)))) <= 1e-8


# ---------------------------------------------------------------------------
# Powers and mixed composition
# ---------------------------------------------------------------------------

def test_power_one_equals_single():
    f = zbar_power_field(2)
    z = 0.2 + 0.3j
    assert apply_T_power(f, z, 1, RES) == apply_T(f, z, RES)
    assert apply_Tbar_power(f, z, 1, RES) == apply_Tbar(f, z, RES)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_transform_index_zero_is_a_pure_power(k):
    # table entry (k, 0) is T^k and (0, k) is Tbar^k: the exact transform and
    # its conjugate, each iterated k times
    rng = np.random.default_rng(40 + k)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    exact_T = exact_Tbar = poly
    for _ in range(k):
        exact_T = exact_transform(exact_T, DISK.radius)
        exact_Tbar = exact_transform(exact_Tbar, DISK.radius, conjugate=True)
    for z in interior_points(30 + k, 3, 0.7):
        assert transform(f, z, k, 0, RES) == pytest.approx(complex(exact_T(np.asarray(z))),
                                                           rel=1e-7, abs=1e-8)
        assert transform(f, z, 0, k, RES) == pytest.approx(complex(exact_Tbar(np.asarray(z))),
                                                           rel=1e-7, abs=1e-8)


@pytest.mark.parametrize("mu, nu", [(0, 0), (-1, 0), (0, -2), (-1, 2), (2, -1)])
def test_transform_rejects_identity_and_negative_orders(mu, nu):
    with pytest.raises(DomainError):
        transform(constant_field(1.0, DISK), 0.2, mu, nu, RES)


def test_T_squared_of_one():
    # T(1) = zbar, T(zbar) = zbar^2/2: zero at 0 and 0.125 at z=0.5
    one = constant_field(1.0, DISK)
    assert abs(apply_T_power(one, 0, 2, RES)) < 1e-10
    assert apply_T_power(one, 0.5, 2, RES) == pytest.approx(0.125, abs=1e-9)


def test_T_power_matches_iterated_exact_transform():
    rng = np.random.default_rng(17)
    poly = PolynomialField(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f = poly.to_field(DISK)
    exact3 = exact_transform(exact_transform(exact_transform(
        poly, DISK.radius), DISK.radius), DISK.radius)
    for z in interior_points(11, 3, 0.7):
        got = apply_T_power(f, z, 3, RES)
        assert got == pytest.approx(complex(exact3(np.asarray(z))), rel=1e-7, abs=1e-8)


def test_Tbar_power_is_conjugate_of_T_power():
    rng = np.random.default_rng(25)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    for z in interior_points(15, 2, 0.7):
        for k in (2, 3):
            direct = apply_Tbar_power(f, z, k, RES)
            via_conj = np.conj(apply_T_power(f.conjugate(), z, k, RES))
            assert direct == pytest.approx(via_conj, rel=1e-9, abs=1e-11)


def test_mixed_of_zero_field():
    zero = constant_field(0.0, DISK)
    assert apply_mixed(zero, 0.1 + 0.1j, 2, 2, RES) == 0


def test_mixed_11_of_one_at_origin():
    # radial oracle: -(1/pi) * int log(1/|w|^2) dA = -4 * int_0^1 -r log r dr = -1
    one = constant_field(1.0, DISK)
    assert apply_mixed(one, 0, 1, 1, RES) == pytest.approx(-1.0, abs=1e-7)


def test_mixed_matches_exact_transform_composition():
    # T Tbar f via closed form vs two exact polynomial transforms
    rng = np.random.default_rng(18)
    poly = PolynomialField(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f = poly.to_field(DISK)
    exact = exact_transform(exact_transform(poly, DISK.radius, conjugate=True), DISK.radius)
    for z in interior_points(12, 3, 0.7):
        got = apply_mixed(f, z, 1, 1, RES)
        want = complex(exact(np.asarray(z)))
        assert got == pytest.approx(want, rel=1e-7, abs=1e-8)


def test_conjugate_dual_of_real_field():
    # real-valued field: coefficients satisfy c[q,p] = conj(c[p,q])
    poly = PolynomialField(np.array([[1.0, 0.5], [0.5, 0.25]], dtype=complex))
    f = poly.to_field(DISK)
    z = 0.2 - 0.3j
    dual = apply_conjugate_dual(f, z, 2, 1, RES)
    assert dual == pytest.approx(np.conj(apply_mixed(f, z, 2, 1, RES)), abs=1e-10)


def test_conjugate_dual_matches_exact_transforms():
    # Tbar^2 T^1 f via the conjugation identity vs exact polynomial calculus
    rng = np.random.default_rng(20)
    poly = PolynomialField(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f = poly.to_field(DISK)
    exact = exact_transform(exact_transform(exact_transform(
        poly, DISK.radius), DISK.radius, conjugate=True), DISK.radius, conjugate=True)
    for z in interior_points(13, 3, 0.7):
        got = apply_conjugate_dual(f, z, 2, 1, RES)
        assert got == pytest.approx(complex(exact(np.asarray(z))), rel=1e-6, abs=1e-7)


# ---------------------------------------------------------------------------
# Polydisc
# ---------------------------------------------------------------------------

def test_polydisc_n1_equals_mixed():
    p1 = PolydiscDomain(1, 1.0)
    f1 = field_from_expression("z1*z1bar+1", p1)
    fd = field_from_expression("z*zbar+1", DISK)
    z = 0.3 + 0.2j
    got = apply_polydisc(f1, (z,), MultiIndex((2,)), MultiIndex((1,)), (32, 64))
    want = apply_mixed(fd, z, 2, 1, (32, 64))
    assert got == pytest.approx(want, rel=1e-12)


def test_polydisc_separable_product():
    p2 = PolydiscDomain(2, 1.0)
    f = field_from_expression("z1*z2bar", p2)
    g1 = field_from_expression("z", DISK)
    g2 = field_from_expression("zbar", DISK)
    z = (0.2 + 0.1j, -0.3 + 0.25j)
    got = apply_polydisc(f, z, MultiIndex((1, 2)), MultiIndex((1, 1)), (24, 48))
    want = (apply_mixed(g1, z[0], 1, 1, (24, 48))
            * apply_mixed(g2, z[1], 2, 1, (24, 48)))
    assert got == pytest.approx(want, rel=1e-3, abs=1e-6)


def test_polydisc_constant_at_origin():
    # square of the 1-D value  T Tbar (1)(0) = -1
    p2 = PolydiscDomain(2, 1.0)
    one = constant_field(1.0, p2)
    got = apply_polydisc(one, (0, 0), MultiIndex((1, 1)), MultiIndex((1, 1)), (24, 48))
    assert got == pytest.approx(1.0, rel=1e-5)


def test_polydisc_three_factors_streams():
    # n = 3 streams the first factor; check against per-factor products
    p3 = PolydiscDomain(3, 1.0)
    f3 = field_from_expression("z1*z2bar*z3", p3)
    parts = [field_from_expression(t, DISK) for t in ("z", "zbar", "z")]
    z = (0.2 + 0.1j, -0.15 + 0.2j, 0.1 - 0.25j)
    got = apply_polydisc(f3, z, MultiIndex((1, 1, 1)), MultiIndex((1, 1, 1)), (8, 16))
    want = np.prod([apply_mixed(g, w, 1, 1, (8, 16)) for g, w in zip(parts, z)])
    assert got == pytest.approx(want, rel=1e-10)
    one = constant_field(1.0, p3)
    got1 = apply_polydisc(one, (0, 0, 0), MultiIndex((1, 1, 1)), MultiIndex((1, 1, 1)), (8, 16))
    assert got1 == pytest.approx(-1.0, rel=1e-2)


def test_polydisc_dimension_cap():
    p4 = PolydiscDomain(4, 1.0)
    one = constant_field(1.0, p4)
    with pytest.raises(DimensionCap):
        apply_polydisc(one, (0, 0, 0, 0), MultiIndex((1, 1, 1, 1)), MultiIndex((1, 1, 1, 1)))


def test_polydisc_multi_index_validation():
    p2 = PolydiscDomain(2, 1.0)
    one = constant_field(1.0, p2)
    with pytest.raises(DomainError):
        apply_polydisc(one, (0, 0), MultiIndex((0, 1)), MultiIndex((1, 1)))
    with pytest.raises(DomainError):
        apply_polydisc(one, (0, 0), MultiIndex((1,)), MultiIndex((1, 1)))


def test_polydisc_callable_may_ignore_a_factor():
    # the other factors reach f as broadcastable axes, so a callable that
    # ignores one returns a smaller shape; the value must not change
    p3 = PolydiscDomain(3, 1.0)
    ones = MultiIndex((1, 1, 1))
    z = (0.2 + 0.1j, -0.15 + 0.2j, 0.1 - 0.25j)
    ignoring = ScalarField(lambda z1, z2, z3: z1 * z3, p3)
    full = ScalarField(lambda z1, z2, z3: z1 * z3 + 0 * z2, p3)
    assert (apply_polydisc(ignoring, z, ones, ones, (8, 16))
            == apply_polydisc(full, z, ones, ones, (8, 16)))


def test_polydisc_non_finite_value_raises():
    p2 = PolydiscDomain(2, 1.0)
    nan = ScalarField(lambda z1, z2: np.where(np.abs(z1 * z2) < 0.5, z1 * z2, np.nan), p2)
    with pytest.raises(NonFiniteSample):
        apply_polydisc(nan, (0.1, 0.2), MultiIndex((1, 1)), MultiIndex((1, 1)), (8, 16))


def test_disk_operators_reject_a_shifted_disk():
    # the closed-form kernels assume the disk is centred at 0: a DiskDomain has
    # no centre, and a field on any other domain is refused
    with pytest.raises(TypeError):
        DiskDomain(1.0, 0.5 + 0.2j)
    one = constant_field(1.0, PolydiscDomain(1, 1.0))
    zero = HolomorphicPolynomial.zero()
    solution = solve_pde(SolutionSpec(1, 1, one, (zero,), (zero,)))
    for evaluate in (lambda: transform(one, 0.1, 1, 1), lambda: apply_T(one, 0.1),
                     lambda: apply_2T(one, 0.1), lambda: solution(0.1)):
        with pytest.raises(DomainError, match="DiskDomain"):
            evaluate()


def test_disk_values_retain_no_rules():
    # each target's rule is built for it and dropped when the value is done
    f = field_from_expression("1+z*zbar", DISK)
    zero = HolomorphicPolynomial.zero()
    u = solve_pde(SolutionSpec(1, 1, f, (zero,), (zero,)))
    evaluators = (lambda z: transform(f, z, 2, 2), lambda z: apply_2T(f, z), u)
    for evaluate in evaluators:
        evaluate(0.05)
    tracemalloc.start()
    try:
        for k in range(20):
            for evaluate in evaluators:
                evaluate(0.5 * cmath.exp(2j * cmath.pi * k / 20))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts Linux faults")
def test_library_transforms_reuse_freed_pages():
    # a fresh interpreter that never enters the CLI: importing the package is
    # enough for the 128 KiB rule arrays to come from reused heap pages
    code = ("import cmath, resource\n"
            "from pompeiu import DiskDomain, field_from_expression, transform\n"
            "f = field_from_expression('1+z*zbar', DiskDomain(1.0))\n"
            "transform(f, 0.05, 2, 2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for k in range(20):\n"
            "    transform(f, 0.5 * cmath.exp(2j * cmath.pi * k / 20), 2, 2)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pompeiu.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


# ---------------------------------------------------------------------------
# Fields and grids
# ---------------------------------------------------------------------------

def test_grid_evaluation_deterministic_and_thread_safe(monkeypatch):
    f = field_from_expression("z*zbar", DISK)
    func = lambda z: complex(f(np.asarray(z)))
    serial = evaluate_on_grid(func, DISK, n=9)
    monkeypatch.setenv("PMP_THREADS", "4")
    threaded = evaluate_on_grid(func, DISK, n=9)
    assert np.array_equal(serial.values, threaded.values)
    assert serial.to_csv_text() == threaded.to_csv_text()


def test_thread_count_default_and_value(monkeypatch):
    monkeypatch.delenv("PMP_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("PMP_THREADS", "3")
    assert worker_count() == 3


def test_grid_csv_shape():
    grid = evaluate_on_grid(lambda z: z, DISK, n=3)
    lines = grid.to_csv_text().strip().split("\n")
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 9
    # all grid points lie inside the closed disk
    assert np.all(np.abs(grid.xs[None, :] + 1j * grid.ys[:, None]) <= DISK.radius)


@settings(max_examples=30)
@given(st.sampled_from([(1, 0), (1, 1), (2, 2)]), st.sampled_from([1.0, 2.5]),
       st.floats(0.99, 1.0), st.floats(0.0, 2 * np.pi))
def test_transform_next_to_the_boundary_is_finite_or_raises(order, R, q, angle):
    # targets at |z| in [0.99 R, R]; one a rounding step outside raises DomainError
    f = field_from_expression("1+z*zbar-2i*z^2", DiskDomain(R))
    try:
        value = transform(f, q * R * cmath.exp(1j * angle), *order)
    except PompeiuError:
        return
    assert cmath.isfinite(value)


@settings(max_examples=12)
@given(st.sampled_from([1.0, 2.5]), st.floats(-13.0, -9.0), st.floats(0.0, 2 * np.pi))
def test_transforms_within_the_exclusion_radius_of_the_boundary(R, exponent, angle):
    # |z| = R(1 - d), d log-uniform over [1e-13, 1e-9]: the rule drops the
    # nodes the kernels refuse, so every transform returns and T stays exact;
    # the field 1 + |z/R|^2 - 2i (z/R)^2 keeps |Tf| <= 4 R on every disk
    poly = PolynomialField.from_dict({(0, 0): 1, (1, 1): R**-2, (2, 0): -2j * R**-2})
    f = poly.to_field(DiskDomain(R))
    z = R * (1 - 10.0**exponent) * cmath.exp(1j * angle)
    for order in ((1, 0), (2, 0), (1, 1), (2, 2)):
        assert cmath.isfinite(transform(f, z, *order))
    want = complex(exact_transform(poly, R)(np.asarray(z)))
    assert abs(transform(f, z, 1, 0) - want) <= 1e-13 * R
