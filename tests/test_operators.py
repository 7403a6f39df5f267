import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pompeiu
from pompeiu.errors import (DimensionCap, DomainError, NonFiniteSample, OrderTooLarge,
                            PompeiuError, ResolutionTooLow)
from pompeiu.geometry import DiskDomain, MultiIndex, PolydiscDomain, wirtinger_split
from pompeiu.operators import (ScalarField, apply_2T, apply_2Tbar, apply_conjugate_dual,
                               apply_mixed, apply_polydisc, apply_S, apply_Sbar,
                               apply_T, apply_T_power, apply_Tbar, apply_Tbar_power,
                               constant_field, evaluate_on_grid, field_from_expression,
                               GridField, transform, worker_count)
from pompeiu.kernels import TWO_PI_I
from pompeiu.oracle import (PolynomialField, exact_transform, polydisc_tensor,
                            transform_monomials)
from pompeiu.cli import run_command
from pompeiu.quadrature import build_area_rule, build_contour_rule, integrate
from pompeiu.solver import SolutionSpec, solve_biharmonic, solve_pde

DISK = DiskDomain(1.0)
RES = (64, 128)


def zbar_power_field(l):
    return ScalarField(lambda w: np.conj(np.asarray(w, dtype=complex)) ** l, DISK)


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


@pytest.mark.parametrize("domain, text, zs", [
    (DiskDomain(1e150), "z^3 + zbar", (1e120,)),
    (DiskDomain(1e150), "z^3 + zbar", (1e120 + 1e119j,)),
    (DISK, "z^2*zbar - 3", (0.3 - 0.2j,)),
    (PolydiscDomain(2, 1e150), "z1*z2bar^2", (1e100, 1e120j))])
def test_expression_field_takes_a_scalar_as_its_0d_array(domain, text, zs):
    # Python's complex power raises OverflowError where numpy's gives inf
    f = field_from_expression(text, domain)
    with np.errstate(all="ignore"):
        got, want = f(*zs), f(*map(np.asarray, zs))
    np.testing.assert_array_equal(got, want)


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
    # n = 3 against per-factor products
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
    # the expression grammar names z1..z9
    one = constant_field(1.0, PolydiscDomain(10, 1.0))
    ones = MultiIndex((1,) * 10)
    with pytest.raises(DimensionCap):
        apply_polydisc(one, (0,) * 10, ones, ones)


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
    assert (polydisc_tensor(ignoring, z, ones, ones, (8, 16))
            == polydisc_tensor(full, z, ones, ones, (8, 16)))


def test_polydisc_non_finite_value_raises():
    p2 = PolydiscDomain(2, 1.0)
    nan = ScalarField(lambda z1, z2: np.where(np.abs(z1 * z2) < 0.5, z1 * z2, np.nan), p2)
    with pytest.raises(NonFiniteSample):
        polydisc_tensor(nan, (0.1, 0.2), MultiIndex((1, 1)), MultiIndex((1, 1)), (8, 16))


#: n -> (fields of degree <= 4 per factor, (mu, nu) pairs, resolution, targets)
SEPARABLE_CASES = {
    1: (["1", "z1^4-2i*z1bar^3*z1+0.5", "(z1-z1bar)^4", "(0.3-0.7i)*z1bar^2"],
        [((1,), (1,)), ((2,), (1,)), ((2,), (2,))], (24, 48), [(0.31 - 0.42j,), (-0.9 + 0.1j,)]),
    2: (["z1*z2bar", "(z1-z2)^4", "3-2i*z1bar^2*z2^2+z1^4*z2bar^4", "(z1+z2bar)^2*(z1bar-z2)^2"],
        [((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (2, 2))], (24, 48),
        [(0.2 + 0.1j, -0.3 + 0.25j), (0.6j, -0.5)]),
    3: (["z1*z2bar*z3+1", "(z1+z2bar+z3)^2*z1bar^2", "(z1-z2)^4*z3bar"],
        [((1, 1, 1), (1, 1, 1)), ((2, 1, 2), (1, 2, 2))], (8, 16),
        [(0.2 + 0.1j, -0.15 + 0.2j, 0.1 - 0.25j)]),
}


@pytest.mark.parametrize("n", SEPARABLE_CASES)
def test_polydisc_moment_sums_match_the_tensor_grid(n):
    # the same rules and kernels summed in another order: only round-off moves
    texts, orders, res, targets = SEPARABLE_CASES[n]
    domain = PolydiscDomain(n, 1.0)
    for text in texts:
        f = field_from_expression(text, domain)
        for mu, nu in orders:
            for z in targets:
                want = polydisc_tensor(f, z, MultiIndex(mu), MultiIndex(nu), res)
                got = apply_polydisc(f, z, MultiIndex(mu), MultiIndex(nu), res)
                assert abs(got - want) <= 1e-12 * abs(want), (text, mu, nu, z)


def test_polydisc_up_to_nine_factors_matches_exact_factor_products():
    # prod_j g_j(z_j) is carried to prod_j T^mu_j Tbar^nu_j g_j (z_j), each
    # factor by exact polynomial calculus (no kernels); criterion 8's 1e-3
    rng = np.random.default_rng(0)
    for n in range(4, 10):
        mu, nu = (tuple(int(k) for k in rng.integers(1, 3, n)) for _ in range(2))
        z = interior_points(n, n, 0.8)
        texts, want = [], 1.0
        for j in range(n):
            a, b, c = np.round(rng.standard_normal(3) + 1j * rng.standard_normal(3), 3)
            g = PolynomialField.from_dict({(0, 0): a, (1, 0): b, (0, 1): c})
            for _ in range(nu[j]):
                g = exact_transform(g, 1.0, conjugate=True)
            for _ in range(mu[j]):
                g = exact_transform(g, 1.0)
            want *= complex(g(np.asarray(z[j])))
            texts.append(f"(({a.real}{a.imag:+}i)+({b.real}{b.imag:+}i)*z{j + 1}"
                         f"+({c.real}{c.imag:+}i)*zbar{j + 1})")
        f = field_from_expression("*".join(texts), PolydiscDomain(n, 1.0))
        got = apply_polydisc(f, z, MultiIndex(mu), MultiIndex(nu))
        assert abs(got - want) <= 1e-3 * abs(want), n


def exact_factor_values(coefficients, radius, mu, nu, points):
    """T^mu Tbar^nu of sum c w^p conj(w)^q at each point: `transform_monomials`
    composed in Fraction (real and imaginary parts apart), summed at 60 digits."""
    parts = [{key: Fraction(getattr(c, part)) for key, c in coefficients.items()}
             for part in ("real", "imag")]
    for conjugate, count in ((True, nu), (False, mu)):
        for _ in range(count):
            parts = [transform_monomials(part, Fraction(radius), conjugate) for part in parts]
    with mpmath.workdps(60):
        ws = [mpmath.mpc(w.real, w.imag) for w in points]
        return [complex(sum(unit * mpmath.mpf(c.numerator) / c.denominator * w ** p
                            * mpmath.conj(w) ** q
                            for part, unit in zip(parts, (1, 1j)) for (p, q), c in part.items()))
                for w in ws]


def test_polydisc_default_counts_match_exact_factor_products_to_round_off():
    # two degree-1 factors at orders (mu, nu) and (nu, mu) up to 20, on the core;
    # each factor's error is measured against its scale, its largest |exact value|
    # along the target's ray (0 to R): at (10, 20) the value at 0.99 R is 1e-13
    # of it, and no per-value relative promise holds there
    rng = np.random.default_rng(0)
    for radius, ratio, (mu, nu) in product((1.0, 2.5), (0.3, 0.8, 0.99),
                                           product((1, 9, 20), repeat=2)):
        texts, z, want, scale = [], [], 1, 1
        for j, (m, k) in enumerate(((mu, nu), (nu, mu))):
            a, b, c = np.round(rng.standard_normal(3) + 1j * rng.standard_normal(3), 3)
            ray = radius * np.exp(2j * np.pi * rng.random()) * np.array([ratio, 0, 0.3, 0.8, 1])
            values = exact_factor_values({(0, 0): a, (1, 0): b, (0, 1): c}, radius, m, k, ray)
            z.append(complex(ray[0]))
            want, scale = want * values[0], scale * max(map(abs, values))
            texts.append(f"(({a.real}{a.imag:+}i)+({b.real}{b.imag:+}i)*z{j + 1}"
                         f"+({c.real}{c.imag:+}i)*zbar{j + 1})")
        f = field_from_expression("*".join(texts), PolydiscDomain(2, radius))
        got = apply_polydisc(f, z, MultiIndex((mu, nu)), MultiIndex((nu, mu)))
        assert abs(got - want) <= 1e-12 * scale, (radius, ratio, mu, nu)


def test_polydisc_callable_field_names_the_tensor_route():
    p2 = PolydiscDomain(2, 1.0)
    ones = MultiIndex((1, 1))
    f = ScalarField(lambda z1, z2: z1 * np.conj(z2), p2)
    with pytest.raises(DomainError, match="oracle.polydisc_tensor"):
        apply_polydisc(f, (0.1, 0.2), ones, ones)
    with pytest.raises(DomainError, match="oracle.polydisc_tensor"):
        apply_polydisc(field_from_expression("z1", p2).conjugate(), (0.1, 0.2), ones, ones)
    assert polydisc_tensor(f, (0.1, 0.2), ones, ones, (8, 16)) == pytest.approx(
        apply_polydisc(field_from_expression("z1*z2bar", p2), (0.1, 0.2), ones, ones, (8, 16)),
        rel=1e-12)


def test_polydisc_expansion_cap_raises():
    p3 = PolydiscDomain(3, 1.0)
    ones = MultiIndex((1, 1, 1))
    f = field_from_expression("((z1+z1bar+z2+z2bar+z3+z3bar)^6)^999", p3)
    with pytest.raises(OrderTooLarge, match="MAX_MONOMIALS"):
        apply_polydisc(f, (0.1, 0.2, 0.3), ones, ones, (8, 16))


def test_disk_operators_reject_a_shifted_disk():
    # the closed-form kernels assume the disk is centred at 0: a DiskDomain has
    # no centre, and a field on any other domain is refused
    with pytest.raises(TypeError):
        DiskDomain(1.0, 0.5 + 0.2j)
    one = constant_field(1.0, PolydiscDomain(1, 1.0))
    zero = constant_field(0, one.domain)
    solution = solve_pde(SolutionSpec(1, 1, one, (zero,), (zero,)))
    for evaluate in (lambda: transform(one, 0.1, 1, 1), lambda: apply_T(one, 0.1),
                     lambda: apply_2T(one, 0.1), lambda: solution(0.1)):
        with pytest.raises(DomainError, match="DiskDomain"):
            evaluate()


def test_disk_values_retain_no_rules():
    # each target's rule is built for it and dropped when the value is done
    f = field_from_expression("1+z*zbar", DISK)
    zero = constant_field(0, DISK)
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


def test_fields_carry_their_degree():
    # an upper bound on the total degree; a plain callable's is unknown (inf)
    f = field_from_expression("z^3*zbar + 2", DISK)
    assert (f.degree, f.conjugate().degree) == (4, 4)
    assert constant_field(2.0, DISK).degree == 0
    assert PolynomialField([[1, 0, 0], [0, 0, 2], [0, 0, 0]]).to_field(DISK).degree == 3
    assert ScalarField(np.conj, DISK).degree == math.inf


@pytest.mark.parametrize("l", [12, 33, 60])
def test_default_resolution_follows_the_field_degree(l):
    # T zbar^l = zbar^(l+1)/(l+1): the disk-centred core resolves band l + 1,
    # exact to round-off, where a fixed 16x32 rule reads 2e-2 on zbar^33
    f = field_from_expression(f"zbar^{l}", DISK)
    for q in (0.0, 0.3, 0.6, 0.9):
        z = q * cmath.exp(0.7j)
        assert abs(transform(f, z, 1, 0) - np.conj(z) ** (l + 1) / (l + 1)) <= 1e-15


# ---------------------------------------------------------------------------
# Fields and grids
# ---------------------------------------------------------------------------

def test_grid_evaluation_deterministic_and_thread_safe(monkeypatch, capsys):
    # real transform grids, byte-identical at every PMP_THREADS value: a (2,2)
    # solve and a (1,1) export take the disk-centred core, and the explicit-count
    # export runs the target-centred rule over 19 blocks of BLOCK_NODES
    commands = (["solve", "--mu", "2", "--nu", "2", "--rhs", "1+z*zbar", "--grid", "17"],
                ["export", "--op", "mixed", "--f", "1+z*zbar-2i*z^2", "--grid", "17"],
                ["export", "--op", "mixed", "--f", "1+z*zbar-2i*z^2", "--grid", "17",
                 "--nr", "16", "--ntheta", "32"])
    outputs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PMP_THREADS", threads)
        for argv in commands:
            assert run_command(argv) == 0
        outputs[threads] = capsys.readouterr().out
    assert outputs["1"] == outputs["2"] == outputs["3"]
    assert len(outputs["1"].splitlines()) == 3 * (1 + 17 * 17)


#: targets from the centre out to the circle, 0.999 R among them
BATCH_TARGETS = np.array([0, 0.3 + 0.2j, -0.45j, 0.7 - 0.1j, 0.85j, -0.93, 0.96 + 0.1j,
                          0.6 - 0.78j, 0.999j, cmath.exp(0.4j)])


def test_batched_values_match_single_targets():
    # one (T x N) pass per block against one pass per target: the same
    # arithmetic on arrays of other shapes, so equal to round-off
    f = field_from_expression("1+z*zbar-2i*z^2+zbar^3", DISK)
    zero = constant_field(0, DISK)
    u = solve_pde(SolutionSpec(2, 2, f, (zero, field_from_expression("1i*z", DISK)),
                               (zero, zero)))
    v = solve_biharmonic(field_from_expression("1+z*zbar", DISK), zero,
                         field_from_expression("z^2", DISK))
    evaluators = [lambda z, order=order: transform(f, z, *order)
                  for order in ((1, 0), (0, 2), (1, 1), (2, 2), (3, 1))] + [u, v]
    for evaluate in evaluators:
        batched = evaluate(BATCH_TARGETS)
        single = np.array([evaluate(complex(z)) for z in BATCH_TARGETS])
        assert batched.shape == BATCH_TARGETS.shape
        assert np.all(np.abs(batched - single) <= 1e-14 * np.abs(single))
    # any array shape, an empty one included, and the resolution floor still holds
    grid = BATCH_TARGETS[:4].reshape(2, 2)
    flat = transform(f, BATCH_TARGETS[:4], 1, 1)
    assert np.array_equal(transform(f, grid, 1, 1), flat.reshape(2, 2))
    assert transform(f, np.array([]), 1, 1).shape == (0,)
    with pytest.raises(ResolutionTooLow):
        transform(f, np.array([]), 1, 1, (3, None))


@pytest.mark.parametrize("order", [(1, 1), (2, 2)])
def test_extent_1_grid_matches_single_targets(order):
    # the corner targets sit on the circle, where the rule moves the nodes
    # of the outward directions onto a kept node with weight 0
    f = field_from_expression("1+z*zbar-2i*z^2", DISK)
    grid = evaluate_on_grid(lambda z: transform(f, z, *order), DISK, n=5, extent=1.0)
    corner = complex(grid.xs[0], grid.ys[0])
    assert np.any(build_area_rule(DISK, corner).weights == 0)
    points = grid.xs[None, :] + 1j * grid.ys[:, None]
    single = np.array([[transform(f, complex(z), *order) for z in row] for row in points])
    assert np.all(np.isfinite(grid.values))
    assert np.all(np.abs(grid.values - single) <= 1e-14 * np.abs(single))


def test_non_finite_sample_in_a_multi_target_block_raises():
    # z^3 overflows at |w| ~ 1e150; the targets share one block
    f = field_from_expression("z^3", DiskDomain(1e150))
    targets = 1e149 * np.array([0.1, 0.2j, -0.3, 0.1 - 0.1j])
    with pytest.raises(NonFiniteSample, match="integrand produced NaN/Inf"):
        transform(f, targets, 1, 1)


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


def csv_rows(grid) -> str:
    """The reference rendering of `GridField.to_csv_text`: one f-string per row."""
    xs, ys = ([f"{t:.15g}" for t in axis.tolist()] for axis in (grid.xs, grid.ys))
    rows = (f"{x},{y},{v.real:.15g},{v.imag:.15g}"
            for y, row in zip(ys, grid.values.tolist()) for x, v in zip(xs, row))
    return "\n".join(["x,y,re,im", *rows]) + "\n"


# finite floats with both zeros, subnormals and magnitudes up to 1e+-300 and beyond
csv_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e-300,
                                        -1e300, 1.7976931348623157e308, 0.1, 1 / 3]))


@settings(max_examples=60)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_grid_csv_matches_the_row_by_row_rendering(nx, ny, data):
    xs, ys = (np.array(data.draw(st.lists(csv_floats, min_size=n, max_size=n)))
              for n in (nx, ny))
    parts = data.draw(st.lists(csv_floats, min_size=2 * nx * ny, max_size=2 * nx * ny))
    values = np.empty(nx * ny, dtype=complex)
    values.real, values.imag = parts[0::2], parts[1::2]   # keeps -0.0 in both parts
    grid = GridField(xs, ys, values.reshape(ny, nx))
    assert grid.to_csv_text() == csv_rows(grid)


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


# ---------------------------------------------------------------------------
# The disk-centred core (default counts, fields of finite degree)
# ---------------------------------------------------------------------------

def exact_composition(poly, mu, nu, radius):
    for _ in range(nu):
        poly = exact_transform(poly, radius, conjugate=True)
    for _ in range(mu):
        poly = exact_transform(poly, radius)
    return poly


#: the degree-(2, 2) field with unit-modulus coefficients of scripts/rule_table.py, seed 0
NEAR_FIELD = PolynomialField(np.exp(2j * np.pi * np.random.default_rng(0).random((3, 3))))


@pytest.mark.parametrize("order, R", [((1, 1), 1.0), ((2, 2), 1.0), ((2, 2), 2.5)])
@pytest.mark.parametrize("ratio", [0.99, 0.999, 1 - 1e-6, 1.0])
def test_default_counts_hold_up_to_the_circle(order, R, ratio):
    # the near-boundary cells, five angles each: the target-centred rule at
    # DEFAULT_COUNTS reads up to 1.1e-5 at (1,1) and 3.8e-6 at (2,2), R = 2.5
    f = NEAR_FIELD.to_field(DiskDomain(R))
    z = ratio * R * np.exp(1j * (0.3 + 2 * np.pi * np.arange(5) / 5))
    want = exact_composition(NEAR_FIELD, *order, R)(z)
    got = transform(f, z, *order)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("order", [(1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1)])
def test_core_matches_the_target_centred_rule_inside(order):
    # two independent quadratures of the same integral at interior points
    poly = PolynomialField(np.random.default_rng(4).standard_normal((3, 3)) + 0.5j)
    f = poly.to_field(DISK)
    z = np.array(interior_points(6, 8, 0.9))
    assert np.allclose(transform(f, z, *order), transform(f, z, *order, (64, 128)),
                       rtol=0, atol=1e-12)


def test_huge_degree_is_refused_before_sampling():
    # 1,000 modes would need about 4 million samples per target: refused,
    # without allocating them
    f = field_from_expression("(z+zbar)^999", DISK)
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge, match="CORE_TARGET_CAP"):
            transform(f, np.array([0.1, 0.2j]), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cmath.isfinite(transform(f, 0.1, 1, 0, (16, 32)))   # explicit counts: the rule


def test_core_memory_is_bounded_by_its_chunks():
    # a degree-40 field on 400 targets: chunks of at most CORE_BLOCK elements
    f = field_from_expression("zbar^40+z^20*zbar^20", DISK)
    z = 0.9 * np.exp(2j * np.pi * np.arange(400) / 400)
    tracemalloc.start()
    try:
        got = transform(f, z, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pompeiu.operators.CORE_BLOCK * 16
    # T Tbar zbar^40 = z zbar^41/41 - zbar^40/40, T Tbar |z|^40 = (|z|^42 - 1)/441
    want = z * np.conj(z) ** 41 / 41 - np.conj(z) ** 40 / 40 + (abs(z) ** 42 - 1) / 441
    assert np.max(np.abs(got - want)) <= 1e-12


def test_core_memory_is_bounded_on_one_radius():
    # 20,000 targets on one radius: one radial pass, then the targets in chunks
    f = field_from_expression("zbar^40+z^20*zbar^20", DISK)
    z = np.tile(0.9 * np.array([1, -1, 1j, -1j]), 5000)
    tracemalloc.start()
    try:
        got = transform(f, z, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pompeiu.operators.CORE_BLOCK * 16
    want = z * np.conj(z) ** 41 / 41 - np.conj(z) ** 40 / 40 + (abs(z) ** 42 - 1) / 441
    assert np.max(np.abs(got - want)) <= 1e-12


def counted_samples(monkeypatch) -> list:
    """The node count of every `sample` call the core makes from now on."""
    sampled = []
    real = pompeiu.operators.sample
    monkeypatch.setattr(pompeiu.operators, "sample",
                        lambda f, nodes: sampled.append(nodes.size) or real(f, nodes))
    return sampled


def test_core_samples_once_per_distinct_radius(monkeypatch):
    # the 33 x 33 grid's 1,089 targets have 210 distinct radii: the density is
    # sampled once, and the chunks interpolate its modes once to each radius
    sampled, points, radial = counted_samples(monkeypatch), [], []
    real = pompeiu.operators._interpolation_rows
    monkeypatch.setattr(pompeiu.operators, "_interpolation_rows",   # 2-D x builds a pass tensor
                        lambda x, r, bary: (x.ndim == 1 and radial.append(x.size))
                        or real(x, r, bary))
    f = field_from_expression("1+z*zbar-2i*z^2", DISK)
    evaluate_on_grid(lambda z: points.append(z) or transform(f, z, 2, 2), DISK)
    radii = np.unique(np.abs(points[0])).size
    band = 2 + 2 + 2
    assert radii == 210 and sampled == [(band + 2) * (2 * band + 2)]
    assert 1 < len(radial) < radii and sum(radial) == radii


@pytest.mark.parametrize("order", [(2, 2), (1, 1), (2, 0), (0, 1), (13, 12)])
def test_core_samples_each_density_once(order, monkeypatch):
    # degree 20 at 400 distinct radii, then each 37th target alone: every call
    # samples band + 2 Gauss radii x 2 band + 2 angles, whatever its targets
    sampled = counted_samples(monkeypatch)
    f = field_from_expression("zbar^20+z^3*zbar^5", DISK)
    z = np.linspace(0.001, 0.999, 400) * np.exp(1j * np.arange(400))
    got = transform(f, z, *order)
    singles = [transform(f, w, *order) for w in z[::37]]
    band = 20 + sum(order)
    assert sampled == [(band + 2) * (2 * band + 2)] * (1 + len(singles))
    # each target's value is the one a call of its own gives it
    assert np.array_equal(got[::37], singles)


@pytest.mark.parametrize("expression, order", [("1+z*zbar-2i*z^2", (2, 2)),
                                               ("zbar^20+z^3*zbar^5", (1, 3)),
                                               ("z^9*zbar^2-zbar^4", (13, 12)),
                                               ("z^5", (0, 7))])
def test_core_passes_on_live_rows_equal_the_whole_tensor(expression, order):
    # the reference runs every row of W through each pass, the real and
    # imaginary parts as one trailing axis, with the flips and the roll
    f = field_from_expression(expression, DiskDomain(1.3))
    r, _, got = pompeiu.operators._core_modes([f], *order)
    got = got[..., 0]
    d, band = int(f.degree), got.shape[0] // 2
    passes = pompeiu.operators._pass_tensor(band)[2]
    turn = np.exp(2j * np.pi * np.arange(2 * band + 2) / (2 * band + 2))
    spectrum = np.fft.fft(f(1.3 * r[:, None] * turn)) / turn.size
    modes = np.zeros_like(got)
    modes[band - d:band + d + 1] = spectrum[:, np.arange(-d, d + 1)].T
    for flip in [True] * order[1] + [False] * order[0]:
        if flip:
            modes = np.ascontiguousarray(modes[::-1])
        out = np.einsum("kij,kjc->kic", passes, modes.view(float).reshape(*modes.shape, 2))
        modes = np.roll(out.view(complex)[..., 0], -1, axis=0)
        if flip:
            modes = np.ascontiguousarray(modes[::-1])
    assert np.array_equal(got, modes)


@pytest.mark.parametrize("mu, nu, error", [(0, 0, DomainError), (-1, 2, DomainError),
                                           (21, 1, OrderTooLarge), (1, 21, OrderTooLarge)])
def test_core_checks_orders_as_the_table_does(mu, nu, error, monkeypatch):
    # the default counts check orders as `kernels.kernel` does, before any sample
    sampled = counted_samples(monkeypatch)
    with pytest.raises(error):
        transform(constant_field(1.0, DISK), 0.2, mu, nu)
    assert sampled == []


@pytest.mark.parametrize("order", [(1, 0), (0, 2), (2, 2), (3, 1)])
def test_core_values_ignore_target_order_and_repetition(order):
    # a target's value depends on the set of radii, not on where it sits
    f = field_from_expression("1+z*zbar-2i*z^2+zbar^3", DiskDomain(2.5))
    z = np.concatenate([2.5 * BATCH_TARGETS, 2.5 * BATCH_TARGETS[::-1] * 1j,
                        2.5 * BATCH_TARGETS[:3]])
    permutation = np.random.default_rng(3).permutation(z.size)
    assert np.array_equal(transform(f, z[permutation], *order),
                          transform(f, z, *order)[permutation])


def test_core_batch_of_one_degree_equals_each_field_alone():
    # a polydisc factor's monomials share one pass per pair of orders; fields
    # of one degree share the band, and each keeps its own transform's bits
    d = DiskDomain(1.7)
    rng = np.random.default_rng(2)
    z = 1.7 * rng.random(50) ** 0.5 * np.exp(2j * np.pi * rng.random(50))
    fields = [field_from_expression(text, d) for text in
              ("z^3*zbar^2", "z^5", "zbar^4*z", "z*zbar^4+2i", "zbar^5-z^2*zbar^3")]
    for order in ((1, 1), (2, 3), (0, 2)):
        batch = pompeiu.operators._transforms(d, [[(order, f)] for f in fields], z, (None, None))
        for f, values in zip(fields, batch):
            assert np.array_equal(values, transform(f, z, *order))
            assert values[7] == transform(f, complex(z[7]), *order)


def test_polydisc_factor_monomials_share_one_rule_or_pass_tensor(monkeypatch):
    # 41 monomials per factor: one area rule per factor at explicit counts, and
    # at the default counts one band-42 pass tensor (above 1 MiB, so built per
    # call) per factor, shared by its two batches of CORE_FIELDS
    built = []
    rule, tensor = pompeiu.operators.build_area_rule, pompeiu.operators._pass_tensor
    monkeypatch.setattr(pompeiu.operators, "build_area_rule",
                        lambda *args: built.append("rule") or rule(*args))
    monkeypatch.setattr(pompeiu.operators, "_pass_tensor",
                        lambda band: built.append(band) or tensor(band))
    f = field_from_expression("(z1+z1bar)^40*(z2+z2bar)^40", PolydiscDomain(2, 1.0))
    args = (f, (0.5 + 0.1j, -0.3j), MultiIndex((1, 1)), MultiIndex((1, 1)))
    explicit = apply_polydisc(*args, (64, 160))
    assert built == ["rule", "rule"]
    built.clear()
    assert apply_polydisc(*args) == pytest.approx(explicit, rel=1e-12)
    assert built == [42, 42]
