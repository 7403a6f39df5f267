import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu.errors import CoincidentPoints, DomainError, NonFiniteSample, ResolutionTooLow
from pompeiu.geometry import DiskDomain, PolydiscDomain, require_separated
from pompeiu.quadrature import (build_area_rule, build_contour_rule, build_half_rule,
                                integrate)


def total_weight(rule):
    return complex(np.sum(rule.weights))


def test_weights_integrate_constant():
    d = DiskDomain(1.0)
    for center in (0j, 0.4 + 0.3j, 0.7j):
        rule = build_area_rule(d, center, (32, 64))
        assert total_weight(rule) == pytest.approx(2j * np.pi, rel=1e-10)


def test_area_element_convention():
    # for polynomials, the weighted sum equals 2i times the plain area integral:
    # int |w|^2 dA over the unit disk is pi/2, so the rule gives i*pi
    d = DiskDomain(1.0)
    rule = build_area_rule(d, 0.2 + 0.1j, (32, 64))
    got = integrate(rule, lambda w: (w * np.conj(w)).astype(complex))
    assert got == pytest.approx(2j * (np.pi / 2), rel=1e-9)


@given(st.integers(0, 3), st.integers(0, 3),
       st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_monomial_moments_exact(p, q, center):
    # angular orthogonality: int z^p zbar^q dzbar^dz over {|z| <= R} is
    # 2 pi i R^(2p+2)/(p+1) when p == q and zero otherwise
    d = DiskDomain(1.0)
    rule = build_area_rule(d, center, (32, 64))
    got = integrate(rule, lambda w: w**p * np.conj(w) ** q)
    want = 2j * np.pi / (p + 1) if p == q else 0.0
    assert abs(got - want) <= 1e-8


def test_all_nodes_inside_closed_disk():
    d = DiskDomain(1.5)
    rule = build_area_rule(d, 0.9 + 0.4j, (16, 32))
    assert np.all(np.abs(rule.nodes) <= d.radius * (1 + 1e-12))


def test_rules_refuse_non_disk_domains():
    polydisc = PolydiscDomain(1, 1.0)
    with pytest.raises(DomainError, match="DiskDomain"):
        build_area_rule(polydisc, 0.1)
    with pytest.raises(DomainError, match="DiskDomain"):
        build_half_rule(polydisc, 0.1, -0.1)


def test_resolution_floor():
    d = DiskDomain(1.0)
    with pytest.raises(ResolutionTooLow):
        build_area_rule(d, 0j, (3, 64))
    with pytest.raises(ResolutionTooLow):
        build_area_rule(d, 0j, (16, 7))
    # a partial radial panel: multiples of 4 below 16, of 8 from 16 up
    for n_radial in (6, 20, 23):
        with pytest.raises(ResolutionTooLow):
            build_area_rule(d, 0j, (n_radial, 64))
    with pytest.raises(ResolutionTooLow):
        build_contour_rule(1.0, 7)


# ---------------------------------------------------------------------------
# Exact monomial golden integrals: on the disk |w| <= r,
#   integral of wbar^l / (w - z) dwbar^dw = -2 pi i zbar^(l+1)/(l+1)
# (derived by applying the interior inversion identity to wbar^(l+1);
# the boundary term vanishes by the residue theorem).
# ---------------------------------------------------------------------------

def golden(z, l):
    return -2j * np.pi / (l + 1) * np.conj(z) ** (l + 1)


@pytest.mark.parametrize("l", range(6))
def test_monomial_golden_centered(l):
    d = DiskDomain(1.0)
    z = 0.35 - 0.55j
    rule = build_area_rule(d, z, (64, 128))
    got = integrate(rule, lambda w: np.conj(w) ** l / (w - z))
    want = golden(z, l)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_singular_integral_one_over_w_minus_z():
    # l = 0 case: integral of dwbar^dw/(w - z) = -2 pi i zbar
    d = DiskDomain(1.0)
    z = 0.3 + 0j
    rule = build_area_rule(d, z, (64, 128))
    got = integrate(rule, lambda w: 1.0 / (w - z))
    assert got == pytest.approx(-2j * np.pi * np.conj(z), rel=1e-9)


def test_convergence_at_least_4x_per_doubling():
    d = DiskDomain(1.0)
    z = 0.45 + 0.2j
    want = golden(z, 3)
    errs = []
    for res in [(16, 32), (32, 64), (64, 128)]:
        rule = build_area_rule(d, z, res)
        got = integrate(rule, lambda w: np.conj(w) ** 3 / (w - z))
        errs.append(abs(got - want))
    floor = 1e-10 * abs(want)
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= max(coarse / 4.0, floor)


def test_conjugate_symmetry_of_rules():
    # in the area measure dA, integrating conj(f(conj(node))) with the
    # mirrored rule conjugates the result; the 2i in the weights flips sign
    # under conjugation, so the raw weighted sums satisfy mirrored == -conj
    d = DiskDomain(1.0)
    center = 0.3 + 0.4j
    f = lambda w: (w**2 + 0.7 * np.conj(w)) / (w - center)
    rule = build_area_rule(d, center, (32, 64))
    mirror = build_area_rule(d, np.conj(center), (32, 64))
    direct = integrate(rule, f) / 2j
    mirrored = integrate(mirror, lambda w: np.conj(f(np.conj(w)))) / 2j
    assert abs(mirrored - np.conj(direct)) < 1e-13


def test_non_finite_sample_raises():
    d = DiskDomain(1.0)
    rule = build_area_rule(d, 0j, (16, 32))
    with pytest.raises(NonFiniteSample), np.errstate(divide="ignore", invalid="ignore"):
        integrate(rule, lambda w: 1.0 / (w - rule.nodes[0]))


def test_non_finite_weighted_sum_raises():
    # every sample is finite, their weighted sum overflows
    rule = build_area_rule(DiskDomain(1.0), 0j, (16, 32))
    with pytest.raises(NonFiniteSample, match="weighted sum"):
        integrate(rule, lambda w: np.full(w.shape, 1e308))


def test_integrand_must_be_vectorized():
    import math
    d = DiskDomain(1.0)
    rule = build_area_rule(d, 0j, (8, 16))
    # a scalar-only callable raises its own error instead of a node-by-node retry
    with pytest.raises(TypeError):
        integrate(rule, lambda w: math.exp(w.real))
    # a result of the wrong shape is a typed error
    with pytest.raises(DomainError):
        integrate(rule, lambda w: np.ones(3))
    # a 0-d result stands for a constant
    assert integrate(rule, lambda w: 2.0) == integrate(rule, lambda w: np.full(w.shape, 2.0 + 0j))


# ---------------------------------------------------------------------------
# Contour rules
# ---------------------------------------------------------------------------

def test_cauchy_integral_of_inverse():
    rule = build_contour_rule(1.0, 16)
    got = integrate(rule, lambda w: 1.0 / w)
    assert got == pytest.approx(2j * np.pi, abs=1e-12)


def test_cauchy_integral_constant_pole_inside():
    rule = build_contour_rule(2.0, 64)
    a = 0.5 - 0.3j
    got = integrate(rule, lambda w: 1.0 / (w - a))
    assert got == pytest.approx(2j * np.pi, abs=1e-12)


def test_contour_zbar_uses_circle_relation():
    # on |w| = R, wbar = R^2/w, so the integral of wbar dw is 2 pi i R^2
    R = 1.3
    rule = build_contour_rule(R, 128)
    got = integrate(rule, lambda w: np.conj(w))
    assert got == pytest.approx(2j * np.pi * R**2, rel=1e-12)


def test_contour_residue_matching_boundary_sum():
    # residue computation: integral of (wbar - bbar)(w - b)^0/(w - a) dw = 2 pi i (-bbar)
    rule = build_contour_rule(1.0, 256)
    a, b = 0.2 + 0.1j, -0.4 + 0.35j
    got = integrate(rule, lambda w: (np.conj(w) - np.conj(b)) / (w - a))
    assert got == pytest.approx(2j * np.pi * (-np.conj(b)), abs=1e-12)


# ---------------------------------------------------------------------------
# Half rules (two-center oracle support)
# ---------------------------------------------------------------------------

def test_half_rules_tile_the_disk():
    d = DiskDomain(1.0)
    a, b = 0.25 + 0.3j, -0.4 - 0.1j
    ra = build_half_rule(d, a, b, (32, 64))
    rb = build_half_rule(d, b, a, (32, 64))
    # angular GL panels lose a little accuracy near the bisector corners;
    # 1e-7 is far below what the lemma oracles need
    assert total_weight(ra) + total_weight(rb) == pytest.approx(2j * np.pi, rel=1e-7)
    # each half's nodes stay on its own side of the bisector
    assert np.all(np.abs(ra.nodes - a) <= np.abs(ra.nodes - b) + 1e-12)
    assert np.all(np.abs(rb.nodes - b) <= np.abs(rb.nodes - a) + 1e-12)


@settings(max_examples=20)
@given(st.sampled_from([1.0, 2.5]), st.floats(-13.0, -9.0), st.floats(0.0, 2 * np.pi))
def test_rules_next_to_the_boundary_keep_only_separated_nodes(R, exponent, angle):
    # |center| = R(1 - d), d log-uniform over [1e-13, 1e-9]: the first radial
    # nodes of the outward directions fall inside the exclusion radius
    d = DiskDomain(R)
    center = R * (1 - 10.0**exponent) * np.exp(1j * angle)
    rule = build_area_rule(d, center)
    require_separated(center, rule.nodes, R)
    other = 0.3 * R * np.exp(1j * (angle + 2.0))
    half = build_half_rule(d, center, other)
    require_separated(center, half.nodes, R)
    require_separated(other, half.nodes, R)


def test_half_rule_with_coincident_centers_raises():
    d = DiskDomain(1.0)
    with pytest.raises(CoincidentPoints):
        build_half_rule(d, 0.3 + 0.2j, 0.3 + 0.2j, (32, 64))
