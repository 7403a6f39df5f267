import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu.errors import CoincidentPoints, DomainError, NonFiniteSample, ResolutionTooLow
from pompeiu.geometry import DiskDomain, PolydiscDomain, require_separated
from pompeiu.operators import ScalarField, _pass_tensor, apply_2T, transform
from pompeiu.quadrature import (DEFAULT_COUNTS, build_area_rule, build_contour_rule,
                                build_half_rule, integrate, radial_rule)


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
    for n_radial in (1, 2, 3):
        with pytest.raises(ResolutionTooLow, match="n_radial >= 4"):
            build_area_rule(d, 0j, (n_radial, 64))
    with pytest.raises(ResolutionTooLow):
        build_area_rule(d, 0j, (16, 7))
    # one Gauss panel takes any count from the floor up
    for n_radial in (4, 6, 20, 23):
        assert build_area_rule(d, 0j, (n_radial, 64)).nodes.size == n_radial * 64
    with pytest.raises(ResolutionTooLow):
        build_contour_rule(1.0, 7)


@pytest.mark.parametrize("n_radial", [4, 7, 16, 24, 32, 64])
def test_product_weights_integrate_s_power_times_log_s(n_radial):
    # about 0 on the unit disk every ray has rho = 1 and |w| = s, so summing
    # |w|^(j-1) (log|w| + log_shift) with the area weights gives
    # 2i * 2 pi * sum_k v_k s_k^j, and v integrates s^j log s to -1/(j+1)^2
    rule = build_area_rule(DiskDomain(1.0), 0j, (n_radial, 8))
    s = np.abs(rule.nodes)
    for j in range(n_radial):
        got = np.sum(rule.weights * s ** (j - 1) * (np.log(s) + rule.log_shift)) / (4j * np.pi)
        assert abs(got + 1 / (j + 1) ** 2) <= 1e-14, j


@pytest.mark.parametrize("n", [24, 41, 81])
def test_radial_rule_moments_hold_to_round_off(n):
    # numpy's `leggauss` weights, taken at its unrefined nodes, read up to
    # 2.2e-13 here (n = 41); the refined rule serves the target-centred rules
    # and the disk-centred core's passes alike
    s, w, _ = radial_rule(n)
    m = np.arange(2 * n)
    moments = np.array([np.sum(w * s ** k) for k in m]) * (m + 1)
    assert np.max(np.abs(moments - 1)) <= 2e-14
    assert np.array_equal(_pass_tensor(n - 2)[0], s)


@pytest.mark.parametrize("ratio, counts", [(ratio, DEFAULT_COUNTS) for ratio in (
    0.0, 0.5, 0.50001, 0.8, 0.85, 0.95, 0.97, 0.99, 0.9999)])
def test_default_counts_come_from_the_table_by_distance(ratio, counts):
    # the ratios span the rows of the per-distance table that DEFAULT_COUNTS
    # replaced: every distance now takes its one row
    d = DiskDomain(2.5)
    center = 2.5 * ratio * np.exp(0.7j)
    assert build_area_rule(d, center).nodes.size == counts[0] * counts[1]
    # a given count is used as it is, the other is its entry of DEFAULT_COUNTS
    assert build_area_rule(d, center, (8, None)).nodes.size == 8 * counts[1]
    assert build_area_rule(d, center, (None, 40)).nodes.size == counts[0] * 40
    assert build_area_rule(d, center, (8, 40)).nodes.size == 8 * 40


@pytest.mark.parametrize("ratio, counts", [(ratio, DEFAULT_COUNTS) for ratio in (0.0, 0.97, 0.99)])
@pytest.mark.parametrize("degree", [12, 40, math.inf])
def test_higher_or_unknown_degree_takes_at_least_64_by_128(ratio, counts, degree):
    # the rules read no degree: 2T of a field of any degree, and T of one of
    # unknown degree, take DEFAULT_COUNTS, which are at least 64 x 128
    assert counts[0] >= 64 and counts[1] >= 128
    f = ScalarField(lambda w: w * np.conj(w) ** 2, DiskDomain(1.0), degree=degree)
    z = ratio * np.exp(0.7j)
    assert apply_2T(f, z) == apply_2T(f, z, counts)
    if degree == math.inf:
        assert transform(f, z, 1, 0) == transform(f, z, 1, 0, counts)


def test_half_rules_default_to_the_unknown_degree_counts():
    d = DiskDomain(1.0)
    a, b = 0.1 + 0.05j, -0.2 + 0.1j
    outer = build_half_rule(d, a, b, DEFAULT_COUNTS)
    assert np.array_equal(build_half_rule(d, a, b).nodes, outer.nodes)
    assert np.array_equal(build_half_rule(d, a, b, (None, 40)).nodes,
                          build_half_rule(d, a, b, (DEFAULT_COUNTS[0], 40)).nodes)


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


def test_rows_of_a_batched_rule_are_the_single_centre_rules():
    # T centres give (T, N) nodes and weights, row t the rule about centre t
    d = DiskDomain(2.5)
    centers = 2.5 * np.array([0.1, 0.3j, -0.45 + 0.1j])
    rule = build_area_rule(d, centers)
    assert rule.nodes.shape == rule.weights.shape == (3, DEFAULT_COUNTS[0] * DEFAULT_COUNTS[1])
    for row, center in zip(range(3), centers):
        single = build_area_rule(d, complex(center))
        assert np.allclose(rule.nodes[row], single.nodes, rtol=1e-15, atol=0)
        assert np.allclose(rule.weights[row], single.weights, rtol=1e-15, atol=0)
        assert np.array_equal(rule.log_shift, single.log_shift)
    integral = integrate(rule, lambda w: np.conj(w) / (w - centers[:, None]))
    assert integral.shape == (3,)
    assert integral[1] == integrate(build_area_rule(d, complex(centers[1])),
                                    lambda w: np.conj(w) / (w - centers[1]))


def test_nodes_inside_the_exclusion_radius_move_onto_kept_nodes_with_weight_0():
    # on the circle the outward rays have length 0: their nodes sit on the centre
    d = DiskDomain(1.0)
    centers = np.exp(np.array([0.3j, 2.0j]))
    rule = build_area_rule(d, centers, (16, 32))
    assert rule.nodes.shape == (2, 16 * 32)
    require_separated(centers[:, None], rule.nodes, 1.0)
    for center, nodes, weights in zip(centers, rule.nodes, rule.weights):
        moved = weights == 0
        assert 0 < np.count_nonzero(moved) < nodes.size
        assert np.all(np.isin(nodes[moved], nodes[~moved]))
