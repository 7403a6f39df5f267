import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu.errors import CoincidentPoints, DomainError, NonFiniteSample, OrderTooLarge
from pompeiu.geometry import COINCIDENCE_EPS, DiskDomain, MultiIndex
from pompeiu.kernels import (c1, c2, c3, c3_special_cases,
                             c8, g_diag, g_mixed, kernel, log_term)

R = 1.0


# ---------------------------------------------------------------------------
# Exact-arithmetic oracles: the literal finite sums evaluated with sympy
# rationals, independent of the float implementation.
# ---------------------------------------------------------------------------

def c1_exact(a, b, k):
    total = sympy.Integer(0)
    for l in range(1, k):
        inner = sum(sympy.binomial(k - 1, j) * a ** (k - 1 - l - j) * (-b) ** j
                    for j in range(k - l))
        total += (-(b**l) / l) * inner
    return total


def c2_exact(a, b, l, nu, radius):
    total = sympy.Integer(0)
    for p in range(l + 1):
        for q in range(p, nu):
            total += (sympy.binomial(l, p) * sympy.binomial(nu - 1, q)
                      * radius ** (2 * p) * (-sympy.conjugate(b)) ** (l - p)
                      * (-b) ** (nu - 1 - q) * a ** (q - p))
    return total


def to_complex(x):
    return complex(sympy.re(x), sympy.im(x))


rational_complex = st.builds(
    lambda p, q: sympy.Rational(p, 40) + sympy.I * sympy.Rational(q, 40),
    st.integers(-20, 20), st.integers(-20, 20))


@given(rational_complex, rational_complex, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_c1_matches_exact_double_sum(a, b, k):
    got = c1(to_complex(a), to_complex(b), k)
    want = to_complex(sympy.expand(c1_exact(a, b, k)))
    assert got == pytest.approx(want, abs=1e-12)


@given(rational_complex, rational_complex, st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_c2_matches_exact_double_sum(a, b, l, nu):
    got = c2(to_complex(a), to_complex(b), l, nu, R)
    want = to_complex(sympy.expand(c2_exact(a, b, l, nu, sympy.Integer(1))))
    assert got == pytest.approx(want, abs=1e-12)


def test_c1_first_order_is_zero():
    assert c1(0.3 + 0.2j, -0.1 + 0.4j, 1) == 0


def test_c1_second_order():
    # decomposing the defining integral gives c1(a, b, 2) = -b: write
    # (z-b) = (z-a) + (a-b); the first piece integrates 1/(zbar-bbar),
    # whose exact moment is -2 pi i b (quadrature-confirmed below)
    a, b = 0.31 + 0.12j, -0.22 + 0.41j
    assert c1(a, b, 2) == pytest.approx(-b, abs=1e-15)


def test_c1_frozen_spot_value():
    # exact rational evaluation of the double sum at a=3/10, b=i/5:
    # l=1 term (-b)(a - 2b) = -3i/50 - 2/25 ... total -3/50 - 3i/50
    want = to_complex(c1_exact(sympy.Rational(3, 10), sympy.I * sympy.Rational(1, 5), 3))
    assert want == pytest.approx(-0.06 - 0.06j, abs=1e-15)
    assert c1(0.3, 0.2j, 3) == pytest.approx(-0.06 - 0.06j, abs=1e-14)


def test_c2_order_one_in_nu():
    # only (p, q) = (0, 0) survives: (-bbar)^l
    a, b = 0.2 - 0.3j, 0.15 + 0.45j
    for l in (1, 2, 3):
        assert c2(a, b, l, 1, R) == pytest.approx((-np.conj(b)) ** l, abs=1e-14)


def test_c2_l1_nu2():
    # three surviving terms (0,0), (0,1), (1,1): |b|^2 - a*bbar + R^2
    a, b = 0.37 - 0.11j, -0.29 + 0.23j
    want = abs(b) ** 2 - a * np.conj(b) + R**2
    assert c2(a, b, 1, 2, R) == pytest.approx(want, abs=1e-14)


def test_c2_at_b_zero():
    # b = 0 leaves only p = l, q = nu-1, i.e. R^(2l) a^(nu-1-l) when l <= nu-1
    a = 0.4
    assert c2(a, 0, 3, 2, R) == 0
    assert c2(a, 0, 1, 3, R) == pytest.approx(R**2 * a, abs=1e-15)
    assert c2(a, 0, 2, 3, R) == pytest.approx(R**4, abs=1e-15)


def test_c2_vectorized_over_b():
    a = 0.1 + 0.2j
    bs = np.array([0.3, -0.2j, 0.1 + 0.1j])
    got = c2(a, bs, 2, 2, R)
    want = np.array([c2(a, complex(b), 2, 2, R) for b in bs])
    assert np.allclose(got, want)


# ---------------------------------------------------------------------------
# c3 and its explicit special cases
# ---------------------------------------------------------------------------

def test_c3_log_case_value():
    # c3(0, 0.5, 1, 1) on the unit disk = log((1 - 0)/|0.5|^2) = log 4
    assert c3(0, 0.5, 1, 1, R) == pytest.approx(math.log(4.0), abs=1e-15)


def test_c3_special_cases_match_general():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = 0.85 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        b = 0.85 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        if abs(a - b) < 0.02:
            continue
        for (mu, nu), special in c3_special_cases.items():
            want = special(a, b, R)
            got = c3(a, b, mu, nu, R)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (mu, nu, a, b)


def test_c3_order_one_has_no_boundary_sum():
    # mu = 1 reduces to c1 + (a-b)^(nu-1) * log term exactly
    a, b = 0.25 + 0.3j, -0.35 - 0.2j
    for nu in (1, 2, 3):
        want = c1(a, b, nu) + (a - b) ** (nu - 1) * log_term(a, b, R)
        assert c3(a, b, 1, nu, R) == pytest.approx(want, abs=1e-15)


def test_c3_nu_one_uses_vanishing_c1():
    # nu = 1 makes the c1 part vanish, leaving the bare log plus boundary sums
    a, b = 0.25 + 0.3j, -0.35 - 0.2j
    for mu in (1, 2, 3):
        val = c3(a, b, mu, 1, R)
        explicit = (np.conj(b) - np.conj(a)) ** (mu - 1) * log_term(a, b, R)
        for l in range(1, mu):
            explicit += (math.comb(mu - 1, l) * (np.conj(b) - np.conj(a)) ** (mu - 1 - l) / l
                         * (c2(a, b, l, 1, R) - (np.conj(a) - np.conj(b)) ** l))
        assert val == pytest.approx(explicit, abs=1e-15)


def test_c3_coincidence_raises():
    with pytest.raises(CoincidentPoints):
        c3(0.3, 0.3, 1, 1, R)
    with pytest.raises(CoincidentPoints):
        c3(0.3, 0.3 + 1e-16, 2, 2, R)


@settings(max_examples=40)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]), st.sampled_from([1.0, 2.5]),
       st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi), st.floats(-16.0, -12.0),
       st.floats(0.0, 2 * np.pi))
def test_c3_raises_exactly_inside_the_exclusion_radius(order, radius, q, angle, exponent, turn):
    # separations log-uniform over 1e-16..1e-12 R, straddling COINCIDENCE_EPS * R
    a = q * radius * np.exp(1j * angle)
    b = a + 10.0**exponent * radius * np.exp(1j * turn)
    if np.abs(a - b) < COINCIDENCE_EPS * radius:
        with pytest.raises(CoincidentPoints):
            c3(a, b, *order, radius)
    else:
        assert np.isfinite(c3(a, b, *order, radius))


def test_kernel_query_validation():
    # a kernel query is checked by the disk (both points) and by c3 (separation)
    disk = DiskDomain(1.0)
    with pytest.raises(DomainError):
        disk.validate_point(1.5)
    with pytest.raises(CoincidentPoints):
        c3(disk.validate_point(0.2), disk.validate_point(0.2), 1, 1, 1.0)
    a, b = disk.validate_point(0.0), disk.validate_point(0.5)
    assert c3(a, b, 1, 1, 1.0) == pytest.approx(math.log(4.0))


def test_c3_vectorized_matches_scalar():
    a = 0.2 - 0.25j
    bs = np.array([0.5, -0.1 + 0.4j, 0.3j])
    got = c3(a, bs, 2, 2, R)
    want = np.array([c3(a, complex(b), 2, 2, R) for b in bs])
    assert np.allclose(got, want, rtol=1e-13)


def test_order_caps():
    with pytest.raises(OrderTooLarge):
        c1(0.1, 0.2, 25)
    with pytest.raises(DomainError):
        c3(0.1, 0.2, 0, 1, R)


def test_c2_radius_power_overflow_raises():
    # R^38 overflows a float; R^2 (the largest power a (19, 2) sum forms) does not
    with np.errstate(all="ignore"), pytest.raises(NonFiniteSample):
        c2(0.0, 1e9, 19, 20, 1e10)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteSample):
        c3(0.0, 1e9, 20, 20, 1e10)
    assert np.isfinite(c2(0.0, 1e9, 19, 2, 1e10))


def test_log_term_principal_branch():
    # argument of the inner log lies in the right half-plane for interior
    # points, so values vary continuously along a loop of b around a
    a = 0.4
    angles = np.linspace(0, 2 * np.pi, 200)
    vals = np.array([log_term(a, a + 0.3 * np.exp(1j * t), R) for t in angles])
    assert np.max(np.abs(np.diff(vals))) < 0.2


def test_log_term_principal_branch_at_the_boundary():
    # b on |b| = R and a next to the boundary: w = 1 - a*conj(b)/R^2 comes
    # close to 0 inside the right half-plane, and the imaginary part is its
    # principal argument (condition number 1/|w|)
    radius = 2.5
    b = radius * np.exp(1j * np.linspace(-np.pi, np.pi, 97))
    for a in (0.999 * radius * np.exp(0.3j), 0.999999 * radius * np.exp(-1e-6j),
              0.999 * radius * np.exp(1j * np.linspace(-np.pi, np.pi, 97) + 1e-3j)):
        w = 1 - a * np.conj(b) / radius**2
        got = log_term(a, b, radius)
        assert np.all(np.abs(got.imag - np.angle(w)) <= 1e-15 / np.abs(w))
        assert np.all(np.abs(got.imag) < np.pi / 2 + 1e-9)


def _kernel_accuracy():
    """scripts/kernel_accuracy.py, whose 50-digit mpmath reference of c3 this file shares."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "kernel_accuracy.py"
    spec = importlib.util.spec_from_file_location("kernel_accuracy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("radius", [0.1, 1.0, 2.5, 10.0])
def test_c3_matches_the_50_digit_reference(radius):
    # mu, nu in 1..4 on 25 seeded pairs: targets up to |z| = 0.999 R (every
    # fourth exactly there), separations from 1e-8 R up to the boundary
    accuracy = _kernel_accuracy()
    a, b = accuracy.sample_pairs(np.random.default_rng(0), radius, 25)
    worst = accuracy.worst_errors(a, b, radius, 4)
    assert max(worst.values()) <= 1e-12


# ---------------------------------------------------------------------------
# c8 and the solution kernels
# ---------------------------------------------------------------------------

def test_c8_values():
    # n=1, mu=nu=1: -1/(2 pi i)
    assert c8(MultiIndex((1,)), MultiIndex((1,))) == pytest.approx(-1 / (2j * np.pi))
    # |mu| = 3 gives sign -1; factorials all 1: -1/(2 pi i)^2 = +1/(4 pi^2)
    assert c8(MultiIndex((2, 1)), MultiIndex((1, 1))) == pytest.approx(-1 / (2j * np.pi) ** 2)
    assert c8(MultiIndex((2, 1)), MultiIndex((1, 1))) == pytest.approx(1 / (4 * np.pi**2))
    # mu = nu = (2,2): (+1)/(1*1*1*1*(2 pi i)^2)
    assert c8(MultiIndex((2, 2)), MultiIndex((2, 2))) == pytest.approx(1 / (2j * np.pi) ** 2)
    with pytest.raises(DomainError):
        c8(MultiIndex((0, 1)), MultiIndex((1, 1)))


def test_g_diag_first_order_is_cauchy_kernel():
    z, w = 0.1 + 0.1j, 0.5 - 0.2j
    assert g_diag(z, w, 1) == pytest.approx(-1.0 / (2j * np.pi * (w - z)), abs=1e-15)


def test_g_diag_second_order():
    z, w = 0.15 - 0.2j, -0.3 + 0.4j
    want = (np.conj(w) - np.conj(z)) / (2j * np.pi * (w - z))
    assert g_diag(z, w, 2) == pytest.approx(want, abs=1e-15)


def test_g_diag_frozen_value():
    # l=3, z=0, w=1+i: -(1-i)^2/(2 * 2 pi i * (1+i)) = (1-i)/(4 pi)
    want = (1 - 1j) / (4 * np.pi)
    assert g_diag(0, 1 + 1j, 3) == pytest.approx(want, abs=1e-15)
    with pytest.raises(CoincidentPoints):
        g_diag(0.5, 0.5, 2)


def test_g_mixed_scales_c3():
    z, w = 0.1 + 0.2j, -0.3 + 0.1j
    assert g_mixed(z, w, 1, 1, R) == pytest.approx(-c3(z, w, 1, 1, R) / (2j * np.pi))
    assert g_mixed(z, w, 2, 2, R) == pytest.approx(c3(z, w, 2, 2, R) / (2j * np.pi))
    assert g_mixed(z, w, 2, 1, R) == pytest.approx(c3(z, w, 2, 1, R) / (2j * np.pi))


def test_kernel_table_entries():
    # index 0 is the identity: (k, 0) = g_diag, (0, k) its mirror, both >= 1 mixed
    z, w = 0.1 + 0.2j, -0.3 + 0.1j
    for k in (1, 2, 4):
        assert kernel(z, w, k, 0, R) == g_diag(z, w, k)
        assert kernel(z, w, 0, k, R) == -np.conj(g_diag(z, w, k))
    assert kernel(z, w, 2, 3, R) == g_mixed(z, w, 2, 3, R)
    for mu, nu in ((0, 0), (-1, 0), (0, -1), (-2, 3)):
        with pytest.raises(DomainError):
            kernel(z, w, mu, nu, R)
