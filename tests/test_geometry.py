import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pompeiu.errors import DomainError, StencilOutOfDomain
from pompeiu.geometry import (AREA_FACTOR, DiskDomain, MultiIndex, PolydiscDomain,
                              require_finite, wirtinger_split)


def test_require_finite_rejects_nan_inf():
    with pytest.raises(DomainError):
        require_finite(complex("nan"))
    with pytest.raises(DomainError):
        require_finite(complex("inf") + 0j)


def test_disk_domain_validation():
    with pytest.raises(DomainError):
        DiskDomain(0.0)
    with pytest.raises(DomainError):
        DiskDomain(-1.0)
    d = DiskDomain(2.0)
    assert d.contains(1 + 1j)
    assert d.contains(-2j)  # on the boundary
    assert not d.contains(2.1)
    with pytest.raises(DomainError):
        d.validate_point(1.5 + 1.5j)


@pytest.mark.parametrize("radius", [1e-170, 1e-155, 1.4e154, 1e155, float("inf"), float("nan")])
def test_disk_radius_outside_the_envelope_raises(radius):
    # R*R must be a finite normal float
    with pytest.raises(DomainError):
        DiskDomain(radius)
    with pytest.raises(DomainError):
        PolydiscDomain(2, radius)


@pytest.mark.parametrize("radius", [1.5e-154, 1e-100, 1e150, 1.3e154])
def test_disk_radius_inside_the_envelope_is_accepted(radius):
    assert DiskDomain(radius).radius == PolydiscDomain(2, radius).radius == radius


def test_membership_tolerance_is_relative():
    d = DiskDomain(1.0)
    assert d.contains(1.0 + 1e-13)
    assert not d.contains(1.0 + 1e-11)


def test_polydisc_domain():
    p = PolydiscDomain(2, 1.0)
    assert p.factor_disk.radius == 1.0
    p.validate_point((0.1, 0.2j))
    with pytest.raises(DomainError):
        p.validate_point((0.1,))
    with pytest.raises(DomainError):
        PolydiscDomain(0, 1.0)


def test_multi_index():
    m = MultiIndex((2, 1))
    assert m.order == 3
    assert m.shifted_factorial() == 1  # 1! * 0!
    assert MultiIndex((3, 2)).shifted_factorial() == 2
    with pytest.raises(DomainError):
        MultiIndex((1, -1))
    with pytest.raises(DomainError):
        MultiIndex((0, 1))  # every polydisc transform order is >= 1
    with pytest.raises(DomainError):
        MultiIndex(())
    with pytest.raises(DomainError):
        MultiIndex((1, 1)).require_length(3)


# ---------------------------------------------------------------------------
# Wirtinger stencils
# ---------------------------------------------------------------------------

def test_stencil_11_is_quarter_laplacian():
    # d dbar (x^2 + y^2) = Laplacian/4 applied: Laplacian = 4, so value 1
    st11 = wirtinger_split(1, 1)
    u = lambda z: np.asarray(z).real ** 2 + np.asarray(z).imag ** 2 + 0j
    val = st11.apply(u, 0.2 + 0.1j, 1e-3)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_stencil_01_on_zbar():
    st01 = wirtinger_split(0, 1)
    u = lambda z: np.conj(np.asarray(z, dtype=complex))
    val = st01.apply(u, 0.3 - 0.2j, 1e-4)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_stencil_22_on_abs_z_4():
    # d^2 dbar^2 (z^2 zbar^2) = 4, by symbolic differentiation of the monomial
    st22 = wirtinger_split(2, 2)
    u = lambda z: (np.abs(np.asarray(z, dtype=complex)) ** 4).astype(complex)
    val = st22.apply_richardson(u, 0.1 + 0.15j, 1e-2)
    assert val == pytest.approx(4.0, abs=1e-6)


@given(st.integers(0, 3), st.integers(0, 3))
def test_stencil_annihilates_low_degree(mu, nu):
    # d^mu dbar^nu of z^p zbar^q vanishes when p < mu (or q < nu); FD is exact
    # on polynomials of matching degree, so the stencil must return ~0
    if mu + nu == 0:
        return
    stn = wirtinger_split(mu, nu)
    p, q = max(mu - 1, 0), max(nu - 1, 0)
    u = lambda z: np.asarray(z, dtype=complex) ** p * np.conj(np.asarray(z, dtype=complex)) ** q
    val = stn.apply(u, 0.05 + 0.02j, 1e-2)
    assert abs(val) < 1e-7


def test_stencil_matches_exact_monomial_derivative():
    # d^2(z^3) = 6z and dbar(zbar^2) = 2 zbar, so d^2 dbar (z^3 zbar^2) = 12 z zbar
    stn = wirtinger_split(2, 1)
    u = lambda z: np.asarray(z, dtype=complex) ** 3 * np.conj(np.asarray(z, dtype=complex)) ** 2
    z0 = 0.3 + 0.1j
    val = stn.apply_richardson(u, z0, 1e-2)
    assert val == pytest.approx(12 * z0 * np.conj(z0), rel=1e-7)


def test_stencil_out_of_domain_check():
    d = DiskDomain(1.0)
    stn = wirtinger_split(2, 2)
    with pytest.raises(StencilOutOfDomain):
        stn.check_inside(d, 0.999, 0.01)
    stn.check_inside(d, 0.5, 0.01)


def test_area_factor_convention():
    assert AREA_FACTOR == 2j
