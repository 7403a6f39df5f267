import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pompeiu.errors import DomainError, NonFiniteSample, NonRealRHS, StencilOutOfDomain
from pompeiu.geometry import DiskDomain, wirtinger_split
from pompeiu.operators import (ScalarField, apply_mixed, constant_field,
                               field_from_expression)
from pompeiu.quadrature import DEFAULT_COUNTS
from pompeiu.solver import SolutionSpec, fd_residual, solve_biharmonic, solve_pde

DISK = DiskDomain(1.0)
ZERO = constant_field(0, DISK)
PTS = [0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.15j]


def poly(coefficients, domain=DISK):
    """The expression field sum_k c_k z^k on `domain`."""
    text = "+".join(f"({complex(c).real!r}+{complex(c).imag!r}i)*z^{k}"
                    for k, c in enumerate(coefficients))
    return field_from_expression(text, domain)


def test_solution_spec_validates_lengths():
    rhs = constant_field(1.0, DISK)
    with pytest.raises(DomainError):
        SolutionSpec(2, 1, rhs, (ZERO,), (ZERO,))
    with pytest.raises(DomainError):
        SolutionSpec(1, 0, rhs, (), (ZERO,))


def test_homogeneous_holomorphic_data_passes_through():
    # mu = nu = 1, g0(z) = z: u is that holomorphic function itself
    spec = SolutionSpec(1, 1, None, (field_from_expression("z", DISK),), (ZERO,))
    u = solve_pde(spec, DISK)
    for z in PTS:
        assert u(z) == pytest.approx(z, abs=1e-12)
    rhs0 = constant_field(0.0, DISK)
    res = fd_residual(u, 1, 1, rhs0, PTS)
    assert np.max(res) < 1e-6


def test_homogeneous_conjugate_data():
    # g0 = 0, f0 = 1: u = T(conj(1)) = zbar, so d dbar u = 0
    spec = SolutionSpec(1, 1, None, (ZERO,), (constant_field(1, DISK),))
    u = solve_pde(spec, DISK)
    for z in PTS:
        assert u(z) == pytest.approx(np.conj(z), abs=1e-9)
    res = fd_residual(u, 1, 1, constant_field(0.0, DISK), PTS)
    assert np.max(res) < 1e-6


def test_homogeneous_second_order_random_data():
    rng = np.random.default_rng(31)
    polys = [poly(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(4)]
    spec = SolutionSpec(2, 2, None, tuple(polys[:2]), tuple(polys[2:]))
    u = solve_pde(spec, DISK)
    res = fd_residual(u, 2, 2, constant_field(0.0, DISK), PTS)
    assert np.max(res) < 1e-5


def test_pde_with_unit_rhs_matches_mixed_transform():
    # zero free functions: u = T^nu Tbar^mu (A), the same kernel path as
    # apply_mixed, so agreement is to rounding
    one = constant_field(1.0, DISK)
    spec = SolutionSpec(1, 1, one, (ZERO,), (ZERO,))
    u = solve_pde(spec)
    for z in (0j, 0.3 + 0.2j):
        assert u(z) == pytest.approx(apply_mixed(one, z, 1, 1), abs=1e-13)
    assert u(0) == pytest.approx(-1.0, abs=1e-7)


def test_pde_zero_rhs_reduces_to_homogeneous():
    g0 = field_from_expression("0.5+1i*z", DISK)
    f0 = constant_field(0.25, DISK)
    zero_rhs = constant_field(0.0, DISK)
    spec_zero = SolutionSpec(1, 1, zero_rhs, (g0,), (f0,))
    spec_none = SolutionSpec(1, 1, None, (g0,), (f0,))
    u_zero = solve_pde(spec_zero)
    u_hom = solve_pde(spec_none, DISK)
    for z in PTS:
        assert u_zero(z) == pytest.approx(u_hom(z), abs=1e-12)


def test_pde_domain_must_match_the_rhs_domain():
    spec = SolutionSpec(1, 1, constant_field(1.0, DISK), (ZERO,), (ZERO,))
    with pytest.raises(DomainError):
        solve_pde(spec, DiskDomain(2.0))
    assert solve_pde(spec, DiskDomain(1.0))(0.1) == solve_pde(spec)(0.1)
    with pytest.raises(DomainError):
        solve_pde(SolutionSpec(1, 1, None, (ZERO,), (ZERO,)))


def test_pde_constant_rhs_residual():
    # d dbar u = 4 means Laplacian u = 16
    rhs = constant_field(4.0, DISK)
    spec = SolutionSpec(1, 1, rhs, (ZERO,), (ZERO,))
    u = solve_pde(spec)
    res = fd_residual(u, 1, 1, rhs, PTS)
    assert np.max(res) < 4e-2  # relative to |A| = 4 this is 1e-2


def test_pde_completeness_linearity():
    rng = np.random.default_rng(32)
    rhs = field_from_expression("1+z*zbar", DISK)
    g0 = poly(rng.standard_normal(2))
    f0 = poly(rng.standard_normal(2))
    full = solve_pde(SolutionSpec(1, 1, rhs, (g0,), (f0,)))
    bare = solve_pde(SolutionSpec(1, 1, rhs, (ZERO,), (ZERO,)))
    hom = solve_pde(SolutionSpec(1, 1, None, (g0,), (f0,)), DISK)
    for z in PTS:
        assert full(z) - bare(z) == pytest.approx(hom(z), abs=1e-10)


def test_pde_mixed_orders_residual():
    rhs = field_from_expression("z+zbar", DISK)
    g0 = field_from_expression("0.3+0.1i+0.5*z", DISK)
    f0 = constant_field(0.2, DISK)
    f1 = field_from_expression("0.1+0.4i*z", DISK)
    spec = SolutionSpec(2, 1, rhs, (g0,), (f0, f1))
    u = solve_pde(spec)
    res = fd_residual(u, 2, 1, rhs, PTS)
    assert np.max(res) < 1e-4


# ---------------------------------------------------------------------------
# Biharmonic
# ---------------------------------------------------------------------------

def biharmonic_fd(u, z, h=None):
    # LaplacianSquared = 16 d^2 dbar^2
    stencil = wirtinger_split(2, 2)
    h = h if h is not None else (1e-12) ** (1.0 / 6.0)
    return 16 * stencil.apply_richardson(u, z, h)


def test_biharmonic_harmonic_part_only():
    # A = 0, h2 = z^2: u = Re(z^2) = x^2 - y^2
    zero_rhs = constant_field(0.0, DISK)
    u = solve_biharmonic(zero_rhs, ZERO, field_from_expression("z^2", DISK))
    z = 0.3 + 0.2j
    assert u(z) == pytest.approx(z.real**2 - z.imag**2, abs=1e-12)
    assert abs(biharmonic_fd(u, 0.1 + 0.1j)) < 1e-6


def test_biharmonic_weighted_harmonic_part():
    # h1 = 1: u = |z|^2, whose bilaplacian vanishes
    zero_rhs = constant_field(0.0, DISK)
    u = solve_biharmonic(zero_rhs, constant_field(1, DISK), ZERO)
    z = 0.4 - 0.1j
    assert u(z) == pytest.approx(abs(z) ** 2, abs=1e-12)
    assert abs(biharmonic_fd(u, 0.2 - 0.1j)) < 1e-6


def test_biharmonic_constant_rhs():
    rhs = constant_field(16.0, DISK)
    u = solve_biharmonic(rhs, ZERO, ZERO)
    for z in PTS:
        assert biharmonic_fd(u, z) == pytest.approx(16.0, rel=1e-4)
    # output is real by construction
    assert all(isinstance(u(z), float) for z in PTS)


def test_biharmonic_cross_check_against_mixed_transform():
    # the integral part equals Re(T^2 Tbar^2 A)/16 pointwise
    rhs = constant_field(16.0, DISK)
    u = solve_biharmonic(rhs, ZERO, ZERO)
    z = 0.25 + 0.15j
    want = apply_mixed(rhs, z, 2, 2).real / 16.0
    assert u(z) == pytest.approx(want, rel=1e-12)


def test_biharmonic_rejects_complex_rhs():
    rhs = field_from_expression("z", DISK)  # imaginary part is y != 0
    u = solve_biharmonic(rhs, ZERO, ZERO)
    with pytest.raises(NonRealRHS):
        u(0.1 + 0.1j)


def test_non_finite_solution_value_raises():
    # the integral part is finite (zero right-hand side), the free polynomial
    # overflows at the target
    big = DiskDomain(1e150)
    zero, cube = constant_field(0, big), field_from_expression("z^3", big)
    u = solve_biharmonic(zero, zero, cube)
    with pytest.raises(NonFiniteSample, match="solution value"):
        u(1e120)
    spec = SolutionSpec(1, 1, zero, (cube,), (zero,))
    with pytest.raises(NonFiniteSample, match="solution value"):
        solve_pde(spec)(1e120)


# ---------------------------------------------------------------------------
# FD residual plumbing
# ---------------------------------------------------------------------------

def test_fd_residual_on_exact_solutions():
    rhs1 = constant_field(1.0, DISK)
    u1 = lambda z: z * np.conj(z)  # d dbar (z zbar) = 1
    assert np.max(fd_residual(u1, 1, 1, rhs1, PTS)) < 1e-9
    rhs4 = constant_field(4.0, DISK)
    u2 = lambda z: (z * np.conj(z)) ** 2  # d^2 dbar^2 (z^2 zbar^2) = 4
    assert np.max(fd_residual(u2, 2, 2, rhs4, PTS)) < 1e-7


def test_fd_residual_near_boundary_raises():
    rhs = constant_field(1.0, DISK)
    u = lambda z: z * np.conj(z)
    with pytest.raises(StencilOutOfDomain):
        fd_residual(u, 1, 1, rhs, [0.9999 + 0j])


def test_solve_pde_keys_the_core_by_each_density(monkeypatch):
    # each density's band, its degree plus its table entry's orders, sets the
    # disk-centred core's Gauss radii (band + 2) and angles (2 band + 2):
    # A at (nu, mu), g_j at (j, 0), conj(f_i) at (nu, i); a density of unknown
    # degree sends the sum to the target-centred rule at DEFAULT_COUNTS; a zero
    # datum, however spelled, takes no pass
    import pompeiu.operators as operators
    shapes, counts = [], []
    sample, rule = operators.sample, operators.build_area_rule
    monkeypatch.setattr(operators, "sample",
                        lambda f, nodes: shapes.append(nodes.shape) or sample(f, nodes))
    monkeypatch.setattr(operators, "build_area_rule",
                        lambda *args: counts.append(args[2]) or rule(*args))
    rhs = field_from_expression("z*zbar", DISK)
    cube, square = field_from_expression("z^3", DISK), field_from_expression("z^2", DISK)
    zero, cancelled = ZERO, field_from_expression("z^2-z*z", DISK)
    solve_pde(SolutionSpec(2, 2, rhs, (zero, cancelled), (cancelled, zero)))(0.3)
    solve_pde(SolutionSpec(1, 2, rhs, (zero, cube), (zero,)))(0.3)
    solve_pde(SolutionSpec(2, 1, rhs, (zero,), (zero, square)))(0.3)
    solve_pde(SolutionSpec(1, 1, None, (zero,), (zero,)), DISK)(0.3)
    # nodes are (radius, angle), sampled once per density
    assert shapes == [(8, 14), (6, 10), (7, 12), (6, 10), (7, 12)] and counts == []
    solve_pde(SolutionSpec(1, 1, replace(rhs, degree=math.inf), (zero,), (zero,)))(0.3)
    assert counts == [DEFAULT_COUNTS]


# ---------------------------------------------------------------------------
# Free data: holomorphic expression fields on the problem's disk
# ---------------------------------------------------------------------------

def test_free_data_must_be_holomorphic_expressions():
    mixed = field_from_expression("z^2 + 0.5i*zbar", DISK)
    message = re.escape("free functions must be holomorphic; 'z^2+0.5i*zbar' uses zbar")
    with pytest.raises(DomainError, match=message):
        SolutionSpec(1, 1, None, (ZERO,), (mixed,))
    with pytest.raises(DomainError, match=message):
        solve_biharmonic(constant_field(1, DISK), mixed, ZERO)
    # a callable field carries no expression to check
    callable_field = ScalarField(lambda w: w, DISK, degree=1)
    with pytest.raises(DomainError, match="no expression"):
        SolutionSpec(1, 1, None, (callable_field,), (ZERO,))
    with pytest.raises(DomainError, match="no expression"):
        solve_biharmonic(constant_field(1, DISK), ZERO, callable_field)
    # zbar terms that cancel leave a holomorphic datum
    u = solve_pde(SolutionSpec(1, 1, None, (field_from_expression("z+zbar-zbar", DISK),),
                               (ZERO,)), DISK)
    assert u(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j, abs=1e-15)


def test_free_data_must_lie_on_the_problem_disk():
    # each density is scaled by its own radius, so another disk would be wrong silently
    other = DiskDomain(2.0)
    rhs = constant_field(1.0, DISK)
    with pytest.raises(DomainError, match="differs"):
        solve_pde(SolutionSpec(1, 1, rhs, (ZERO,), (field_from_expression("z", other),)))
    with pytest.raises(DomainError, match="differs"):
        solve_pde(SolutionSpec(1, 1, None, (constant_field(0, other),), (ZERO,)), DISK)
    with pytest.raises(DomainError, match="differs"):
        solve_biharmonic(rhs, ZERO, field_from_expression("z^2", other))

