"""Cross-radius regressions: nothing may silently assume the unit disk."""

import numpy as np
import pytest

from pompeiu.geometry import DiskDomain, wirtinger_split
from pompeiu.kernels import c3
from pompeiu.operators import (apply_mixed, apply_S, apply_T, constant_field,
                               field_from_expression)
from pompeiu.oracle import (NestedOracle, PolynomialField, exact_transform,
                            lemma_lhs_quadrature)
from pompeiu.solver import SolutionSpec, fd_residual, solve_biharmonic, solve_pde

RADII = [0.5, 2.5]


@pytest.mark.parametrize("R", RADII)
def test_kernel_oracle_equivalence_scales(R):
    a, b = 0.4 * R * np.exp(0.7j), -0.35 * R * np.exp(0.2j)
    for mu, nu in ((1, 1), (2, 2), (3, 1)):
        lhs = lemma_lhs_quadrature("lem6", a, b, (mu, nu), R, (64, 128))
        rhs = 2j * np.pi * c3(a, b, mu, nu, R)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


@pytest.mark.parametrize("R", RADII)
def test_exact_transform_and_interior_identity_scale(R):
    d = DiskDomain(R)
    rng = np.random.default_rng(42)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(d)
    z = (0.4 + 0.2j) * R
    exact = exact_transform(poly, R)
    scale = max(1.0, abs(complex(exact(np.asarray(z)))))
    assert abs(apply_T(f, z) - complex(exact(np.asarray(z)))) <= 1e-9 * scale
    dbar = poly.wirtinger(0, 1).to_field(d)
    got = apply_T(dbar, z) + apply_S(f, z)
    assert abs(got - complex(poly(np.asarray(z)))) <= 1e-9 * max(1.0, abs(got))


@pytest.mark.parametrize("R", RADII)
def test_nested_vs_closed_scales(R):
    d = DiskDomain(R)
    rng = np.random.default_rng(43)
    f = PolynomialField(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3))).to_field(d)
    z = (0.3 - 0.25j) * R
    closed = apply_mixed(f, z, 2, 1)
    nested = NestedOracle(f).evaluate(z, ["T", "T", "Tbar"])
    assert abs(closed - nested) <= 1e-5 * max(1.0, abs(closed))


@pytest.mark.parametrize("R", RADII)
def test_solver_residual_scales(R):
    d = DiskDomain(R)
    rhs = field_from_expression("1+z*zbar", d)
    zero = constant_field(0, d)
    u = solve_pde(SolutionSpec(1, 1, rhs, (zero,), (zero,)))
    pts = [0.3 * R, 0.2j * R]
    res = fd_residual(u, 1, 1, rhs, pts)
    scale = max(abs(complex(rhs(np.asarray(z)))) for z in pts)
    assert np.max(res) <= 1e-4 * scale


@pytest.mark.parametrize("R", RADII)
def test_biharmonic_scales(R):
    d = DiskDomain(R)
    rhs = constant_field(16.0, d)
    zero = constant_field(0, d)
    u = solve_biharmonic(rhs, zero, zero)
    stencil = wirtinger_split(2, 2)
    h = (1e-12) ** (1 / 6) * R
    got = 16 * stencil.apply_richardson(u, 0.2 * R, h).real
    assert got == pytest.approx(16.0, rel=1e-4)
