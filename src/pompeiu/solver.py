"""Solution assembly for d^mu dbar^nu u = A on the disk.

Solutions are parametrized by holomorphic free functions (restricted here to
polynomials, which are dense, have exact derivatives, and keep every term
computable by the closed-form kernels).  A solution value is one quadrature
pass per target point: the rule is centered on the target and the integrand
assembles all kernel groups at once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NonFiniteSample, NonRealRHS
from .geometry import DiskDomain, wirtinger_split
# solver.c3 stays bound: test_tracing_restores_originals_and_keeps_outputs_identical reads it
from .kernels import c3, kernel  # noqa: F401
from .operators import ScalarField, transform
from .quadrature import DEFAULT_RESOLUTION, build_area_rule, integrate

BIHARMONIC_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class HolomorphicPolynomial:
    """Finite Taylor series at 0; identically anti-derivative-free in zbar."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) > 21:
            raise DomainError("polynomial degree capped at 20")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "HolomorphicPolynomial":
        return cls((0j,))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c in reversed(self.coefficients):
            out = out * z + c
        return out if out.shape else complex(out)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


@dataclass(frozen=True)
class SolutionSpec:
    """Orders, right-hand side, and free holomorphic data of one problem.

    g_list supplies the nu holomorphic terms (g_0..g_{nu-1}); f_list the mu
    conjugated terms (f_0..f_{mu-1}).  rhs may be None for the homogeneous
    problem.
    """

    mu: int
    nu: int
    rhs: ScalarField | None
    g_list: tuple[HolomorphicPolynomial, ...]
    f_list: tuple[HolomorphicPolynomial, ...]

    def __post_init__(self):
        if self.mu < 1 or self.nu < 1:
            raise DomainError("orders mu, nu must be >= 1")
        if len(self.g_list) != self.nu:
            raise DomainError(f"need exactly nu={self.nu} g-polynomials, got {len(self.g_list)}")
        if len(self.f_list) != self.mu:
            raise DomainError(f"need exactly mu={self.mu} f-polynomials, got {len(self.f_list)}")


def solve_pde(spec: SolutionSpec, domain: DiskDomain | None = None,
              resolution=DEFAULT_RESOLUTION):
    """Evaluator z -> u(z) with d^mu dbar^nu u = rhs (rhs None: homogeneous).

    u = g_0(z) + one integral of a sum of (mu, nu) kernel-table entries
    (`kernels.kernel`): (j, 0) against g_j for j = 1..nu-1, (nu, i) against
    conj(f_i) for i = 0..mu-1, and (nu, mu) against A; the composition
    T^nu Tbar^mu inverts dbar^nu d^mu up to the holomorphic data.  `domain`
    is required when rhs is None and must equal rhs.domain otherwise.  A
    NaN/Inf value raises NonFiniteSample.
    """
    mu, nu = spec.mu, spec.nu
    dom = domain if spec.rhs is None else spec.rhs.domain
    if dom is None:
        raise DomainError("homogeneous problems need an explicit domain")
    if domain is not None and domain != dom:
        raise DomainError(f"domain {domain} differs from the right-hand side's {dom}")
    # (table entry, density) per term; zero free data contributes nothing
    terms = [((j, 0), g) for j, g in enumerate(spec.g_list) if j and not g.is_zero]
    terms += [((nu, i), lambda w, f=f: np.conj(f(w)))
              for i, f in enumerate(spec.f_list) if not f.is_zero]
    if spec.rhs is not None:
        terms.append(((nu, mu), spec.rhs))

    def u(z: complex) -> complex:
        z = complex(z)
        rule = build_area_rule(dom, z, resolution)

        def integrand(w):
            return sum((kernel(z, w, *entry, dom.radius) * density(w) for entry, density in terms),
                       np.zeros(w.shape, dtype=complex))

        with np.errstate(all="ignore"):
            return _finite(complex(spec.g_list[0](np.asarray(z)) + integrate(rule, integrand)))

    return u


def solve_biharmonic(rhs: ScalarField, h1: HolomorphicPolynomial,
                     h2: HolomorphicPolynomial, resolution=DEFAULT_RESOLUTION):
    """Evaluator z -> real u(z) with LaplacianSquared u = rhs (rhs real-valued).

    u = Re(T^2 Tbar^2 rhs) / 16 + |z|^2 Re(h1(z)) + Re(h2(z)), since
    LaplacianSquared = 16 d^2 dbar^2; the harmonic parts are the real parts
    of the supplied holomorphic polynomials.  A NaN/Inf value raises
    NonFiniteSample.
    """
    dom = rhs.domain
    if not isinstance(dom, DiskDomain):
        raise DomainError("biharmonic solver needs a disk right-hand side")

    def real_samples(w):
        samples = np.asarray(rhs(w), dtype=complex)
        if np.any(np.abs(samples.imag) > BIHARMONIC_IMAG_TOL):
            raise NonRealRHS("biharmonic right-hand side must be real-valued")
        return samples

    real_rhs = replace(rhs, evaluator=real_samples)

    def u(z: complex) -> float:
        z = complex(z)
        with np.errstate(all="ignore"):
            har = abs(z) ** 2 * complex(h1(np.asarray(z))).real + complex(h2(np.asarray(z))).real
            return float(_finite(transform(real_rhs, z, 2, 2, resolution).real / 16 + har))

    return u


def _finite(value):
    """`value`, or NonFiniteSample if it is NaN or infinite."""
    if not cmath.isfinite(value):
        raise NonFiniteSample("solution value is NaN/Inf")
    return value


def fd_residual(u, mu: int, nu: int, rhs: ScalarField, points) -> np.ndarray:
    """|FD[d^mu dbar^nu] u(z) - rhs(z)| at each target point.

    The Richardson-extrapolated stencil steps by (1e-12)^(1/(mu+nu+2)) * R,
    balancing truncation against quadrature noise in the sampled values.
    """
    dom = rhs.domain
    if not isinstance(dom, DiskDomain):
        raise DomainError("fd_residual needs a disk right-hand side")
    stencil = wirtinger_split(mu, nu)
    step = (1e-12) ** (1.0 / (mu + nu + 2)) * dom.radius
    out = []
    for z in points:
        z = complex(z)
        stencil.check_inside(dom, z, step)
        val = stencil.apply_richardson(u, z, step)
        out.append(abs(val - complex(rhs(np.asarray(z)))))
    return np.array(out)
