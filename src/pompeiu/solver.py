"""Solution assembly for d^mu dbar^nu u = A on the disk.

Solutions are parametrized by holomorphic free functions (restricted here to
polynomials, which are dense, have exact derivatives, and keep every term
computable by the closed-form kernels).  The evaluator is g_0 plus one
`operators.transform_sum` over the densities (A, conj f_i, g_j): at the
default counts one disk-centred core call, each density at its own degree
plus orders; at explicit counts, or with a density of unknown degree, one
target-centred rule per target whose integrand sums every kernel entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NonFiniteSample, NonRealRHS
from .geometry import DiskDomain, wirtinger_split
# solver.c3 stays bound: test_tracing_restores_originals_and_keeps_outputs_identical reads it
from .kernels import c3  # noqa: F401
from .operators import ScalarField, transform, transform_sum
from .quadrature import DEFAULT_RESOLUTION

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

    u = g_0(z) + `transform_sum` of (mu, nu) kernel-table entries
    (`kernels.kernel`): (j, 0) against g_j for j = 1..nu-1, (nu, i) against
    conj(f_i) for i = 0..mu-1, and (nu, mu) against A; the composition
    T^nu Tbar^mu inverts dbar^nu d^mu up to the holomorphic data.  `domain`
    is required when rhs is None and must equal rhs.domain otherwise.  z is
    a complex or an array; a NaN/Inf value raises NonFiniteSample.
    """
    mu, nu = spec.mu, spec.nu
    dom = domain if spec.rhs is None else spec.rhs.domain
    if dom is None:
        raise DomainError("homogeneous problems need an explicit domain")
    if domain is not None and domain != dom:
        raise DomainError(f"domain {domain} differs from the right-hand side's {dom}")
    # (table entry, density) per term; zero free data contributes nothing
    terms = [((j, 0), ScalarField(g, dom, degree=len(g.coefficients) - 1))
             for j, g in enumerate(spec.g_list) if j and not g.is_zero]
    terms += [((nu, i), ScalarField(lambda w, f=f: np.conj(f(w)), dom,
                                    degree=len(f.coefficients) - 1))
              for i, f in enumerate(spec.f_list) if not f.is_zero]
    if spec.rhs is not None:
        terms.append(((nu, mu), spec.rhs))

    def u(z):
        with np.errstate(all="ignore"):
            return _finite(spec.g_list[0](z) + transform_sum(dom, terms, z, resolution))

    return u


def solve_biharmonic(rhs: ScalarField, h1: HolomorphicPolynomial,
                     h2: HolomorphicPolynomial, resolution=DEFAULT_RESOLUTION):
    """Evaluator z -> real u(z) with LaplacianSquared u = rhs (rhs real-valued).

    u = Re(T^2 Tbar^2 rhs) / 16 + |z|^2 Re(h1(z)) + Re(h2(z)), since
    LaplacianSquared = 16 d^2 dbar^2; the harmonic parts are the real parts
    of the supplied holomorphic polynomials.  z is a complex (u a float) or an
    array; a NaN/Inf value raises NonFiniteSample.
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

    def u(z):
        with np.errstate(all="ignore"):
            har = np.abs(z) ** 2 * np.real(h1(z)) + np.real(h2(z))
            return _finite(transform(real_rhs, z, 2, 2, resolution).real / 16 + har)

    return u


def _finite(value):
    """`value`, or NonFiniteSample if any entry is NaN or infinite."""
    if not np.isfinite(value).all():
        raise NonFiniteSample("solution value is NaN/Inf")
    return value


def fd_residual(u, mu: int, nu: int, rhs: ScalarField, points) -> np.ndarray:
    """|FD[d^mu dbar^nu] u(z) - rhs(z)| at each target point.

    The Richardson-extrapolated stencil steps by (1e-12)^(1/(mu+nu+2)) * R,
    balancing truncation against quadrature noise in the sampled values.
    `u` must be vectorized: it is called once, on the array of every distinct
    stencil point of every target at both steps.
    """
    dom = rhs.domain
    if not isinstance(dom, DiskDomain):
        raise DomainError("fd_residual needs a disk right-hand side")
    stencil = wirtinger_split(mu, nu)
    step = (1e-12) ** (1.0 / (mu + nu + 2)) * dom.radius
    points = [complex(z) for z in points]
    for z in points:
        stencil.check_inside(dom, z, step)
    samples = list(dict.fromkeys(complex(p) for z in points for h in (step, step / 2)
                                 for p in stencil.sample_points(z, h)))
    u_at = dict(zip(samples, np.asarray(u(np.array(samples, dtype=complex))).ravel())).__getitem__
    return np.array([abs(stencil.apply_richardson(u_at, z, step) - complex(rhs(np.asarray(z))))
                     for z in points])
