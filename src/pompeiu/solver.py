"""Solution assembly for d^mu dbar^nu u = A on the disk.

Solutions are parametrized by holomorphic free functions, given as expression
fields in z on the problem's disk (`_is_zero` refuses any other).  The
evaluator is g_0 plus one `operators.transform_sum` over the densities
(A, conj f_i, g_j): at the default counts one disk-centred core call, each
density sampled once and composed by the passes of its own table entry, all
of them sharing the targets' distinct radii; at explicit counts, or with a
density of unknown degree, one target-centred rule per target whose integrand
sums every kernel entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NonFiniteSample, NonRealRHS
from .expressions import pretty, to_coefficients
from .geometry import DiskDomain, wirtinger_split
# solver.c3 stays bound: test_tracing_restores_originals_and_keeps_outputs_identical reads it
from .kernels import c3  # noqa: F401
from .operators import ScalarField, transform, transform_sum
from .quadrature import DEFAULT_RESOLUTION

BIHARMONIC_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class SolutionSpec:
    """Orders, right-hand side, and free holomorphic data of one problem.

    g_list supplies the nu holomorphic terms (g_0..g_{nu-1}); f_list the mu
    conjugated terms (f_0..f_{mu-1}), each an expression field in z alone
    (else DomainError).  rhs may be None for the homogeneous problem.
    """

    mu: int
    nu: int
    rhs: ScalarField | None
    g_list: tuple[ScalarField, ...]
    f_list: tuple[ScalarField, ...]

    def __post_init__(self):
        for datum in self.g_list + self.f_list:
            _is_zero(datum)
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
    is required when rhs is None and must equal rhs.domain otherwise, and
    every free datum's domain must equal it.  z is a complex or an array; a
    NaN/Inf value raises NonFiniteSample.
    """
    mu, nu = spec.mu, spec.nu
    dom = domain if spec.rhs is None else spec.rhs.domain
    if dom is None:
        raise DomainError("homogeneous problems need an explicit domain")
    if domain is not None and domain != dom:
        raise DomainError(f"domain {domain} differs from the right-hand side's {dom}")
    _check_domains(dom, spec.g_list + spec.f_list)
    # (table entry, density) per term; zero free data contributes nothing
    terms = [((j, 0), g) for j, g in enumerate(spec.g_list) if j and not _is_zero(g)]
    terms += [((nu, i), f.conjugate()) for i, f in enumerate(spec.f_list) if not _is_zero(f)]
    if spec.rhs is not None:
        terms.append(((nu, mu), spec.rhs))

    def u(z):
        with np.errstate(all="ignore"):
            g_0 = spec.g_list[0](np.asarray(z, dtype=complex))
            return _finite(g_0 + transform_sum(dom, terms, z, resolution))

    return u


def solve_biharmonic(rhs: ScalarField, h1: ScalarField, h2: ScalarField,
                     resolution=DEFAULT_RESOLUTION):
    """Evaluator z -> real u(z) with LaplacianSquared u = rhs (rhs real-valued).

    u = Re(T^2 Tbar^2 rhs) / 16 + |z|^2 Re(h1(z)) + Re(h2(z)), since
    LaplacianSquared = 16 d^2 dbar^2; the harmonic parts are the real parts
    of the holomorphic expression fields h1 and h2 on rhs's disk (else
    DomainError).  z is a complex (u a float) or an array; a NaN/Inf value
    raises NonFiniteSample.
    """
    dom = rhs.domain
    if not isinstance(dom, DiskDomain):
        raise DomainError("biharmonic solver needs a disk right-hand side")
    for datum in (h1, h2):
        _is_zero(datum)
    _check_domains(dom, (h1, h2))

    def real_samples(w):
        samples = np.asarray(rhs(w), dtype=complex)
        if np.any(np.abs(samples.imag) > BIHARMONIC_IMAG_TOL):
            raise NonRealRHS("biharmonic right-hand side must be real-valued")
        return samples

    real_rhs = replace(rhs, evaluator=real_samples)

    def u(z):
        with np.errstate(all="ignore"):
            w = np.asarray(z, dtype=complex)
            har = np.abs(z) ** 2 * np.real(h1(w)) + np.real(h2(w))
            return _finite(transform(real_rhs, z, 2, 2, resolution).real / 16 + har)

    return u


def _is_zero(datum: ScalarField) -> bool:
    """Whether the free datum is zero (no exact coefficient); DomainError
    unless it is an expression field in z alone."""
    if datum.expression is None:
        raise DomainError("free functions must be holomorphic expressions; "
                          "this field has no expression")
    coefficients = to_coefficients(datum.expression, 1)
    if any(q for ((_, q),) in coefficients):
        raise DomainError(f"free functions must be holomorphic; "
                          f"{pretty(datum.expression)!r} uses zbar")
    return not coefficients


def _check_domains(domain, data) -> None:
    """DomainError unless every free datum lies on `domain`: the transforms
    scale each density by its own radius."""
    for datum in data:
        if datum.domain != domain:
            raise DomainError(f"free datum domain {datum.domain} differs from "
                              f"the problem's {domain}")


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
