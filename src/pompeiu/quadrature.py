"""Deterministic quadrature for weakly singular disk integrals and contours.

Area rules are polar rules centered at the singularity of the intended
integrand: the polar Jacobian r cancels a 1/|z - center| singularity exactly,
and quadratic radial grading (panel edges at (k/P)^2) tames r*log(r).  The
radial extent is rescaled per angle to the distance from the center to the
disk boundary, so every panel integrand stays smooth in the normalized
(s, theta) coordinates.  Area and half rules drop every node closer to
their center than the exclusion radius COINCIDENCE_EPS * R, which `geometry`
owns: below that gap the kernels raise CoincidentPoints, so every node a rule
keeps is one the kernels accept.

Weights carry the 2i area factor (dzbar ^ dz = 2i dx dy), and contour weights
carry dz = i R e^{i theta} dtheta, so operator formulas transcribe literally.

Rule construction is side-effect free; node evaluation is vectorized and
reduced with numpy's pairwise summation in a fixed order, so results are
reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NonFiniteSample, ResolutionTooLow
from .geometry import AREA_FACTOR, COINCIDENCE_EPS, DiskDomain, require_separated

DEFAULT_RESOLUTION = (64, 128)
DEFAULT_CONTOUR_COUNT = 256


@dataclass(frozen=True)
class Rule:
    """Nodes and weights: an area rule integrates f dzbar^dz over a disk, a
    contour rule f dz counterclockwise around its circle."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def _graded_radial_rule(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]: `panels` panels of `order`
    nodes, with panel edges at (k/P)^2."""
    edges = (np.arange(panels + 1) / panels) ** 2
    x, w = leggauss(order)
    s = np.concatenate([(e0 + e1) / 2 + (e1 - e0) / 2 * x
                        for e0, e1 in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([(e1 - e0) / 2 * w
                         for e0, e1 in zip(edges[:-1], edges[1:])])
    return s, ws


@lru_cache(maxsize=64)
def _symmetric_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin at 2*pi*k/n with conjugation symmetry enforced exactly."""
    theta = 2.0 * np.pi * np.arange(n) / n
    c, s = np.cos(theta), np.sin(theta)
    for j in range(1, (n + 1) // 2):
        c[n - j] = c[j]
        s[n - j] = -s[j]
    if n % 2 == 0:
        c[n // 2], s[n // 2] = -1.0, 0.0
    c[0], s[0] = 1.0, 0.0
    return c, s


def _boundary_distance(domain: DiskDomain, center: complex,
                       cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """Distance from `center` to the circle along each direction."""
    x = center.real * cos_t + center.imag * sin_t
    under = domain.radius**2 - abs(center) ** 2 + x * x
    return np.maximum(-x + np.sqrt(np.maximum(under, 0.0)), 0.0)


def _polar_rule(domain: DiskDomain, center: complex, resolution: tuple[int, int],
                directions) -> Rule:
    """Graded polar rule about `center`; `directions(center, n_angular)` gives
    the unit directions, their angular weights and the radial extent rho along each."""
    n_radial, n_angular = resolution
    if n_radial < 4 or n_angular < 8:
        raise ResolutionTooLow(f"need n_radial >= 4 and n_angular >= 8, got {resolution}")
    # radial panels of `order` Gauss nodes; a partial panel is refused, not dropped
    order = 8 if n_radial >= 16 else 4
    if n_radial % order:
        raise ResolutionTooLow(f"n_radial must be a multiple of 4 below 16 and of 8 from 16 up, "
                               f"got {n_radial}")
    center = domain.validate_point(center)
    unit, wt, rho = directions(center, n_angular)
    s, ws = _graded_radial_rule(n_radial // order, order)

    nodes = (center + (rho[None, :] * s[:, None]) * unit[None, :]).ravel()
    # dA = r dr dtheta = rho^2 s ds dtheta
    weights = (AREA_FACTOR * (rho[None, :] ** 2 * s[:, None] * ws[:, None])
               * wt[None, :]).ravel()
    # the expression require_separated evaluates, so every kept node passes it
    keep = np.abs(center - nodes) >= COINCIDENCE_EPS * domain.radius
    if np.all(keep):
        return Rule(nodes=nodes, weights=weights)
    return Rule(nodes=nodes[keep], weights=weights[keep])


def build_area_rule(domain: DiskDomain, singularity: complex,
                    resolution: tuple[int, int] = DEFAULT_RESOLUTION) -> Rule:
    """Polar rule centered at `singularity`, covering the whole disk.

    Angular rule: equispaced trapezoid (spectrally accurate since the radial
    extent is a smooth periodic function of the angle).  Radial rule: graded
    Gauss-Legendre panels on [0, rho(theta)].
    """
    def directions(center, n_angular):
        cos_t, sin_t = _symmetric_angles(n_angular)
        return (cos_t + 1j * sin_t, np.full(n_angular, 2 * np.pi / n_angular),
                _boundary_distance(domain, center, cos_t, sin_t))

    return _polar_rule(domain, singularity, resolution, directions)


def build_half_rule(domain: DiskDomain, center: complex, other: complex,
                    resolution: tuple[int, int] = DEFAULT_RESOLUTION) -> Rule:
    """Rule on the half of the disk nearer `center` than `other`.

    The disk is cut along the perpendicular bisector of [center, other]; the
    piece containing `center` gets a polar rule centered on it.  The angular
    axis uses Gauss-Legendre panels split at the two angles where the
    bisector meets the circle, so the radial-extent kink never sits inside a
    panel.  Two such rules (swapping the roles) tile the disk exactly.
    """
    def directions(center, n_angular):
        o = domain.validate_point(other)
        require_separated(center, o, domain.radius)
        sep = abs(o - center)
        u = (o - center) / sep
        iu = 1j * u
        m0 = (center + o) / 2
        # bisector line m0 + t*iu meets the circle |z| = R at two angles
        beta = (np.conj(iu) * m0).real
        disc = max(beta * beta - (abs(m0) ** 2 - domain.radius**2), 0.0)
        root = math.sqrt(disc)
        a0, a1 = sorted(float(np.angle((m0 + t * iu) - center)) % (2 * np.pi)
                        for t in (-beta - root, -beta + root))
        arcs = [(a0, a1), (a1, a0 + 2 * np.pi)]

        order = 8
        theta_parts, wt_parts = [], []
        x, w = leggauss(order)
        for lo, hi in arcs:
            span = hi - lo
            panels = max(1, round(span / (2 * np.pi) * n_angular / order))
            # cosine-cluster panel edges toward the arc endpoints: the
            # integrand's radial extent is steepest near the bisector-circle
            # corners
            t = np.linspace(0.0, 1.0, panels + 1)
            edges = lo + span * (1.0 - np.cos(np.pi * t)) / 2.0
            for e0, e1 in zip(edges[:-1], edges[1:]):
                theta_parts.append((e0 + e1) / 2 + (e1 - e0) / 2 * x)
                wt_parts.append((e1 - e0) / 2 * w)
        theta = np.concatenate(theta_parts)

        cos_t, sin_t = np.cos(theta), np.sin(theta)
        rho_d = _boundary_distance(domain, center, cos_t, sin_t)
        d_bis = cos_t * u.real + sin_t * u.imag  # Re(e^{i theta} conj(u))
        with np.errstate(divide="ignore"):
            rho_b = np.where(d_bis > 1e-15, (sep / 2) / np.where(d_bis > 1e-15, d_bis, 1.0),
                             np.inf)
        return cos_t + 1j * sin_t, np.concatenate(wt_parts), np.minimum(rho_d, rho_b)

    return _polar_rule(domain, center, resolution, directions)


def build_contour_rule(radius: float, count: int = DEFAULT_CONTOUR_COUNT) -> Rule:
    """Equispaced trapezoid rule on |z| = radius, weights carry dz."""
    if count < 8:
        raise ResolutionTooLow(f"contour rule needs count >= 8, got {count}")
    DiskDomain(radius)  # validates the radius
    cos_t, sin_t = _symmetric_angles(count)
    unit = cos_t + 1j * sin_t
    nodes = radius * unit
    weights = 1j * radius * unit * (2 * np.pi / count)
    return Rule(nodes=nodes, weights=weights)


def integrate(rule: Rule, integrand) -> complex:
    """Weighted sum of integrand samples at the rule nodes.

    The integrand must be vectorized: given the node array it returns a
    matching-shape array or a 0-d constant.  Any other shape raises
    DomainError, and a NaN/Inf sample or weighted sum NonFiniteSample (the
    floating-point warnings that produced it are silenced); whatever the
    integrand raises propagates.
    """
    nodes = rule.nodes
    with np.errstate(all="ignore"):
        vals = np.asarray(integrand(nodes), dtype=complex)
    if vals.shape == ():
        vals = np.full(nodes.shape, complex(vals))
    elif vals.shape != nodes.shape:
        raise DomainError(f"integrand returned shape {vals.shape} for {nodes.shape} nodes")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSample("integrand produced NaN/Inf at a quadrature node")
    with np.errstate(all="ignore"):
        total = complex(np.sum(rule.weights * vals))
    if not cmath.isfinite(total):
        raise NonFiniteSample("weighted sum of the integrand samples is NaN/Inf")
    return total
