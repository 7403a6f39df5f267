"""Deterministic quadrature for weakly singular disk integrals and contours.

These are the target-centred rules: they serve transforms (polydisc factors
included) at explicit counts or of fields of unknown degree, 2T and every
oracle but the norm-bound check, while the default counts of a field of
finite degree take the disk-centred core (`operators`), which shares `sample`.
Area rules are polar about the singularity of the intended integrand: along
each ray |w - center| = rho(theta) s, s in [0, 1], with rho the distance to
the circle, so the Jacobian cancels a 1/|w - center| pole and the radial rule
is one Gauss-Legendre panel in s.  A rule's per-node `log_shift` turns the
-2 log s of a kernel's log|w - center|^2 into product integration
(`kernels.c3`).  A count left as None is its entry of DEFAULT_COUNTS; T
centres give one (T, N) rule.  Area and half rules move each node within the
exclusion radius COINCIDENCE_EPS * R of their center (`geometry`'s; the
kernels refuse it) onto a kept node, weight 0.

Weights carry the 2i area factor (dzbar ^ dz = 2i dx dy), and contour weights
carry dz = i R e^{i theta} dtheta, so operator formulas transcribe literally.
Rules are side-effect free and reduced in a fixed order, so results are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from .errors import DomainError, NonFiniteSample, ResolutionTooLow
from .geometry import AREA_FACTOR, COINCIDENCE_EPS, DiskDomain, require_separated

#: the (n_radial, n_angular) a count left as None takes, whatever the centre
#: and the integrand (scripts/rule_table.py: from 0.99 R out fewer angles lose
#: digits, 64x128 reading 1.1e-11 on (1,1) there against 8.0e-14)
DEFAULT_COUNTS = (64, 160)
#: both counts left as None: DEFAULT_COUNTS, or the disk-centred core (`operators`)
DEFAULT_RESOLUTION = (None, None)
DEFAULT_CONTOUR_COUNT = 256

# freeing a 1 MiB block lifts glibc's mmap/trim thresholds, so the 160 KiB
# arrays of DEFAULT_COUNTS rules are reused instead of mapped and faulted anew
np.empty(1 << 17)


@dataclass(frozen=True)
class Rule:
    """Nodes and weights: an area rule integrates f dzbar^dz over a disk, a
    contour rule f dz counterclockwise around its circle.  `log_shift` is a
    polar rule's per-node correction of log|w - center| (0 on a contour)."""

    nodes: np.ndarray
    weights: np.ndarray
    log_shift: np.ndarray | float = 0.0


@lru_cache(maxsize=64)
def radial_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes s and weights w on [0, 1], and log_shift = v/w - log s.

    Numpy's `leggauss` nodes x after two Newton steps, and the weights
    2/((1 - x^2) P_n'(x)^2) at them: `leggauss`'s own, taken at its unrefined
    nodes, read moment errors up to 2.2e-13 (n = 41), these 1e-14.

    The product weights v_k = w_k sum_m (2m+1) P~_m(s_k) M_m integrate
    p(s) log s exactly for p of degree < n (Atkinson, The Numerical Solution
    of Integral Equations of the Second Kind, 1997): P~_m are the shifted
    Legendre polynomials, M_m = int_0^1 P~_m log s ds = (-1)^(m+1)/(m(m+1)), M_0 = -1.
    """
    def legendre(x):   # P_n(x) and P_n'(x)
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / ((1 - x) * (1 + x))

    x = leggauss(n)[0]
    for _ in range(2):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    x, w = (x - x[::-1]) / 2, 1 / ((1 - x) * (1 + x) * dp ** 2)
    m = np.arange(1, n)
    moments = np.concatenate([[-1.0], (-1.0) ** (m + 1) / (m * (m + 1))])
    s = (1 + x) / 2
    return s, (w + w[::-1]) / 2, legval(x, (2 * np.arange(n) + 1) * moments) - np.log(s)


@lru_cache(maxsize=1)
def _panel_gauss() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre nodes and weights on [-1, 1] of `build_half_rule`'s
    angular panels, formed on first use."""
    return leggauss(8)


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


def rule_counts(domain: DiskDomain, centers, resolution) -> tuple[int, int]:
    """The (n_radial, n_angular) of the area rules about `centers`, each entry
    of `resolution` or, left as None, of DEFAULT_COUNTS; a centre outside the
    disk raises DomainError and a count below 4 x 8 ResolutionTooLow."""
    if not isinstance(domain, DiskDomain):
        raise DomainError(f"area rules need a DiskDomain, got {domain!r}")
    centers = np.asarray(centers, dtype=complex).ravel()
    for center in centers[~domain.contains(centers)]:
        domain.validate_point(center)   # raises its DomainError
    counts = tuple(default if count is None else count
                   for count, default in zip(resolution, DEFAULT_COUNTS))
    if counts[0] < 4 or counts[1] < 8:
        raise ResolutionTooLow(f"need n_radial >= 4 and n_angular >= 8, got {counts}")
    return counts


def _polar_rule(domain: DiskDomain, center, resolution, directions) -> Rule:
    """Polar rule about `center`, or (T, N) rules about T centres, at their
    `rule_counts`; `directions(centres, n_angular)`, given them as (T, 1, 1),
    gives the unit directions, their angular weights and the radial extent rho."""
    column = np.asarray(center, dtype=complex).reshape(-1, 1)
    n_radial, n_angular = rule_counts(domain, column, resolution)
    s, ws, shift = radial_rule(n_radial)
    # silenced: a NaN/Inf node or weight (R near the float range) raises in `integrate`
    with np.errstate(all="ignore"):
        unit, wt, rho = directions(column[..., None], n_angular)   # rho: (T, 1, n_angular)
        nodes = (column[..., None] + (rho * s[:, None]) * unit).reshape(len(column), -1)
        # dA = r dr dtheta = rho^2 s ds dtheta
        weights = (AREA_FACTOR * (rho**2 * s[:, None] * ws[:, None]) * wt).reshape(len(column), -1)
        # a node inside the exclusion radius (the expression require_separated
        # evaluates) gets weight 0 at its row's farthest node, so every node passes
        gap = np.abs(column - nodes)
    if (close := gap < COINCIDENCE_EPS * domain.radius).any():
        far = nodes[np.arange(len(column)), np.argmax(gap, axis=1)][:, None]
        nodes, weights = np.where(close, far, nodes), np.where(close, 0, weights)
    if not np.ndim(center):
        nodes, weights = nodes[0], weights[0]
    return Rule(nodes, weights, np.repeat(shift, n_angular))


def build_area_rule(domain: DiskDomain, singularity: complex,
                    resolution=DEFAULT_RESOLUTION) -> Rule:
    """Polar rule over the whole disk centered at `singularity` (a row per
    entry of an array).

    Angular rule: equispaced trapezoid (spectrally accurate since the radial
    extent is a smooth periodic function of the angle).  Radial rule: one
    Gauss-Legendre panel on [0, rho(theta)].
    """
    def directions(centres, n_angular):
        cos_t, sin_t = _symmetric_angles(n_angular)
        return (cos_t + 1j * sin_t, np.full(n_angular, 2 * np.pi / n_angular),
                _boundary_distance(domain, centres, cos_t, sin_t))

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
    def directions(centres, n_angular):   # `center`, validated, is their one entry
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

        theta_parts, wt_parts = [], []
        x, w = _panel_gauss()
        for lo, hi in arcs:
            span = hi - lo
            panels = max(1, round(span / (2 * np.pi) * n_angular / x.size))
            # cosine-cluster panel edges toward the arc endpoints: the
            # integrand's radial extent is steepest near the bisector-circle
            # corners
            t = np.linspace(0.0, 1.0, panels + 1)
            edges = lo + span * (1.0 - np.cos(np.pi * t)) / 2.0
            e0, e1 = edges[:-1, None], edges[1:, None]   # every panel at once
            theta_parts.append(((e0 + e1) / 2 + (e1 - e0) / 2 * x).ravel())
            wt_parts.append(((e1 - e0) / 2 * w).ravel())
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
    return Rule(nodes, weights)


def sample(integrand, nodes: np.ndarray):
    """`integrand(nodes)`, vectorized: a matching-shape array or a 0-d constant;
    any other shape raises DomainError and a NaN/Inf sample NonFiniteSample (its
    floating-point warnings silenced)."""
    with np.errstate(all="ignore"):
        vals = np.asarray(integrand(nodes), dtype=complex)
    if vals.shape not in ((), nodes.shape):
        raise DomainError(f"integrand returned shape {vals.shape} for {nodes.shape} nodes")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSample("integrand produced NaN/Inf at a quadrature node")
    return vals


def integrate(rule: Rule, integrand):
    """Weighted sum of integrand samples at the rule nodes (T row sums for (T, N) nodes).

    The integrand must be vectorized: given the node array it returns a
    matching-shape array or a 0-d constant.  Any other shape raises
    DomainError, and a NaN/Inf sample or weighted sum NonFiniteSample (the
    floating-point warnings that produced it are silenced); whatever the
    integrand raises propagates.
    """
    vals = sample(integrand, rule.nodes)
    with np.errstate(all="ignore"):
        total = np.sum(rule.weights * vals, axis=-1)
    if not np.isfinite(total).all():
        raise NonFiniteSample("weighted sum of the integrand samples is NaN/Inf")
    return total if total.ndim else complex(total)
