"""Domains, multi-indices, and Wirtinger-calculus conventions.

Conventions fixed here and relied on everywhere else:

* Wirtinger derivatives: d = (d/dx - i d/dy)/2,  dbar = (d/dx + i d/dy)/2,
  so the Laplacian is `4 * d dbar`.
* Area element: dzbar ^ dz = 2i dx dy.  Quadrature weights carry the 2i
  factor so operator formulas can be transcribed literally.
* Boundary contours are oriented counterclockwise.
* Exclusion radius: points closer than COINCIDENCE_EPS * R coincide.  The
  kernels refuse such a pair (`require_separated` raises CoincidentPoints),
  and area and half rules move every node that close to their center onto a
  kept node with weight 0, so each node is one the kernels accept.  `g_diag`,
  which has no radius, refuses only an exact zero gap.

All types are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoincidentPoints, DomainError, StencilOutOfDomain

#: dzbar ^ dz = AREA_FACTOR * dx dy
AREA_FACTOR = 2j

#: relative tolerance for membership in the closed disk
MEMBERSHIP_RTOL = 1e-12

#: |a - b| below COINCIDENCE_EPS * R is a coincidence
COINCIDENCE_EPS = 1e-14


def require_finite(z: complex) -> complex:
    """Validate that both components of a complex scalar are finite."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite complex value {z!r}")
    return z


def require_separated(a, b, radius: float):
    """Raise CoincidentPoints where |a - b| is below COINCIDENCE_EPS * R."""
    gap = np.abs(np.asarray(a) - np.asarray(b))
    if np.any(gap < COINCIDENCE_EPS * radius):
        raise CoincidentPoints(
            f"|a-b| below {COINCIDENCE_EPS:g}*R; kernel not defined at coincidence")


@dataclass(frozen=True)
class DiskDomain:
    """Closed disk {z : |z| <= radius}, centred at 0 as the closed-form kernels assume;
    R*R must be a finite normal float (about 1.5e-154 <= R <= 1.3e154)."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and 2.0**-1022 <= self.radius * self.radius < math.inf):
            raise DomainError(f"disk radius needs R > 0 and R*R a normal float, got {self.radius}")

    def contains(self, z: complex) -> bool:
        return abs(z) <= self.radius * (1.0 + MEMBERSHIP_RTOL)

    def validate_point(self, z: complex) -> complex:
        z = require_finite(z)
        if not self.contains(z):
            raise DomainError(f"point {z} outside closed disk of radius {self.radius}")
        return z


@dataclass(frozen=True)
class PolydiscDomain:
    """Cartesian product of `factors` copies of the disk {|z| <= radius}."""

    factors: int
    radius: float

    def __post_init__(self):
        if not (isinstance(self.factors, int) and self.factors >= 1):
            raise DomainError(f"factor count must be a positive integer, got {self.factors}")
        DiskDomain(self.radius)  # validates the radius

    @property
    def factor_disk(self) -> DiskDomain:
        return DiskDomain(self.radius)

    def validate_point(self, z) -> tuple[complex, ...]:
        z = tuple(complex(w) for w in z)
        if len(z) != self.factors:
            raise DomainError(f"point has {len(z)} components, domain has {self.factors}")
        disk = self.factor_disk
        for w in z:
            disk.validate_point(w)
        return z


@dataclass(frozen=True)
class MultiIndex:
    """Per-factor operator orders of a polydisc transform, each >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if len(self.entries) == 0:
            raise DomainError("multi-index must have at least one entry")
        if any(e < 1 for e in self.entries):
            raise DomainError(f"multi-index entries must be >= 1, got {self.entries}")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    def require_length(self, n: int) -> "MultiIndex":
        if len(self.entries) != n:
            raise DomainError(f"multi-index length {len(self.entries)} != factor count {n}")
        return self

    def shifted_factorial(self) -> int:
        """(entries - 1)! taken factor-wise, i.e. prod (e_j - 1)!."""
        out = 1
        for e in self.entries:
            out *= math.factorial(e - 1)
        return out


# ---------------------------------------------------------------------------
# Finite-difference stencils for d^mu dbar^nu
# ---------------------------------------------------------------------------

def _convolve(a: dict[int, float], b: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0.0) + ca * cb
    return out


def _central_1d(order: int) -> dict[int, float]:
    """Second-order-accurate central stencil for a single-variable derivative.

    Built by composing the 3-point first/second derivative stencils, so the
    result is exactly the discrete composition of those operators.
    """
    d1 = {-1: -0.5, 1: 0.5}
    d2 = {-1: 1.0, 0: -2.0, 1: 1.0}
    out = {0: 1.0}
    rem = order
    while rem >= 2:
        out = _convolve(out, d2)
        rem -= 2
    if rem == 1:
        out = _convolve(out, d1)
    return out


@dataclass(frozen=True)
class WirtingerStencil:
    """Grid stencil implementing d^mu dbar^nu via real-coordinate differences.

    ``offsets[k] = (i, j)`` means the sample point ``z + (i + 1j*j) * h``;
    the approximation is ``sum(coeffs[k] * u(z + offset*h)) / h**total_order``.
    """

    mu: int
    nu: int
    offsets: tuple[tuple[int, int], ...]
    coeffs: tuple[complex, ...]

    @property
    def total_order(self) -> int:
        return self.mu + self.nu

    @property
    def radius(self) -> int:
        return max(max(abs(i), abs(j)) for i, j in self.offsets)

    def sample_points(self, z: complex, h: float) -> np.ndarray:
        off = np.array([i + 1j * j for i, j in self.offsets])
        return z + h * off

    def apply(self, u, z: complex, h: float) -> complex:
        """One plain (non-extrapolated) stencil evaluation at step h; `u` is
        called once per sample point with a complex and returns a scalar."""
        vals = np.array([u(complex(p)) for p in self.sample_points(z, h)], dtype=complex)
        return complex(np.sum(np.asarray(self.coeffs) * vals) / h**self.total_order)

    def apply_richardson(self, u, z: complex, h: float) -> complex:
        """Richardson-extrapolated evaluation (h and h/2; O(h^4) truncation)."""
        coarse = self.apply(u, z, h)
        fine = self.apply(u, z, h / 2)
        return (4.0 * fine - coarse) / 3.0

    def check_inside(self, domain: DiskDomain, z: complex, h: float) -> None:
        # the h/2 pass of Richardson extrapolation only shrinks the reach
        reach = self.radius * h
        if abs(z) + reach > domain.radius * (1.0 + MEMBERSHIP_RTOL):
            raise StencilOutOfDomain(
                f"stencil of reach {reach:g} at {z} leaves the disk of radius {domain.radius}")


@lru_cache(maxsize=None)
def wirtinger_split(order_d: int, order_dbar: int) -> WirtingerStencil:
    """Finite-difference composition implementing d^order_d dbar^order_dbar.

    Expands ((dx - i dy)/2)^mu ((dx + i dy)/2)^nu by the binomial theorem and
    replaces each dx^p dy^q with the tensor product of second-order central
    stencils.  (1,1) reproduces Laplacian/4.
    """
    mu, nu = int(order_d), int(order_dbar)
    if mu < 0 or nu < 0:
        raise DomainError("derivative orders must be non-negative")
    # accumulate coefficient of dx^(p+q) dy^(mu+nu-p-q)
    xy: dict[tuple[int, int], complex] = {}
    for p in range(mu + 1):
        for q in range(nu + 1):
            coeff = (math.comb(mu, p) * math.comb(nu, q)
                     * (-1j) ** (mu - p) * (1j) ** (nu - q))
            key = (p + q, (mu - p) + (nu - q))
            xy[key] = xy.get(key, 0j) + coeff
    scale = 1.0 / 2 ** (mu + nu)

    grid: dict[tuple[int, int], complex] = {}
    for (ox, oy), coeff in xy.items():
        sx = _central_1d(ox)
        sy = _central_1d(oy)
        for i, ci in sx.items():
            for j, cj in sy.items():
                key = (i, j)
                grid[key] = grid.get(key, 0j) + coeff * scale * ci * cj
    items = sorted((k, v) for k, v in grid.items() if v != 0)
    return WirtingerStencil(
        mu=mu, nu=nu,
        offsets=tuple(k for k, _ in items),
        coeffs=tuple(v for _, v in items),
    )
