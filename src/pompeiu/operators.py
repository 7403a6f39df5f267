"""The disk transform family.

`transform(f, z, mu, nu)` is the one core: T^mu Tbar^nu f(z) as a single
quadrature against entry (mu, nu) of the kernel table `kernels.kernel`, where
an index of 0 is the identity in that variable (T^k is (k, 0), Tbar^k is
(0, k)).  `apply_T`, `apply_Tbar`, the powers and `apply_mixed` are aliases
of it.  `apply_S`, `apply_2T` and `apply_polydisc` have kernels of their own;
`apply_Sbar`, `apply_2Tbar` and `apply_conjugate_dual` are conj(op(conj f)).
Nothing here nests integrals: that route is the oracle module's cross-check.

Operator application is pure given (field, rule): batch evaluation over
target grids is data-parallel (capped by the PMP_THREADS environment
variable) and reduces in a fixed order, so results are reproducible.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from . import expressions
from .errors import DimensionCap, DomainError, NonFiniteSample
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .kernels import TWO_PI_I, c3, c8, kernel
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, AreaRule,
                         ContourRule, build_area_rule, build_contour_rule, integrate)

#: default per-factor resolution for polydisc tensor quadrature
POLYDISC_RESOLUTION = (24, 48)


@dataclass(frozen=True)
class ScalarField:
    """A complex-valued function on a disk or polydisc.

    `evaluator` must be total on the closed domain and vectorized: it takes
    one complex ndarray per domain factor and returns a matching-shape array.
    `hoelder_alpha` is metadata used by the norm estimators; it must lie
    strictly inside (0, 1).
    """

    evaluator: object
    domain: DiskDomain | PolydiscDomain
    hoelder_alpha: float = 0.5
    description: str = ""

    def __post_init__(self):
        if not (0.0 < self.hoelder_alpha < 1.0):
            raise DomainError(f"hoelder_alpha must be in (0,1) strictly, got {self.hoelder_alpha}")

    @property
    def factors(self) -> int:
        return self.domain.factors if isinstance(self.domain, PolydiscDomain) else 1

    def __call__(self, *factor_values):
        return self.evaluator(*factor_values)

    def conjugate(self) -> "ScalarField":
        ev = self.evaluator
        return ScalarField(lambda *zs: np.conj(ev(*zs)), self.domain, self.hoelder_alpha,
                           f"conj({self.description})" if self.description else "")


def constant_field(value: complex, domain, alpha: float = 0.5) -> ScalarField:
    value = complex(value)

    def ev(*zs):
        shape = np.broadcast(*[np.asarray(z) for z in zs]).shape
        return np.full(shape, value) if shape else value

    return ScalarField(ev, domain, alpha, str(value))


def field_from_expression(text: str, domain, alpha: float = 0.5) -> ScalarField:
    ast = expressions.parse_expression(text)
    n = domain.factors if isinstance(domain, PolydiscDomain) else 1
    expressions.validate_variables(ast, n)
    return ScalarField(lambda *zs: expressions.evaluate(ast, zs), domain, alpha,
                       expressions.pretty(ast))


def field_from_callable(fn, domain, alpha: float = 0.5, description: str = "") -> ScalarField:
    return ScalarField(fn, domain, alpha, description)


# ---------------------------------------------------------------------------
# Rule caching (solution evaluation reuses one rule per shared target point)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cached_area_rule(domain: DiskDomain, center: complex,
                     resolution: tuple[int, int]) -> AreaRule:
    return build_area_rule(domain, center, resolution)


@lru_cache(maxsize=32)
def cached_contour_rule(radius: float, count: int, center: complex) -> ContourRule:
    return build_contour_rule(radius, count, center)


def _rule_for(f: ScalarField, z: complex, resolution, rule: AreaRule | None) -> AreaRule:
    if rule is not None:
        return rule
    domain = f.domain
    if not isinstance(domain, DiskDomain):
        raise DomainError("disk operators need a ScalarField on a DiskDomain")
    return cached_area_rule(domain, domain.validate_point(complex(z)), tuple(resolution))


# ---------------------------------------------------------------------------
# The transform core and its aliases
# ---------------------------------------------------------------------------

def transform(f: ScalarField, z: complex, mu: int, nu: int,
              resolution=DEFAULT_RESOLUTION, rule: AreaRule | None = None) -> complex:
    """T^mu Tbar^nu f(z) as one quadrature against the (mu, nu) table kernel.

    T^k is (k, 0) and Tbar^k is (0, k); (0, 0) and negative orders raise
    DomainError.  The kernel's only non-smooth point is its singularity at
    the target, which the graded rule centered at z absorbs.
    """
    r = _rule_for(f, z, resolution, rule)
    return complex(integrate(r, lambda w: kernel(z, w, mu, nu, f.domain.radius) * f(w)))


def apply_T(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION,
            rule: AreaRule | None = None) -> complex:
    """Tf(z) = -1/(2 pi i) * integral of f(w)/(w - z) dwbar^dw."""
    return transform(f, z, 1, 0, resolution, rule)


def apply_Tbar(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION,
               rule: AreaRule | None = None) -> complex:
    """Tbar f(z) = -1/(2 pi i) * integral of f(w)/(wbar - zbar) dwbar^dw."""
    return transform(f, z, 0, 1, resolution, rule)


def apply_T_power(f: ScalarField, z: complex, k: int, resolution=DEFAULT_RESOLUTION,
                  rule: AreaRule | None = None) -> complex:
    """T^k f(z), with kernel proportional to (wb - zb)^(k-1)/(w - z)."""
    return transform(f, z, k, 0, resolution, rule)


def apply_Tbar_power(f: ScalarField, z: complex, k: int, resolution=DEFAULT_RESOLUTION,
                     rule: AreaRule | None = None) -> complex:
    """Tbar^k f(z), the mirror of T^k."""
    return transform(f, z, 0, k, resolution, rule)


def apply_mixed(f: ScalarField, z: complex, mu: int, nu: int,
                resolution=DEFAULT_RESOLUTION, rule: AreaRule | None = None) -> complex:
    """T^mu Tbar^nu f(z)."""
    return transform(f, z, mu, nu, resolution, rule)


def apply_conjugate_dual(f: ScalarField, z: complex, mu: int, nu: int,
                         resolution=DEFAULT_RESOLUTION, rule: AreaRule | None = None) -> complex:
    """Tbar^mu T^nu f(z) via conj(T^mu Tbar^nu conj(f)) instead of a second kernel."""
    return complex(np.conj(transform(f.conjugate(), z, mu, nu, resolution, rule)))


# ---------------------------------------------------------------------------
# Operators with kernels of their own, and their conjugate twins
# ---------------------------------------------------------------------------

def apply_2T(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION,
             rule: AreaRule | None = None) -> complex:
    """Regularized square kernel: -1/(2 pi i) * int (f(w)-f(z))/(w-z)^2 dwbar^dw."""
    r = _rule_for(f, z, resolution, rule)
    fz = complex(f(np.asarray(complex(z))))
    return complex(integrate(r, lambda w: (f(w) - fz) / (w - z) ** 2) / (-TWO_PI_I))


def apply_2Tbar(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION,
                rule: AreaRule | None = None) -> complex:
    """-1/(2 pi i) * int (f(w)-f(z))/(wbar-zbar)^2 dwbar^dw = conj(2T conj(f))."""
    return complex(np.conj(apply_2T(f.conjugate(), z, resolution, rule)))


def apply_S(f: ScalarField, z: complex, contour_count: int = DEFAULT_CONTOUR_COUNT,
            rule: ContourRule | None = None) -> complex:
    """Sf(z) = 1/(2 pi i) * contour integral of f(w)/(w - z) dw (counterclockwise).

    Trapezoid accuracy is spectral in the node count but decays as z
    approaches the boundary; keep targets a few node spacings inside.
    """
    domain = f.domain
    if rule is None:
        rule = cached_contour_rule(domain.radius, contour_count, domain.center)
    return complex(integrate(rule, lambda w: f(w) / (w - z)) / TWO_PI_I)


def apply_Sbar(f: ScalarField, z: complex, contour_count: int = DEFAULT_CONTOUR_COUNT,
               rule: ContourRule | None = None) -> complex:
    """Sbar f(z) = -1/(2 pi i) * contour integral of f(w)/(wbar - zbar) dwbar
    = conj(S conj(f))."""
    return complex(np.conj(apply_S(f.conjugate(), z, contour_count, rule)))


def apply_polydisc(f: ScalarField, z, mu: MultiIndex, nu: MultiIndex,
                   resolution=POLYDISC_RESOLUTION) -> complex:
    """Tensor-product transform on the polydisc (n <= 3 at desk scale).

    Per-factor rules are centered on the matching component of the target;
    the integrand is the product of per-factor kernels times f on the tensor
    grid.  The first factor is streamed to bound memory.
    """
    domain = f.domain
    if not isinstance(domain, PolydiscDomain):
        raise DomainError("apply_polydisc needs a ScalarField on a PolydiscDomain")
    n = domain.factors
    if n > 3:
        raise DimensionCap(f"polydisc operators capped at 3 factors, got {n}")
    mu = mu.require_positive().require_length(n)
    nu = nu.require_positive().require_length(n)
    z = domain.validate_point(z)

    disk = domain.factor_disk
    rules = [cached_area_rule(disk, z[j], tuple(resolution)) for j in range(n)]
    kernels = [c3(z[j], rules[j].nodes, mu.entries[j], nu.entries[j], domain.radius)
               for j in range(n)]
    wk = [rules[j].weights * kernels[j] for j in range(n)]

    if n == 1:
        total = np.sum(wk[0] * f(rules[0].nodes))
    else:
        tail_grids = np.meshgrid(*(r.nodes for r in rules[1:]), indexing="ij")
        tail_wk = wk[1]
        for part in wk[2:]:
            tail_wk = np.multiply.outer(tail_wk, part)
        total = 0j
        for i, node0 in enumerate(rules[0].nodes):
            factors = [np.full(tail_grids[0].shape, node0)] + list(tail_grids)
            total += wk[0][i] * np.sum(tail_wk * f(*factors))
    return complex(c8(mu, nu) * total)


# ---------------------------------------------------------------------------
# Grid output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Sampled complex values on a Cartesian grid (rows follow ys, row-major)."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    config: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (len(self.ys), len(self.xs)):
            raise DomainError("grid values shape must be (len(ys), len(xs))")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteSample("grid contains non-finite values")

    def to_csv_text(self) -> str:
        lines = ["x,y,re,im"]
        for iy, y in enumerate(self.ys):
            for ix, x in enumerate(self.xs):
                v = self.values[iy, ix]
                lines.append(f"{x:.15g},{y:.15g},{v.real:.15g},{v.imag:.15g}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "config": self.config,
            "xs": [float(x) for x in self.xs],
            "ys": [float(y) for y in self.ys],
            "values": [[[float(v.real), float(v.imag)] for v in row] for row in self.values],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=None, separators=(",", ":")) + "\n"


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("PMP_THREADS", "1")))
    except ValueError:
        return 1


def evaluate_on_grid(func, domain: DiskDomain, n: int = 33, extent: float = 0.95,
                     config: dict | None = None) -> GridField:
    """Evaluate a pointwise function on the inscribed-square grid.

    The grid spans the square of half-side extent*R/sqrt(2) centered on the
    disk center, so every point lies inside the closed disk.  Points are
    evaluated independently (PMP_THREADS workers) and assembled in a fixed
    order.
    """
    half = extent * domain.radius / math.sqrt(2.0)
    xs = np.linspace(-half, half, n) + domain.center.real
    ys = np.linspace(-half, half, n) + domain.center.imag
    points = [complex(x, y) for y in ys for x in xs]

    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(func, points))
    else:
        flat = [func(z) for z in points]
    values = np.array(flat, dtype=complex).reshape(len(ys), len(xs))
    return GridField(xs=xs, ys=ys, values=values, config=dict(config or {}))
