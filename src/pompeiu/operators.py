"""The disk transform family.

`transform(f, z, mu, nu)` is the one core: T^mu Tbar^nu f(z) as a single
quadrature against entry (mu, nu) of the kernel table `kernels.kernel`, where
an index of 0 is the identity in that variable (T^k is (k, 0), Tbar^k is
(0, k)).  `apply_T`, `apply_Tbar`, the powers and `apply_mixed` are aliases
of it.  `apply_S`, `apply_2T` and `apply_polydisc` have kernels of their own;
`apply_Sbar`, `apply_2Tbar` and `apply_conjugate_dual` are conj(op(conj f)).
Disk operators take a field on a `DiskDomain`, which is centred at 0 as the
closed-form kernels assume.  Nothing here nests integrals: that is the oracle
module's route.

Operator application is pure given (field, rule): batch evaluation over
target grids is data-parallel (PMP_THREADS workers, a positive integer)
and reduces in a fixed order, so results are reproducible.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce

import numpy as np

from . import expressions
from .errors import DimensionCap, DomainError, NonFiniteSample, PompeiuError
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .kernels import TWO_PI_I, c3, c8, kernel
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, Rule, build_area_rule,
                         build_contour_rule, integrate)

#: default per-factor resolution for polydisc tensor quadrature
POLYDISC_RESOLUTION = (24, 48)


@dataclass(frozen=True)
class ScalarField:
    """A complex-valued function on a disk or polydisc.

    `evaluator` must be total on the closed domain and vectorized: it takes
    one complex array per domain factor, the arrays broadcastable against
    each other, and returns an array of their broadcast shape or a 0-d value.
    """

    evaluator: object
    domain: DiskDomain | PolydiscDomain
    description: str = ""

    @property
    def factors(self) -> int:
        return self.domain.factors if isinstance(self.domain, PolydiscDomain) else 1

    def __call__(self, *factor_values):
        return self.evaluator(*factor_values)

    def conjugate(self) -> "ScalarField":
        ev = self.evaluator
        return ScalarField(lambda *zs: np.conj(ev(*zs)), self.domain,
                           f"conj({self.description})" if self.description else "")


def constant_field(value: complex, domain) -> ScalarField:
    value = complex(value)

    def ev(*zs):
        shape = np.broadcast(*[np.asarray(z) for z in zs]).shape
        return np.full(shape, value) if shape else value

    return ScalarField(ev, domain, str(value))


def field_from_expression(text: str, domain) -> ScalarField:
    ast = expressions.parse_expression(text)
    n = domain.factors if isinstance(domain, PolydiscDomain) else 1
    expressions.validate_variables(ast, n)
    return ScalarField(lambda *zs: expressions.evaluate(ast, zs), domain,
                       expressions.pretty(ast))


# ---------------------------------------------------------------------------
# Rule caching (solution evaluation reuses one rule per shared target point)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cached_area_rule(domain: DiskDomain, center: complex,
                     resolution: tuple[int, int]) -> Rule:
    return build_area_rule(domain, center, resolution)


def _rule_for(domain, z: complex, resolution) -> Rule:
    """The area rule centred at z on `domain`, which must be a disk."""
    if not isinstance(domain, DiskDomain):
        raise DomainError("disk operators need a ScalarField on a DiskDomain")
    return cached_area_rule(domain, domain.validate_point(complex(z)), tuple(resolution))


# ---------------------------------------------------------------------------
# The transform core and its aliases
# ---------------------------------------------------------------------------

def transform(f: ScalarField, z: complex, mu: int, nu: int,
              resolution=DEFAULT_RESOLUTION) -> complex:
    """T^mu Tbar^nu f(z) as one quadrature against the (mu, nu) table kernel.

    T^k is (k, 0) and Tbar^k is (0, k); (0, 0) and negative orders raise
    DomainError.  The kernel's only non-smooth point is its singularity at
    the target, which the graded rule centered at z absorbs.
    """
    r = _rule_for(f.domain, z, resolution)
    return complex(integrate(r, lambda w: kernel(z, w, mu, nu, f.domain.radius) * f(w)))


def apply_T(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION) -> complex:
    """Tf(z) = -1/(2 pi i) * integral of f(w)/(w - z) dwbar^dw."""
    return transform(f, z, 1, 0, resolution)


def apply_Tbar(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION) -> complex:
    """Tbar f(z) = -1/(2 pi i) * integral of f(w)/(wbar - zbar) dwbar^dw."""
    return transform(f, z, 0, 1, resolution)


def apply_T_power(f: ScalarField, z: complex, k: int, resolution=DEFAULT_RESOLUTION) -> complex:
    """T^k f(z), with kernel proportional to (wb - zb)^(k-1)/(w - z)."""
    return transform(f, z, k, 0, resolution)


def apply_Tbar_power(f: ScalarField, z: complex, k: int,
                     resolution=DEFAULT_RESOLUTION) -> complex:
    """Tbar^k f(z), the mirror of T^k."""
    return transform(f, z, 0, k, resolution)


def apply_mixed(f: ScalarField, z: complex, mu: int, nu: int,
                resolution=DEFAULT_RESOLUTION) -> complex:
    """T^mu Tbar^nu f(z)."""
    return transform(f, z, mu, nu, resolution)


def apply_conjugate_dual(f: ScalarField, z: complex, mu: int, nu: int,
                         resolution=DEFAULT_RESOLUTION) -> complex:
    """Tbar^mu T^nu f(z) via conj(T^mu Tbar^nu conj(f)) instead of a second kernel."""
    return complex(np.conj(transform(f.conjugate(), z, mu, nu, resolution)))


# ---------------------------------------------------------------------------
# Operators with kernels of their own, and their conjugate twins
# ---------------------------------------------------------------------------

def apply_2T(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION) -> complex:
    """Regularized square kernel: -1/(2 pi i) * int (f(w)-f(z))/(w-z)^2 dwbar^dw."""
    r = _rule_for(f.domain, z, resolution)
    with np.errstate(all="ignore"):
        fz = complex(f(np.asarray(complex(z))))
    if not cmath.isfinite(fz):
        raise NonFiniteSample("field value at the target is NaN/Inf")
    return complex(integrate(r, lambda w: (f(w) - fz) / (w - z) ** 2) / (-TWO_PI_I))


def apply_2Tbar(f: ScalarField, z: complex, resolution=DEFAULT_RESOLUTION) -> complex:
    """-1/(2 pi i) * int (f(w)-f(z))/(wbar-zbar)^2 dwbar^dw = conj(2T conj(f))."""
    return complex(np.conj(apply_2T(f.conjugate(), z, resolution)))


def S_envelope(radius: float, contour_count: int) -> float:
    """Largest |z| that `apply_S` accepts with `contour_count` nodes on the
    R-circle: n trapezoid nodes alias by about q^n/(1 - q^n) |f|, q = |z|/R,
    and the envelope is q^n <= 1e-10 (0.914 R at n = 256, 0.056 R at 8)."""
    return radius * 1e-10 ** (1.0 / contour_count)


def apply_S(f: ScalarField, z: complex, contour_count: int = DEFAULT_CONTOUR_COUNT) -> complex:
    """Sf(z) = 1/(2 pi i) * contour integral of f(w)/(w - z) dw (counterclockwise).

    A target outside `S_envelope` raises DomainError.
    """
    rule = build_contour_rule(f.domain.radius, contour_count)
    limit = S_envelope(f.domain.radius, contour_count)
    if abs(z) > limit:
        raise DomainError(f"S target |z| = {abs(z):.6g} is outside |z| <= {limit:.6g} "
                          f"(aliasing (|z|/R)^{contour_count} above 1e-10)")
    return complex(integrate(rule, lambda w: f(w) / (w - z)) / TWO_PI_I)


def apply_Sbar(f: ScalarField, z: complex, contour_count: int = DEFAULT_CONTOUR_COUNT) -> complex:
    """Sbar f(z) = -1/(2 pi i) * contour integral of f(w)/(wbar - zbar) dwbar
    = conj(S conj(f))."""
    return complex(np.conj(apply_S(f.conjugate(), z, contour_count)))


def apply_polydisc(f: ScalarField, z, mu: MultiIndex, nu: MultiIndex,
                   resolution=POLYDISC_RESOLUTION) -> complex:
    """Tensor-product transform on the polydisc (n <= 3 at desk scale).

    Per-factor rules are centered on the matching component of the target;
    the integrand is the product of per-factor kernels times f on the tensor
    grid.  The first factor is streamed one node at a time, and the other
    factors reach f as sparse broadcastable axes, to bound memory.
    """
    domain = f.domain
    if not isinstance(domain, PolydiscDomain):
        raise DomainError("apply_polydisc needs a ScalarField on a PolydiscDomain")
    n = domain.factors
    if n > 3:
        raise DimensionCap(f"polydisc operators capped at 3 factors, got {n}")
    mu.require_length(n)
    nu.require_length(n)
    z = domain.validate_point(z)

    disk = domain.factor_disk
    rules = [cached_area_rule(disk, z[j], tuple(resolution)) for j in range(n)]
    kernels = [c3(z[j], rules[j].nodes, mu.entries[j], nu.entries[j], domain.radius)
               for j in range(n)]
    wk = [rules[j].weights * kernels[j] for j in range(n)]

    # floating-point warnings are silenced here: a NaN/Inf total raises below
    with np.errstate(all="ignore"):
        if n == 1:
            total = np.sum(wk[0] * f(rules[0].nodes))
        else:
            tail_nodes = np.meshgrid(*(r.nodes for r in rules[1:]), indexing="ij", sparse=True)
            tail_wk = reduce(np.multiply.outer, wk[1:])
            total = 0j
            # each first-factor node as a shape-(1,) array, not a numpy scalar:
            # scalar z**2 can differ from array z**2 in the last bit
            for w0, node0 in zip(wk[0], rules[0].nodes[:, None]):
                total += w0 * np.sum(tail_wk * f(node0, *tail_nodes))
    if not np.isfinite(total):
        raise NonFiniteSample("integrand produced NaN/Inf at a quadrature node")
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

    def to_json_text(self) -> str:
        obj = {
            "config": self.config,
            "xs": [float(x) for x in self.xs],
            "ys": [float(y) for y in self.ys],
            "values": [[[float(v.real), float(v.imag)] for v in row] for row in self.values],
        }
        return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def worker_count() -> int:
    """Grid workers from PMP_THREADS (default 1); anything but a positive integer raises."""
    text = os.environ.get("PMP_THREADS", "1")
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise PompeiuError(f"PMP_THREADS must be a positive integer, got {text!r}")
    return count


def evaluate_on_grid(func, domain: DiskDomain, n: int = 33, extent: float = 0.95,
                     config: dict | None = None) -> GridField:
    """Evaluate a pointwise function on the inscribed-square grid.

    The grid spans the square of half-side extent*R/sqrt(2) centered on 0, so
    every point lies inside the closed disk.  Points are evaluated
    independently (PMP_THREADS workers) and assembled in a fixed order; a
    non-finite value raises NonFiniteSample, without floating-point warnings.
    """
    half = extent * domain.radius / math.sqrt(2.0)
    xs = np.linspace(-half, half, n)
    ys = np.linspace(-half, half, n)
    points = [complex(x, y) for y in ys for x in xs]

    def sample(z):
        # per call, because each worker thread has its own error state
        with np.errstate(all="ignore"):
            return func(z)

    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(sample, points))
    else:
        flat = [sample(z) for z in points]
    values = np.array(flat, dtype=complex).reshape(len(ys), len(xs))
    return GridField(xs=xs, ys=ys, values=values, config=dict(config or {}))
