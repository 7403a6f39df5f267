"""The disk transform family and the polydisc transform.

`transform(f, z, mu, nu)` is the one core: T^mu Tbar^nu f(z) as a single
quadrature against entry (mu, nu) of the kernel table `kernels.kernel`, where
an index of 0 is the identity in that variable (T^k is (k, 0), Tbar^k is
(0, k)).  `apply_T`, `apply_Tbar`, the powers and `apply_mixed` are aliases
of it.  `apply_S` and `apply_2T` have kernels of their own; `apply_Sbar`,
`apply_2Tbar` and `apply_conjugate_dual` are conj(op(conj f)).
Disk operators take a field on a `DiskDomain`, which is centred at 0 as the
closed-form kernels assume, build each target's area rule with
`build_area_rule` (a None count comes from `quadrature.RESOLUTION_TABLE`, by
|z|/R and the field's `degree` plus the kernel's orders) and pass its
`log_shift` to the kernel, which integrates the mixed kernels' log by
product weights.  `transform` takes an array of targets as blocks, each one
(T x N) pass (`over_targets`); PMP_THREADS workers take whole blocks, and
each row reduces in a fixed order, so results are reproducible.
`apply_polydisc` sums one-disk moments of an expression field's monomials.
Nothing here nests integrals or samples a polydisc tensor grid: those are
the oracle's routes.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from . import expressions
from .errors import DimensionCap, DomainError, NonFiniteSample, PompeiuError
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .kernels import TWO_PI_I, c3, c8, kernel
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, Rule, build_area_rule,
                         build_contour_rule, integrate, rule_counts)

#: nodes per (T x N) pass in `over_targets` (a node budget: 33 targets x 8192 nodes ran slow)
BLOCK_NODES = 8192


@dataclass(frozen=True)
class ScalarField:
    """A complex-valued function on a disk or polydisc.

    `evaluator` must be total on the closed domain and vectorized: it takes
    one complex array per domain factor, the arrays broadcastable against
    each other, and returns an array of their broadcast shape or a 0-d value.
    `expression`, if any, is the parsed polynomial it computes (`apply_polydisc`).
    `degree` bounds its total degree in every w_j and conj(w_j) (inf: unknown).
    """

    evaluator: object
    domain: DiskDomain | PolydiscDomain
    expression: expressions.Node | None = None
    degree: float = math.inf

    @property
    def factors(self) -> int:
        return self.domain.factors if isinstance(self.domain, PolydiscDomain) else 1

    def __call__(self, *factor_values):
        return self.evaluator(*factor_values)

    def conjugate(self) -> "ScalarField":
        ev = self.evaluator
        return ScalarField(lambda *zs: np.conj(ev(*zs)), self.domain, degree=self.degree)


def constant_field(value: complex, domain) -> ScalarField:
    value = complex(value)

    def ev(*zs):
        shape = np.broadcast(*[np.asarray(z) for z in zs]).shape
        return np.full(shape, value) if shape else value

    return ScalarField(ev, domain, expressions.Lit(value), 0)


def field_from_expression(text: str, domain) -> ScalarField:
    ast = expressions.parse_expression(text)
    n = domain.factors if isinstance(domain, PolydiscDomain) else 1
    expressions.validate_variables(ast, n)
    return ScalarField(lambda *zs: expressions.evaluate(ast, zs), domain, ast,
                       expressions.degree(ast))


# ---------------------------------------------------------------------------
# The transform core and its aliases
# ---------------------------------------------------------------------------

def over_targets(domain: DiskDomain, z, resolution, degree: float, block):
    """`block(zs, counts)`, the values at a 1-D array of targets given their
    `rule_counts`, over `z`: a complex (giving a complex) or an array (an array
    of its shape).  Targets of equal counts form blocks, in order, of at most
    BLOCK_NODES nodes (or one target); PMP_THREADS workers take whole blocks,
    so no value depends on them."""
    targets = np.asarray(z, dtype=complex).ravel()
    groups: dict[tuple, list[int]] = {}
    for i, counts in enumerate(rule_counts(domain, targets, resolution, degree).tolist()):
        groups.setdefault(tuple(counts), []).append(i)
    block_counts, blocks = [], []
    for counts, index in groups.items():
        size = max(1, BLOCK_NODES // (counts[0] * counts[1]))
        starts = range(0, len(index), size)
        block_counts += [counts] * len(starts)
        blocks += [index[k:k + size] for k in starts]
    batches = [targets[index] for index in blocks]
    if len(blocks) > 1 and (workers := worker_count()) > 1:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(block, batches, block_counts))
    else:
        results = map(block, batches, block_counts)
    values = np.empty(targets.shape, dtype=complex)
    for index, value in zip(blocks, results):
        values[index] = value
    return values.reshape(np.shape(z)) if np.ndim(z) else complex(values[0])


def transform(f: ScalarField, z, mu: int, nu: int, resolution=DEFAULT_RESOLUTION):
    """T^mu Tbar^nu f(z), z a complex or an array, against the (mu, nu) table kernel.

    T^k is (k, 0) and Tbar^k is (0, k); (0, 0) and negative orders raise
    DomainError.  The kernel's only non-smooth point is its singularity at
    the target, which the polar rule centered at z and its `log_shift` absorb.
    """
    def block(zs, counts):
        r = build_area_rule(f.domain, zs, counts, f.degree + mu + nu)
        return integrate(r, lambda w: kernel(zs[:, None], w, mu, nu, f.domain.radius,
                                             r.log_shift) * f(w))
    return over_targets(f.domain, z, resolution, f.degree + mu + nu, block)


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


def apply_mixed(f: ScalarField, z, mu: int, nu: int, resolution=DEFAULT_RESOLUTION):
    """T^mu Tbar^nu f(z), z a complex or an array."""
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
    r = build_area_rule(f.domain, z, resolution, f.degree + 2)
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


@lru_cache(maxsize=256)
def cached_area_rule(domain: DiskDomain, center: complex,
                     resolution: tuple[int, int], degree: float) -> Rule:
    """`build_area_rule` for `apply_polydisc`'s factors; the LRU stays only
    because `perfbench/workloads.py` reads its `cache_clear`/`cache_info`."""
    return build_area_rule(domain, center, resolution, degree)


def apply_polydisc(f: ScalarField, z, mu: MultiIndex, nu: MultiIndex,
                   resolution=DEFAULT_RESOLUTION) -> complex:
    """T^mu Tbar^nu f(z) on the polydisc, as n one-disk moment sums.

    With kernel c8 * prod_j c3(z_j, w_j) and f = sum_m c_m prod_j w_j^p conj(w_j)^q
    (`expressions.to_coefficients`), the tensor-product quadrature is
    c8 * sum_m c_m prod_j M_j(p, q), M_j(p, q) = sum_k W_jk w_jk^p conj(w_jk)^q,
    W_j = factor j's rule weights about z_j times c3 (with its log_shift).  Each
    distinct moment is formed once: n * monomials * N work, not N^n samples.
    The round-off is about u |c8| sum_m |c_m| prod_j sum_k |W_jk| |w_jk|^(p+q)
    (u = 2^-53), the size of the terms summed.  A field with no expression raises DomainError: see
    `oracle.polydisc_tensor`."""
    domain = f.domain
    if not isinstance(domain, PolydiscDomain):
        raise DomainError("apply_polydisc needs a ScalarField on a PolydiscDomain")
    n = domain.factors
    if n > 9:   # the expression grammar names z1..z9
        raise DimensionCap(f"polydisc operators capped at 9 factors, got {n}")
    if f.expression is None:
        raise DomainError("apply_polydisc expands a field's expression and this field has "
                          "none; oracle.polydisc_tensor integrates a callable field")
    mu.require_length(n)
    nu.require_length(n)
    z = domain.validate_point(z)
    coefficients = expressions.to_coefficients(f.expression, n)
    rules = [cached_area_rule(domain.factor_disk, w, tuple(resolution), f.degree + m + k)
             for w, m, k in zip(z, mu.entries, nu.entries)]
    wk = [rule.weights * c3(z[j], rule.nodes, mu.entries[j], nu.entries[j], domain.radius,
                            rule.log_shift) for j, rule in enumerate(rules)]
    # floating-point warnings are silenced here: a NaN/Inf total raises below
    with np.errstate(all="ignore"):
        moments = [{(p, q): np.sum(wk[j] * rules[j].nodes ** p * np.conj(rules[j].nodes) ** q)
                    for p, q in {key[j] for key in coefficients}} for j in range(n)]
        total = sum(c * math.prod(m[pq] for m, pq in zip(moments, key))
                    for key, c in coefficients.items())
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
        # Python floats format faster than numpy scalars, to the same digits
        xs = self.xs.tolist()
        rows = (f"{x:.15g},{y:.15g},{v.real:.15g},{v.imag:.15g}"
                for y, row in zip(self.ys.tolist(), self.values.tolist()) for x, v in zip(xs, row))
        return "\n".join(["x,y,re,im", *rows]) + "\n"

    def to_json_text(self) -> str:
        obj = {"config": self.config, "xs": self.xs.tolist(), "ys": self.ys.tolist(),
               "values": np.stack([self.values.real, self.values.imag], axis=-1).tolist()}
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
    """Evaluate a vectorized function on the inscribed-square grid.

    The n x n grid spans the square of half-side extent*R/sqrt(2) centered on
    0, corners at extent*R, so 0 < extent <= 1 (else DomainError) keeps every
    point inside the closed disk.  `func` maps the (n, n) array of points to
    their values or one 0-d value.  A non-finite value raises NonFiniteSample,
    without floating-point warnings, and a malformed PMP_THREADS PompeiuError.
    """
    if not (n >= 1 and 0 < extent <= 1):
        raise DomainError(f"grid needs n >= 1 and 0 < extent <= 1, got n={n}, extent={extent}")
    worker_count()   # every grid checks PMP_THREADS, whatever its blocks
    half = extent * domain.radius / math.sqrt(2.0)
    xs = ys = np.linspace(-half, half, n)
    with np.errstate(all="ignore"):
        values = np.asarray(func(xs[None, :] + 1j * ys[:, None]), dtype=complex)
    return GridField(xs, ys, np.broadcast_to(values, (n, n)), dict(config or {}))
