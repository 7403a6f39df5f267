"""The disk transform family and the polydisc transform.

`transform(f, z, mu, nu)` is T^mu Tbar^nu f(z) against entry (mu, nu) of
the kernel table `kernels.kernel`, an index of 0 being the identity in that
variable (T^k is (k, 0), Tbar^k is (0, k)); `apply_T`, `apply_Tbar`, the
powers and `apply_mixed` are its aliases, and `transform_sum` sums entries
over several fields.  Disk operators take a field on a `DiskDomain`, centred
at 0 as the closed-form kernels assume.  At the default counts, for fields
of finite degree, they take the disk-centred core `_disk_core`, exact per
angular mode up to and on the circle: mu + nu single passes on each density's
modes, then each mode at the distinct target radii and each target's Horner sum.
Otherwise each target gets its polar area rule (`build_area_rule`, a None
count from `quadrature.DEFAULT_COUNTS`) and the kernel its `log_shift`, in
(T x N) blocks taken in order in the calling thread, each row reduced in a
fixed order.
`apply_S` and `apply_2T` have kernels of their own and keep the rules;
`apply_Sbar`, `apply_2Tbar` and `apply_conjugate_dual` are conj(op(conj f)).
`apply_polydisc` sums one-disk moments of an expression field's monomials.
Nothing here nests integrals or samples a polydisc tensor grid: those are
the oracle's routes.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce

import numpy as np

from . import expressions
from .errors import DimensionCap, DomainError, NonFiniteSample, OrderTooLarge, PompeiuError
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .kernels import TWO_PI_I, c3, c8, check_entry, kernel
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, Rule, build_area_rule,
                         build_contour_rule, integrate, radial_rule, rule_counts, sample)

#: nodes per (T x N) pass of the rule path (a node budget: 33 targets x 8192 nodes ran slow)
BLOCK_NODES = 8192
#: `_disk_core` builds its pass tensors, then takes distinct radii, then
#: targets, in chunks whose largest array (pass weights per radius; modes per
#: radius; 2 band + 1 rings per radius of a block, or per target) holds at most
#: CORE_BLOCK elements, or one radius or target; a band whose pass tensor,
#: (2 band + 1) (band + 2)^2 weights, exceeds CORE_TARGET_CAP raises OrderTooLarge,
#: and one above 16 CORE_BLOCK (1 MiB) is built per call and freed before the targets' stage
CORE_BLOCK = 1 << 13
CORE_TARGET_CAP = 1 << 20


@dataclass(frozen=True)
class ScalarField:
    """A complex-valued function on a disk or polydisc.

    `evaluator` must be total on the closed domain and vectorized: it takes
    one complex array per domain factor, the arrays broadcastable against
    each other, and returns an array of their broadcast shape or a 0-d value.
    `expression`, if any, is the parsed polynomial it computes (`apply_polydisc`
    and the solver's free data read it).
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
    # a Python scalar as its 0-d array: numpy overflows to inf where Python raises
    return ScalarField(lambda *zs: expressions.evaluate(ast, [np.asarray(z) for z in zs]),
                       domain, ast, expressions.degree(ast))


# ---------------------------------------------------------------------------
# The transform core and its aliases
# ---------------------------------------------------------------------------

def transform(f: ScalarField, z, mu: int, nu: int, resolution=DEFAULT_RESOLUTION):
    """T^mu Tbar^nu f(z), z a complex or an array, entry (mu, nu) of the kernel table.

    T^k is (k, 0) and Tbar^k is (0, k); (0, 0) and negative orders raise
    DomainError.  Routed as by `transform_sum`.
    """
    return transform_sum(f.domain, [((mu, nu), f)], z, resolution)


def transform_sum(domain, terms, z, resolution):
    """The sum of T^mu Tbar^nu f(z) over `terms`, ((mu, nu), f) pairs of fields
    on `domain`; z a complex (giving a complex) or an array (an array of its
    shape).  The disk-centred core at the default counts with every degree
    finite, else one polar rule per target whose `log_shift` the kernels take,
    the targets in order in blocks of at most BLOCK_NODES nodes (or one target)."""
    if (tuple(resolution) == DEFAULT_RESOLUTION and isinstance(domain, DiskDomain)
            and all(f.degree < math.inf for _, f in terms)):
        return _disk_core(domain, terms, z)
    targets = np.asarray(z, dtype=complex).ravel()
    counts = rule_counts(domain, targets, resolution)
    size = max(1, BLOCK_NODES // math.prod(counts))
    values = np.empty(targets.shape, dtype=complex)
    for lo in range(0, targets.size, size):
        zs = targets[lo:lo + size, None]
        r = build_area_rule(domain, zs, counts)
        values[lo:lo + size] = integrate(r, lambda w: sum(
            kernel(zs, w, *entry, domain.radius, r.log_shift) * f(w) for entry, f in terms))
    return values.reshape(np.shape(z)) if np.ndim(z) else complex(values[0])


def _interpolation_rows(x, radii, bary):
    """The rows that map values at `radii` to their interpolating polynomial's
    value at each point of x, shape x.shape + (n,): the barycentric formula of
    the second kind (Berrut & Trefethen, SIAM Rev. 46, 2004), its denominator
    summed in order (cumsum, whatever the shape); a point on a radius gets that
    radius's unit row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = bary / (x[..., None] - radii)
        rows = c / np.cumsum(c, axis=-1)[..., -1:]
    hit = np.isinf(c)
    return np.where(hit.any(axis=-1, keepdims=True), hit, rows)


def _pass_tensor(band: int):
    """The band + 2 Gauss radii r on [0, 1], their barycentric weights, and the
    pass tensor W, shape (2 band + 1, n, n), whose row band + k takes mode k's
    values at r to the mode k - 1 of its transform T there:
        -2 int_r^1 F_k(rho) (r/rho)^(k-1) drho   (k >= 1),
         2 int_0^r F_k(rho) (rho/r)^(1-k) drho   (k <= 0),
    each on n Gauss nodes (the [0, r] integrand's degree reaches 2 band + 1),
    F_k interpolated there from r.  Every weight is at most 1 in size."""
    r, w = radial_rule(band + 2)[:2]
    bary = (-1.0) ** np.arange(r.size) * np.sqrt(r * (1 - r) * w)
    k = np.arange(-band, band + 1)[:, None, None]
    up = k[:, 0, 0] >= 1
    passes = np.empty((k.size, r.size, r.size))
    step = max(1, CORE_BLOCK // (k.size * r.size))
    for lo in range(0, r.size, step):
        at = r[lo:lo + step, None]
        outer = at + (1 - at) * r
        passes[up, lo:lo + step] = np.einsum(
            "kip,ipj->kij", -2 * (1 - at) * w * (at / outer) ** (k[up] - 1),
            _interpolation_rows(outer, r, bary))
        passes[~up, lo:lo + step] = np.einsum(
            "kip,ipj->kij", 2 * at * w * r ** (1 - k[~up]), _interpolation_rows(at * r, r, bary))
    return r, bary, passes


_cached_pass_tensor = lru_cache(maxsize=8)(_pass_tensor)


def _core_modes(f: ScalarField, mu: int, nu: int):
    """T^mu Tbar^nu f on the unit disk as (r, bary, modes): its modes -band ..
    band (rows) at the Gauss radii r (columns) of `_pass_tensor`.

    f, of degree d, is sampled once at r R times 2 band + 2 angles, and one FFT
    gives its modes |k| <= d; then nu Tbar (T between flips k -> -k, W being real)
    and mu T passes on the 2d + 1 live rows, one row higher per Tbar, lower per T.
    Orders (`kernels.check_entry`) and the band (CORE_TARGET_CAP) are checked first.
    """
    mu, nu = check_entry(mu, nu)
    d = int(f.degree)
    band = d + mu + nu   # every intermediate's modes are polynomials of degree <= band
    size = (2 * band + 1) * (band + 2) ** 2
    if size > CORE_TARGET_CAP:
        raise OrderTooLarge(f"field degree {d} plus orders ({mu}, {nu}) need a pass tensor of "
                            f"{size} elements, above CORE_TARGET_CAP = {CORE_TARGET_CAP}; "
                            "explicit counts take the target-centred rule")
    r, bary, passes = (_cached_pass_tensor if size <= 16 * CORE_BLOCK else _pass_tensor)(band)
    turn = np.exp(2j * np.pi * np.arange(2 * band + 2) / (2 * band + 2))
    nodes = f.domain.radius * r[:, None] * turn
    spectrum = np.fft.fft(np.broadcast_to(sample(f, nodes), nodes.shape)) / turn.size
    modes = np.zeros((2 * band + 1, r.size), dtype=complex)
    lo, hi = band - d, band + d + 1   # the live rows; mode k is row band + k
    modes[lo:hi] = spectrum[:, np.arange(-d, d + 1)].T
    for shift in [1] * nu + [-1] * mu:   # Tbar^nu first (mode k to k + 1), then T^mu
        # a Tbar pass gives row i the weights of row -i: W's rows reversed
        weights = (passes[::-1] if shift > 0 else passes)[lo:hi]
        out = np.zeros_like(modes)
        # the real weights on the real and imaginary parts, strided views (a
        # contiguous copy sums in another order): W is never cast
        out.real[lo + shift:hi + shift] = np.einsum("kij,kj->ki", weights, modes[lo:hi].real)
        out.imag[lo + shift:hi + shift] = np.einsum("kij,kj->ki", weights, modes[lo:hi].imag)
        modes, lo, hi = out, lo + shift, hi + shift
    return r, bary, modes


def _disk_core(domain: DiskDomain, terms, z):
    """`transform_sum` about the disk's centre, for fields of finite degree.

    For a field of degree d every T^j Tbar^i f is band-limited: its mode k is
    a polynomial in |z| of degree at most the band d + mu + nu.  So each
    density's transform is composed from mu + nu single passes on its modes
    (`_core_modes`), each exact per mode with weights of at most 1 (the ring
    weights of Daripa, SIAM J. Sci. Stat. Comput. 13, 1992).  Then each mode
    is interpolated to the distinct target radii, once per radius, and each target
    sums them by Horner's rule (k >= 0 in p = e^{i arg z}, k < 0 in conj(p)), scaled
    by R^(mu+nu).  Chunks as by CORE_BLOCK.  A NaN/Inf sample or value raises NonFiniteSample.
    """
    targets = np.asarray(z, dtype=complex).ravel()
    for point in targets[~domain.contains(targets)]:
        domain.validate_point(point)   # raises its DomainError
    composed = [(_core_modes(f, mu, nu), np.float64(f.domain.radius) ** (mu + nu))
                for (mu, nu), f in terms]
    radii, where = np.unique(np.abs(targets / domain.radius), return_inverse=True)
    order = np.argsort(where, kind="stable")   # the targets grouped by radius
    starts = np.searchsorted(where[order], np.arange(radii.size + 1))
    total = np.zeros(targets.shape, dtype=complex)
    for (r, bary, modes), scale in composed:
        step, per_target = max(1, CORE_BLOCK // modes.size), max(1, CORE_BLOCK // modes.shape[0])
        block = max(1, per_target // step) * step   # whole radius chunks per block of rings
        # the rows from the lowest nonzero mode or k = 0 to the highest: the rest add exact 0s
        live = np.flatnonzero(modes.any(axis=1)).tolist() + [modes.shape[0] // 2]
        zero, modes = live[-1] - min(live), modes[min(live):max(live) + 1]   # zero: k = 0's row
        # floating-point warnings are silenced here: a NaN/Inf value raises below
        with np.errstate(all="ignore"):
            for lo in range(0, radii.size, block):
                # cumsum sums in order whatever the shape, so a value never depends on T
                rings = np.concatenate([np.cumsum(
                    _interpolation_rows(radii[at:at + step], r, bary)[:, None, :] * modes,
                    axis=2)[..., -1] for at in range(lo, min(lo + block, radii.size), step)]).T
                chunk = order[starts[lo]:starts[min(lo + block, radii.size)]]
                for at in range(0, chunk.size, per_target):
                    index = chunk[at:at + per_target]
                    p = np.exp(1j * np.angle(targets[index]))
                    ring, q = rings[:, where[index] - lo], p.conj()
                    up = reduce(lambda v, row: v * p + row, ring[zero:][::-1], 0)
                    value = up + reduce(lambda v, row: v * q + row, ring[:zero], 0) * q
                    # an exact 0 stays 0 where R^(mu+nu) overflows
                    total[index] += np.where(value == 0, 0, scale * value)
    if not np.isfinite(total).all():
        raise NonFiniteSample("weighted sum of the integrand samples is NaN/Inf")
    return total.reshape(np.shape(z)) if np.ndim(z) else complex(total[0])


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
    r = build_area_rule(f.domain, z, resolution)
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
def cached_area_rule(domain: DiskDomain, center: complex, resolution: tuple[int, int]) -> Rule:
    """`build_area_rule` for `apply_polydisc`'s factors; the LRU stays only
    because `perfbench/workloads.py` reads its `cache_clear`/`cache_info`."""
    return build_area_rule(domain, center, resolution)


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
    rules = [cached_area_rule(domain.factor_disk, w, tuple(resolution)) for w in z]
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
        # one %-format over (cell prefix, re, im) triples of Python floats, which
        # format faster than numpy scalars, to the same digits; each x and y once
        xs, ys = ([f"{t:.15g}" for t in axis.tolist()] for axis in (self.xs, self.ys))
        cells, values = [None] * (3 * self.values.size), self.values.ravel()
        cells[0::3] = [f"{x},{y}," for y in ys for x in xs]
        cells[1::3], cells[2::3] = values.real.tolist(), values.imag.tolist()
        return "x,y,re,im\n" + "%s%.15g,%.15g\n" * values.size % tuple(cells)

    def to_json_text(self) -> str:
        obj = {"config": self.config, "xs": self.xs.tolist(), "ys": self.ys.tolist(),
               "values": np.stack([self.values.real, self.values.imag], axis=-1).tolist()}
        return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def worker_count() -> int:
    """PMP_THREADS (default 1), which changes neither values nor speed: every
    block runs in the calling thread.  Anything but a positive integer raises."""
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
