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
`apply_polydisc` sums products of one-disk transforms over a field's monomials,
a factor's in one `_transforms` call, the route under `transform_sum` (a sum per group).
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
from .kernels import TWO_PI_I, check_entry, kernel, power
# operators.c3 stays bound: test_tracing_restores_originals_and_keeps_outputs_identical reads it
from .kernels import c3  # noqa: F401
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, Rule, build_area_rule,
                         build_contour_rule, integrate, radial_rule, rule_counts, sample)

#: nodes per (T x N) pass of the rule path (a node budget: 33 targets x 8192 nodes ran slow)
BLOCK_NODES = 8192
#: `_disk_core` builds its pass tensors, then takes distinct radii, then
#: targets, in chunks whose largest array (pass weights per radius; the fields'
#: modes per radius; their 2 band + 1 rings per radius of a block, or per target)
#: holds at most CORE_BLOCK elements, or one radius or target; a band whose pass tensor,
#: (2 band + 1) (band + 2)^2 weights, exceeds CORE_TARGET_CAP raises OrderTooLarge,
#: one above 16 CORE_BLOCK (1 MiB) is built per call and entry and freed before the
#: targets' stage of its last CORE_FIELDS fields, whose modes stay under its size
CORE_BLOCK = 1 << 13
CORE_TARGET_CAP = 1 << 20
CORE_FIELDS = 32


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
    shape).  Routed as by `_transforms`."""
    values = _transforms(domain, [terms], np.asarray(z, dtype=complex).ravel(), resolution)[0]
    return values.reshape(np.shape(z)) if np.ndim(z) else complex(values[0])


def _transforms(domain, groups, targets, resolution):
    """Each group's `transform_sum` at the flat array `targets`, shape (groups, targets),
    routed as the module says; a rule block's rule and kernel entries serve every group."""
    if (tuple(resolution) == DEFAULT_RESOLUTION and isinstance(domain, DiskDomain)
            and all(f.degree < math.inf for group in groups for _, f in group)):
        return _disk_core(domain, groups, targets)
    counts = rule_counts(domain, targets, resolution)
    size = max(1, BLOCK_NODES // math.prod(counts))
    values = np.empty((len(groups), targets.size), dtype=complex)
    for lo in range(0, targets.size, size):
        zs = targets[lo:lo + size, None]
        r = build_area_rule(domain, zs, counts)
        with np.errstate(all="ignore"):   # a NaN/Inf kernel value raises in `integrate`
            k = {entry: kernel(zs, r.nodes, *entry, domain.radius, r.log_shift)
                 for entry in dict.fromkeys(entry for group in groups for entry, _ in group)}
        for g, group in enumerate(groups):
            values[g, lo:lo + size] = integrate(r, lambda w: sum(k[e] * f(w) for e, f in group))
    return values


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


def _core_modes(fields, mu: int, nu: int, tensors=None):
    """T^mu Tbar^nu of each of `fields` on the unit disk as (r, bary, modes):
    modes[band + k, i, m] is mode k (-band .. band) of field m at the Gauss
    radius r[i] of `_pass_tensor`, the band their largest degree d plus mu + nu.
    `tensors`, the caller's dict, keeps the last band's tensor for its next call.

    Each field is sampled once at r R times 2 band + 2 angles, and one FFT gives
    its modes |k| <= d; then nu Tbar (T between flips k -> -k, W being real)
    and mu T passes on the 2d + 1 live rows, one row higher per Tbar, lower per T.
    Orders (`kernels.check_entry`) and the band (CORE_TARGET_CAP) are checked first.
    """
    mu, nu = check_entry(mu, nu)
    d = int(max(f.degree for f in fields))
    band = d + mu + nu   # every intermediate's modes are polynomials of degree <= band
    size = (2 * band + 1) * (band + 2) ** 2
    if size > CORE_TARGET_CAP:
        raise OrderTooLarge(f"field degree {d} plus orders ({mu}, {nu}) need a pass tensor of "
                            f"{size} elements, above CORE_TARGET_CAP = {CORE_TARGET_CAP}; "
                            "explicit counts take the target-centred rule")
    tensors = {} if tensors is None else tensors
    if band not in tensors:
        tensors.clear()
        tensors[band] = (_cached_pass_tensor if size <= 16 * CORE_BLOCK else _pass_tensor)(band)
    r, bary, passes = tensors[band]
    turn = np.exp(2j * np.pi * np.arange(2 * band + 2) / (2 * band + 2))
    nodes = fields[0].domain.radius * r[:, None] * turn
    spectrum = np.fft.fft(np.stack([np.broadcast_to(sample(f, nodes), nodes.shape)
                                    for f in fields], axis=1)) / turn.size
    modes = np.zeros((2 * band + 1, r.size, len(fields)), dtype=complex)
    lo, hi = band - d, band + d + 1   # the live rows; mode k is row band + k
    modes[lo:hi] = spectrum[..., np.arange(-d, d + 1)].transpose(2, 0, 1)
    for shift in [1] * nu + [-1] * mu:   # Tbar^nu first (mode k to k + 1), then T^mu
        # a Tbar pass gives row i the weights of row -i: W's rows reversed
        weights = (passes[::-1] if shift > 0 else passes)[lo:hi]
        out = np.zeros_like(modes)
        # the real weights on the real and imaginary parts, one trailing axis: W is never cast
        out[lo + shift:hi + shift] = np.einsum(
            "kij,kjc->kic", weights, modes[lo:hi].view(float)).view(complex)
        modes, lo, hi = out, lo + shift, hi + shift
    return r, bary, modes


def _disk_core(domain: DiskDomain, groups, targets):
    """`_transforms` about the disk's centre, for fields of finite degree.

    For a field of degree d every T^j Tbar^i f is band-limited: its mode k is
    a polynomial in |z| of degree at most the band d + mu + nu.  So each
    density's transform is composed from mu + nu single passes on its modes
    (`_core_modes`), each exact per mode with weights of at most 1 (the ring
    weights of Daripa, SIAM J. Sci. Stat. Comput. 13, 1992), the terms of one
    entry sharing them CORE_FIELDS at a time by degree.  Then each mode is
    interpolated to the distinct target radii, once per radius, and each target
    sums them by Horner's rule (k >= 0 in p = e^{i arg z}, k < 0 in conj(p)), scaled by
    R^(mu+nu) and added to its group's, entry by entry.  Chunks as by CORE_BLOCK.  A
    NaN/Inf sample or value raises NonFiniteSample.
    """
    for point in targets[~domain.contains(targets)]:
        domain.validate_point(point)   # raises its DomainError
    terms = [(g, entry, f) for g, group in enumerate(groups) for entry, f in group]
    total = None   # the targets' arrays follow the first modes: a call peaks in one or the other
    for entry in dict.fromkeys(entry for _, entry, _ in terms):
        batch = sorted((i for i, t in enumerate(terms) if t[1] == entry),
                       key=lambda i: terms[i][2].degree)
        tensors = {}   # the entry's parts share a band's pass tensor
        for start in range(0, len(batch), CORE_FIELDS):
            part = batch[start:start + CORE_FIELDS]
            r, bary, modes = _core_modes([terms[i][2] for i in part], *entry, tensors)
            if start + CORE_FIELDS >= len(batch):
                tensors.clear()   # freed before the last part's targets' stage
            if total is None:
                radii, where = np.unique(np.abs(targets / domain.radius), return_inverse=True)
                order = np.argsort(where, kind="stable")   # the targets grouped by radius
                starts = np.searchsorted(where[order], np.arange(radii.size + 1))
                total = np.zeros((len(groups), targets.size), dtype=complex)
            modes = modes.transpose(2, 0, 1)   # (fields, rows, radii)
            step = max(1, CORE_BLOCK // modes.size)
            per_target = max(1, CORE_BLOCK // modes[..., 0].size)   # rings per target
            block = max(1, per_target // step) * step   # whole radius chunks per block of rings
            # the rows from the lowest nonzero mode or k = 0 to the highest: the rest add exact 0s
            live = np.flatnonzero(modes.any(axis=(0, 2))).tolist() + [modes.shape[1] // 2]
            zero, modes = live[-1] - min(live), modes[:, min(live):max(live) + 1]   # k = 0's row
            scale = np.float64(domain.radius) ** (entry[0] + entry[1])
            # floating-point warnings are silenced here: a NaN/Inf value raises below
            with np.errstate(all="ignore"):
                for lo in range(0, radii.size, block):
                    # cumsum sums in order whatever the shape, so a value never depends on T
                    rings = np.concatenate([np.cumsum(
                        _interpolation_rows(radii[at:at + step], r, bary)[:, None, None] * modes,
                        axis=3)[..., -1] for at in range(lo, min(lo + block, radii.size), step)])
                    rings = rings.transpose(2, 1, 0)   # (rows, fields, radii of the block)
                    chunk = order[starts[lo]:starts[min(lo + block, radii.size)]]
                    for at in range(0, chunk.size, per_target):
                        index = chunk[at:at + per_target]
                        # 1-d (fields x targets) operands: numpy rounds a (1, 1) by (1,) complex
                        # product apart from the 1-d one, so a batch would move a field's value
                        p = np.tile(np.exp(1j * np.angle(targets[index])), len(part))
                        ring, q = rings[..., where[index] - lo].reshape(len(rings), -1), p.conj()
                        up = reduce(lambda v, row: v * p + row, ring[zero:][::-1], 0)
                        value = up + reduce(lambda v, row: v * q + row, ring[:zero], 0) * q
                        for i, v in zip(part, value.reshape(len(part), -1)):
                            # an exact 0 stays 0 where R^(mu+nu) overflows
                            total[terms[i][0], index] += np.where(v == 0, 0, scale * v)
    total = np.zeros((len(groups), targets.size), dtype=complex) if total is None else total
    if not np.isfinite(total).all():
        raise NonFiniteSample("weighted sum of the integrand samples is NaN/Inf")
    return total


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
    """`build_area_rule` behind an LRU; nothing here calls it, perfbench reads its cache_info."""
    return build_area_rule(domain, center, resolution)


def apply_polydisc(f: ScalarField, z, mu: MultiIndex, nu: MultiIndex,
                   resolution=DEFAULT_RESOLUTION) -> complex:
    """T^mu Tbar^nu f(z) on the polydisc, as products of one-disk transforms.

    The kernel c8 * prod_j c3(z_j, w_j) separates, c8 being the product of the
    factors' `g_mixed` prefactors, so for f = sum_m c_m prod_j w_j^p conj(w_j)^q
    (`expressions.to_coefficients`) it is sum_m c_m prod_j V_j(p, q): V_j(p, q) is
    `transform` of w^p conj(w)^q at z_j, orders (mu_j, nu_j), at `resolution`,
    each distinct (j, p, q) taken once and a factor's in one `_transforms` call
    (shared passes, or one rule and kernel).  At the default counts each V_j is the
    core's, within 8.2e-14 of its largest |value| on the disk up to (20, 20).  A
    field with no expression raises DomainError: see `oracle.polydisc_tensor`."""
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
    values = {}
    for j in range(n):
        keys = sorted({key[j] for key in coefficients})
        groups = [[((mu.entries[j], nu.entries[j]), ScalarField(
            lambda w, p=p, q=q: power(w, p) * power(np.conj(w), q), domain.factor_disk,
            degree=p + q))] for p, q in keys]
        factor = _transforms(domain.factor_disk, groups, np.array([complex(z[j])]), resolution)
        values.update(zip([(j, *key) for key in keys], factor[:, 0].tolist()))
    total = sum(c * math.prod(values[j, p, q] for j, (p, q) in enumerate(key))
                for key, c in coefficients.items())   # Python complexes: no numpy warnings
    if not cmath.isfinite(total):
        raise NonFiniteSample("integrand produced NaN/Inf at a quadrature node")
    return complex(total)


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
