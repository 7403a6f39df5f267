"""The disk transform family and the polydisc transform.

`transform(f, z, mu, nu)` is T^mu Tbar^nu f(z) against entry (mu, nu) of
the kernel table `kernels.kernel`, an index of 0 being the identity in that
variable (T^k is (k, 0), Tbar^k is (0, k)); `apply_T`, `apply_Tbar`, the
powers and `apply_mixed` are its aliases, and `transform_sum` sums entries
over several fields.  Disk operators take a field on a `DiskDomain`, centred
at 0 as the closed-form kernels assume.  At the default counts, for fields
of finite degree, they take the disk-centred core `_disk_core`, exact per
angular mode up to and on the circle: its radial work runs once per distinct
target radius, then each target takes its phases and monomials.  Otherwise
each target gets its polar area rule (`build_area_rule`, a None count from
`quadrature.RESOLUTION_TABLE`) and the kernel its `log_shift`, in (T x N)
blocks (`over_targets`) taken in order in the calling thread, each row
reduced in a fixed order.
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
from functools import lru_cache

import numpy as np

from . import expressions
from .errors import DimensionCap, DomainError, NonFiniteSample, OrderTooLarge, PompeiuError
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .kernels import TWO_PI_I, c3, c8, expansion, kernel
from .quadrature import (DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION, Rule, build_area_rule,
                         build_contour_rule, integrate, radial_rule, rule_counts, sample)

#: nodes per (T x N) pass in `over_targets` (a node budget: 33 targets x 8192 nodes ran slow)
BLOCK_NODES = 8192
#: `_disk_core` takes distinct radii, then targets, in chunks whose largest
#: array (field samples or mode weights per radius; phases and monomials per
#: target) holds at most CORE_BLOCK elements, or one radius or target (1 << 14
#: ran solve_grid about 18% faster in-process but traced 0.5 MB more); a target
#: needing more than CORE_TARGET_CAP elements raises OrderTooLarge
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

def over_targets(domain: DiskDomain, z, resolution, degree: float, block):
    """`block(zs, counts)`, the values at a 1-D array of targets given their
    `rule_counts`, over `z`: a complex (giving a complex) or an array (an array
    of its shape).  Targets of equal counts form blocks, in order, of at most
    BLOCK_NODES nodes (or one target), evaluated one after another."""
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
    values = np.empty(targets.shape, dtype=complex)
    for index, counts in zip(blocks, block_counts):
        values[index] = block(targets[index], counts)
    return values.reshape(np.shape(z)) if np.ndim(z) else complex(values[0])


def transform(f: ScalarField, z, mu: int, nu: int, resolution=DEFAULT_RESOLUTION):
    """T^mu Tbar^nu f(z), z a complex or an array, entry (mu, nu) of the kernel table.

    T^k is (k, 0) and Tbar^k is (0, k); (0, 0) and negative orders raise
    DomainError.  Routed as by `transform_sum`.
    """
    return transform_sum(f.domain, [((mu, nu), f)], z, resolution)


def transform_sum(domain, terms, z, resolution):
    """The sum of T^mu Tbar^nu f(z) over `terms`, ((mu, nu), f) pairs of fields
    on `domain`; z a complex or an array.  The disk-centred core at the default
    counts with every degree finite, else one polar rule per target (at the
    largest degree plus orders) whose `log_shift` the kernels take."""
    degree = max([f.degree + mu + nu for (mu, nu), f in terms], default=0)
    if (tuple(resolution) == DEFAULT_RESOLUTION and degree < math.inf
            and isinstance(domain, DiskDomain)):
        return _disk_core(domain, terms, z)

    def block(zs, counts):
        r = build_area_rule(domain, zs, counts, degree)
        return integrate(r, lambda w: sum(kernel(zs[:, None], w, *entry, domain.radius,
                                                 r.log_shift) * f(w) for entry, f in terms))
    return over_targets(domain, z, resolution, degree, block)


@lru_cache(maxsize=64)
def _core_plan(mu: int, nu: int, d: int):
    """`_disk_core`'s constants for entry (mu, nu) and field degree d: c; rho
    and the weights over the angles as r * line[0] + line[1] on the panels
    [0, r] and [r, R], shape (2, n), t's [0, r] values s, the log weights over
    ws; the angles and F's columns k; per potential (p, q) of Q: F_k's mode j,
    its coefficients on each panel, rho's power; mode 0 of each moment and
    potential as (F's column, has one, rho's power); each monomial's powers of
    a and conj a, coefficient and source (P's moments, then Q's potentials)."""
    c, p_terms, q_terms = expansion(mu, nu)
    n = d + mu + nu
    s, ws, shift = radial_rule(n)
    zero, angles = np.zeros(n), np.exp(2j * np.pi * np.arange(2 * n + 2) / (2 * n + 2))
    k = np.arange(-d, d + 1)
    pairs = sorted({(p, q) for *_, p, q, _ in q_terms})
    j = np.array([k + p - q - c for p, q in pairs])
    coef = np.stack([np.where(j, 1 / np.maximum(abs(j), 1), 0)] * 2 if c == 0 else
                    [np.where(c * j < 0, -1.0, 0), np.where(c * j >= 0, 1.0, 0)], axis=1)
    zeroth = [(p, q) for *_, p, q, _ in p_terms] + pairs
    column = np.array([q - p + d for p, q in zeroth])
    has_0 = abs(column - d) <= d
    i, i_bar, *_ = np.array(p_terms + q_terms, dtype=int).T
    source = [*range(len(p_terms)), *(len(p_terms) + pairs.index((p, q))
                                      for *_, p, q, _ in q_terms)]
    return (c, np.array([[s, 1 - s], [zero, s]]), np.array([[ws, -ws], [zero, ws]]) / angles.size,
            np.array([s, np.full(n, np.nan)]), shift + np.log(s), angles, k % angles.size,
            j, coef, np.array([p + q + (c == 0) for p, q in pairs]),
            (np.where(has_0, column, 0), has_0, np.array([1 + p + q for p, q in zeroth])),
            len(p_terms), (i, i_bar, np.array([term[4] for term in p_terms + q_terms]), source))


def _disk_core(domain: DiskDomain, terms, z):
    """`transform_sum` about the disk's centre, for fields of finite degree d.

    Entry (mu, nu) is (sum P + K sum Q)/(2 pi i) (`kernels.expansion`): moments
    and potentials K[b^p conj(b)^q f](a), each exact per angular mode (Daripa,
    SIAM J. Sci. Stat. Comput. 13, 1992; Daripa & Mashat, Numer. Algorithms
    18, 1998).  With a = r e^{i alpha} and t = min(r, rho)/max(r, rho), mode j
    of -log|a - b|^2, 1/(b - a) and 1/(conj b - conj a) weighs t^|j| e^{i j alpha},
    and log(1 - a conj b) = -sum (a conj b)^j / j.  The radial work depends on
    r alone, so it runs once per distinct target radius (`_core_rings`), shared
    by every term; then each target weighs its radius's mode sums by its own
    phases and sums the monomials in a and conj a.  Both stages go in chunks
    under CORE_BLOCK: radii by their radial elements, targets by their
    potentials' modes plus monomials.  A target above CORE_TARGET_CAP raises
    OrderTooLarge, a NaN/Inf sample or value NonFiniteSample.
    """
    targets = np.asarray(z, dtype=complex).ravel()
    for point in targets[~domain.contains(targets)]:
        domain.validate_point(point)   # raises its DomainError
    radii, where = np.unique(np.abs(targets / domain.radius), return_inverse=True)
    order = np.argsort(where, kind="stable")   # the targets grouped by radius
    starts = np.searchsorted(where[order], np.arange(radii.size + 1))
    total = np.zeros(targets.shape, dtype=complex)
    for (mu, nu), f in terms:
        d = int(f.degree)
        n = d + mu + nu   # the band: nodes per radial panel, and every |j| <= n
        # elements per radius of the largest array: the samples on 2n + 2 angles,
        # or Q's max(mu, 1) max(nu, 1) potentials' weights of the 2d + 1 modes
        size = 2 * n * max(2 * n + 2, max(mu, 1) * max(nu, 1) * (2 * d + 1))
        if size > CORE_TARGET_CAP:
            raise OrderTooLarge(f"field degree {d} plus orders ({mu}, {nu}) need {size} "
                                f"elements per target, above CORE_TARGET_CAP = {CORE_TARGET_CAP}; "
                                "explicit counts take the target-centred rule")
        plan = _core_plan(mu, nu, d)
        c, j, n_p, (i, i_bar, co, source) = plan[0], plan[7], plan[11], plan[12]
        scale = 2 * np.float64(f.domain.radius) ** (mu + nu)
        step, per_target = max(1, CORE_BLOCK // size - 1), max(1, CORE_BLOCK // (j.size + co.size))
        # floating-point warnings are silenced here: a NaN/Inf value raises below
        with np.errstate(all="ignore"):
            edge = None   # [0, R]'s row, from the first chunk
            for lo in range(0, radii.size, step):
                sums, logs, moments, edge = _core_rings(f, plan, radii[lo:lo + step], edge)
                chunk = order[starts[lo]:starts[min(lo + step, radii.size)]]
                for at in range(0, chunk.size, per_target):
                    index = chunk[at:at + per_target]
                    a, row = targets[index] / f.domain.radius, where[index] - lo
                    # cumsum sums in order whatever the shape, so a value never depends on T
                    sources = np.cumsum(np.exp(1j * np.angle(a)[:, None, None] * j) * sums[row],
                                        axis=2)[..., -1] + logs[row]
                    if n_p:   # P's moments (only the mixed entries, c = 0, have any)
                        sources = np.concatenate([np.broadcast_to(moments, (a.size, n_p)),
                                                  sources], axis=1)
                    powers = a[:, None] ** np.arange(mu + nu)
                    value = np.cumsum(co * powers[:, i] * np.conj(powers)[:, i_bar]
                                      * sources[:, source], axis=1)[:, -1]
                    # an exact 0 stays 0 where R^(mu+nu) overflows
                    total[index] += np.where(value == 0, 0, scale * value)
    if not np.isfinite(total).all():
        raise NonFiniteSample("weighted sum of the integrand samples is NaN/Inf")
    return total.reshape(np.shape(z)) if np.ndim(z) else complex(total[0])


def _core_rings(f: ScalarField, plan, r, edge):
    """`_disk_core`'s radial stage at the radii r (over R): f is sampled on
    2 band + 2 angles at `band` Gauss nodes on [0, r] and [r, R]; one FFT gives
    its modes F_k, |k| <= d, and b^p conj(b)^q f is F shifted by p - q times
    rho^(p+q), so the panels integrate every radial integrand exactly.  Returns
    per radius each potential's mode sums (for the mixed entries, c = 0, with
    [0, R]'s folded in for log(1 - a conj b)) and mode 0's log rho, [0, R]'s
    integral less [0, r]'s (log-weighted Gauss); P's moments; and `edge`, [0, R]'s
    (sums, log integral, moments), which a None `edge` has computed as one more
    radius, 1, so that each term's chunks share one."""
    c, rho_line, w_line, t_inner, log_ratio, angles, columns, j, coef, exponent, zeroth, \
        n_p, _ = plan
    if c == 0 and edge is None:
        r = np.append(r, 1.0)
    n = t_inner.shape[1]
    rho = r[:, None, None] * rho_line[0] + rho_line[1]   # (radii, 2, n)
    t = np.where(np.isnan(t_inner), r[:, None, None] / rho, t_inner)
    nodes = f.domain.radius * rho[..., None] * angles
    modes = np.fft.fft(np.broadcast_to(sample(f, nodes), nodes.shape))
    wf = (r[:, None, None] * w_line[0] + w_line[1])[..., None] * modes[..., columns]
    rho_pq = rho[..., None] ** exponent
    sums = np.einsum("tgnpk,pgk,tgnk,tgnp->tpk",
                     (t[..., None] ** np.arange(n + 1))[..., abs(j)], coef, wf, rho_pq)
    if c != 0:
        return sums, np.zeros((r.size, 1)), None, None
    # log(1 - a conj b), and mode 0's log rho, from [0, R]'s sums
    mode_sums = np.take(wf, zeroth[0], axis=3) * zeroth[1] * rho[..., None] ** zeroth[2]
    logs = np.einsum("tnp,n->tp", mode_sums[:, 0, :, n_p:], log_ratio)
    if edge is None:
        edge = sums[-1], logs[-1], np.sum(mode_sums[-1, ..., :n_p], axis=(0, 1))
    sums = sums - (j >= 1) * r[:, None, None] ** abs(j) * edge[0]
    return sums, 2 * (logs - edge[1]), edge[2], edge


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
        # Python floats format faster than numpy scalars, to the same digits;
        # each x and y is formatted once, not once per grid value
        xs, ys = ([f"{t:.15g}" for t in axis.tolist()] for axis in (self.xs, self.ys))
        rows = (f"{x},{y},{v.real:.15g},{v.imag:.15g}"
                for y, row in zip(ys, self.values.tolist()) for x, v in zip(xs, row))
        return "\n".join(["x,y,re,im", *rows]) + "\n"

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
