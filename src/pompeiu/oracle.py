"""Independent brute-force references for the closed-form machinery.

Nested operator application composes single-operator quadratures at the
fixed NESTED_* counts, exact in r for polynomial fields (see `NestedOracle`);
the lemma left-hand sides are quadrated directly from their defining
integrals with two-center singular rules, and polynomial test fields carry
exact coefficient-level Wirtinger calculus: none of these touches the
closed-form kernels.  `polydisc_tensor` uses the per-factor
kernels, which the disk checks cover, to check `apply_polydisc`'s separation.

Discrete Hoelder/semi-norm estimators are sups over finite seeded samples and
therefore lower bounds of the continuum quantities; they are only ever used
on the small side of one-sided inequality checks.  The Hoelder exponent
alpha is an argument of each estimator and check, not a property of a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DepthCap, DimensionCap, DomainError, NonFiniteSample
from .geometry import DiskDomain, MultiIndex, PolydiscDomain, require_separated, wirtinger_split
from .kernels import c3, c8, power
from .operators import ScalarField, apply_mixed, apply_T, apply_Tbar
from .quadrature import build_area_rule, build_contour_rule, build_half_rule, integrate

MAX_POLY_DEGREE = 8
MAX_PROGRAM_LENGTH = 4
MIN_PAIR_SEPARATION = 1e-6

#: NestedOracle: per-node rule, polar grid of each intermediate, outermost rule;
#: sized by `scripts/convergence_study.py --nested` (see NestedOracle)
NESTED_RESOLUTION = (12, 16)
NESTED_GRID_SHAPE = (12, 80)
NESTED_TOP_RESOLUTION = (16, 32)
_MODE_FLOOR = 1e-13   # angular modes below this fraction of a grid's largest are dropped


# ---------------------------------------------------------------------------
# Exact polynomial fields  sum c[p,q] z^p zbar^q
# ---------------------------------------------------------------------------

def _powers(x, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) for flat x by repeated products, shape (count, x.size)."""
    out = np.ones((count, x.size), dtype=complex)
    for k in range(1, count):
        np.multiply(out[k - 1], x, out=out[k])
    return out


class PolynomialField:
    """Polynomial in z and conj(z) with exact Wirtinger differentiation.

    Coefficients are held as a dense (p, q) array; degree in each variable is
    capped at 8 (the fields only exist as smooth test vehicles).
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 2:
            raise DomainError("coefficients must be a 2-D array c[p, q]")
        if c.shape[0] - 1 > MAX_POLY_DEGREE or c.shape[1] - 1 > MAX_POLY_DEGREE:
            raise DomainError(f"polynomial degree exceeds cap {MAX_POLY_DEGREE}")
        self.coeffs = c
        self._freq = np.arange(1 - c.shape[1], c.shape[0])   # the angular modes p - q

    @classmethod
    def from_dict(cls, entries: dict[tuple[int, int], complex]) -> "PolynomialField":
        c = np.zeros(np.max([(0, 0), *entries], axis=0) + 1, dtype=complex)
        for (p, q), v in entries.items():
            c[p, q] = v
        return cls(c)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        total = np.zeros(z.shape, dtype=complex)
        for row in self.coeffs[::-1]:   # Horner in z over Horner rows in zbar
            acc = np.full(z.shape, row[-1])
            for c in row[-2::-1]:
                acc *= zb
                acc += c
            total *= z
            total += acc
        return total if total.shape else complex(total)

    def _modes(self, z) -> np.ndarray:
        """sum_{p-q=m} c[p,q] z^p zbar^q at flat z for each m in _freq, shape (z.size, P+Q-1)."""
        P, Q = self.coeffs.shape
        zq = _powers(np.conj(z), Q)[::-1]   # zbar^q, highest q first
        modes = np.zeros((P + Q - 1, z.size), dtype=complex)
        for p, (zp, row) in enumerate(zip(_powers(z, P), self.coeffs)):
            modes[p:p + Q] += zp * (zq * row[::-1, None])   # the slots p-q+Q-1
        return modes.T

    def wirtinger(self, mu: int, nu: int) -> "PolynomialField":
        """Exact d^mu dbar^nu by coefficient shifts."""
        c = self.coeffs
        for _ in range(mu):
            p = np.arange(1, c.shape[0])
            c = c[1:, :] * p[:, None] if c.shape[0] > 1 else np.zeros((1, c.shape[1]), complex)
        for _ in range(nu):
            q = np.arange(1, c.shape[1])
            c = c[:, 1:] * q[None, :] if c.shape[1] > 1 else np.zeros((c.shape[0], 1), complex)
        return PolynomialField(c)

    def to_field(self, domain: DiskDomain) -> ScalarField:
        degree = max((p + q for (p, q), c in np.ndenumerate(self.coeffs) if c != 0), default=0)
        return ScalarField(self, domain, degree=degree)

    def __repr__(self):
        terms = [f"({v:g})z^{p}zb^{q}" for (p, q), v in np.ndenumerate(self.coeffs) if v != 0]
        return " + ".join(terms) or "0"


def transform_monomials(coefficients: dict, radius, conjugate: bool = False) -> dict:
    """Exact single transform of sum c[p,q] z^p zbar^q, given as {(p, q): c},
    on the origin-centred disk, in the arithmetic of c and radius (floats, or
    fractions.Fraction for an exact composition).

    Apply the interior inversion identity to the antiderivative
    F = z^p zbar^(q+1)/(q+1): the transform of the monomial is F minus its
    boundary Cauchy integral, and on |z| = R the latter is the residue of
    R^(2(q+1)) z^(p-q-1)/(z - target), nonzero only when p >= q+1.  The
    conjugate transform mirrors the roles of the exponents.
    """
    out: dict = {}

    def add(key, val):
        out[key] = out[key] + val if key in out else val

    for (p, q), v in coefficients.items():
        if v == 0:
            continue
        if not conjugate:
            add((p, q + 1), v / (q + 1))
            if p >= q + 1:
                add((p - q - 1, 0), -v * radius ** (2 * (q + 1)) / (q + 1))
        else:
            add((p + 1, q), v / (p + 1))
            if q >= p + 1:
                add((0, q - p - 1), -v * radius ** (2 * (p + 1)) / (p + 1))
    return out


def exact_transform(field: PolynomialField, radius: float,
                    conjugate: bool = False) -> PolynomialField:
    """Exact single transform of a polynomial field on the origin-centered
    disk (`transform_monomials`)."""
    return PolynomialField.from_dict(transform_monomials(
        dict(np.ndenumerate(field.coeffs)), radius, conjugate))


# ---------------------------------------------------------------------------
# Nested operator application (the literal composition route)
# ---------------------------------------------------------------------------

def _lobatto_radii(radius: float, count: int) -> np.ndarray:
    """The Chebyshev-Lobatto radii R (1 - cos(pi j/(n-1)))/2, j = 0..n-1: 0 and R included."""
    return radius * (1.0 - np.cos(np.pi * np.arange(count) / (count - 1))) / 2


def _geometry(z, radii) -> tuple[np.ndarray, np.ndarray]:
    """The second-form barycentric rows at min(|z|, R) for flat z on the radii
    (weights (-1)^j, halved at both ends; a point on a radius takes its unit
    row), and exp(i arg z), whose powers are a grid's phases: unlike z/|z| it
    is finite at 0, and arg(-0.0+0j) = pi.  A NestedOracle forms its nodes' once."""
    x = np.minimum(np.abs(z), radii[-1])[:, None]
    w = (-1.0) ** np.arange(radii.size) * np.r_[0.5, np.ones(radii.size - 2), 0.5]
    hit = x == radii
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(hit.any(axis=1, keepdims=True), hit, w / (x - radii))
    return rows / np.sum(rows, axis=1, keepdims=True), np.exp(1j * np.angle(z))


class _PolarGridField:
    """Field sampled at n Chebyshev-Lobatto radii (`_lobatto_radii`) and the
    angles 2 pi j/nt (nt even), held as its trigonometric interpolant
    sum_m c_m(r) e^{i m theta} (Nyquist mode as a cosine), each c_m the
    polynomial through its values on the radii: exact if c_m is a polynomial
    of degree below n, as for polynomial fields, and spectrally accurate for
    smooth ones.  Only the modes with b_m > _MODE_FLOOR * max b are kept
    (`_freq`, signed frequencies, also valid FFT indices), b_m the largest |c_m|
    on the radii: |c_m(r)| <= Lambda_n b_m, with the Lebesgue constant
    Lambda_n <= 1 + (2/pi) log(n - 1), so the truncated interpolant is within
    Lambda_n nt 1e-13 max b of the all-mode one; content in every mode keeps all nt."""

    BLOCK = 1024   # points per block of `__call__`: bounds the (points x modes) temporaries

    def __init__(self, domain: DiskDomain, values):
        self.domain = domain
        self._radii = _lobatto_radii(domain.radius, len(values))
        y = np.fft.fft(values, axis=1, norm="forward")
        bound = np.max(np.abs(y), axis=0)   # b_m, the largest |c_m| on the radii
        nt = y.shape[1]
        keep = (bound > _MODE_FLOOR * bound.max()) | ~np.isfinite(bound.max())   # NaN/Inf: all
        self._freq = ((np.arange(nt) + nt // 2) % nt - nt // 2)[keep]
        self._imag_sign = np.sign(self._freq) * (self._freq != -(nt // 2))
        self._values = np.take(y, self._freq, axis=1).view(float)   # as float pairs

    def _modes(self, z, at=None) -> np.ndarray:
        """c_m(|z|) e^{i m arg z} for flat z and the kept m, shape (z.size, kept);
        `at` is z's `_geometry` on these radii, if formed already."""
        rows, unit = _geometry(z, self._radii) if at is None else at
        # the real rows on (re, im) pairs: no complex cast of them, and no BLAS (see NestedOracle)
        modes = np.einsum("pn,nm->pm", rows, self._values).view(complex)
        m = np.abs(self._freq)
        phases = _powers(unit, m.max(initial=0) + 1)[m].T
        phases.imag *= self._imag_sign   # conjugates m < 0; the Nyquist mode is cos(m arg z)
        return np.multiply(modes, phases, out=modes)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        flat = np.ravel(z)
        vals = np.concatenate([np.sum(self._modes(flat[i:i + self.BLOCK]), axis=1)
                               for i in range(0, flat.size, self.BLOCK) or [0]])
        return vals.reshape(z.shape) if z.shape else complex(vals[0])


_GRID_PHASES = np.exp(2j * np.pi * np.arange(NESTED_GRID_SHAPE[1]) / NESTED_GRID_SHAPE[1])


def _rotation_sum(inner, nodes, density, at=None) -> np.ndarray:
    """sum_n density_n * inner(e^{2 pi i j/nt} nodes_n) at every grid angle j, for
    nodes and density of shape (..., n): shape (..., nt).  Rotating by 2 pi j/nt
    multiplies a grid or polynomial field's mode m by e^{2 pi i m j/nt}, so one
    `_modes` call per chunk of whole rows (at most BLOCK points, or one row; a
    grid's at its slice of the nodes' `_geometry` `at`, if given) gives their
    modes, each row's density-weighted sums fill its nt FFT slots (a polynomial's
    |m| <= 8 < nt/2), and one inverse FFT inverts them all; any other field is
    sampled at each row's rotated nodes, 128 nodes (10,240 points) per call."""
    n = np.shape(nodes)[-1]
    rows, weights = np.reshape(nodes, (-1, n)), np.reshape(density, (-1, n))
    total = np.zeros((len(rows), _GRID_PHASES.size), dtype=complex)
    if isinstance(inner, (_PolarGridField, PolynomialField)):
        step = max(1, _PolarGridField.BLOCK // n)
        for lo in range(0, len(rows), step):
            chunk, part = rows[lo:lo + step], slice(lo * n, (lo + step) * n)
            shared = ([a[part] for a in at],) if at and isinstance(inner, _PolarGridField) else ()
            modes = inner._modes(chunk.ravel(), *shared).reshape(*chunk.shape, -1)
            total[lo:lo + step, inner._freq] = np.einsum("rnm,rn->rm", modes, weights[lo:lo + step])
        total = np.fft.ifft(total, norm="forward")
    else:
        for row, at_row, d in zip(total, rows, weights):
            row[:] = sum(np.sum(inner(at_row[lo:lo + 128, None] * _GRID_PHASES)
                                * d[lo:lo + 128, None], axis=0)
                         for lo in range(0, n, 128))
    return total.reshape(*np.shape(nodes)[:-1], -1)


_SINGLE_OPS = {"T": apply_T, "Tbar": apply_Tbar}


class NestedOracle:
    """Evaluate operator words like [T, T, Tbar] by literal composition.

    The outermost operator is quadrated directly at the requested targets,
    one rule call for all of them.  Each deeper intermediate field is
    materialized once, on demand, on a polar grid (a single-operator
    quadrature at every grid node) and kept as angular Fourier modes, each a
    polynomial in r on Chebyshev-Lobatto radii, only the modes above 1e-13 of
    its largest (`_PolarGridField`).  The grids are memoized per program
    suffix and share one batch of base rules and their nodes' `_geometry`; an
    inner grid's kept modes, or a polynomial field's exact ones, come from
    chunks of whole grid radii, are weighted and summed per radius, and one
    inverse FFT ends the grid (`_rotation_sum`).  Exact per-node nesting costs
    O(N^depth) and is unusable beyond depth 2, while the memoized route is
    linear in depth and still never touches the closed-form kernels.

    The envelope, which `evaluate` enforces (DepthCap): a depth-k word on a
    degree-d field needs d + k <= n radii, as T raises a degree by 1 and the
    deepest grid is a polynomial of degree d + k - 1 in r.  A rule of N angles
    resolves integrands whose largest power of w or conj(w) is at most N/2 - 2
    (measured for N = 12 to 32), so with e the field's (a PolynomialField's own,
    else d; unknown degree is refused) a word needs e + k <= N/2 of the base rule
    if it builds grids and e + k <= N/2 - 1 of the top rule.  At the shipped
    counts: d + k <= 12 and e + k <= 8, where the `convergence_study.py --nested`
    sweep (depth 1-4, R = 1 and 2.5, (4,4) and (5,5) fields of seeds 0-2, |z| <= R,
    relative to max(R^depth, |value|)) reads at most 2.1e-15; outside, (6,6)
    fields at depth 3 read 1.5e-9 and conj(z)^7 under [T, T] 1e-2.

    No BLAS call: OpenBLAS hands even a (40 x 40)(40 x 80) product to a
    worker thread, which then competes with the main thread
    (`tests/test_package.py` keeps matrix products out).

    The memo table is confined to this instance; share an instance across
    threads only for reads after warm-up.
    """

    def __init__(self, f: ScalarField):
        if not isinstance(f.domain, DiskDomain):
            raise DomainError("nested application is defined for disk fields")
        self.domain = f.domain
        self._memo: dict[tuple[str, ...], object] = {(): f.evaluator}
        # the grid radii and one (nr, N) batch of base rules about them, for every word
        self._radii = _lobatto_radii(self.domain.radius, NESTED_GRID_SHAPE[0])
        self._base = build_area_rule(self.domain, self._radii, NESTED_RESOLUTION)
        # the base nodes' barycentric rows and phases, for every grid built from a grid
        self._at = _geometry(self._base.nodes.ravel(), self._radii)
        poly = f.evaluator if isinstance(f.evaluator, PolynomialField) else None
        self._degree, self._power = f.degree, max(poly.coeffs.shape) - 1 if poly else f.degree

    def _field_for(self, suffix: tuple[str, ...]):
        if suffix not in self._memo:
            inner = self._field_for(suffix[1:])
            self._memo[suffix] = self._materialize(suffix[0], inner)
        return self._memo[suffix]

    def _materialize(self, op: str, inner_evaluator) -> _PolarGridField:
        # One base rule per radius; rules at the other grid angles are its
        # rotations (the disk is rotation-invariant about 0), so each grid row is
        # one batched quadrature: 1/(w - z) = e^{-i t}/(n0 - r), w = e^{i t} n0,
        # z = e^{i t} r.  `_rotation_sum` forms every row from chunks of whole
        # radii and one inverse FFT; no BLAS (see the docstring).
        nodes = self._base.nodes
        density = (nodes if op == "T" else np.conj(nodes)) - self._radii[:, None]
        np.divide(self._base.weights, density, out=density)
        values = _rotation_sum(inner_evaluator, nodes, density, self._at)
        values *= (np.conj(_GRID_PHASES) if op == "T" else _GRID_PHASES) / (-2j * np.pi)
        return _PolarGridField(self.domain, values)

    def evaluate(self, z, program):
        """`program` at z, a complex or an array (of values), by one top rule call."""
        program = tuple(program)
        if len(program) == 0:
            raise DomainError("empty operator program")
        if len(program) > MAX_PROGRAM_LENGTH:
            raise DepthCap(f"program length {len(program)} exceeds cap {MAX_PROGRAM_LENGTH}")
        for op in program:
            if op not in _SINGLE_OPS:
                raise DomainError(f"unknown operator {op!r}; expected 'T' or 'Tbar'")
        k, e = len(program), self._power   # the envelope: see the docstring
        if e + k > NESTED_TOP_RESOLUTION[1] // 2 - 1 or k > 1 and (
                e + k > NESTED_RESOLUTION[1] // 2 or self._degree + k > self._radii.size):
            raise DepthCap(f"depth {k} on a field of degree {self._degree} is outside the envelope")
        field = ScalarField(self._field_for(program[1:]), self.domain)
        return _SINGLE_OPS[program[0]](field, z, NESTED_TOP_RESOLUTION)


def polydisc_tensor(f: ScalarField, z, mu: MultiIndex, nu: MultiIndex, resolution) -> complex:
    """T^mu Tbar^nu f(z) on the polydisc (n <= 3): any callable f on the whole
    N^n grid of per-factor rules about z, against the product of the kernels
    with each rule's log_shift (`apply_polydisc`'s factor weights).
    The first factor streams one node at a time and the others reach f as
    sparse broadcastable axes, to bound memory."""
    if not isinstance(f.domain, PolydiscDomain):
        raise DomainError("polydisc_tensor needs a ScalarField on a PolydiscDomain")
    n = f.domain.factors
    if n > 3:
        raise DimensionCap(f"the polydisc tensor grid is capped at 3 factors, got {n}")
    mu.require_length(n)
    nu.require_length(n)
    z = f.domain.validate_point(z)
    rules = [build_area_rule(f.domain.factor_disk, w, resolution) for w in z]
    wk = [rule.weights * c3(w, rule.nodes, m, k, f.domain.radius, rule.log_shift)
          for rule, w, m, k in zip(rules, z, mu.entries, nu.entries)]
    tail_nodes = np.meshgrid(*(r.nodes for r in rules[1:]), indexing="ij", sparse=True)
    tail_wk = reduce(np.multiply.outer, wk[1:], np.ones(()))
    total = 0j
    # floating-point warnings are silenced here: a NaN/Inf total raises below
    with np.errstate(all="ignore"):
        # each first-factor node as a shape-(1,) array, not a numpy scalar:
        # scalar z**2 can differ from array z**2 in the last bit
        for w0, node0 in zip(wk[0], rules[0].nodes[:, None]):
            total += w0 * np.sum(tail_wk * f(node0, *tail_nodes))
    if not np.isfinite(total):
        raise NonFiniteSample("integrand produced NaN/Inf at a quadrature node")
    return complex(c8(mu, nu) * total)


# ---------------------------------------------------------------------------
# Direct quadrature of the kernel lemmas' left-hand sides
# ---------------------------------------------------------------------------

def lemma_lhs_quadrature(kind: str, a: complex, b: complex, indices, radius: float,
                         resolution=(64, 128), contour_count: int = 256):
    """Direct numeric value of a kernel identity's defining integral.

    kind 'lem5': contour integral of (zbar-bbar)^l (z-b)^(nu-1)/(z-a), indices=(l, nu).
    kind 'lem6': area integral of (zbar-abar)^(mu-1)(z-b)^(nu-1)/((z-a)(zbar-bbar)),
                 indices=(mu, nu), or a sequence of (mu, nu) for a list of one value
                 per order; lemma 4's integrand is its mu = 1 case.  The disk is
                 split along the perpendicular bisector of [a, b] and each half
                 carries a polar rule centred on its own singularity, so both
                 1/(z-a) and 1/(zbar-bbar) are tamed by the radial Jacobian; the
                 two rules are built once and serve every order.
    """
    a, b = complex(a), complex(b)
    require_separated(a, b, radius)
    domain = DiskDomain(radius)
    bb = np.conj(b)

    if kind == "lem5":
        l, nu = (int(i) for i in indices)
        rule = build_contour_rule(radius, contour_count)
        return integrate(rule, lambda z: power(np.conj(z) - bb, l) * power(z - b, nu - 1) / (z - a))
    if kind == "lem6":
        ab = np.conj(a)
        halves = (build_half_rule(domain, a, b, resolution),
                  build_half_rule(domain, b, a, resolution))
        orders = np.asarray(indices, dtype=int).reshape(-1, 2).tolist()
        sums = []
        for h in halves:   # one half at a time: its three factors serve every order
            with np.errstate(all="ignore"):
                d_bar, d = np.conj(h.nodes) - ab, h.nodes - b
                den = (h.nodes - a) * (np.conj(h.nodes) - bb)
            sums.append([integrate(h, lambda _: power(d_bar, mu - 1) * power(d, nu - 1) / den)
                         for mu, nu in orders])
        values = [first + second for first, second in zip(*sums)]
        return values if np.ndim(indices) == 2 else values[0]
    raise DomainError(f"unknown lemma kind {kind!r}")


# ---------------------------------------------------------------------------
# Discrete Hoelder machinery
# ---------------------------------------------------------------------------

def _disk_samples(rng, count: int, radius: float):
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def hoelder_seminorm(f: ScalarField, alpha: float, k: int = 1,
                     sample_budget: int = 400, seed: int = 0) -> float:
    """Discrete k-th order Hoelder quotient sup over seeded sample tuples (a lower bound).

    Pairs keep a minimum separation of MIN_PAIR_SEPARATION * R per perturbed
    factor: a partner too close is drawn again.  Tuples follow a per-tuple
    loop's RNG stream (n base points, the choice of k factors, their
    partners; a point is a radius draw and an angle draw), so for a fixed
    seed a larger budget extends the same stream and the estimate never
    decreases.  With k = n there is no choice between draws, and one call
    draws every tuple; from the first row with a pair too close, the stream
    is rewound and the loop draws the rest.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1) strictly")
    n = f.factors
    if k < 0 or k > n:
        raise DomainError(f"difference-quotient order {k} not in 0..{n}")
    radius = f.domain.radius
    rng = np.random.default_rng(seed)

    if k == 0:
        pts = [_disk_samples(rng, sample_budget, radius) for _ in range(n)]
        return float(np.max(np.abs(f(*pts))))

    # every tuple first, in a per-tuple loop's RNG order; then one call of f per
    # corner of the difference cube, with sign (-1)^popcount(mask)
    base, prime = np.zeros((2, sample_budget, n), dtype=complex)
    picks = np.empty((sample_budget, k), dtype=int)
    start = 0
    if k == n:   # rows of (base, partner) x factor x (radius, angle) draws
        state = rng.bit_generator.state
        u = rng.random((sample_budget, 2, n, 2))
        drawn = radius * np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
        close = np.any(np.abs(drawn[:, 1] - drawn[:, 0]) < MIN_PAIR_SEPARATION * radius, axis=1)
        start = int(np.argmax(np.append(close, True)))   # the first row with a redraw
        if start < sample_budget:   # rewind to the end of the accepted rows
            rng.bit_generator.state = state
            rng.random((start, 2, n, 2))
        base[:start], prime[:start] = drawn[:start, 0], drawn[:start, 1]
        picks[:start] = range(n)
    for row in range(start, sample_budget):
        base[row] = [_disk_samples(rng, 1, radius)[0] for _ in range(n)]
        picks[row] = sorted(rng.choice(n, size=k, replace=False).tolist()) if k < n else range(n)
        for j in picks[row]:
            prime[row, j] = base[row, j]   # draws until separated
            while abs(prime[row, j] - base[row, j]) < MIN_PAIR_SEPARATION * radius:
                prime[row, j] = _disk_samples(rng, 1, radius)[0]
    rows = np.arange(sample_budget)[:, None]
    total = np.zeros(sample_budget, dtype=complex)
    for mask in range(1 << k):
        moved = picks[:, [pos for pos in range(k) if mask >> pos & 1]]
        corner = base.copy()
        corner[rows, moved] = prime[rows, moved]
        total += (-1.0) ** bin(mask).count("1") * f(*corner.T)
    denom = np.prod(np.abs(base - prime)[rows, picks] ** alpha, axis=1)
    return float(np.fmax.reduce(np.abs(total) / denom, initial=0.0))   # skips NaN as max() did


def disk_norm_estimate(f: ScalarField, alpha: float, sample_budget: int = 400,
                       seed: int = 0) -> float:
    """Discrete sup|f| + (2R)^alpha * H_alpha[f] on the disk (a lower bound)."""
    sup = hoelder_seminorm(f, alpha, k=0, sample_budget=sample_budget, seed=seed)
    hol = hoelder_seminorm(f, alpha, k=1, sample_budget=sample_budget, seed=seed + 1)
    return sup + (2 * f.domain.radius) ** alpha * hol


def polydisc_norm_estimate(f: ScalarField, alpha: float, sample_budget: int = 200,
                           seed: int = 0) -> float:
    """Discrete sum over k of (2R)^(k alpha)/k! * H^(k)_alpha[f]."""
    return sum((2 * f.domain.radius) ** (k * alpha) / math.factorial(k)
               * hoelder_seminorm(f, alpha, k=k, sample_budget=sample_budget, seed=seed + k)
               for k in range(f.factors + 1))


# ---------------------------------------------------------------------------
# One-sided semi-norm bound check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormBoundReport:
    holds: bool
    lhs: float
    rhs: float


def bound_constants(alpha: float) -> tuple[float, float, float]:
    """(C0, C4, C5) = (12/(a(1-a)), 2^(a+1)/a, 4/(a(1-a)))."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1) strictly")
    return (12.0 / (alpha * (1 - alpha)),
            2.0 ** (alpha + 1) / alpha,
            4.0 / (alpha * (1 - alpha)))


def check_norm_bound(f: ScalarField, mu: int, nu: int, alpha: float,
                     sup_points: int = 8, pairs: int = 8, seed: int = 0) -> NormBoundReport:
    """One-sided check of the m-th semi-norm growth bound for T^mu Tbar^nu.

    The left side is a discrete estimate (finite-difference derivatives of
    transform values, sampled sups and Hoelder quotients); every stencil
    point's value comes from one `apply_mixed` call at the default counts,
    so a field of finite degree takes the disk-centred core, and each
    stencil's sums at every site and pair end are array rows.  Discrete
    sups under-estimate the continuum ones, so `holds` failing would disprove
    the inequality while passing is consistent with it.  The bound constant
    is astronomically larger than the estimator noise for every admissible
    alpha, which keeps the check meaningful despite FD error.
    """
    m = mu + nu
    if m > 4:
        raise DomainError("norm-bound check supports mu + nu <= 4")
    radius = f.domain.radius
    C0, C4, C5 = bound_constants(alpha)
    rhs_const = 2.0 ** ((m - 1) * m // 2) * (C4 * m + C0 + (m - 1) * C5) ** m
    rhs = rhs_const * disk_norm_estimate(f, alpha, seed=seed)

    h = (1e-12) ** (1.0 / (m + 2)) * radius
    rng = np.random.default_rng(seed + 17)
    sites = _disk_samples(rng, sup_points, 0.6 * radius)
    pair_a = _disk_samples(rng, pairs, 0.6 * radius)
    pair_b = _disk_samples(rng, pairs, 0.6 * radius)
    keep = np.abs(pair_a - pair_b) >= MIN_PAIR_SEPARATION * radius
    pair_a, pair_b = pair_a[keep], pair_b[keep]

    # every stencil's points about each site and pair end, at steps h and h/2, and
    # the transform at the distinct ones, in first-seen order, in one call
    ends = np.concatenate([sites, pair_a, pair_b])
    stencils = [wirtinger_split(i, m - i) for i in range(m + 1)]
    points = [stencil.sample_points(ends[:, None, None], np.array([[h], [h / 2]]))
              for stencil in stencils]
    flat = np.concatenate([p.ravel() for p in points])
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    g = np.empty(first.size, dtype=complex)
    g[seen] = apply_mixed(f, flat[first[seen]], mu, nu)
    values = np.split(g[inverse], np.cumsum([p.size for p in points])[:-1])

    lhs = 0.0
    for stencil, shape, vals in zip(stencils, (p.shape for p in points), values):
        # each row summed as `WirtingerStencil.apply` sums it; then Richardson on
        # (re, im) pairs, as Python's complex arithmetic does it
        sums = np.sum(np.asarray(stencil.coeffs) * vals.reshape(shape), axis=2)
        coarse = (sums[:, 0] / h ** stencil.total_order).view(float)
        fine = (sums[:, 1] / (h / 2) ** stencil.total_order).view(float)
        deriv = ((4.0 * fine - coarse) / 3.0).view(complex).tolist()
        at_a, at_b = deriv[sites.size:sites.size + pair_a.size], deriv[sites.size + pair_a.size:]
        sup = max(abs(d) for d in deriv[:sites.size])
        hol = max((abs(da - db) / abs(za - zb) ** alpha
                   for da, db, za, zb in zip(at_a, at_b, pair_a, pair_b)), default=0.0)
        lhs = max(lhs, sup + (2 * radius) ** alpha * hol)

    return NormBoundReport(holds=lhs <= rhs, lhs=lhs, rhs=rhs)
