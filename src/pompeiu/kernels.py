"""Closed-form kernels for the iterated disk transforms.

`c3(a, b, mu, nu)` is the kernel that turns the (mu + nu)-fold iterated
transform T^mu Tbar^nu into a single area integral; `c1` is its polynomial
log-companion part, `c2` the boundary residue sum, and `c8` the polydisc
tensor prefactor.  `g_diag` / `g_mixed` are the same kernels normalized for
the transforms and the PDE solution formulas, and `kernel` is the one table
of normalized kernels keyed by (mu, nu) that the target-centred rules use.

Every closed form here is derived from the residue calculus and held to the
defining integrals numerically: the oracle module quadrates each kernel's
left-hand side directly, and the acceptance suite pins the agreement.  The
explicit low-order kernels in `c3_special_cases` come from an independent
operator-identity decomposition and agree with `c3` to machine precision.

Conventions: area element dzbar^dz = 2i dx dy; the logarithm is evaluated as
log(R^2) + PrincipalLog(w) - log|a - b|^2 with w = 1 - a*conj(b)/R^2, a split
that stays finite for extreme R.  PrincipalLog(w) is taken in real
arithmetic, as log|w| + i*arctan2(Im w, Re w), the same principal value as
numpy's complex log at a tenth of its cost.  w lies in the open right
half-plane for interior points, so the principal branch is continuous.

All functions are pure and broadcast over numpy arrays in `a` and/or `b`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPoints, DomainError, NonFiniteSample, OrderTooLarge
from .geometry import MultiIndex, require_separated

#: orders above this are rejected (factorials overflow usefulness at desk scale)
MAX_ORDER = 20

TWO_PI_I = 2j * np.pi


def _check_order(name: str, value: int, minimum: int = 1) -> int:
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    if value > MAX_ORDER:
        raise OrderTooLarge(f"{name}={value} exceeds cap {MAX_ORDER}")
    return value


def power(x, n: int):
    """x ** n, with x^0 the scalar 1 and x^1 = x (numpy takes complex
    arrays to those two powers in a slow elementwise loop).  Above that
    numpy's binary powering sets the rounding: complex array products round
    differently, and the cancelling c1/c2 sums amplify that far above 1e-14."""
    return 1 if n == 0 else x if n == 1 else x ** n


def _powers(x, n: int) -> list:
    """[x^0, x^1, ..., x^n], each formed once by `power`."""
    return [power(x, i) for i in range(n + 1)]


def log_term(a, b, radius: float):
    """log((R^2 - a*conj(b)) / |a-b|^2) on the continuous principal branch."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    # numpy divides a complex array by the real R^2 as a multiply by 1/R^2;
    # multiplying here gives the same bits without the complex division loop
    # (np.float64 turns a zero R^2 into inf, as the division did)
    w = 1.0 - a * np.conj(b) * (1.0 / np.float64(radius**2))
    out = np.empty(w.shape, dtype=complex)
    out.real = 2.0 * math.log(radius) + np.log(np.abs(w)) - 2.0 * np.log(np.abs(a - b))
    out.imag = np.arctan2(w.imag, w.real)
    return out if out.shape else out[()]


def c1(a, b, k: int):
    """Polynomial companion of the log kernel; c1(a, b, 1) == 0.

    Double sum over l = 1..k-1 of (-b^l / l) * sum_j C(k-1, j)
    * a^(k-1-l-j) * (-b)^j, the residue-series coefficients of the boundary
    log expansion.  Each power of a and b is formed once, and the signs
    fold into the scalar factors; a sign flip is exact, so each term rounds
    as the literal formula does.
    """
    k = _check_order("k", k)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a_pow = _powers(a, k - 2)
    b_pow = _powers(b, k - 1)
    total = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for l in range(1, k):
        inner = sum(math.comb(k - 1, j) * (-1) ** j * a_pow[k - 1 - l - j] * b_pow[j]
                    for j in range(k - l))
        # numpy divides a complex array by l as a multiply by 1/l
        total = total + b_pow[l] * (-1.0 / l) * inner
    return total if total.shape else complex(total)


def c2(a, b, l: int, nu: int, radius: float):
    """Residue value of the boundary integral of (zb-bb)^l (z-b)^(nu-1)/(z-a).

    Sum over 0 <= p <= l, 0 <= q <= nu-1 with p <= q of
    C(l,p) C(nu-1,q) R^(2p) (-conj(b))^(l-p) (-b)^(nu-1-q) a^(q-p), each
    term multiplied out in that order.  Each power of a, b and conj(b) is
    formed once, and the signs fold into the scalar factor.  An R^(2p)
    beyond the float range raises NonFiniteSample.
    """
    l = _check_order("l", l)
    nu = _check_order("nu", nu)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a_pow = _powers(a, nu - 1)
    b_pow = _powers(b, nu - 1)
    bb_pow = _powers(np.conj(b), l)
    total = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    try:
        for p in range(l + 1):
            for q in range(p, nu):
                scale = (math.comb(l, p) * math.comb(nu - 1, q) * radius ** (2 * p)
                         * (-1) ** (l - p + nu - 1 - q))
                total = total + scale * bb_pow[l - p] * b_pow[nu - 1 - q] * a_pow[q - p]
    except OverflowError:
        raise NonFiniteSample(f"R^(2p) in c2 overflows a float at R = {radius:g}") from None
    return total if total.shape else complex(total)


def c3(a, b, mu: int, nu: int, radius: float, log_shift=0.0):
    """Kernel of the single-integral form of T^mu Tbar^nu.

    2*pi*i * c3(a, b, mu, nu) equals the area integral over the R-disk of
    (zb - ab)^(mu-1) (z - b)^(nu-1) / ((z - a)(zb - bb)) dzbar^dz.
    On the nodes b of a polar rule about a, pass the rule's `log_shift`:
    log_term - 2 log_shift integrates the log by product weights.
    """
    mu = _check_order("mu", mu)
    nu = _check_order("nu", nu)
    require_separated(a, b, radius)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    # powers of conj(b) - conj(a); (-diff_bar)^l is (-1)^l times its entry
    diff_bar = _powers(np.conj(b) - np.conj(a), mu - 1)
    diff = power(a - b, nu - 1)
    total = diff_bar[mu - 1] * (c1(a, b, nu) + diff * (log_term(a, b, radius) - 2 * log_shift))
    for l in range(1, mu):
        # (1.0 / l): numpy's division by l, at the cost of a multiply
        total = total + (math.comb(mu - 1, l) * diff_bar[mu - 1 - l] * (1.0 / l)
                         * (c2(a, b, l, nu, radius) - (-1) ** l * diff_bar[l] * diff))
    return total if total.shape else complex(total)


def c8(mu: MultiIndex, nu: MultiIndex) -> complex:
    """Tensor prefactor (-1)^|mu| / ((mu-1)! (nu-1)! (2 pi i)^n)."""
    nu.require_length(len(mu))
    n = len(mu)
    sign = -1.0 if mu.order % 2 else 1.0
    return complex(sign / (mu.shifted_factorial() * nu.shifted_factorial() * TWO_PI_I**n))


def g_diag(z, zeta, l: int):
    """Kernel of the pure power T^l: (-1)^l (zb - wb)^(l-1) / (2 pi i (l-1)! (zeta - z))."""
    l = _check_order("l", l)
    z = np.asarray(z, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    gap = np.abs(zeta - z)
    if np.any(gap == 0.0):
        raise CoincidentPoints("g_diag undefined at zeta == z")
    out = ((-1.0) ** l * (np.conj(zeta) - np.conj(z)) ** (l - 1)
           / (TWO_PI_I * math.factorial(l - 1) * (zeta - z)))
    return out if out.shape else complex(out)


def g_mixed(z, zeta, mu: int, nu: int, radius: float, log_shift=0.0):
    """Kernel of T^mu Tbar^nu (first index = T order); `log_shift` as for `c3`."""
    mu = _check_order("mu", mu)
    nu = _check_order("nu", nu)
    sign = -1.0 if mu % 2 else 1.0
    scale = sign / (TWO_PI_I * math.factorial(mu - 1) * math.factorial(nu - 1))
    out = scale * np.asarray(c3(z, zeta, mu, nu, radius, log_shift))
    return out if out.shape else complex(out)


def check_entry(mu: int, nu: int) -> tuple[int, int]:
    """(mu, nu) as an entry of the kernel table: each order an int from 0 to
    MAX_ORDER (else DomainError or OrderTooLarge), and not both 0, the
    identity (DomainError)."""
    mu = _check_order("mu", mu, minimum=0)
    nu = _check_order("nu", nu, minimum=0)
    if not (mu or nu):
        raise DomainError("(mu, nu) = (0, 0) is the identity, not an area transform")
    return mu, nu


def kernel(z, zeta, mu: int, nu: int, radius: float, log_shift=0.0):
    """Entry (mu, nu) of the normalized kernel table: T^mu Tbar^nu f(z) is
    the area integral of kernel(z, w; mu, nu) f(w) dwbar^dw; `log_shift` as for `c3`.

    An index of 0 is the identity in that variable: (k, 0) is T^k (`g_diag`),
    (0, k) is Tbar^k = -conj(g_diag) (conjugation flips the 2i of the area
    element), and mu, nu >= 1 is `g_mixed`; orders as by `check_entry`.
    """
    mu, nu = check_entry(mu, nu)
    if mu and nu:
        return g_mixed(z, zeta, mu, nu, radius, log_shift)
    if mu:
        return g_diag(z, zeta, mu)
    return -np.conj(g_diag(z, zeta, nu))


# ---------------------------------------------------------------------------
# Explicit low-order kernels, derived independently of the general formula by
# decomposing the defining integral against the exact polynomial moments
# (write zb-ab = (zb-bb) + (bb-ab) and z-b = (z-a) + (a-b), then use the
# closed moments of 1/(z-a), 1/(zb-bb) and their product).  Golden references
# for c3.
# ---------------------------------------------------------------------------

def _special_11(a, b, radius):
    return log_term(a, b, radius)


def _special_12(a, b, radius):
    return -b + (a - b) * log_term(a, b, radius)


def _special_21(a, b, radius):
    return (np.conj(b) - np.conj(a)) * log_term(a, b, radius) - np.conj(a)


def _special_22(a, b, radius):
    return (radius**2 - np.abs(a) ** 2 + 2 * np.conj(a) * b - np.abs(b) ** 2
            + (np.conj(b) - np.conj(a)) * (a - b) * log_term(a, b, radius))


#: (mu, nu) -> explicit kernel, for cross-checking the general c3
c3_special_cases = {
    (1, 1): _special_11,
    (1, 2): _special_12,
    (2, 1): _special_21,
    (2, 2): _special_22,
}
