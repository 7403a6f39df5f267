#!/usr/bin/env python3
"""Accuracy of the float64 kernel c3 against a 50-digit mpmath reference.

For every mu, nu up to the kernels' MAX_ORDER (20) prints the worst
relative error |c3 - ref| / max(|ref|, R^(mu+nu-2)) over one seeded set of
PAIRS point pairs, at R = 1 and R = 2.5, then the worst error by order band.
The pairs put the target anywhere up to |a| = 0.999 R and separate b from it
by 1e-8 R up to the boundary.  The reference evaluates the same closed form
in mpmath, as literal sums, so the float64 cancellation in the c1 and c2
sums is what the table shows.

    PYTHONPATH=src python3 scripts/kernel_accuracy.py [--seed N]
"""

import argparse
import math

import mpmath
import numpy as np

from pompeiu.kernels import MAX_ORDER, c3

DIGITS = 50
PAIRS = 32
RADII = (1.0, 2.5)
#: (label, test on max(mu, nu))
BANDS = (("mu, nu <= 4", lambda top: top <= 4),
         ("max(mu, nu) <= 8", lambda top: top <= 8),
         ("max(mu, nu) 9..20", lambda top: top >= 9))


def sample_pairs(rng, radius: float, count: int):
    """`count` point pairs (a, b) in the closed R-disk.

    Every fourth target sits at |a| = 0.999 R, the rest anywhere with
    |a| <= 0.999 R.  b lies at a log-uniform distance 1e-8 R .. 2R from a in
    a random direction, cut back to the boundary where that leaves the disk.
    """
    r = 0.999 * np.sqrt(rng.random(count))
    r[::4] = 0.999
    a = radius * r * np.exp(2j * np.pi * rng.random(count))
    step = radius * 10.0 ** rng.uniform(-8.0, math.log10(2.0), count)
    u = np.exp(2j * np.pi * rng.random(count))
    # the ray a + t*u leaves the disk at t = -Re(conj(u) a) + sqrt(...)
    proj = (np.conj(u) * a).real
    exit_t = -proj + np.sqrt(proj**2 + radius**2 - np.abs(a) ** 2)
    return a, a + np.minimum(step, exit_t) * u


def reference(a: complex, b: complex, radius: float, max_order: int) -> dict:
    """{(mu, nu): c3(a, b, mu, nu, R)} for mu, nu <= max_order at DIGITS digits.

    c3 = dbar^(mu-1) (c1(nu) + d^(nu-1) L) + sum_{l=1}^{mu-1} C(mu-1, l)
    dbar^(mu-1-l) / l (c2(l, nu) - (-dbar)^l d^(nu-1)) with d = a - b,
    dbar = conj(b) - conj(a), L = Log(R^2 - a conj(b)) - log|a - b|^2,
    c1(k) = sum_{l=1}^{k-1} (-b^l / l) sum_{j=0}^{k-1-l} C(k-1, j) a^(k-1-l-j)
    (-b)^j and c2(l, nu) = sum_{p<=q} C(l, p) C(nu-1, q) R^(2p) (-conj(b))^(l-p)
    (-b)^(nu-1-q) a^(q-p).
    """
    with mpmath.workdps(DIGITS):
        a, b, radius = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpf(radius)
        bb = mpmath.conj(b)
        d, dbar = a - b, bb - mpmath.conj(a)
        log = mpmath.log(radius**2 - a * bb) - 2 * mpmath.log(abs(d))
        # a^i, (-b)^i, (-conj(b))^i, R^(2i), d^i and dbar^i for i < max_order
        a_pow, nb_pow, nbb_pow, r2_pow, d_pow, dbar_pow = (
            [x**i for i in range(max_order)]
            for x in (a, -b, -bb, radius**2, d, dbar))

        def c1(k):
            # -b^l is (-1)^(l+1) (-b)^l
            return sum(((-1) ** (l + 1) * nb_pow[l] / l
                        * sum(math.comb(k - 1, j) * a_pow[k - 1 - l - j] * nb_pow[j]
                              for j in range(k - l))
                        for l in range(1, k)), mpmath.mpc(0))

        def c2(l, nu):
            return sum((math.comb(l, p) * math.comb(nu - 1, q) * r2_pow[p]
                        * nbb_pow[l - p] * nb_pow[nu - 1 - q] * a_pow[q - p]
                        for p in range(l + 1) for q in range(p, nu)), mpmath.mpc(0))

        table = {}
        for nu in range(1, max_order + 1):
            c1_nu, d_nu = c1(nu), d_pow[nu - 1]
            c2_nu = [None] + [c2(l, nu) for l in range(1, max_order)]
            for mu in range(1, max_order + 1):
                total = dbar_pow[mu - 1] * (c1_nu + d_nu * log)
                for l in range(1, mu):
                    total += (math.comb(mu - 1, l) * dbar_pow[mu - 1 - l] / l
                              * (c2_nu[l] - (-1) ** l * dbar_pow[l] * d_nu))
                table[mu, nu] = total
        return table


def worst_errors(a, b, radius: float, max_order: int) -> dict:
    """{(mu, nu): max over the pairs (a[i], b[i]) of the relative error}.

    The error is |c3 - ref| / max(|ref|, R^(mu+nu-2)): c3 scales as
    R^(mu+nu-2), and near a zero of c3 a plain |ref| denominator measures the
    conditioning of the closed form, not its evaluation.  c3 runs as in a
    quadrature, a scalar target against an array of nodes (numpy rounds
    scalar and array arithmetic differently).
    """
    worst = dict.fromkeys(((mu, nu) for mu in range(1, max_order + 1)
                           for nu in range(1, max_order + 1)), 0.0)
    with mpmath.workdps(DIGITS):
        for ai, bi in zip(a.tolist(), b.tolist()):
            for (mu, nu), ref in reference(ai, bi, radius, max_order).items():
                err = (abs(c3(ai, np.array([bi]), mu, nu, radius)[0] - ref)
                       / max(abs(ref), mpmath.mpf(radius) ** (mu + nu - 2)))
                worst[mu, nu] = max(worst[mu, nu], float(err))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    orders = range(1, MAX_ORDER + 1)
    for radius in RADII:
        a, b = sample_pairs(np.random.default_rng(args.seed), radius, PAIRS)
        worst = worst_errors(a, b, radius, MAX_ORDER)
        print(f"\nR = {radius:g}: worst relative error of c3 against {DIGITS}-digit mpmath, "
              f"{PAIRS} point pairs (rows mu, columns nu)")
        print("mu\\nu " + "".join(f"{nu:>8}" for nu in orders))
        for mu in orders:
            print(f"{mu:>5} " + "".join(f"{worst[mu, nu]:8.1e}" for nu in orders))
        for label, within in BANDS:
            cells = [err for (mu, nu), err in worst.items() if within(max(mu, nu))]
            if cells:
                print(f"band {label}: worst {max(cells):.2e} over {len(cells)} cells")


if __name__ == "__main__":
    main()
