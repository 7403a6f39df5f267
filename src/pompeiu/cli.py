"""Command-line surface: kernel evaluation, operator application, solving,
verification suites, and grid export.

Complex values print as `re±imi` with 15 significant digits.  Grid output is
CSV (`x,y,re,im`, header row, row-major) or JSON with a config echo.  Usage
errors exit 2, numeric failures exit 1, and `verify` exits nonzero when any
property fails.  Each subcommand declares only the flags it reads.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import kernels, operators, oracle, solver
from .errors import NonFiniteSample, PompeiuError
from .expressions import parse_complex, parse_expression, to_coefficients
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .operators import (POLYDISC_RESOLUTION, ScalarField, apply_2T, apply_2Tbar,
                        apply_conjugate_dual, apply_polydisc, apply_S, apply_Sbar, apply_T,
                        evaluate_on_grid, field_from_expression, transform)
from .quadrature import DEFAULT_CONTOUR_COUNT, DEFAULT_RESOLUTION


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}i"


def _add_radius_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R", type=float, default=1.0, help="disk radius")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_resolution(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nr", type=int, default=None, help="radial quadrature nodes")
    p.add_argument("--ntheta", type=int, default=None, help="angular quadrature nodes")


def _resolution(args, default=DEFAULT_RESOLUTION) -> tuple[int, int]:
    """(--nr, --ntheta), each flag left out taking its entry of `default`."""
    return (default[0] if args.nr is None else args.nr,
            default[1] if args.ntheta is None else args.ntheta)


def _add_contour_count(p: argparse.ArgumentParser) -> None:
    p.add_argument("--contour-n", dest="contour_n", type=int, default=DEFAULT_CONTOUR_COUNT,
                   help="contour rule node count")


def _orders(text: str) -> tuple[int, ...]:
    """`--mu`/`--nu`: one order, or a comma list (the polydisc and c8)."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers separated by commas, got {text!r}")


def _single(args, *names: str) -> list[int]:
    """The one order each flag in `names` holds, for a disk kernel or operator."""
    for name in names:
        if len(getattr(args, name)) != 1:
            raise PompeiuError(f"--{name} takes one order here, got "
                               f"{','.join(map(str, getattr(args, name)))}")
    return [getattr(args, name)[0] for name in names]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pmp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    kern = sub.add_parser("kernel", help="evaluate closed-form kernels")
    kern_sub = kern.add_subparsers(dest="action", required=True)
    ke = kern_sub.add_parser("eval")
    ke.add_argument("--kind", choices=["c1", "c2", "c3", "c8", "gdiag", "gmixed"], default="c3")
    ke.add_argument("--a", default="0", help="target point (z)")
    ke.add_argument("--b", default="0", help="source point (eta/zeta)")
    ke.add_argument("--mu", type=_orders, default="1")
    ke.add_argument("--nu", type=_orders, default="1")
    ke.add_argument("--k", type=int, default=1, help="order for c1/gdiag")
    ke.add_argument("--l", type=int, default=1, help="first order for c2")
    _add_radius_and_out(ke)

    op = sub.add_parser("op", help="apply transforms to a field")
    op_sub = op.add_subparsers(dest="action", required=True)
    oa = op_sub.add_parser("apply")
    oa.add_argument("--op", required=True,
                    choices=["T", "Tbar", "S", "Sbar", "2T", "2Tbar", "mixed", "dual", "polydisc"])
    oa.add_argument("--f", required=True, help="field expression")
    oa.add_argument("--z", required=True, help="target point (comma list on the polydisc)")
    oa.add_argument("--power", type=int, default=1, help="iterate T/Tbar this many times")
    oa.add_argument("--mu", type=_orders, default="1")
    oa.add_argument("--nu", type=_orders, default="1")
    oa.add_argument("--n", type=int, default=1, help="polydisc factor count")
    _add_radius_and_out(oa)
    _add_resolution(oa)
    _add_contour_count(oa)

    so = sub.add_parser("solve", help="assemble a solution of d^mu dbar^nu u = A")
    so.add_argument("--mu", type=int, default=1)
    so.add_argument("--nu", type=int, default=1)
    so.add_argument("--rhs", default=None, help="right-hand side expression (omit: homogeneous)")
    so.add_argument("--g", action="append", default=None, help="g_j expression (repeat nu times)")
    so.add_argument("--f", action="append", default=None, help="f_i expression (repeat mu times)")
    so.add_argument("--biharmonic", action="store_true",
                    help="solve LaplacianSquared u = rhs with harmonic parts --h1/--h2")
    so.add_argument("--h1", default="0")
    so.add_argument("--h2", default="0")
    so.add_argument("--z", default=None, help="evaluate at this point")
    so.add_argument("--grid", type=int, default=None, help="export an N x N grid")
    so.add_argument("--format", choices=["csv", "json"], default="csv")
    so.add_argument("--seed", type=int, default=0, help="echoed into the JSON config")
    _add_radius_and_out(so)
    _add_resolution(so)

    ve = sub.add_parser("verify", help="run a seeded property suite")
    ve.add_argument("--suite", required=True, choices=["kernels", "operators", "pde", "norms"])
    ve.add_argument("--seed", type=int, default=0)
    _add_radius_and_out(ve)
    _add_resolution(ve)
    _add_contour_count(ve)

    ex = sub.add_parser("export", help="sample a field or transform on a grid")
    ex.add_argument("--f", required=True, help="field expression")
    ex.add_argument("--op", default=None,
                    choices=["T", "Tbar", "mixed"], help="transform to apply at each grid point")
    ex.add_argument("--mu", type=_orders, default="1")
    ex.add_argument("--nu", type=_orders, default="1")
    ex.add_argument("--grid", type=int, default=17)
    ex.add_argument("--extent", type=float, default=0.95)
    ex.add_argument("--format", choices=["csv", "json"], default="csv")
    ex.add_argument("--seed", type=int, default=0, help="echoed into the JSON config")
    ex.set_defaults(power=1)   # export applies single T/Tbar
    _add_radius_and_out(ex)
    _add_resolution(ex)
    return top


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

#: kernel kind -> value at (a, b) on the R-disk; gdiag and gmixed are the
#: (k, 0) and (mu, nu >= 1) entries of the normalized kernel table
_KERNELS = {
    "c1": lambda args, a, b, R: kernels.c1(a, b, args.k),
    "c2": lambda args, a, b, R: kernels.c2(a, b, args.l, *_single(args, "nu"), R),
    "c3": lambda args, a, b, R: kernels.c3(a, b, *_single(args, "mu", "nu"), R),
    "c8": lambda args, a, b, R: kernels.c8(MultiIndex(args.mu), MultiIndex(args.nu)),
    "gdiag": lambda args, a, b, R: kernels.g_diag(a, b, args.k),
    "gmixed": lambda args, a, b, R: kernels.g_mixed(a, b, *_single(args, "mu", "nu"), R),
}


def _cmd_kernel(args) -> int:
    disk = DiskDomain(args.R)
    a, b = (disk.validate_point(parse_complex(text)) for text in (args.a, args.b))
    # floating-point warnings are silenced here: a NaN/Inf value raises below
    with np.errstate(all="ignore"):
        value = _KERNELS[args.kind](args, a, b, args.R)
    if not np.isfinite(value):
        raise NonFiniteSample("kernel value is NaN/Inf")
    _emit(format_complex(value) + "\n", args.out)
    return 0


#: disk --op -> value at one target with area rules of resolution `res`;
#: T^k, Tbar^k and mixed are the (k, 0), (0, k) and (mu, nu) entries of the
#: transform core
_DISK_OPS = {
    "T": lambda f, z, args, res: transform(f, z, args.power, 0, res),
    "Tbar": lambda f, z, args, res: transform(f, z, 0, args.power, res),
    "mixed": lambda f, z, args, res: transform(f, z, *_single(args, "mu", "nu"), res),
    "dual": lambda f, z, args, res: apply_conjugate_dual(f, z, *_single(args, "mu", "nu"), res),
    "2T": lambda f, z, args, res: apply_2T(f, z, res),
    "2Tbar": lambda f, z, args, res: apply_2Tbar(f, z, res),
    "S": lambda f, z, args, res: apply_S(f, z, args.contour_n),
    "Sbar": lambda f, z, args, res: apply_Sbar(f, z, args.contour_n),
}


def _cmd_op(args) -> int:
    if args.op == "polydisc":
        f = field_from_expression(args.f, PolydiscDomain(args.n, args.R))
        z = tuple(parse_complex(part) for part in args.z.split(","))
        # per-factor rules default smaller than the disk's
        value = apply_polydisc(f, z, MultiIndex(args.mu), MultiIndex(args.nu),
                               _resolution(args, POLYDISC_RESOLUTION))
    else:
        f = field_from_expression(args.f, DiskDomain(args.R))
        value = _DISK_OPS[args.op](f, parse_complex(args.z), args, _resolution(args))
    _emit(format_complex(value) + "\n", args.out)
    return 0


def _grid_text(grid, fmt: str) -> str:
    return grid.to_csv_text() if fmt == "csv" else grid.to_json_text()


def _cmd_solve(args) -> int:
    domain = DiskDomain(args.R)
    res = _resolution(args)
    if args.biharmonic:
        if args.rhs is None:
            raise PompeiuError("--biharmonic needs --rhs")
        rhs = field_from_expression(args.rhs, domain)
        h1 = _poly_from_expression(args.h1)
        h2 = _poly_from_expression(args.h2)
        u = solver.solve_biharmonic(rhs, h1, h2, res)
    else:
        mu, nu = args.mu, args.nu
        g_texts = args.g if args.g is not None else ["0"] * nu
        f_texts = args.f if args.f is not None else ["0"] * mu
        spec = solver.SolutionSpec(
            mu=mu, nu=nu,
            rhs=None if args.rhs is None else field_from_expression(args.rhs, domain),
            g_list=tuple(_poly_from_expression(t) for t in g_texts),
            f_list=tuple(_poly_from_expression(t) for t in f_texts),
        )
        u = solver.solve_pde(spec, domain, res)

    if args.grid is not None:
        config_echo = {"radius": args.R, "resolution": list(res),
                       "seed": args.seed, "command": "solve"}
        grid = evaluate_on_grid(u, domain, args.grid, config=config_echo)
        _emit(_grid_text(grid, args.format), args.out)
        return 0
    if args.z is None:
        raise PompeiuError("solve needs --z or --grid")
    _emit(format_complex(u(parse_complex(args.z))) + "\n", args.out)
    return 0


def _poly_from_expression(text: str) -> solver.HolomorphicPolynomial:
    coeffs = to_coefficients(parse_expression(text), 1)
    degree = 0
    for ((p, q),) in coeffs:
        if q != 0:
            raise PompeiuError(f"free functions must be holomorphic; {text!r} uses zbar")
        degree = max(degree, p)
    dense = [0j] * (degree + 1)
    for ((p, _),), v in coeffs.items():
        dense[p] = v
    return solver.HolomorphicPolynomial(tuple(dense))


def _cmd_export(args) -> int:
    domain = DiskDomain(args.R)
    res = _resolution(args)
    f = field_from_expression(args.f, domain)
    if args.op is None:
        func = lambda z: complex(f(np.asarray(z)))
    else:
        func = lambda z: _DISK_OPS[args.op](f, z, args, res)
    config_echo = {"radius": args.R, "resolution": list(res), "seed": args.seed,
                   "field": f.description, "op": args.op or "none", "command": "export"}
    grid = evaluate_on_grid(func, domain, args.grid, args.extent, config=config_echo)
    _emit(_grid_text(grid, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _suite_kernels(args, report) -> int:
    rng = np.random.default_rng(args.seed)
    R = args.R
    failures = 0
    for trial in range(4):
        a, b = _separated_pair(rng, R)
        for mu, nu in ((1, 1), (2, 1), (1, 2), (2, 2)):
            lhs = oracle.lemma_lhs_quadrature("lem6", a, b, (mu, nu), R, _resolution(args))
            rhs = 2j * np.pi * kernels.c3(a, b, mu, nu, R)
            err = abs(lhs - rhs) / max(1.0, abs(lhs))
            failures += report(err <= 1e-4, f"kernel c3({mu},{nu}) vs quadrature", err)
    for l in (1, 2):
        for nu in (1, 2):
            a, b = _separated_pair(rng, R)
            lhs = oracle.lemma_lhs_quadrature("lem5", a, b, (l, nu), R,
                                              contour_count=args.contour_n)
            rhs = 2j * np.pi * kernels.c2(a, b, l, nu, R)
            failures += report(abs(lhs - rhs) <= 1e-10,
                               f"kernel c2({l},{nu}) vs contour", abs(lhs - rhs))
    for (mu, nu), special in kernels.c3_special_cases.items():
        a, b = _separated_pair(rng, R)
        err = abs(special(a, b, R) - kernels.c3(a, b, mu, nu, R))
        failures += report(err <= 1e-12,
                           f"explicit kernel ({mu},{nu}) vs general", err)
    return failures


def _suite_operators(args, report) -> int:
    rng = np.random.default_rng(args.seed)
    R = args.R
    res = _resolution(args)
    domain = DiskDomain(R)
    failures = 0
    for l in range(4):
        z = _interior_point(rng, 0.7 * R)
        f = ScalarField(lambda w, l=l: np.conj(w) ** l, domain, f"zbar^{l}")
        got = apply_T(f, z, res)
        want = np.conj(z) ** (l + 1) / (l + 1)
        err = abs(got - want) / max(1.0, abs(want))
        failures += report(err <= 1e-8, f"T(zbar^{l}) golden", err)
    poly = oracle.PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(domain)
    dbar = poly.wirtinger(0, 1).to_field(domain)
    for _ in range(3):
        z = _interior_point(rng, min(0.6 * R, operators.S_envelope(R, args.contour_n)))
        got = apply_T(dbar, z, res) + apply_S(f, z, args.contour_n)
        err = abs(got - complex(poly(np.asarray(z))))
        failures += report(err <= 1e-7, "T dbar f + S f = f", err)
    return failures


def _suite_pde(args, report) -> int:
    rng = np.random.default_rng(args.seed)
    domain = DiskDomain(args.R)
    failures = 0
    rhs = operators.constant_field(4.0, domain)
    spec = solver.SolutionSpec(1, 1, rhs, (solver.HolomorphicPolynomial.zero(),),
                               (solver.HolomorphicPolynomial.zero(),))
    u = solver.solve_pde(spec, resolution=_resolution(args))
    pts = [_interior_point(rng, 0.5 * args.R) for _ in range(3)]
    res = solver.fd_residual(u, 1, 1, rhs, pts)
    failures += report(float(np.max(res)) <= 4e-2, "d dbar u = 4 residual", float(np.max(res)))
    return failures


def _suite_norms(args, report) -> int:
    rng = np.random.default_rng(args.seed)
    domain = DiskDomain(args.R)
    failures = 0
    for alpha in (0.25, 0.5, 0.75):
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = oracle.PolynomialField(coeffs).to_field(domain)
        rep = oracle.check_norm_bound(f, 1, 1, alpha, resolution=(24, 48),
                                      sup_points=4, pairs=4, seed=args.seed)
        failures += report(rep.holds, f"norm bound alpha={alpha}", rep.lhs / rep.rhs)
    return failures


def _separated_pair(rng, R: float):
    while True:
        a = _interior_point(rng, 0.8 * R)
        b = _interior_point(rng, 0.8 * R)
        if abs(a - b) >= 0.05 * R:
            return a, b


def _interior_point(rng, radius: float) -> complex:
    return complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def _cmd_verify(args) -> int:
    lines = []

    def report(ok: bool, name: str, measure) -> int:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({measure:.3g})")
        return 0 if ok else 1

    suite = {"kernels": _suite_kernels, "operators": _suite_operators,
             "pde": _suite_pde, "norms": _suite_norms}[args.suite]
    failures = suite(args, report)
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def run_command(argv) -> int:
    """Parse argv and execute; returns the process exit status."""
    args = build_parser().parse_args(argv)
    command = {"kernel": _cmd_kernel, "op": _cmd_op, "solve": _cmd_solve,
               "verify": _cmd_verify, "export": _cmd_export}[args.command]
    try:
        return command(args)
    except PompeiuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
