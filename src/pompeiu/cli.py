"""The `pmp` command line: its parsers, the subcommand bodies and the
`verify` suites.

`run_command` builds the top-level parser with only the subparser that
argv[0] names, refuses a flag the chosen form never reads (`_unread_flag`,
`_unread_solve_flag`: exit 2), and turns a PompeiuError into one `error:`
line (exit 1).  `pmp --help` prints `_DESCRIPTION`, not this docstring.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import kernels, operators, oracle, solver
from .errors import NonFiniteSample, PompeiuError
from .expressions import parse_complex, pretty
from .geometry import DiskDomain, MultiIndex, PolydiscDomain
from .operators import (ScalarField, apply_2T, apply_2Tbar, apply_conjugate_dual,
                        apply_polydisc, apply_S, apply_Sbar, apply_T, evaluate_on_grid,
                        field_from_expression, transform)
from .quadrature import DEFAULT_CONTOUR_COUNT, DEFAULT_COUNTS

_DESCRIPTION = """Command-line surface: kernel evaluation, operator application, solving,
verification suites, and grid export.

Complex values print as `re±imi` with 15 significant digits.  Grid output is
CSV (`x,y,re,im`, header row, row-major) or JSON with a config echo.  Usage
errors exit 2, numeric failures exit 1, and `verify` exits nonzero when any
property fails.  Each subcommand declares only the flags it reads.
"""


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}i"


def _add_radius_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R", type=float, default=1.0, help="disk radius")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_resolution(p: argparse.ArgumentParser) -> None:
    neither = "given neither flag, T^mu Tbar^nu take the disk-centred core"
    p.add_argument("--nr", type=int,
                   help=f"radial quadrature nodes (default: {DEFAULT_COUNTS[0]}; {neither})")
    p.add_argument("--ntheta", type=int,
                   help=f"angular quadrature nodes (default: {DEFAULT_COUNTS[1]}; {neither})")


#: the flags only some --op, --suite or --kind choices read, with their defaults
#: (None counts: the disk-centred core, or their entries of
#: `quadrature.DEFAULT_COUNTS` where the rules serve); parsers leave them None,
#: so `_unread_flag` can tell which were given
_OPTIONAL = {"mu": (1,), "nu": (1,), "power": 1, "n": 1, "k": 1, "l": 1, "nr": None,
             "ntheta": None, "contour_n": DEFAULT_CONTOUR_COUNT}

#: subcommand -> (the flag that picks what runs, pick -> the flags of _OPTIONAL
#: it reads); --op None: `export` samples the field
_OP_READS = {"T": {"power", "nr", "ntheta"}, "Tbar": {"power", "nr", "ntheta"},
             "mixed": {"mu", "nu", "nr", "ntheta"}, "dual": {"mu", "nu", "nr", "ntheta"},
             "2T": {"nr", "ntheta"}, "2Tbar": {"nr", "ntheta"}, "S": {"contour_n"},
             "Sbar": {"contour_n"}, "polydisc": {"n", "mu", "nu", "nr", "ntheta"}, None: set()}
_READS = {
    "op": ("op", _OP_READS), "export": ("op", _OP_READS),
    "verify": ("suite", {"kernels": {"nr", "ntheta", "contour_n"},
                         "operators": {"nr", "ntheta", "contour_n"},
                         "pde": {"nr", "ntheta"}, "norms": set()}),
    "kernel": ("kind", {"c1": {"k"}, "c2": {"l", "nu"}, "c3": {"mu", "nu"}, "c8": {"mu", "nu"},
                        "gdiag": {"k"}, "gmixed": {"mu", "nu"}}),
}


def _unread_flag(args) -> str | None:
    """The refusal of the first flag given that the chosen --op, --suite or --kind
    never reads, else None with the defaults of the flags left out filled in."""
    choice, reads = _READS[args.command]
    picked = getattr(args, choice)
    for name, default in _OPTIONAL.items():
        if getattr(args, name, None) is None:   # not given, or not a flag of this parser
            setattr(args, name, default)
        elif name not in reads[picked]:
            by = f"--{choice} {picked}" if picked else "export without --op"
            return f"--{name.replace('_', '-')} is not read by {by}"
    return _unread_seed(args, "export") if args.command == "export" else None


def _unread_seed(args, form: str) -> str | None:
    """Refuse --seed with CSV output, which echoes no config; else fill in csv and 0."""
    if args.seed is not None and args.format != "json":
        return f"--seed is not read by {form} without --format json"
    args.format, args.seed = args.format or "csv", args.seed or 0


#: solve's switches -> (the flags it never reads with the switch given, and
#: without it); the parser leaves these flags None, so `_unread_solve_flag`
#: can tell which were given, and then fills in _SOLVE_DEFAULTS
_SOLVE_UNREAD = {"biharmonic": (("mu", "nu", "g", "f"), ("h1", "h2")),
                 "grid": (("z",), ("format", "seed"))}
_SOLVE_DEFAULTS = {"mu": 1, "nu": 1, "h1": "0", "h2": "0"}


def _unread_solve_flag(args) -> str | None:
    """`_unread_flag` for `solve`, whose forms --biharmonic and --grid pick."""
    for switch, (given, left_out) in _SOLVE_UNREAD.items():
        on = getattr(args, switch) is not None
        for name in given if on else left_out:
            if getattr(args, name) is not None:
                return f"--{name} is not read by solve {'' if on else 'without '}--{switch}"
    for name, default in _SOLVE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    return _unread_seed(args, "solve --grid") if args.grid is not None else None


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
    """The whole `pmp` parser, every subcommand's flags included."""
    return _parser(_COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of `names` only (a command: its own).
    A part-built one still names all five in the usage line that reports an unknown flag."""
    top = argparse.ArgumentParser(prog="pmp", description=_DESCRIPTION)
    every = {} if len(names) == len(_COMMANDS) else {"metavar": "{%s}" % ",".join(_COMMANDS)}
    sub = top.add_subparsers(dest="command", required=True, **every)
    if "kernel" in names:
        kern = sub.add_parser("kernel", help="evaluate closed-form kernels")
        ke = kern.add_subparsers(dest="action", required=True).add_parser("eval")
        ke.add_argument("--kind", choices=["c1", "c2", "c3", "c8", "gdiag", "gmixed"],
                        default="c3")
        ke.add_argument("--a", default="0", help="target point (z)")
        ke.add_argument("--b", default="0", help="source point (eta/zeta)")
        ke.add_argument("--mu", type=_orders)
        ke.add_argument("--nu", type=_orders)
        ke.add_argument("--k", type=int, help="order for c1/gdiag")
        ke.add_argument("--l", type=int, help="first order for c2")
        _add_radius_and_out(ke)
    if "op" in names:
        op = sub.add_parser("op", help="apply transforms to a field")
        oa = op.add_subparsers(dest="action", required=True).add_parser("apply")
        oa.add_argument("--op", required=True, choices=["T", "Tbar", "S", "Sbar", "2T", "2Tbar",
                                                        "mixed", "dual", "polydisc"])
        oa.add_argument("--f", required=True, help="field expression")
        oa.add_argument("--z", required=True, help="target point (comma list on the polydisc)")
        oa.add_argument("--power", type=int, help="iterate T/Tbar this many times")
        oa.add_argument("--mu", type=_orders)
        oa.add_argument("--nu", type=_orders)
        oa.add_argument("--n", type=int, help="polydisc factor count")
        _add_radius_and_out(oa)
        _add_resolution(oa)
        oa.add_argument("--contour-n", dest="contour_n", type=int,
                        help="contour rule node count")
    if "solve" in names:
        so = sub.add_parser("solve", help="assemble a solution of d^mu dbar^nu u = A")
        so.add_argument("--mu", type=int)
        so.add_argument("--nu", type=int)
        so.add_argument("--rhs", default=None,
                        help="right-hand side expression (omit: homogeneous)")
        so.add_argument("--g", action="append", default=None,
                        help="g_j expression (repeat nu times)")
        so.add_argument("--f", action="append", default=None,
                        help="f_i expression (repeat mu times)")
        so.add_argument("--biharmonic", action="store_true", default=None,
                        help="solve LaplacianSquared u = rhs with harmonic parts --h1/--h2")
        so.add_argument("--h1")
        so.add_argument("--h2")
        so.add_argument("--z", default=None, help="evaluate at this point")
        so.add_argument("--grid", type=int, default=None, help="export an N x N grid")
        so.add_argument("--format", choices=["csv", "json"])
        so.add_argument("--seed", type=int, help="echoed into the JSON config")
        _add_radius_and_out(so)
        _add_resolution(so)
    if "verify" in names:
        ve = sub.add_parser("verify", help="run a seeded property suite")
        ve.add_argument("--suite", required=True,
                        choices=["kernels", "operators", "pde", "norms"])
        ve.add_argument("--seed", type=int, default=0)
        _add_radius_and_out(ve)
        _add_resolution(ve)
        ve.add_argument("--contour-n", dest="contour_n", type=int,
                        help="contour rule node count")
    if "export" in names:
        ex = sub.add_parser("export", help="sample a field or transform on a grid")
        ex.add_argument("--f", required=True, help="field expression")
        ex.add_argument("--op", default=None, choices=["T", "Tbar", "mixed"],
                        help="transform to apply at each grid point")
        ex.add_argument("--mu", type=_orders)
        ex.add_argument("--nu", type=_orders)
        ex.add_argument("--grid", type=int, default=17)
        ex.add_argument("--extent", type=float, default=0.95)
        ex.add_argument("--format", choices=["csv", "json"])
        ex.add_argument("--seed", type=int, help="echoed into the JSON config")
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
    res = (args.nr, args.ntheta)
    if args.op == "polydisc":
        f = field_from_expression(args.f, PolydiscDomain(args.n, args.R))
        z = tuple(parse_complex(part) for part in args.z.split(","))
        # one order (the default too) is every factor's; past 9 factors DimensionCap comes first
        mu, nu = (MultiIndex(o * min(args.n, 10) if len(o) == 1 else o)
                  for o in (args.mu, args.nu))
        value = apply_polydisc(f, z, mu, nu, res)
    else:
        f = field_from_expression(args.f, DiskDomain(args.R))
        value = _DISK_OPS[args.op](f, parse_complex(args.z), args, res)
    _emit(format_complex(value) + "\n", args.out)
    return 0


def _grid_text(grid, fmt: str) -> str:
    return grid.to_csv_text() if fmt == "csv" else grid.to_json_text()


def _cmd_solve(args) -> int:
    domain = DiskDomain(args.R)
    res = (args.nr, args.ntheta)
    if args.biharmonic:
        if args.rhs is None:
            raise PompeiuError("--biharmonic needs --rhs")
        rhs, h1, h2 = (field_from_expression(text, domain)
                       for text in (args.rhs, args.h1, args.h2))
        u = solver.solve_biharmonic(rhs, h1, h2, res)
    else:
        mu, nu = args.mu, args.nu
        g_texts = args.g if args.g is not None else ["0"] * nu
        f_texts = args.f if args.f is not None else ["0"] * mu
        spec = solver.SolutionSpec(
            mu=mu, nu=nu,
            rhs=None if args.rhs is None else field_from_expression(args.rhs, domain),
            g_list=tuple(field_from_expression(t, domain) for t in g_texts),
            f_list=tuple(field_from_expression(t, domain) for t in f_texts),
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


def _cmd_export(args) -> int:
    domain = DiskDomain(args.R)
    res = (args.nr, args.ntheta)
    f = field_from_expression(args.f, domain)
    if args.op is None:   # a field sample reads no resolution
        func, read = f, {}
    else:
        func, read = lambda z: _DISK_OPS[args.op](f, z, args, res), {"resolution": list(res)}
    config_echo = {"radius": args.R, **read, "seed": args.seed,
                   "field": pretty(f.expression), "op": args.op or "none", "command": "export"}
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
    orders = ((1, 1), (2, 1), (1, 2), (2, 2))
    # c3 vs its half rules, worst of seeds 0-199 at R = 1 and 2.5: 2.58e-8 at DEFAULT_COUNTS,
    # 2.54e-4 at 32 x 64; of finer counts only 128x320, 64x320, 96x160, 64x161 on seeds 0-39
    counts = zip((args.nr, args.ntheta), DEFAULT_COUNTS)
    tolerance = 1e-6 if all(c is None or c >= d for c, d in counts) else 1e-4
    for trial in range(4):
        a, b = _separated_pair(rng, R)   # one pair of half rules serves the four orders
        values = oracle.lemma_lhs_quadrature("lem6", a, b, orders, R, (args.nr, args.ntheta))
        for (mu, nu), lhs in zip(orders, values):
            rhs = 2j * np.pi * kernels.c3(a, b, mu, nu, R)
            err = abs(lhs - rhs) / max(1.0, abs(lhs))
            failures += report(err <= tolerance, f"kernel c3({mu},{nu}) vs quadrature", err)
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
    res = (args.nr, args.ntheta)
    domain = DiskDomain(R)
    failures = 0
    for l in range(4):
        z = _interior_point(rng, 0.7 * R)
        f = ScalarField(lambda w, l=l: np.conj(w) ** l, domain, degree=l)
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
    zero = operators.constant_field(0, domain)
    spec = solver.SolutionSpec(1, 1, rhs, (zero,), (zero,))
    u = solver.solve_pde(spec, resolution=(args.nr, args.ntheta))
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
        rep = oracle.check_norm_bound(f, 1, 1, alpha, sup_points=4, pairs=4, seed=args.seed)
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


#: subcommand -> its body, in the order of `pmp --help`
_COMMANDS = {"kernel": _cmd_kernel, "op": _cmd_op, "solve": _cmd_solve,
             "verify": _cmd_verify, "export": _cmd_export}


def run_command(argv) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _parser([argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    if unread := (_unread_flag if args.command in _READS else _unread_solve_flag)(args):
        parser.exit(2, f"pmp: error: {unread}\n")
    try:
        return _COMMANDS[args.command](args)
    except PompeiuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
