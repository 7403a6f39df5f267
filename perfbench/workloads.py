"""Seeded workloads: the CLI text each pass runs, exact references, checks.

Every workload draws its coefficients and target points from the seed and
hands the program only the generated CLI text.  Orders, grid sizes and
resolutions are fixed, so the cost of a pass does not depend on the seed.

References come from `oracle.exact_transform` compositions (polynomial
calculus that never touches the closed-form kernels) and are built once, at
construction, outside any timed region.  A pass returns the texts the user
would see; `check` parses them and scores every value against its reference.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from pompeiu import cli, operators
from pompeiu.geometry import DiskDomain
from pompeiu.oracle import NestedOracle, PolynomialField, exact_transform

#: errors below 1e-13 are float64 round-off and all read as 13 digits
FLOOR_DIGITS = 13.0

#: tolerances the acceptance suite pins for each kind of value
MIXED_TOL = 1e-5      # criterion 4: single-integral forms vs nested composition
POLYDISC_TOL = 1e-3   # criterion 8: polydisc tensor operator vs factor products

DISK = DiskDomain(1.0)

#: criterion 4's targets for the nested cross-check
CROSSCHECK_TARGETS = (0.18 + 0.22j, -0.31 + 0.12j)
CROSSCHECK_ORDERS = ((1, 1), (2, 1), (1, 2))
VERIFY_SUITES = {"kernels": 24, "operators": 7, "pde": 1, "norms": 3}  # suite -> lines


@dataclass(frozen=True)
class Invocation:
    """One `pmp` call as a user sees it, plus the rule-cache counters it left."""

    code: int
    stdout: str
    stderr: str
    cache_hits: int
    cache_misses: int


@dataclass
class Score:
    """Operations checked in one pass and the worst relative error seen."""

    attempted: int = 0
    failed: int = 0
    worst: float = 0.0

    def value(self, got: complex, want: complex, tol: float) -> None:
        """Score one value; relative means against max(1, |want|)."""
        self.attempted += 1
        if not (math.isfinite(got.real) and math.isfinite(got.imag)):
            self.failed += 1
            return
        err = abs(got - want) / max(1.0, abs(want))
        self.worst = max(self.worst, err)
        if not err <= tol:
            self.failed += 1

    def missing(self, count: int) -> None:
        self.attempted += count
        self.failed += count

    def merge(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst = max(self.worst, other.worst)

    @property
    def digits(self) -> float:
        """-log10 of the worst relative error, capped at FLOOR_DIGITS."""
        if self.worst <= 10.0 ** -FLOOR_DIGITS:
            return FLOOR_DIGITS
        return -math.log10(self.worst)


def invoke(argv, threads: int) -> Invocation:
    """Run one `pmp` command in-process with an empty area-rule cache.

    `pmp` itself turns a PompeiuError into exit status 1.  Any other
    exception, or a usage error, also ends this one operation as failed
    (exit 1, traceback on the benchmark's stderr) instead of the whole run.
    """
    os.environ["PMP_THREADS"] = str(threads)
    operators.cached_area_rule.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_command(list(argv))
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    info = operators.cached_area_rule.cache_info()
    return Invocation(code, out.getvalue(), err.getvalue(), info.hits, info.misses)


def parse_complex_text(text: str) -> complex | None:
    """Inverse of the CLI's `re±imi` format; None unless `text` is one value."""
    text = text.strip()
    if not text.endswith("i"):
        return None
    try:
        return complex(text[:-1] + "j")
    except ValueError:
        return None


def parse_grid_csv(text: str) -> list[tuple[complex, complex]]:
    """(point, value) pairs from the CLI's `x,y,re,im` grid CSV; [] if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "x,y,re,im":
        return []
    rows = []
    try:
        for line in lines[1:]:
            x, y, re, im = (float(part) for part in line.split(","))
            rows.append((complex(x, y), complex(re, im)))
    except ValueError:
        return []
    return rows


# ---------------------------------------------------------------------------
# Seeded inputs rendered as CLI expression text
# ---------------------------------------------------------------------------

def _rounded(z: complex) -> complex:
    """`z` to 4 decimals, so its CLI text and its value agree exactly."""
    return complex(float(f"{z.real:.4f}"), float(f"{z.imag:.4f}"))


def _on_circle(rng, radius: float) -> complex:
    """A seeded point of modulus `radius`: the seed moves phases, not sizes,
    so accuracy (which scales with sizes) stays comparable across seeds."""
    t = 2 * math.pi * rng.random()
    return _rounded(radius * complex(math.cos(t), math.sin(t)))


def _coefficient(rng) -> complex:
    return _on_circle(rng, 1.0)


def _complex_text(c: complex) -> str:
    return f"({c.real:.4f}{c.imag:+.4f}i)"


def _monomial_text(p: int, q: int) -> str:
    parts = (["z"] if p == 1 else [f"z^{p}"] if p else []) + \
            (["zbar"] if q == 1 else [f"zbar^{q}"] if q else [])
    return "*".join(parts)


def polynomial_text(terms: dict[tuple[int, int], complex]) -> str:
    """Expression text for sum c[p, q] z^p zbar^q over the given terms."""
    out = []
    for (p, q), c in sorted(terms.items()):
        mono = _monomial_text(p, q)
        out.append(_complex_text(c) + ("*" + mono if mono else ""))
    return "+".join(out)


def seeded_terms(rng, shape: tuple[int, int], degree: int) -> dict[tuple[int, int], complex]:
    """Seeded coefficients for every z^p zbar^q in `shape` with p + q <= degree."""
    return {(p, q): _coefficient(rng) for p in range(shape[0]) for q in range(shape[1])
            if p + q <= degree}


def point_text(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def transform(poly: PolynomialField, mu: int, nu: int) -> PolynomialField:
    """Exact T^mu Tbar^nu of a polynomial field on the unit disk."""
    for _ in range(nu):
        poly = exact_transform(poly, DISK.radius, conjugate=True)
    for _ in range(mu):
        poly = exact_transform(poly, DISK.radius)
    return poly


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One seeded workload; `run_pass` is the timed unit, `check` scores it."""

    name = ""
    why = ""
    threads = 1
    argv: tuple[str, ...] = ()

    def run_pass(self) -> list:
        return [invoke(self.argv, self.threads)]

    def check(self, outputs) -> Score:
        raise NotImplementedError

    @staticmethod
    def fingerprint(outputs) -> tuple:
        """What must repeat bit for bit across passes (and traced passes)."""
        return tuple(o.stdout if isinstance(o, Invocation) else repr(o) for o in outputs)


class _GridWorkload(Workload):
    grid = 33
    reference: PolynomialField

    def check(self, outputs) -> Score:
        score = Score()
        (inv,) = outputs
        rows = parse_grid_csv(inv.stdout) if inv.code == 0 else []
        expected = self.grid * self.grid
        if len(rows) != expected:
            score.missing(expected)
            return score
        points = np.array([z for z, _ in rows])
        wants = self.reference(points)
        for (_, got), want in zip(rows, wants):
            score.value(got, complex(want), MIXED_TOL)
        return score


class SolveGrid(_GridWorkload):
    name = "solve_grid"
    why = ("headline user job: pmp solve (2,2) on a 33x33 grid, 1089 distinct targets "
           "x 8192 nodes, single-threaded, c3 kernels dominate, no rule-cache hits")
    threads = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        terms = seeded_terms(rng, (3, 3), 2)
        for p, q in ((0, 0), (1, 1)):
            terms[p, q] = complex(terms[p, q].real)
        for p, q in ((0, 1), (0, 2)):
            terms[p, q] = terms[q, p].conjugate()        # real-valued field
        self.argv = ("solve", "--mu", "2", "--nu", "2", f"--rhs={polynomial_text(terms)}",
                     "--grid", str(self.grid))
        self.reference = transform(PolynomialField.from_dict(terms), 2, 2)


class ExportMixed(_GridWorkload):
    name = "export_mixed"
    why = ("pmp export T Tbar on a 33x33 grid with PMP_THREADS=2: log_term-only kernel, "
           "quadrature-limited accuracy, the only two-thread grid fan-out")
    threads = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        terms = seeded_terms(rng, (3, 3), 2)
        self.argv = ("export", "--op", "mixed", "--mu", "1", "--nu", "1",
                     f"--f={polynomial_text(terms)}", "--grid", str(self.grid))
        self.reference = transform(PolynomialField.from_dict(terms), 1, 1)


class PolydiscTensor(Workload):
    name = "polydisc_tensor"
    why = ("pmp op apply on the 3-factor polydisc at (16,32): 512^3 tensor samples, time in "
           "expression sampling and the streamed reduction, kernels negligible")
    threads = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        coefficient = _coefficient(rng)
        point = tuple(_on_circle(rng, 0.5) for _ in range(3))
        # fixed shape: where the conjugate sits changes the cost by up to 2x
        field = _complex_text(coefficient) + "*z1*z2bar*z3"
        self.argv = ("op", "apply", "--op", "polydisc", "--n", "3", f"--f={field}",
                     "--z=" + ",".join(point_text(z) for z in point),
                     "--mu", "1,1,1", "--nu", "1,1,1", "--nr", "16", "--ntheta", "32")
        want = coefficient
        for monomial, z in zip(((1, 0), (0, 1), (1, 0)), point):
            factor = PolynomialField.from_dict({monomial: 1.0})
            want *= complex(transform(factor, 1, 1)(np.asarray(z)))
        self.reference = want

    def check(self, outputs) -> Score:
        score = Score()
        (inv,) = outputs
        got = parse_complex_text(inv.stdout) if inv.code == 0 else None
        if got is None:
            score.missing(1)
        else:
            score.value(got, self.reference, POLYDISC_TOL)
        return score


class Crosscheck(Workload):
    name = "crosscheck"
    why = ("pmp verify (all four suites) plus NestedOracle vs apply_mixed at criterion 4's "
           "targets: oracle interpolation, rule construction, the only repeated targets")
    threads = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        terms = seeded_terms(rng, (4, 4), 6)
        self.poly = PolynomialField.from_dict(terms)
        field = polynomial_text(terms)
        self.verify_argv = [("verify", "--suite", suite, "--seed", str(seed))
                            for suite in VERIFY_SUITES]
        self.cases = [(mu, nu, z) for mu, nu in CROSSCHECK_ORDERS for z in CROSSCHECK_TARGETS]
        self.apply_argv = [("op", "apply", "--op", "mixed", f"--f={field}",
                            f"--z={point_text(z)}", "--mu", str(mu), "--nu", str(nu))
                           for mu, nu, z in self.cases]
        self.references = [complex(transform(self.poly, mu, nu)(np.asarray(z)))
                           for mu, nu, z in self.cases]

    def run_pass(self) -> list:
        outputs = [invoke(argv, self.threads) for argv in self.verify_argv]
        outputs += [invoke(argv, self.threads) for argv in self.apply_argv]
        nested = NestedOracle(self.poly.to_field(DISK))
        for mu, nu, z in self.cases:
            try:
                outputs.append(nested.evaluate(z, ["T"] * mu + ["Tbar"] * nu))
            except Exception:       # PompeiuError or a crash: this comparison failed
                traceback.print_exc(file=sys.__stderr__)
                outputs.append(None)
        return outputs

    def check(self, outputs) -> Score:
        score = Score()
        n_suites, n_cases = len(self.verify_argv), len(self.cases)
        for inv, lines in zip(outputs[:n_suites], VERIFY_SUITES.values()):
            report = inv.stdout.splitlines()
            ok = (inv.code == 0 and len(report) == lines
                  and all(line.startswith("PASS ") for line in report))
            score.attempted += 1
            score.failed += not ok
        applied = outputs[n_suites:n_suites + n_cases]
        nested = outputs[n_suites + n_cases:]
        for inv, got_nested, want in zip(applied, nested, self.references):
            closed = parse_complex_text(inv.stdout) if inv.code == 0 else None
            if closed is None or got_nested is None:
                score.missing(1)
                continue
            exact, agree = Score(), Score()     # only `exact` feeds err_digits
            exact.value(closed, want, MIXED_TOL)
            exact.value(got_nested, want, MIXED_TOL)
            agree.value(got_nested, closed, MIXED_TOL)
            score.attempted += 1
            score.failed += exact.failed + agree.failed > 0
            score.worst = max(score.worst, exact.worst)
        return score


WORKLOADS = {cls.name: cls for cls in (SolveGrid, ExportMixed, PolydiscTensor, Crosscheck)}
