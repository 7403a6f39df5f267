"""Every script under scripts/ imports against the current package.

Importing runs each script's module body (its imports and definitions) but
not `main`, so a public name a script uses cannot disappear unnoticed.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pompeiu.geometry import DiskDomain
from pompeiu.operators import constant_field, field_from_expression, transform
from pompeiu.oracle import (NESTED_GRID_SHAPE, NESTED_RESOLUTION, NESTED_TOP_RESOLUTION,
                            PolynomialField)
from pompeiu.solver import solve_biharmonic

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRANSFORM_ACCURACY = load(SCRIPTS[0].parent / "transform_accuracy.py")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(path):
    assert callable(load(path).main)


def test_rule_table_smoke(capsys):
    module = load(SCRIPTS[0].parent / "rule_table.py")
    module.main(["--ratios", "0.5", "--resolutions", "default,8x16", "--ops", "T,2T,1x1",
                 "--degree", "1", "--angles", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[2].split()[:3] == ["0.5", "default", "64x160"]
    assert lines[3].split()[:2] == ["0.5", "8x16"]
    # the default counts reach round-off on a degree-1 field
    assert all(float(err) <= 1e-14 for err in lines[2].split()[3:])


def test_convergence_study_nested_smoke(capsys, monkeypatch):
    # one seed, two |z|/R and one angle per cell: the oracle's counts read
    # round-off in every cell with fewer points than more radii, and two fewer
    # radii lose digits
    module = load(SCRIPTS[0].parent / "convergence_study.py")
    monkeypatch.setattr(module, "NESTED_SEEDS", (0,))
    monkeypatch.setattr(module, "NESTED_RATIOS", (0.0, 0.99))
    monkeypatch.setattr(module, "NESTED_ANGLES", (0.7,))
    radii = NESTED_GRID_SHAPE[0]
    current, fewer, more = (module._label((n, NESTED_RESOLUTION, NESTED_TOP_RESOLUTION))
                            for n in (radii, radii - 2, radii + 4))
    module.main(["--nested", f"{fewer},{more}"])
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[3:6]}
    assert list(rows) == [current, fewer, more]
    assert float(rows[current][0]) <= module.ROUND_OFF and rows[current][1] == "0"
    assert int(rows[fewer][1]) > 0 and int(rows[more][2]) > int(rows[current][2])
    assert f"<= {module.ROUND_OFF:g}: {current} (" in lines[6] and lines[6].endswith(current)
    assert len(lines[10:]) == 4 * 2 * 3 * 2   # depth x R x field x |z|/R


def test_transform_accuracy_smoke(capsys):
    # one seed, field degree plus orders <= 2: the core at round-off up to the
    # circle, where the target-centred rule's (1,1) loses digits
    module = load(SCRIPTS[0].parent / "transform_accuracy.py")
    module.main(["--seeds", "1", "--band", "2"])
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["entries"]) == ["0,1", "0,2", "1,0", "1,1", "2,0"]
    assert report["core"] <= 1e-14 and report["rule"] > 1e-9
    assert report["core"] == max(core for core, _ in report["entries"].values())


def test_transform_accuracy_sweeps_the_orders_on_the_core(capsys):
    # --orders: every (mu, nu) up to (2, 2) on degree-0 and degree-4 fields
    TRANSFORM_ACCURACY.main(["--seeds", "1", "--orders", "2"])
    report = json.loads(capsys.readouterr().out)
    assert len(report["entries"]) == 8 and "rule" not in report
    assert report["core"] == max(max(e) for e in report["entries"].values()) <= 1e-14


@settings(max_examples=30)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 4), st.integers(0, 1 << 16),
       st.sampled_from([1.0, 2.5]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=3))
def test_core_matches_the_exact_composition(mu, nu, degree, seed, R, drawn):
    # T^mu Tbar^nu of a seeded field against the monomial rule composed in
    # fractions, at |z|/R in the script's RATIOS and at the drawn points.  The
    # core's error is round-off of the entry's scale, not of each value: against
    # the largest of three drawn values alone, all in a tail, it read up to 3e-10
    assume(mu + nu >= 1)
    module = TRANSFORM_ACCURACY
    coefficients = module.seeded_field(np.random.default_rng(seed), degree)
    field = PolynomialField.from_dict(coefficients).to_field(DiskDomain(R))
    ratios, angles = np.array([(q, 0.3) for q in module.RATIOS] + drawn).T
    z = R * ratios * np.exp(1j * angles)
    parts = module.compose(module.exact_parts(coefficients), Fraction(R), True, nu)
    want = module.exact_values(module.compose(parts, Fraction(R), False, mu), z)
    assert np.max(np.abs(transform(field, z, mu, nu) - want)) <= 1e-12 * np.max(np.abs(want))


def test_biharmonic_demo_writes_its_grid(tmp_path, capsys):
    # the script's grid is the solution evaluator called on the grid's points
    module = load(SCRIPTS[0].parent / "biharmonic_demo.py")
    out = tmp_path / "u.csv"
    argv = ["--rhs", "16", "--h2", "z^2", "--grid", "3", "--nr", "16", "--ntheta", "32"]
    module.main(argv + ["--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and printed[-1] == f"wrote 3x3 grid to {out}"
    assert all(line.endswith("(target 16.000000)") for line in printed[:3])
    rows = [[float(part) for part in line.split(",")] for line in out.read_text().splitlines()[1:]]
    domain = DiskDomain(1.0)
    u = solve_biharmonic(field_from_expression("16", domain), constant_field(0, domain),
                         field_from_expression("z^2", domain), (16, 32))
    assert len(rows) == 9
    for x, y, re, im in rows:
        assert im == 0.0 and re == pytest.approx(u(complex(x, y)), rel=1e-14, abs=1e-15)


#: |z|/R at each edge of the per-distance table of counts that DEFAULT_COUNTS
#: replaced (1 - 1e-6 for the last) -> the worst absolute error over five
#: angles of T, 2T, (1,1), (2,2) and (3,1) at DEFAULT_COUNTS, as
#: scripts/rule_table.py measured them; round-off cells (all below 1e-15) read 1e-14
TABLE_EDGE_ERRORS = {
    0.5: (1e-14, 1e-14, 1e-14, 1e-14, 1e-14),
    0.8: (1e-14, 1e-14, 1e-14, 1e-14, 1e-14),
    0.9: (1e-14, 1e-14, 1e-14, 1e-14, 1e-14),
    0.95: (1e-14, 1e-14, 1e-14, 1e-14, 1e-14),
    0.98: (1e-14, 1e-14, 1e-14, 1e-14, 1e-14),
    1 - 1e-6: (1e-14, 1e-14, 7.4e-6, 7.4e-9, 3.5e-9),
}


@pytest.mark.parametrize("ratio", TABLE_EDGE_ERRORS)
def test_default_resolution_at_each_table_edge(ratio):
    # the script's degree-(2,2) field (seed 0) against exact polynomial
    # calculus; each pinned error holds with a margin of 2
    module = load(SCRIPTS[0].parent / "rule_table.py")
    poly = module.seeded_field(2, 0)
    for op, pinned in zip(("T", "2T", "1x1", "2x2", "3x1"), TABLE_EDGE_ERRORS[ratio]):
        worst = module.worst_error(poly, op, ratio, module.DEFAULT_COUNTS, 5)
        assert worst <= 2 * pinned, (op, worst)
