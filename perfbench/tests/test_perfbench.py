"""Tests of the benchmark itself (not of pompeiu).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pompeiu import kernels, operators, solver  # noqa: E402
from pompeiu.errors import DepthCap  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL_RES = ("--nr", "32", "--ntheta", "64")


def small_export(seed: int = 5) -> workloads.ExportMixed:
    """export_mixed on a 3x3 grid at (32,64): the same checks, a fraction of the cost."""
    w = workloads.ExportMixed(seed)
    w.grid = 3
    w.argv = w.argv[:-1] + ("3",) + SMALL_RES
    return w


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
    assert [e["name"] for e in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        assert len(cls.why) <= 200 and "\n" not in cls.why


def test_exact_reference_accepts_program_output():
    w = small_export()
    score = w.check(w.run_pass())
    assert (score.attempted, score.failed) == (9, 0)
    assert 5.0 < score.digits <= workloads.FLOOR_DIGITS


def test_perturbed_reference_counts_as_failures_not_a_crash():
    w = small_export()
    outputs = w.run_pass()
    exact = w.reference
    w.reference = lambda points: exact(points) * (1 + 1e-3)
    ledger = run.Ledger(w, workloads.Score())
    ledger.record(outputs)
    assert (ledger.score.attempted, ledger.score.failed) == (9, 9)
    assert ledger.mismatches == 0


def test_pompeiu_error_in_a_pass_counts_as_failed_operations():
    w = small_export()
    w.argv = tuple(a.replace("--f=", "--f=z2*") for a in w.argv)   # UnknownVariable
    outputs = w.run_pass()
    assert outputs[0].code == 1 and outputs[0].stderr.startswith("error:")
    score = w.check(outputs)
    assert (score.attempted, score.failed) == (9, 9)


def test_pompeiu_error_in_the_nested_oracle_counts_as_failed(monkeypatch):
    w = workloads.Crosscheck(3)
    w.verify_argv = []
    w.cases = w.cases[:1]
    w.apply_argv = [w.apply_argv[0] + SMALL_RES]
    w.references = w.references[:1]

    def broken(self, z, program):
        raise DepthCap("program too long")
    monkeypatch.setattr(workloads.NestedOracle, "evaluate", broken)
    score = w.check(w.run_pass())
    assert (score.attempted, score.failed) == (1, 1)


def test_score_digits_cap_and_non_finite():
    score = workloads.Score()
    score.value(1.0 + 1e-16, 1.0, 1e-5)
    assert score.digits == workloads.FLOOR_DIGITS
    score.value(complex(float("nan"), 0.0), 1.0, 1e-5)
    score.value(2.0, 1.0, 1e-5)
    assert (score.attempted, score.failed) == (3, 2)
    assert score.digits == pytest.approx(0.0)


def test_cli_text_round_trips():
    assert workloads.parse_complex_text("1.5e-05-2.5i\n") == complex(1.5e-5, -2.5)
    assert workloads.parse_complex_text("") is None
    assert workloads.parse_complex_text("0.5+x") is None
    assert workloads.parse_grid_csv("x,y,re,im\n0,0,1,oops\n") == []
    terms = {(0, 0): 0.5 - 0.25j, (1, 2): -1j}
    text = workloads.polynomial_text(terms)
    field = operators.field_from_expression(text, workloads.DISK)
    z = np.array([0.3 - 0.2j])
    want = workloads.PolynomialField.from_dict(terms)(z)
    assert np.allclose(field(z), want, rtol=0, atol=1e-15)


def test_inputs_depend_only_on_the_seed():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(11), cls(11), cls(12)
        text = lambda w: repr(getattr(w, "argv", None) or w.apply_argv)
        assert text(a) == text(b) != text(c)


def test_tracing_restores_originals_and_keeps_outputs_identical():
    originals = (kernels.c3, operators.c3, solver.c3, operators.evaluate_on_grid,
                 solver.solve_pde, workloads.NestedOracle.evaluate)
    w = small_export()
    plain = w.fingerprint(w.run_pass())
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert operators.c3 is not originals[1]
        traced = w.fingerprint(w.run_pass())
    finally:
        inst.restore()
    assert traced == plain
    assert (kernels.c3, operators.c3, solver.c3, operators.evaluate_on_grid,
            solver.solve_pde, workloads.NestedOracle.evaluate) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.run_command", "operators.grid", "operators.target", "kernels.c3",
            "kernels.log_term", "quadrature.integrate", "expressions.eval"} <= names
    metrics = tracing.layer_metrics(tracer.spans, 1, 0, 9, 1.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["kernels.node_evals"] == metrics["quadrature.nodes_integrated"] > 0


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(0, "a", 0.0, 10.0, None, 1, 1),
             S(1, "b", 1.0, 4.0, 0, 2, 1),      # two overlapping children on
             S(2, "b", 2.0, 5.0, 0, 3, 1),      # different threads cover 1..5
             S(3, "c", 2.5, 3.0, 2, 3, 1)]
    own = tracing.self_times(spans)
    assert own == {0: 6.0, 1: 3.0, 2: 2.5, 3: 0.5}


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "solve_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
