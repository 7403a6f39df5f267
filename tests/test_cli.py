import argparse
import cmath
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pompeiu
from pompeiu.cli import build_parser, format_complex, run_command
from pompeiu.errors import DomainError
from pompeiu.expressions import parse_complex
from pompeiu.geometry import DiskDomain


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_format_complex():
    assert format_complex(1.0) == "1+0i"
    assert format_complex(-2.5 - 0.125j) == "-2.5-0.125i"
    assert format_complex(np.log(4) + 0j).startswith("1.38629436111989")


def test_kernel_eval_log_case(capsys):
    code, out = run(capsys, "kernel", "eval", "--mu", "1", "--nu", "1",
                    "--a", "0", "--b", "0.5", "--R", "1")
    assert code == 0
    assert out.startswith("1.38629436111989")
    assert out.strip().endswith("+0i")


def test_kernel_eval_other_kinds(capsys):
    code, out = run(capsys, "kernel", "eval", "--kind", "c1", "--a", "0.3",
                    "--b", "0.2i", "--k", "3")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(-0.06 - 0.06j, abs=1e-12)
    code, out = run(capsys, "kernel", "eval", "--kind", "c2", "--a", "0.37-0.11i",
                    "--b=-0.29+0.23i", "--l", "1", "--nu", "2")
    assert code == 0
    b = -0.29 + 0.23j
    assert parse_complex(out.strip()) == pytest.approx(abs(b) ** 2 - (0.37 - 0.11j) * np.conj(b) + 1)
    code, out = run(capsys, "kernel", "eval", "--kind", "gdiag", "--a", "0.1",
                    "--b", "0.5", "--k", "1")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(-1 / (2j * np.pi * 0.4))
    code, out = run(capsys, "kernel", "eval", "--kind", "gmixed", "--a", "0.1",
                    "--b", "0.5", "--mu", "1", "--nu", "1")
    assert code == 0


def test_kernel_eval_c8(capsys):
    code, out = run(capsys, "kernel", "eval", "--kind", "c8", "--mu", "2,1", "--nu", "1,1")
    assert code == 0
    # -1/(2 pi i)^2 = 1/(4 pi^2)
    assert out.strip() == format_complex(1 / (4 * np.pi**2))


def test_op_apply_T(capsys):
    code, out = run(capsys, "op", "apply", "--op", "T", "--f", "zbar",
                    "--z", "0.5", "--R", "1")
    assert code == 0
    # printed form re-parses through the expression grammar (round trip)
    assert parse_complex(out.strip()) == pytest.approx(0.125, abs=1e-9)


def test_op_apply_boundary_and_regularized(capsys):
    # S(1) = 1 inside; the regularized square kernel of zbar vanishes
    code, out = run(capsys, "op", "apply", "--op", "S", "--f", "1", "--z", "0.3")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(1.0, abs=1e-10)
    code, out = run(capsys, "op", "apply", "--op", "Sbar", "--f", "1", "--z", "0.3")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(1.0, abs=1e-10)
    code, out = run(capsys, "op", "apply", "--op", "2T", "--f", "zbar", "--z", "0.2+0.1i")
    assert code == 0
    assert abs(parse_complex(out.strip())) < 1e-8
    code, out = run(capsys, "op", "apply", "--op", "2Tbar", "--f", "z", "--z", "0.2+0.1i")
    assert code == 0
    assert abs(parse_complex(out.strip())) < 1e-8


def test_op_apply_power(capsys):
    # T^2(1)(0.5) = zbar^2/2 at 0.5
    code, out = run(capsys, "op", "apply", "--op", "T", "--power", "2",
                    "--f", "1", "--z", "0.5")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(0.125, abs=1e-8)


@pytest.mark.parametrize("op", ["T", "Tbar"])
@pytest.mark.parametrize("power", ["0", "-2"])
def test_op_apply_nonpositive_power_is_a_numeric_failure(capsys, op, power):
    # T^0 / Tbar^0 is the (0, 0) entry of the kernel table, not T itself
    code = run_command(["op", "apply", "--op", op, f"--power={power}", "--f", "1", "--z", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_op_apply_mixed_and_dual(capsys):
    code, out = run(capsys, "op", "apply", "--op", "mixed", "--f", "1",
                    "--z", "0", "--mu", "1", "--nu", "1")
    assert code == 0
    assert out.startswith("-0.99999") or out.startswith("-1")
    code, _ = run(capsys, "op", "apply", "--op", "dual", "--f", "z+zbar",
                  "--z", "0.1", "--mu", "1", "--nu", "1")
    assert code == 0


def test_op_apply_polydisc(capsys):
    code, out = run(capsys, "op", "apply", "--op", "polydisc", "--n", "2",
                    "--f", "1", "--z", "0,0", "--mu", "1,1", "--nu", "1,1")
    assert code == 0
    assert out.startswith("0.9999") or out.startswith("1")
    # explicit per-factor resolution flags are honored
    code, out2 = run(capsys, "op", "apply", "--op", "polydisc", "--n", "2",
                     "--f", "1", "--z", "0,0", "--mu", "1,1", "--nu", "1,1",
                     "--nr", "16", "--ntheta", "32")
    assert code == 0
    assert parse_complex(out2.strip()) == pytest.approx(1.0, rel=1e-4)


def test_polydisc_single_resolution_flag_is_honoured(capsys):
    # each of --nr / --ntheta replaces its own entry of the (24, 48) default
    base = ["op", "apply", "--op", "polydisc", "--n", "2", "--f", "z1*z1bar*z2",
            "--z", "0.3,0.1i", "--mu", "1,1", "--nu", "1,1"]
    outs = {}
    for extra in ((), ("--nr", "8"), ("--nr", "8", "--ntheta", "48"),
                  ("--ntheta", "16"), ("--nr", "24", "--ntheta", "16")):
        code, outs[extra] = run(capsys, *base, *extra)
        assert code == 0
    assert outs[("--nr", "8")] != outs[()]
    assert outs[("--nr", "8")] == outs[("--nr", "8", "--ntheta", "48")]
    assert outs[("--ntheta", "16")] != outs[()]
    assert outs[("--ntheta", "16")] == outs[("--nr", "24", "--ntheta", "16")]


def test_solve_point_value(capsys):
    code, out = run(capsys, "solve", "--mu", "1", "--nu", "1", "--g", "z", "--z", "0.3+0.1i")
    assert code == 0
    assert out.strip() == format_complex(0.3 + 0.1j)


def test_solve_with_free_functions(capsys):
    # mu=nu=1, g0=0, f0=1: u = T(conj(1)) = zbar
    code, out = run(capsys, "solve", "--mu", "1", "--nu", "1",
                    "--g", "0", "--f", "1", "--z", "0.2+0.3i")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(0.2 - 0.3j, abs=1e-8)


def test_solve_wrong_free_function_count(capsys):
    code = run_command(["solve", "--mu", "2", "--nu", "1", "--g", "0",
                        "--f", "1", "--z", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_rejects_antiholomorphic_free_function(capsys):
    code = run_command(["solve", "--mu", "1", "--nu", "1", "--g", "zbar", "--z", "0"])
    assert code == 1


def test_solve_biharmonic_harmonic_part(capsys):
    code, out = run(capsys, "solve", "--biharmonic", "--rhs", "0",
                    "--h2", "z^2", "--z", "0.3+0.2i")
    assert code == 0
    assert float(out.strip()[:-3].split("+")[0]) == pytest.approx(0.3**2 - 0.2**2)


def test_solve_grid_csv_deterministic(tmp_path, capsys):
    args = ["solve", "--mu", "1", "--nu", "1", "--rhs", "1", "--grid", "5",
            "--nr", "16", "--ntheta", "32", "--seed", "3"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(args + ["--out", str(p1)]) == 0
    assert run_command(args + ["--out", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("x,y,re,im\n")
    assert len(text.strip().split("\n")) == 1 + 25


def test_solve_grid_json_config_echo(tmp_path):
    out = tmp_path / "u.json"
    assert run_command(["solve", "--mu", "1", "--nu", "1", "--rhs", "1", "--grid", "3",
                        "--format", "json", "--nr", "16", "--ntheta", "32",
                        "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["resolution"] == [16, 32]
    assert len(data["values"]) == 3 and len(data["values"][0]) == 3


def test_export_field_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert run_command(["export", "--f", "z*zbar", "--grid", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 16
    x, y, re, im = (float(part) for part in lines[1].split(","))
    assert re == pytest.approx(x * x + y * y)
    assert abs(im) < 1e-15


def test_export_with_operator(tmp_path):
    out = tmp_path / "tf.json"
    assert run_command(["export", "--f", "zbar", "--op", "T", "--grid", "3",
                        "--nr", "16", "--ntheta", "32", "--format", "json",
                        "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    # T(zbar) = zbar^2/2: check the grid corner
    z = complex(data["xs"][0], data["ys"][0])
    re, im = data["values"][0][0]
    assert complex(re, im) == pytest.approx(np.conj(z) ** 2 / 2, abs=1e-8)


@pytest.mark.parametrize("suite", ["kernels", "operators", "pde", "norms"])
def test_verify_suites_pass(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--seed", "7",
                    "--nr", "32", "--ntheta", "64")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_command(["op", "apply", "--op", "bogus", "--f", "1", "--z", "0"])
    assert exc.value.code == 2


def test_op_apply_has_no_alpha_flag():
    # the Hoelder exponent is an argument of the norm checks, not of a field
    with pytest.raises(SystemExit) as exc:
        run_command(["op", "apply", "--op", "T", "--f", "1", "--z", "0", "--alpha", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.0"])
def test_malformed_thread_count_exits_1(monkeypatch, capsys, value):
    monkeypatch.setenv("PMP_THREADS", value)
    code = run_command(["export", "--f", "z", "--grid", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: PMP_THREADS")


def test_polydisc_non_finite_value_exits_1(capsys):
    # z^3 overflows to inf at |z| ~ 1e150, so the tensor sum is NaN
    code = run_command(["op", "apply", "--op", "polydisc", "--n", "2", "--R", "1e150",
                        "--f", "z1^3*z2^3", "--z", "0,0", "--mu", "1,1", "--nu", "1,1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: integrand produced NaN/Inf")


def test_numeric_failure_exits_1(capsys):
    code = run_command(["kernel", "eval", "--a", "0.2", "--b", "0.2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_radius_flag_sets_the_disk(capsys):
    # a target outside the 0.5-disk is a numeric failure; T(zbar) = zbar^2/2 on any disk
    code = run_command(["op", "apply", "--op", "T", "--f", "zbar", "--z", "0.9", "--R", "0.5"])
    assert code == 1
    code, out = run(capsys, "op", "apply", "--op", "T", "--f", "zbar", "--z", "0.9", "--R", "2.0")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(0.9**2 / 2, abs=1e-8)


def test_solve_within_the_exclusion_radius_of_the_boundary(capsys):
    # 1e-11 R from the boundary, the rule's first radial nodes lie inside
    # the kernels' exclusion radius; the rule drops them
    code, out = run(capsys, "solve", "--mu", "2", "--nu", "2", "--rhs", "1",
                    "--z", "0.99999999999")
    assert code == 0
    assert cmath.isfinite(parse_complex(out.strip()))


def test_verify_operators_draws_S_targets_inside_its_envelope(capsys):
    # at 8 contour nodes S accepts |z| <= 0.056 R, below the usual 0.6 R draws
    code, out = run(capsys, "verify", "--suite", "operators", "--contour-n", "8")
    assert code == 0
    assert len(out.splitlines()) == 7
    assert out.count("PASS T dbar f + S f = f") == 3


def test_verify_exits_nonzero_on_failure(capsys):
    # the minimum resolution is far too coarse for the golden tolerance
    code = run_command(["verify", "--suite", "operators", "--nr", "4", "--ntheta", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL T(zbar^3) golden" in out


def _subparser(*names) -> argparse.ArgumentParser:
    parser = build_parser()
    for name in names:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return parser


COMMON = {"--R", "--out"}
RESOLUTION = {"--nr", "--ntheta"}

#: each subcommand's flags: exactly the ones its body reads
SUBCOMMAND_FLAGS = {
    ("kernel", "eval"): {"--kind", "--a", "--b", "--mu", "--nu", "--k", "--l"} | COMMON,
    ("op", "apply"): ({"--op", "--f", "--z", "--power", "--mu", "--nu", "--n", "--contour-n"}
                      | COMMON | RESOLUTION),
    ("solve",): ({"--mu", "--nu", "--rhs", "--g", "--f", "--biharmonic", "--h1", "--h2", "--z",
                  "--grid", "--format", "--seed"} | COMMON | RESOLUTION),
    ("verify",): {"--suite", "--seed", "--contour-n"} | COMMON | RESOLUTION,
    ("export",): ({"--f", "--op", "--mu", "--nu", "--grid", "--extent", "--format", "--seed"}
                  | COMMON | RESOLUTION),
}


@pytest.mark.parametrize("names", SUBCOMMAND_FLAGS, ids=" ".join)
def test_subcommand_flag_set(names):
    parser = _subparser(*names)
    flags = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
    assert flags == SUBCOMMAND_FLAGS[names]


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "--a", "0", "--b", "0.5", "--nr", "5"],
    ["kernel", "eval", "--a", "0", "--b", "0.5", "--ntheta", "8"],
    ["kernel", "eval", "--a", "0", "--b", "0.5", "--contour-n", "64"],
    ["kernel", "eval", "--a", "0", "--b", "0.5", "--seed", "9"],
    ["op", "apply", "--op", "T", "--f", "1", "--z", "0", "--seed", "1"],
    ["solve", "--g", "z", "--z", "0", "--contour-n", "64"],
    ["export", "--f", "z", "--grid", "3", "--contour-n", "64"],
    ["verify", "--suite", "kernels", "--config", "run.json"],
    ["op", "apply", "--op", "T", "--f", "1", "--z", "0", "--config", "run.json"],
])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "--kind", "c3", "--mu", "x", "--a", "0", "--b", "0.5"],
    ["kernel", "eval", "--kind", "c8", "--mu", "1,x", "--nu", "1,1"],
    ["kernel", "eval", "--kind", "c3", "--nu", "", "--a", "0", "--b", "0.5"],
    ["op", "apply", "--op", "mixed", "--f", "z", "--z", "0.1", "--mu", "1.5"],
    ["export", "--f", "z", "--op", "mixed", "--grid", "2", "--mu", "one"],
    ["op", "apply", "--op", "polydisc", "--n", "2", "--f", "z1", "--z", "0,0",
     "--mu", "1,1", "--nu", "1,"],
], ids=["c3-mu-x", "c8-mu-1,x", "c3-nu-empty", "mixed-mu-1.5", "export-mu-one",
     "polydisc-nu-1,"])
def test_non_integer_orders_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    assert "expected integers separated by commas" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["c1", "c2", "c3", "gdiag", "gmixed"])
@pytest.mark.parametrize("a, b", [("1.5", "0.2"), ("0.2", "2"), ("0.2", "nan")])
def test_kernel_eval_rejects_points_outside_the_disk(capsys, kind, a, b):
    # one point check for every kind, before dispatch
    code = run_command(["kernel", "eval", "--kind", kind, "--a", a, "--b", b])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


SAMPLE = "integrand produced NaN/Inf at a quadrature node"
RADIUS_ERROR = "disk radius needs R > 0 and R*R a normal float, got {}"
GRID_ERROR = "grid needs n >= 1 and 0 < extent <= 1, got n={}, extent={}"


@pytest.mark.parametrize("argv, threads, message", [
    (["op", "apply", "--op", "polydisc", "--n", "2", "--R", "1e150", "--f", "z1^3*z2^3",
      "--z", "0,0", "--mu", "1,1", "--nu", "1,1"], "1", SAMPLE),
    (["op", "apply", "--op", "T", "--R", "1e150", "--f", "z^3", "--z", "0"], "1", SAMPLE),
    (["export", "--op", "mixed", "--R", "1e150", "--f", "z^3", "--grid", "3"], "2", SAMPLE),
    (["solve", "--biharmonic", "--rhs", "1", "--h2", "z^3", "--z", "1e120", "--R", "1e150"],
     "1", "weighted sum of the integrand samples is NaN/Inf"),
    (["solve", "--g", "z^3", "--z", "1e120", "--R", "1e150"], "1", "solution value is NaN/Inf"),
    (["op", "apply", "--op", "2T", "--R", "1e150", "--f", "z^3", "--z", "1e120"], "1",
     "field value at the target is NaN/Inf"),
    # radii whose square leaves the normal float range, and an R^(2p) that overflows
    (["kernel", "eval", "--kind", "c3", "--a", "0", "--b", "1e-171", "--R", "1e-170",
      "--mu", "2", "--nu", "2"], "1", RADIUS_ERROR.format("1e-170")),
    (["kernel", "eval", "--kind", "c3", "--a", "0", "--b", "1e154", "--R", "1e155",
      "--mu", "2", "--nu", "2"], "1", RADIUS_ERROR.format("1e+155")),
    (["op", "apply", "--op", "mixed", "--f", "1", "--z", "0", "--R", "1e155",
      "--mu", "2", "--nu", "2"], "1", RADIUS_ERROR.format("1e+155")),
    (["kernel", "eval", "--kind", "c3", "--a", "0", "--b", "1e9", "--R", "1e10",
      "--mu", "20", "--nu", "20"], "1", "R^(2p) in c2 overflows a float at R = 1e+10"),
    (["kernel", "eval", "--kind", "c2", "--a", "0", "--b", "1e9", "--R", "1e10",
      "--l", "19", "--nu", "20"], "1", "R^(2p) in c2 overflows a float at R = 1e+10"),
    # S targets outside the trapezoid aliasing envelope (q^n > 1e-10)
    (["op", "apply", "--op", "S", "--f", "1+z*zbar", "--z", "0.999"], "1",
     "S target |z| = 0.999 is outside |z| <= 0.913982 (aliasing (|z|/R)^256 above 1e-10)"),
    (["op", "apply", "--op", "Sbar", "--f", "1+z*zbar", "--z", "0.5", "--contour-n", "8"],
     "1", "S target |z| = 0.5 is outside |z| <= 0.0562341 (aliasing (|z|/R)^8 above 1e-10)"),
    # a partial radial panel is refused, not rounded down to 16 nodes
    (["op", "apply", "--op", "T", "--f", "1+z*zbar", "--z", "0.3", "--nr", "20"], "1",
     "n_radial must be a multiple of 4 below 16 and of 8 from 16 up, got 20"),
    # grids need a point on each axis and corners inside the closed disk
    (["export", "--f", "z", "--grid", "-3"], "1", GRID_ERROR.format(-3, 0.95)),
    (["solve", "--rhs", "1", "--grid", "-2"], "1", GRID_ERROR.format(-2, 0.95)),
    (["export", "--f", "z", "--grid", "0"], "1", GRID_ERROR.format(0, 0.95)),
    (["export", "--f", "z", "--grid", "2", "--extent", "2"], "1", GRID_ERROR.format(2, 2.0)),
    (["export", "--f", "z", "--op", "T", "--grid", "2", "--extent", "2"], "1",
     GRID_ERROR.format(2, 2.0)),
    (["export", "--f", "z", "--grid", "2", "--extent", "nan"], "1",
     GRID_ERROR.format(2, "nan")),
    # disk kernels and operators take one order per flag
    (["op", "apply", "--op", "mixed", "--f", "z", "--z", "0.1", "--mu", "1,2"], "1",
     "--mu takes one order here, got 1,2"),
    (["op", "apply", "--op", "dual", "--f", "z", "--z", "0.1", "--nu", "1,3"], "1",
     "--nu takes one order here, got 1,3"),
    (["kernel", "eval", "--kind", "c3", "--a", "0", "--b", "0.5", "--nu", "2,2"], "1",
     "--nu takes one order here, got 2,2"),
    (["kernel", "eval", "--kind", "c2", "--a", "0", "--b", "0.5", "--nu", "1,3"], "1",
     "--nu takes one order here, got 1,3"),
    (["kernel", "eval", "--kind", "gmixed", "--a", "0", "--b", "0.5", "--mu", "2,2"], "1",
     "--mu takes one order here, got 2,2"),
    (["export", "--f", "z", "--op", "mixed", "--grid", "2", "--nu", "1,1"], "1",
     "--nu takes one order here, got 1,1"),
], ids=["polydisc", "T", "export-2-threads", "solve-biharmonic", "solve-g", "2T",
        "kernel-tiny-R", "kernel-huge-R", "mixed-huge-R", "c3-R^38", "c2-R^38",
        "S-0.999R", "Sbar-8-nodes", "nr-20", "export-grid-3", "solve-grid-2", "grid-0",
        "extent-2", "T-extent-2", "extent-nan", "mixed-mu-list", "dual-nu-list",
        "c3-nu-list", "c2-nu-list", "gmixed-mu-list", "export-nu-list"])
def test_numeric_failure_prints_only_the_error_line(argv, threads, message):
    # a fresh interpreter, so numpy's floating-point warnings would reach stderr
    env = dict(os.environ, PMP_THREADS=threads, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(pompeiu.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pompeiu.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@given(st.floats(-200.0, 200.0))
@example(154.1)  # (2,2)'s c2 sum 1.25 R^2 overflows there, though c3 ~ 0.4 R^2 does not
def test_kernel_eval_across_radii_prints_a_finite_value_or_one_error_line(exponent):
    # R log-uniform from 1e-200 to 1e200, with b halfway to the boundary
    radius = 10.0 ** exponent
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["kernel", "eval", "--kind", "c3", "--a", "0",
                            "--b", repr(0.5 * radius), "--R", repr(radius),
                            "--mu", "2", "--nu", "2"])
    try:
        DiskDomain(radius)
    except DomainError:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == f"error: {RADIUS_ERROR.format(radius)}\n"
        return
    if code == 0:
        assert err.getvalue() == ""
        assert cmath.isfinite(parse_complex(out.getvalue().strip()))
    else:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == "error: kernel value is NaN/Inf\n"
