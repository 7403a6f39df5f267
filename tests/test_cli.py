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
from pompeiu import cli
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
    # each of --nr / --ntheta replaces its own entry of DEFAULT_COUNTS, (64, 160)
    base = ["op", "apply", "--op", "polydisc", "--n", "2", "--f", "z1*z1bar*z2",
            "--z", "0.3,0.1i", "--mu", "1,1", "--nu", "1,1"]
    outs = {}
    for extra in ((), ("--nr", "8"), ("--nr", "8", "--ntheta", "160"),
                  ("--ntheta", "16"), ("--nr", "64", "--ntheta", "16")):
        code, outs[extra] = run(capsys, *base, *extra)
        assert code == 0
    assert outs[("--nr", "8")] != outs[()]
    assert outs[("--nr", "8")] == outs[("--nr", "8", "--ntheta", "160")]
    assert outs[("--ntheta", "16")] != outs[()]
    assert outs[("--ntheta", "16")] == outs[("--nr", "64", "--ntheta", "16")]


def test_polydisc_nine_factors(capsys):
    # T Tbar of prod_j z_j is prod_j T Tbar(z)(z_j) = prod_j (z_j^2 zbar_j - z_j)/2
    z = [0.1 * k - 0.3j for k in range(1, 10)]
    code, out = run(capsys, "op", "apply", "--op", "polydisc", "--n", "9",
                    "--f", "*".join(f"z{k}" for k in range(1, 10)),
                    "--z", ",".join(f"{w.real:g}{w.imag:+g}i" for w in z),
                    "--mu", ",".join("1" * 9), "--nu", ",".join("1" * 9))
    assert code == 0
    want = np.prod([(w * w * np.conj(w) - w) / 2 for w in z])
    assert parse_complex(out.strip()) == pytest.approx(want, rel=1e-6)


def test_polydisc_above_the_core_band_cap_exits_1(capsys):
    # factor 1's band is 60 + 10 + 10 = 80: its pass tensor exceeds CORE_TARGET_CAP
    code = run_command(["op", "apply", "--op", "polydisc", "--n", "2", "--f", "z1^60*z2",
                        "--z", "0.5,0.3i", "--mu", "10,1", "--nu", "10,1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: field degree 60 plus orders (10, 10) need a pass tensor of "
                            "1082564 elements, above CORE_TARGET_CAP = 1048576; explicit counts "
                            "take the target-centred rule\n")


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
    code = run_command(["solve", "--g", "z^2 + 0.5i*zbar", "--z", "0"])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: free functions must be holomorphic; 'z^2+0.5i*zbar' uses zbar"


def test_solve_free_function_of_any_degree(capsys):
    # free data are expressions, with no degree cap of their own
    code, out = run(capsys, "solve", "--g", "z^21", "--z", "0.1")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(0.1 ** 21, rel=1e-14)


def test_solve_biharmonic_harmonic_part(capsys):
    code, out = run(capsys, "solve", "--biharmonic", "--rhs", "0",
                    "--h2", "z^2", "--z", "0.3+0.2i")
    assert code == 0
    assert float(out.strip()[:-3].split("+")[0]) == pytest.approx(0.3**2 - 0.2**2)


def test_solve_grid_csv_deterministic(tmp_path, capsys):
    args = ["solve", "--mu", "1", "--nu", "1", "--rhs", "1", "--grid", "5",
            "--nr", "16", "--ntheta", "32"]
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


def test_export_constant_field_csv_bytes(capsys):
    # a constant field's grid is one value broadcast with zero strides
    assert run(capsys, "export", "--f", "1", "--grid", "2") == (0, (
        "x,y,re,im\n"
        "-0.67175144212722,-0.67175144212722,1,0\n"
        "0.67175144212722,-0.67175144212722,1,0\n"
        "-0.67175144212722,0.67175144212722,1,0\n"
        "0.67175144212722,0.67175144212722,1,0\n"))


def test_export_field_json_echoes_no_resolution(tmp_path):
    # a field sample reads no --nr/--ntheta, so its config names none
    out = tmp_path / "f.json"
    assert run_command(["export", "--f", "z", "--grid", "2", "--format", "json",
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {
        "radius": 1.0, "seed": 0, "field": "z", "op": "none", "command": "export"}


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


#: verify suite -> the area-rule flags it reads, at coarser settings than their defaults
VERIFY_FLAGS = {"kernels": ("--nr", "32", "--ntheta", "64"),
                "operators": ("--nr", "32", "--ntheta", "64"),
                "pde": ("--nr", "32", "--ntheta", "64"), "norms": ()}


@pytest.mark.parametrize("suite", VERIFY_FLAGS)
def test_verify_suites_pass(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--seed", "7", *VERIFY_FLAGS[suite])
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


@pytest.mark.parametrize("seed, text", [
    (0, "PASS norm bound alpha=0.25 (2.31e-05)\nPASS norm bound alpha=0.5 (4.44e-05)\n"
        "PASS norm bound alpha=0.75 (2.25e-05)\n"),
    (1, "PASS norm bound alpha=0.25 (2.08e-05)\nPASS norm bound alpha=0.5 (5.47e-05)\n"
        "PASS norm bound alpha=0.75 (2.86e-05)\n"),
    (2, "PASS norm bound alpha=0.25 (1.76e-05)\nPASS norm bound alpha=0.5 (4.89e-05)\n"
        "PASS norm bound alpha=0.75 (2.81e-05)\n")])
def test_verify_norms_prints_its_pinned_measures(capsys, seed, text):
    # the text the suite printed when its stencil values came from (24, 48) rules
    assert run(capsys, "verify", "--suite", "norms", "--seed", str(seed)) == (0, text)


def test_verify_kernels_builds_one_pair_of_half_rules_per_point_pair(capsys, monkeypatch):
    # four point pairs, each with the four lemma-6 orders on one pair of rules
    built = []
    real = pompeiu.oracle.build_half_rule
    monkeypatch.setattr(pompeiu.oracle, "build_half_rule",
                        lambda *args: built.append(args[1:3]) or real(*args))
    code, out = run(capsys, "verify", "--suite", "kernels", "--seed", "3")
    assert code == 0 and out.count("vs quadrature") == 16
    assert len(built) == 8 and len(set(built)) == 8


def test_verify_kernels_fails_a_c3_off_by_1e_5(capsys, monkeypatch):
    # at the default counts the quadrature reads at most 2.58e-8, so a c3 off
    # by 1e-5 relative fails every one of the 16 quadrature checks
    real = pompeiu.kernels.c3
    monkeypatch.setattr(pompeiu.kernels, "c3", lambda *args: real(*args) * (1 + 1e-5))
    for seed in (1, 7):
        code, out = run(capsys, "verify", "--suite", "kernels", "--seed", str(seed))
        lines = [line for line in out.splitlines() if "vs quadrature" in line]
        assert code == 1 and len(lines) == 16
        assert all(line.startswith("FAIL") for line in lines), out


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


@pytest.mark.parametrize("argv", [["solve", "--g", "z", "--z", "0"],
                                  *([*names, "--help"] for names in SUBCOMMAND_FLAGS)],
                         ids=" ".join)
def test_a_command_builds_only_its_own_subcommands_flags(argv, capsys, monkeypatch):
    # `run_command` builds the subparser argv[0] names and no other one's flags
    added, real = [], argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *flags, **kw: added.extend(flags) or real(self, *flags, **kw))
    (names,) = [names for names in SUBCOMMAND_FLAGS if names[0] == argv[0]]
    assert _outcome(capsys, argv)[0] == 0
    assert set(added) - {"-h", "--help"} == SUBCOMMAND_FLAGS[names]


#: help, usage errors (the top-level parser's among them) and a refusal of a flag
#: the op never reads
SURFACE = [["--help"], *([*names[:1], "--help"] for names in SUBCOMMAND_FLAGS),
           ["kernel", "eval", "--help"], ["op", "apply", "--help"],
           [], ["bogus"], ["sol"], ["--", "solve"], ["solve", "--bogus"], ["op"], ["op", "apply"],
           ["op", "apply", "--op", "bogus", "--f", "1", "--z", "0"], ["verify", "--suite", "x"],
           ["op", "apply", "--op", "T", "--f", "zbar", "--z", "0.1", "--mu", "1,2"]]


def _outcome(capsys, argv):
    try:
        code = run_command(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "100"])
@pytest.mark.parametrize("argv", SURFACE, ids=lambda argv: " ".join(argv) or "no argv")
def test_a_command_prints_what_the_whole_parser_prints(argv, columns, capsys, monkeypatch):
    # a parser with one subcommand's flags must print the whole one's bytes; the
    # top-level usage line that reports `solve --bogus` lists all five subcommands
    monkeypatch.setenv("COLUMNS", columns)
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parser", lambda names, part=cli._parser: part(cli._COMMANDS))
    assert got == _outcome(capsys, argv)
    code, out, err = got
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def test_the_top_level_usage_errors_keep_their_text(capsys, monkeypatch):
    # the whole parser names an unknown subcommand as `argument command`; a
    # part-built one lists every subcommand in the usage of an unknown flag
    monkeypatch.setenv("COLUMNS", "100")
    assert _outcome(capsys, ["sol"]) == (2, "", (
        "usage: pmp [-h] {kernel,op,solve,verify,export} ...\n"
        "pmp: error: argument command: invalid choice: 'sol' "
        "(choose from 'kernel', 'op', 'solve', 'verify', 'export')\n"))
    assert _outcome(capsys, ["solve", "--bogus"]) == (2, "", (
        "usage: pmp [-h] {kernel,op,solve,verify,export} ...\n"
        "pmp: error: unrecognized arguments: --bogus\n"))


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


@pytest.mark.parametrize("argv, flag, op", [
    (["op", "apply", "--op", "T", "--f", "zbar", "--z", "0.1", "--mu", "1,2"], "--mu", "--op T"),
    (["op", "apply", "--op", "Tbar", "--f", "z", "--z", "0.1", "--nu", "1"], "--nu", "--op Tbar"),
    (["op", "apply", "--op", "2T", "--f", "z", "--z", "0.1", "--power", "2"], "--power",
     "--op 2T"),
    (["op", "apply", "--op", "mixed", "--f", "z", "--z", "0.1", "--n", "1"], "--n",
     "--op mixed"),
    (["op", "apply", "--op", "dual", "--f", "z", "--z", "0.1", "--contour-n", "64"],
     "--contour-n", "--op dual"),
    (["op", "apply", "--op", "S", "--f", "z", "--z", "0.1", "--nr", "16"], "--nr", "--op S"),
    (["op", "apply", "--op", "Sbar", "--f", "z", "--z", "0.1", "--ntheta", "32"], "--ntheta",
     "--op Sbar"),
    (["op", "apply", "--op", "polydisc", "--n", "2", "--f", "z1", "--z", "0,0", "--mu", "1,1",
      "--nu", "1,1", "--power", "3"], "--power", "--op polydisc"),
    (["op", "apply", "--op", "polydisc", "--f", "z1", "--z", "0", "--contour-n", "9"],
     "--contour-n", "--op polydisc"),
    (["export", "--f", "z", "--grid", "2", "--mu", "7"], "--mu", "export without --op"),
    (["export", "--f", "z", "--grid", "2", "--nr", "16"], "--nr", "export without --op"),
    (["export", "--f", "z", "--grid", "2", "--op", "T", "--nu", "2"], "--nu", "--op T"),
    (["verify", "--suite", "norms", "--nr", "8"], "--nr", "--suite norms"),
    (["verify", "--suite", "norms", "--ntheta", "8"], "--ntheta", "--suite norms"),
    (["verify", "--suite", "norms", "--contour-n", "8"], "--contour-n", "--suite norms"),
    (["verify", "--suite", "pde", "--contour-n", "8"], "--contour-n", "--suite pde"),
    (["kernel", "eval", "--kind", "c1", "--a", "0.1", "--b", "0.5", "--k", "3", "--mu", "7"],
     "--mu", "--kind c1"),
    (["kernel", "eval", "--kind", "c1", "--a", "0.1", "--b", "0.5", "--l", "5"], "--l",
     "--kind c1"),
    (["kernel", "eval", "--kind", "c2", "--a", "0.1", "--b", "0.5", "--mu", "2"], "--mu",
     "--kind c2"),
    (["kernel", "eval", "--a", "0.1", "--b", "0.5", "--k", "2"], "--k", "--kind c3"),
    (["kernel", "eval", "--kind", "c8", "--l", "2"], "--l", "--kind c8"),
    (["kernel", "eval", "--kind", "gdiag", "--a", "0.1", "--b", "0.5", "--nu", "2"], "--nu",
     "--kind gdiag"),
    (["kernel", "eval", "--kind", "gmixed", "--a", "0.1", "--b", "0.5", "--k", "2"], "--k",
     "--kind gmixed"),
], ids=["T-mu", "Tbar-nu", "2T-power", "mixed-n", "dual-contour-n", "S-nr", "Sbar-ntheta",
        "polydisc-power", "polydisc-contour-n", "export-mu", "export-nr", "export-T-nu",
        "norms-nr", "norms-ntheta", "norms-contour-n", "pde-contour-n", "c1-mu", "c1-l",
        "c2-mu", "c3-k", "c8-l", "gdiag-nu", "gmixed-k"])
def test_flags_the_op_never_reads_are_usage_errors(argv, flag, op, capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmp: error: {flag} is not read by {op}\n"


@pytest.mark.parametrize("refused, read, message", [
    (["--biharmonic", "--rhs", "1", "--z", "0.1", "--mu", "3"], ["--rhs", "1", "--z", "0.1",
     "--mu", "3"], "--mu is not read by solve --biharmonic"),
    (["--biharmonic", "--rhs", "1", "--z", "0.1", "--nu", "2"], ["--rhs", "1", "--z", "0.1",
     "--nu", "2"], "--nu is not read by solve --biharmonic"),
    (["--biharmonic", "--rhs", "1", "--z", "0.1", "--g", "z"], ["--rhs", "1", "--z", "0.1",
     "--g", "z"], "--g is not read by solve --biharmonic"),
    (["--biharmonic", "--rhs", "1", "--z", "0.1", "--f", "1"], ["--rhs", "1", "--z", "0.1",
     "--f", "1"], "--f is not read by solve --biharmonic"),
    (["--rhs", "1", "--z", "0.1", "--h1", "z"], ["--biharmonic", "--rhs", "1", "--z", "0.1",
     "--h1", "z"], "--h1 is not read by solve without --biharmonic"),
    (["--rhs", "1", "--z", "0.1", "--h2", "z"], ["--biharmonic", "--rhs", "1", "--z", "0.1",
     "--h2", "z"], "--h2 is not read by solve without --biharmonic"),
    (["--rhs", "1", "--grid", "2", "--z", "0.1"], ["--rhs", "1", "--z", "0.1"],
     "--z is not read by solve --grid"),
    (["--rhs", "1", "--z", "0.1", "--format", "json"], ["--rhs", "1", "--grid", "2",
     "--format", "json"], "--format is not read by solve without --grid"),
    (["--rhs", "1", "--z", "0.1", "--seed", "2"], ["--rhs", "1", "--grid", "2", "--seed", "2",
     "--format", "json"], "--seed is not read by solve without --grid"),
], ids=["biharmonic-mu", "biharmonic-nu", "biharmonic-g", "biharmonic-f", "h1", "h2",
        "grid-z", "format", "seed"])
def test_solve_refuses_the_flags_its_form_never_reads(refused, read, message, capsys):
    # --biharmonic and --grid pick the form; the other form reads the flag
    assert _outcome(capsys, ["solve", *refused]) == (2, "", f"pmp: error: {message}\n")
    code, out, err = _outcome(capsys, ["solve", *read])
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, form", [(["export", "--f", "z"], "export"),
                                         (["solve", "--rhs", "1"], "solve --grid")])
def test_seed_is_read_only_with_json_output(argv, form, capsys):
    # only the JSON config echoes --seed: with CSV output, named or by default, it is refused
    for csv in ([], ["--format", "csv"]):
        assert _outcome(capsys, [*argv, "--grid", "2", "--seed", "4", *csv]) == (
            2, "", f"pmp: error: --seed is not read by {form} without --format json\n")
    code, out, err = _outcome(capsys, [*argv, "--grid", "2", "--seed", "4", "--format", "json"])
    assert (code, err) == (0, "") and json.loads(out)["config"]["seed"] == 4


def test_solve_grid_0_picks_the_grid_form(capsys):
    # a given --grid, 0 included, picks the grid form, which reads --format
    assert _outcome(capsys, ["solve", "--rhs", "1", "--grid", "0", "--format", "json"]) == (
        1, "", f"error: {GRID_ERROR.format(0, 0.95)}\n")


def test_top_level_help_prints_the_description_paragraph(capsys, monkeypatch):
    # the parser's own text, not the `cli` module docstring, which describes the code
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = _outcome(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert out.split("\n\n")[1] == (
        "Command-line surface: kernel evaluation, operator application, solving, verification"
        " suites, and\ngrid export. Complex values print as `re±imi` with 15 significant digits."
        " Grid output is CSV\n(`x,y,re,im`, header row, row-major) or JSON with a config echo."
        " Usage errors exit 2, numeric\nfailures exit 1, and `verify` exits nonzero when any"
        " property fails. Each subcommand declares only\nthe flags it reads.")


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
    # 81 targets of one rule size: two blocks of several targets each
    (["solve", "--mu", "2", "--nu", "2", "--rhs", "z^3", "--grid", "9", "--R", "1e150",
      "--nr", "8", "--ntheta", "16"], "2", SAMPLE),
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
    # below the radial floor; DEFAULT_COUNTS fills in the angular count
    (["op", "apply", "--op", "T", "--f", "1+z*zbar", "--z", "0.3", "--nr", "3"], "1",
     "need n_radial >= 4 and n_angular >= 8, got (3, 160)"),
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
], ids=["polydisc", "T", "export-2-threads", "solve-grid-blocks",
        "solve-biharmonic", "solve-g", "2T",
        "kernel-tiny-R", "kernel-huge-R", "mixed-huge-R", "c3-R^38", "c2-R^38",
        "S-0.999R", "Sbar-8-nodes", "nr-3", "export-grid-3", "solve-grid-2", "grid-0",
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


@pytest.mark.parametrize("argv", [("op", "apply", "--op", "mixed", "--f", "1+z", "--z", "1"),
                                  ("solve", "--mu", "1", "--nu", "1", "--rhs", "1", "--z", "1")])
def test_values_on_the_circle_are_exact(capsys, argv):
    # T Tbar (1 + z) = |z|^2 - 1 + z (|z|^2 - 1)/2 and u = |z|^2 - 1 vanish on
    # the circle; the target-centred rule printed 4.8e-6 and 2.4e-6 there
    code, out = run(capsys, *argv)
    assert code == 0 and abs(parse_complex(out.strip())) <= 1e-12


@pytest.mark.parametrize("z, exact, tolerance", [("0.9", 6.350717367e-52, 1e-2),
                                                  ("0.5", 5.357670911549494e-40, 1e-12)])
def test_highest_mixed_order_is_right(capsys, z, exact, tolerance):
    # T^20 Tbar^20 1, exact from the monomial rule composed in fractions; summing
    # the kernel's cancelling monomials printed -1.09e-39 at 0.9 and 4 digits at 0.5
    code, out = run(capsys, "op", "apply", "--op", "mixed", "--f", "1", "--z", z,
                    "--mu", "20", "--nu", "20")
    assert code == 0 and abs(parse_complex(out.strip()) - exact) <= tolerance * exact


@pytest.mark.parametrize("order", [("1", "1"), ("2", "2")])
def test_extent_1_grid_is_exact(capsys, order):
    # corners on the circle; T Tbar and T^2 Tbar^2 of 1 + z zbar - 2i z^2 exactly
    from pompeiu.oracle import PolynomialField, exact_transform
    code, out = run(capsys, "export", "--op", "mixed", "--mu", order[0], "--nu", order[1],
                    "--f", "1+z*zbar-2i*z^2", "--grid", "9", "--extent", "1")
    assert code == 0
    exact = PolynomialField.from_dict({(0, 0): 1, (1, 1): 1, (2, 0): -2j})
    for _ in range(int(order[1])):
        exact = exact_transform(exact, 1.0, conjugate=True)
    for _ in range(int(order[0])):
        exact = exact_transform(exact, 1.0)
    rows = np.array([[float(part) for part in line.split(",")]
                     for line in out.splitlines()[1:]])
    z, got = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    assert len(rows) == 81 and np.max(np.abs(got - exact(z))) <= 1e-12
