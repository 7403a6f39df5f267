import json

import numpy as np
import pytest

from pompeiu.cli import RunConfig, format_complex, run_command
from pompeiu.expressions import parse_complex


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


def test_config_file_sets_radius(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 0.5, "n_radial": 16, "n_angular": 32}))
    # target outside the configured 0.5-disk: numeric failure
    code = run_command(["op", "apply", "--op", "T", "--f", "zbar", "--z", "0.9",
                        "--config", str(cfg)])
    assert code == 1
    # explicit flag overrides the config file
    code, out = run(capsys, "op", "apply", "--op", "T", "--f", "zbar", "--z", "0.9",
                    "--config", str(cfg), "--R", "2.0")
    assert code == 0


def test_runconfig_tolerance_lookup():
    cfg = RunConfig(tolerances={"kernel_oracle": 1e-3})
    assert cfg.tolerance("kernel_oracle", 1e-4) == 1e-3
    assert cfg.tolerance("other", 1e-4) == 1e-4


def test_verify_exits_nonzero_on_failure(tmp_path, capsys):
    # an impossible tolerance override forces FAIL lines and exit 1
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"tolerances": {"kernel_oracle": 1e-30},
                               "n_radial": 16, "n_angular": 32}))
    code = run_command(["verify", "--suite", "kernels", "--seed", "7",
                        "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
