import ast
import os
import subprocess
import sys
from pathlib import Path

import pompeiu


def test_every_public_name_resolves():
    assert [name for name in pompeiu.__all__ if not hasattr(pompeiu, name)] == []


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy.interpolate alone would
    # add most of a second to every pmp start-up
    env = dict(os.environ, PYTHONPATH=str(Path(pompeiu.__file__).resolve().parents[1]))
    code = ("import sys, pompeiu.cli; pompeiu.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_imports_a_private_name_from_a_sibling():
    # a `_`-prefixed name belongs to its module; siblings use the public surface
    package = Path(pompeiu.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "pompeiu"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_no_module_forms_a_matrix_product():
    # numpy hands every matrix product (even a (40 x 40)(40 x 80) one, or a
    # matrix-vector sum) to OpenBLAS, whose worker thread then competes with
    # the main thread: on a 2-vCPU host one such product per NestedOracle grid
    # took the crosscheck words to 1.58x the CPU time (6.0 s against 3.8 s with
    # OPENBLAS_NUM_THREADS=1, six passes) for about 5% more wall time
    products = {"dot", "matmul", "inner", "vdot", "tensordot", "multi_dot"}
    package = Path(pompeiu.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in products):
                found.append(f"{path.name}:{node.lineno}: {node.func.attr}")
    assert found == []
