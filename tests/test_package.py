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
