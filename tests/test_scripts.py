"""The experiment scripts under scripts/ run to exit 0 on small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

import plval

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("overlay_stress.py", ["--seeds", "0:1"]),
        ("recovery_convergence.py", ["--qs", "1.5", "--steps", "0.04,0.02"]),
        ("continuity_examples.py", ["--k-max", "2"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    # the child imports the same plval as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(plval.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
