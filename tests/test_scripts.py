"""The experiment scripts under scripts/ run to exit 0 on small arguments,
and patch no private name of plval."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import plval

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


# what a script's output must show: overlay_stress.py overlays at least
# one result, in at least one call, and reads every result back from its
# JSON; build_cost.py times every draw, each build one hull, one facet
# search and one finish
SHOWS = {
    "overlay_stress.py": r"\b[1-9]\d* overlays in +[1-9]\d* batches.* ([1-9]\d*) of +\1 read back",
    "build_cost.py": r"(?s)n=2 k= 5 .* us/build +per build: hulls 1\.00, facets 1\.00, builds 1\.00"
                     r".*\nall +40 builds +\d+\.\d us/build",
}


@pytest.mark.parametrize(
    "script, args",
    [
        ("overlay_stress.py", ["--seeds", "0:1"]),
        ("recovery_convergence.py", ["--qs", "1.5", "--steps", "0.04,0.02"]),
        ("continuity_examples.py", ["--k-max", "2"]),
        ("build_cost.py", ["--dims", "2,3", "--points", "5:7", "--draws", "10", "--repeat", "1"]),
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
    assert re.search(SHOWS.get(script, ""), proc.stdout), proc.stdout


def plval_assignments(source: str) -> list:
    """[(dotted name, private)] for each assignment to, or setattr of, an
    attribute of a name imported from plval (or of an attribute of one) in
    the Python source; private when the attribute starts with "_"."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "plval"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "plval":
            names |= {a.asname or a.name for a in node.names}

    def dotted(node):
        # "a.b.c" for an attribute chain rooted at a name from plval, else None
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) and node.id in names else None

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            return [t for elt in node.elts for t in targets(elt)]
        return targets(node.value) if isinstance(node, ast.Starred) else [node]

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            hits = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            hits = targets(node.target)
        else:
            hits = []
        for t in hits:
            if isinstance(t, ast.Attribute) and dotted(t.value):
                found.append((dotted(t), t.attr.startswith("_")))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr"
                and len(node.args) >= 2 and dotted(node.args[0]) and isinstance(node.args[1], ast.Constant)):
            attr = str(node.args[1].value)
            found.append((dotted(node.args[0]) + "." + attr, attr.startswith("_")))
    return found


def test_no_script_patches_a_private_plval_name():
    # a script measures plval through plval.stats and its public functions,
    # so no refactor of plval's private names has to edit a script; the one
    # wrapper left is overlay_stress.py's read-back on overlays
    found = {path.name: plval_assignments(path.read_text()) for path in sorted(SCRIPTS.glob("*.py"))}
    assert found and all(private is False for hits in found.values() for _, private in hits), found
    assert {name for hits in found.values() for name, _ in hits} <= {"overlay.overlays"}


def test_the_patch_finder_sees_every_form():
    source = """
import numpy as np
import plval
import plval.convex as cx
from plval import overlay as ov, stats
from plval.plfunction import from_json_dict
ov._pieces_pairwise = None
plval.overlay._cover, x = 1, 2
[cx._facets, *rest] = (0, 1)
stats.calls += 1
setattr(ov, "_fail", None)
ov.lattice_overlays = None
np._private = None
from_json_dict.__doc__ = ""
"""
    assert sorted(plval_assignments(source)) == [
        ("cx._facets", True),
        ("from_json_dict.__doc__", True),
        ("ov._fail", True),
        ("ov._pieces_pairwise", True),
        ("ov.lattice_overlays", False),
        ("plval.overlay._cover", True),
        ("stats.calls", False),
    ]
