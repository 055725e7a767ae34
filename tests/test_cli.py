"""Command line contract: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest

from plval import plfunction as pf
from plval import polytope as pt
from plval.cli import RunConfig, main
from plval.serialize import dumps_canonical


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dumps_canonical(pt.cube(2).to_json_dict()))
    return str(path)


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(dumps_canonical(pf.cone_function(pt.cube(2)).to_json_dict()))
    return str(path)


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(dumps_canonical({"type": "power", "coeff": 1.0, "exponent": 2.0}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config -----------------------------------------------------------------


def test_runconfig_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"subcommand": "norms", "bogus": 1})


def test_runconfig_requires_p_below_n():
    with pytest.raises(ValueError):
        RunConfig(subcommand="norms", p=2.0, n=2)
    cfg = RunConfig(subcommand="norms", p=1.5, n=2)
    assert cfg.seed == 0


# -- polytope ------------------------------------------------------------------


def test_polytope_square(capsys, square_file):
    code, out, _ = run(capsys, "polytope", "--input", square_file)
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(4.0)
    assert data["polar_volume"] == pytest.approx(2.0)


def test_polytope_missing_file(capsys):
    code, _, err = run(capsys, "polytope", "--input", "/nonexistent/x.json")
    assert code == 2
    assert "error" in err


def test_polytope_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "polytope", "--input", str(bad))
    assert code == 2
    assert "error" in err


# -- norms ----------------------------------------------------------------------


def test_norms_square_cone(capsys, cone_file):
    code, out, _ = run(capsys, "norms", "--input", cone_file, "--p", "1")
    assert code == 0
    data = json.loads(out)
    assert data["q_norms"][0]["value"] == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert data["grad_norm"] == pytest.approx(4.0, rel=1e-10)
    assert data["sobolev_norm"] == pytest.approx(16.0 / 3.0, rel=1e-10)


def test_norms_zero_function(capsys, tmp_path):
    f = pf.cone_function(pt.cube(2))
    zero = pf.PLFunction(complex=f.complex, values=np.zeros(len(f.values)))
    path = tmp_path / "zero.json"
    path.write_text(dumps_canonical(zero.to_json_dict()))
    code, out, _ = run(capsys, "norms", "--input", str(path), "--p", "1")
    assert code == 0
    data = json.loads(out)
    assert data["q_norms"][0]["value"] == 0.0
    assert data["grad_norm"] == 0.0
    assert data["sobolev_norm"] == 0.0


def test_norms_rejects_small_exponent(capsys, cone_file):
    code, _, err = run(capsys, "norms", "--input", cone_file, "--p", "1",
                       "--q-list", "0.5")
    assert code == 2
    assert "error" in err


# -- valuate --------------------------------------------------------------------


def test_valuate_square(capsys, cone_file, kernel_file):
    code, out, _ = run(capsys, "valuate", "--input", cone_file, "--kernel", kernel_file)
    assert code == 0
    assert json.loads(out)["z"] == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_valuate_profile(capsys, cone_file, kernel_file, tmp_path):
    prof_path = tmp_path / "prof.csv"
    code, out, _ = run(capsys, "valuate", "--input", cone_file, "--kernel", kernel_file,
                       "--s-grid", "0:2:0.01", "--output", str(prof_path))
    assert code == 0
    rows = np.loadtxt(prof_path, delimiter=",", skiprows=1)
    assert len(rows) == 201
    assert np.max(np.abs(rows[:, 1] - rows[:, 0] ** 2 / 6.0)) < 1e-10


def test_valuate_profile_needs_output(capsys, cone_file, kernel_file):
    code, _, err = run(capsys, "valuate", "--input", cone_file, "--kernel", kernel_file,
                       "--s-grid", "0:2:0.01")
    assert code == 2 and "output" in err


def test_valuate_rejects_kernel_nonzero_at_origin(capsys, cone_file, tmp_path):
    bad = tmp_path / "badkern.json"
    bad.write_text(dumps_canonical({"type": "power", "coeff": 1.0, "exponent": 0.0}))
    code, _, err = run(capsys, "valuate", "--input", cone_file, "--kernel", str(bad))
    assert code == 2
    assert "zero" in err


@pytest.mark.parametrize("target, field", [("function", "values"), ("kernel", "exponent")])
def test_valuate_rejects_non_finite_input(capsys, tmp_path, target, field):
    data = {
        "function": pf.cone_function(pt.cube(2)).to_json_dict(),
        "kernel": {"type": "power", "coeff": 1.0, "exponent": 2.0},
    }
    if target == "function":
        apex = data["function"]["values"].index(1.0)
        data["function"]["values"][apex] = math.nan
    else:
        data["kernel"]["exponent"] = math.nan
    for name, obj in data.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(obj))  # NaN as the literal NaN
    code, out, err = run(
        capsys, "valuate", "--input", str(tmp_path / "function.json"),
        "--kernel", str(tmp_path / "kernel.json"),
    )
    assert code == 2
    assert out == ""
    assert "'%s'" % field in err and "non-finite" in err


# -- recover --------------------------------------------------------------------


def test_recover_quadratic_profile(capsys, tmp_path):
    s = np.arange(0.0, 2.0 + 0.005, 0.01)
    csv = "s,c\n" + "".join("%.17g,%.17g\n" % (sv, sv * sv / 6.0) for sv in s)
    path = tmp_path / "prof.csv"
    path.write_text(csv)
    code, out, _ = run(capsys, "recover", "--input", str(path), "--n", "2")
    assert code == 0
    kern = json.loads(out)
    ts, hs = np.array(kern["s"]), np.array(kern["h"])
    inner = ts > 0.1
    assert np.max(np.abs(hs[inner] - ts[inner] ** 2)) < 1e-4


def test_recover_zero_profile(capsys, tmp_path):
    s = np.arange(0.0, 2.0 + 0.005, 0.01)
    path = tmp_path / "prof.csv"
    path.write_text("s,c\n" + "".join("%.17g,0\n" % sv for sv in s))
    code, out, _ = run(capsys, "recover", "--input", str(path), "--n", "2")
    assert code == 0
    assert np.max(np.abs(json.loads(out)["h"])) == 0.0


def test_recover_rejects_nonuniform_grid(capsys, tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("s,c\n0,0\n0.1,1\n0.15,2\n0.4,3\n0.5,4\n0.6,5\n")
    code, _, err = run(capsys, "recover", "--input", str(path), "--n", "2")
    assert code == 2
    assert "uniform" in err


def test_recover_growth_report_on_stderr(capsys, tmp_path):
    s = np.arange(0.0, 2.0 + 0.005, 0.01)
    path = tmp_path / "prof.csv"
    path.write_text("s,c\n" + "".join("%.17g,%.17g\n" % (sv, sv * sv / 6.0) for sv in s))
    code, _, err = run(capsys, "recover", "--input", str(path), "--n", "2", "--p", "1")
    assert code == 0
    assert err.startswith("growth:")
    assert json.loads(err[len("growth:"):])["passed"] is True


# -- verify ---------------------------------------------------------------------


def test_verify_one_suite(capsys, tmp_path):
    out_path = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "verify", "--suite", "psi_identity",
                         "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines and all(json.loads(ln)["status"] == "pass" for ln in lines)
    assert (tmp_path / "reports.jsonl.csv").exists()
    assert out.startswith("suite,cases,passes,max_residual")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_forced_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "psi_identity",
                       "--tolerance", "1e-20")
    assert code == 1


def test_verify_tolerance_rejudges_comparisons_only(capsys):
    # the decay verdicts are not relative comparisons: a looser tolerance
    # leaves them, and their reasons, as they are
    code, out, _ = run(capsys, "verify", "--suite", "continuity_example_2",
                       "--tolerance", "1e-6")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    decays = [r for r in rows if r["case"].endswith("_decay")]
    assert len(decays) == 4
    assert all(r["status"] == "pass" and r["reason"].startswith("sequence ") for r in decays)
    compared = [r for r in rows if r["case"].endswith("_norm")]
    assert compared and all(r["tolerance"] == 1e-6 for r in compared)


def test_verify_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "verify", "--suite", "invariance", "--output", str(a))[0] == 0
    assert run(capsys, "verify", "--suite", "invariance", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_timing_adds_only_wall_time(capsys, tmp_path):
    plain, timed = tmp_path / "plain.jsonl", tmp_path / "timed.jsonl"
    assert run(capsys, "verify", "--suite", "invariance", "--output", str(plain))[0] == 0
    assert run(capsys, "verify", "--suite", "invariance", "--timing", "--output", str(timed))[0] == 0
    rows = [json.loads(line) for line in plain.read_text().splitlines()]
    timed_rows = [json.loads(line) for line in timed.read_text().splitlines()]
    assert len(rows) == len(timed_rows) > 0
    assert all(r["wall_time"] == 0 for r in rows)
    assert any(r["wall_time"] > 0 for r in timed_rows)
    for r, t in zip(rows, timed_rows):
        assert sorted(r) == sorted(t)
        assert {k: v for k, v in t.items() if k != "wall_time"} == {
            k: v for k, v in r.items() if k != "wall_time"
        }


def test_entry_point_subprocess(square_file):
    import os
    import subprocess
    import sys

    import plval

    # the child imports the same plval as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(plval.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "plval", "polytope", "--input", square_file],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["volume"] == pytest.approx(4.0)


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "valuate", "--input", "x.json")  # --kernel missing
    assert code == 2
