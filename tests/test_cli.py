"""Command line contract: exit codes, output formats, determinism."""

import collections
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from plval import plfunction as pf
from plval import polytope as pt
from plval.cli import main
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


@pytest.mark.parametrize(
    "command, dim",
    [("norms", 2.7), ("norms", "2"), ("norms", True), ("norms", 0), ("polytope", 2.9)],
    ids=["norms-fraction", "norms-string", "norms-bool", "norms-zero", "polytope-fraction"],
)
def test_non_integral_dim_is_an_input_error(capsys, tmp_path, command, dim):
    obj = pt.cube(2) if command == "polytope" else pf.cone_function(pt.cube(2))
    data = obj.to_json_dict()
    data["dim"] = dim
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert "field 'dim'" in err


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("polytope", "--input", '["dim", "vertices"]'),
        ("norms", "--input", '["dim", "vertices", "simplices", "values"]'),
        ("valuate", "--input", '"dim vertices simplices values"'),
        ("valuate", "--kernel", '["type"]'),
        ("valuate", "--kernel", "3"),
    ],
    ids=["polytope-list", "norms-list", "valuate-string", "kernel-list", "kernel-number"],
)
def test_non_object_json_is_an_input_error(capsys, tmp_path, cone_file, kernel_file, command, option, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files = {"--input": cone_file, "--kernel": kernel_file} if command == "valuate" else {}
    files[option] = str(bad)
    code, out, err = run(capsys, command, *(x for item in files.items() for x in item))
    assert code == 2
    assert out == ""
    assert "JSON must be an object" in err


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


@pytest.mark.parametrize(
    "simplices",
    [[[0, 1, 99]], [[0, 1, 0.9]], [[0, 1, 4, 1, 2, 4]], [[-1, 0, 1]]],
    ids=["out-of-range", "fraction", "one-flat-row", "negative"],
)
@pytest.mark.parametrize("command", ["norms", "valuate"])
def test_bad_simplices_are_input_errors(capsys, tmp_path, kernel_file, simplices, command):
    data = pf.cone_function(pt.cube(2)).to_json_dict()
    data["simplices"] = simplices
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    kernel = ["--kernel", kernel_file] if command == "valuate" else []
    code, out, err = run(capsys, command, "--input", str(path), *kernel)
    assert code == 2
    assert out == ""
    assert "field 'simplices'" in err


def test_norms_and_valuate_read_a_join_with_t_junctions(capsys, tmp_path, kernel_file):
    # the join of two random cones, a partition whose vertices lie inside
    # neighbouring faces, read back from JSON gives the bytes of the
    # in-process results
    from plval.integration import grad_p_norm, lq_norm, sobolev_norm
    from plval.valuation import PowerKernel, apply
    from plval.verify import random_cone_function

    rng = np.random.default_rng(1)
    f = pf.join(random_cone_function(rng, 2), random_cone_function(rng, 2))
    path = tmp_path / "join.json"
    path.write_text(dumps_canonical(f.to_json_dict()))
    code, out, _ = run(capsys, "norms", "--input", str(path), "--p", "1.5", "--q-list", "1,2")
    assert code == 0
    assert out == dumps_canonical({
        "p": 1.5,
        "q_norms": [{"q": q, "value": lq_norm(f, q)} for q in (1.0, 2.0)],
        "grad_norm": grad_p_norm(f, 1.5),
        "sobolev_norm": sobolev_norm(f, 1.5),
    })
    code, out, _ = run(capsys, "valuate", "--input", str(path), "--kernel", kernel_file)
    assert code == 0
    assert out == dumps_canonical({"z": apply(PowerKernel(1.0, 2.0), f)})


def test_cli_verify_imports_no_scipy(tmp_path):
    # plval runs on numpy alone: a process that imports the CLI and runs a
    # suite through it (hulls, overlays, dedupe, the engine) has loaded no
    # scipy module, lazily or not
    import os
    import subprocess
    import sys

    import plval

    src = os.path.dirname(os.path.dirname(os.path.abspath(plval.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = (
        "import sys, plval.cli\n"
        "code = plval.cli.main(['verify', '--suite', 'inclusion_exclusion', '--output', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out.jsonl")], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out.jsonl").read_text().count('"suite": "inclusion_exclusion"') > 0


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("s,c\n", "no data rows"),
        ("s,c\n0\n0.1\n", "line 2 needs 2 values s,c, got 1"),
        ("s,c\n0,0,0\n0.1,1,1\n", "line 2 needs 2 values s,c, got 3"),
        ("s,c\n0,0\n0.1,nan\n", "line 3 holds a non-finite number"),
        ("s,c\n0,0\n0.1,inf\n", "line 3 holds a non-finite number"),
    ],
    ids=["header-only", "one-column", "three-column", "nan", "inf"],
)
def test_recover_rejects_malformed_profile_csv(capsys, tmp_path, text, message):
    path = tmp_path / "prof.csv"
    path.write_text(text)
    code, out, err = run(capsys, "recover", "--input", str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: profile CSV") and message in err
    assert "Traceback" not in err


def test_recover_requires_p_below_n(capsys):
    # refused before the input is read: the file does not exist
    code, out, err = run(capsys, "recover", "--input", "/nonexistent/prof.csv", "--n", "2", "--p", "2")
    assert code == 2
    assert out == ""
    assert "need p < n" in err


def test_recover_growth_report_on_stderr(capsys, tmp_path):
    s = np.arange(0.0, 2.0 + 0.005, 0.01)
    path = tmp_path / "prof.csv"
    path.write_text("s,c\n" + "".join("%.17g,%.17g\n" % (sv, sv * sv / 6.0) for sv in s))
    code, _, err = run(capsys, "recover", "--input", str(path), "--n", "2", "--p", "1")
    assert code == 0
    assert err.startswith("growth:")
    assert json.loads(err[len("growth:"):])["passed"] is True


# -- verify ---------------------------------------------------------------------


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_verify_bytes_match_the_golden_record(capsys, tmp_path, seed):
    # the full battery's JSONL (by SHA-256) and CSV summary, pinned per seed;
    # a change that moves a byte updates tests/data/verify_golden.json
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--seed", seed, "--output", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN[seed]["jsonl_sha256"]
    assert (tmp_path / "reports.jsonl.csv").read_text() == GOLDEN[seed]["csv"]
    assert out == GOLDEN[seed]["csv"]


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


def test_verify_timing_adds_wall_time_and_counts(capsys, tmp_path):
    # --timing leaves the JSONL as it is and adds last CSV columns: wall_s,
    # with one finite time per suite, then the suite's nine work counts, its
    # two overlay stage times, its polytope build time and its four overlay
    # check margins
    plain, timed = tmp_path / "plain.jsonl", tmp_path / "timed.jsonl"
    for path, extra in ((plain, ()), (timed, ("--timing",))):
        code, out, _ = run(capsys, "verify", "--suite", "invariance", *extra, "--output", str(path))
        assert code == 0
    assert timed.read_bytes() == plain.read_bytes()
    assert "wall_time" not in plain.read_text()
    rows = plain.with_name("plain.jsonl.csv").read_text().splitlines()
    timed_rows = timed.with_name("timed.jsonl.csv").read_text().splitlines()
    assert out == timed.with_name("timed.jsonl.csv").read_text()
    assert timed_rows[0] == rows[0] + (",wall_s,hulls,builds,cuts,assemblies,splits,locates,densities,means,"
                                       "crossings,cut_s,assemble_s,build_s,cover,fill,spread,sample")
    assert len(timed_rows) == len(rows) == 2
    for row, timed_row in zip(rows[1:], timed_rows[1:]):
        head, wall, *rest = timed_row.rsplit(",", 17)
        assert head == row
        assert math.isfinite(float(wall)) and float(wall) > 0
        counts, records = rest[:9], rest[9:]
        assert len(counts) == 9 and all(c.isdigit() for c in counts)
        # invariance overlays nothing: no overlay stage time and no margin;
        # it builds polytopes, within its wall time
        cut, assemble, build, *margins = (float(x) for x in records)
        assert [cut, assemble] + margins == [0.0] * 6
        assert 0.0 < build < float(wall)


def test_verify_timing_counts_equal_the_wrapped_calls(capsys, monkeypatch, tmp_path):
    # the reference count: each counted function wrapped where it is looked
    # up, as a call-counting script does; the counts plval keeps itself
    # (plval.stats) and --timing writes must equal it, suite by suite
    from plval import convex, integration, overlay, polytope
    from plval.verify import default_battery

    places = {
        "hulls": [(convex, "hull")],
        "builds": [(polytope, "_finish")],
        "cuts": [(overlay, "_pieces_pairwise")],
        "assemblies": [(overlay, "assemble_cells")],
        # overlay and convex.clip both call split through the module
        "splits": [(convex, "split")],
        # overlay imports evaluate_each by name; plfunction calls its own
        "locates": [(overlay, "evaluate_each"), (pf, "evaluate_each")],
        # integration's density_of and value_densities look it up at each call
        "densities": [(integration, "value_density")],
        "means": [(integration.ValueDensity, "means")],
        "crossings": [(integration, "_crossings")],
    }
    wrapped = collections.Counter()
    for key, at in places.items():
        for module, name in at:

            def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
                wrapped[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    reference = {}
    for name, thunk in default_battery(0):
        if name in ("inclusion_exclusion", "homogeneity"):
            wrapped.clear()
            thunk()
            reference[name] = {key: wrapped[key] for key in places}
    for suite, want in reference.items():
        path = tmp_path / (suite + ".jsonl")
        code, _, _ = run(capsys, "verify", "--suite", suite, "--timing", "--output", str(path))
        assert code == 0
        header, row = path.with_name(path.name + ".csv").read_text().splitlines()
        counts = dict(zip(header.split(",")[6:15], map(int, row.split(",")[6:15])))
        assert counts == want, suite
    # no count of inclusion_exclusion is 0 but crossings (no battery
    # function has a segment that crosses 0, so no density searches; see
    # tests/test_integration.py for one that does), and homogeneity passes
    # one density to several kernels
    assert all(count for key, count in reference["inclusion_exclusion"].items() if key != "crossings")
    assert reference["homogeneity"]["means"] > reference["homogeneity"]["densities"] > 0


def test_verify_inclusion_exclusion_runs_its_fans_in_lockstep(capsys, tmp_path):
    # the battery's two fans share every round: 5 cuts (subset sizes 2-6),
    # 6 assemblies (those and one tent round) and 1 value density (one
    # apply_each); one round per fan would make 8, 10 and 2
    path = tmp_path / "ie.jsonl"
    code, _, _ = run(capsys, "verify", "--suite", "inclusion_exclusion", "--timing", "--seed", "0",
                     "--output", str(path))
    assert code == 0
    header, row = path.with_name(path.name + ".csv").read_text().splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert {key: int(got[key]) for key in ("cuts", "assemblies", "densities")} == {
        "cuts": 5, "assemblies": 6, "densities": 1}


def test_verify_timing_margins_and_seconds_equal_the_wrapped_checks(capsys, monkeypatch, tmp_path):
    # the reference margins: each overlay check wrapped where it is looked
    # up, its value over its bound recomputed from the check's arguments
    # (the cover balance from overlay._cover, the sampled error from each
    # result, f and g located alone); the margins the overlay keeps itself
    # (plval.stats) and --timing writes must equal their maxima bit for bit
    from plval import overlay
    from plval.errors import OverlayFailure
    from plval.verify import default_battery

    reference = collections.Counter()

    def keep(key, ratio):
        reference[key] = max(reference[key], float(ratio))

    def cover_failures(pieces, supp, _fn=overlay._cover_failures):
        covered = overlay._cover(pieces, len(supp))
        keep("cover", (np.abs(covered - supp) / (overlay.COVER_TOL * supp)).max(initial=0.0))
        return _fn(pieces, supp)

    def fail(out, batch, key, gap, bound, message, _fn=overlay._fail):
        keep(key, (gap / bound).max(initial=0.0))
        return _fn(out, batch, key, gap, bound, message)

    def sample_failures(pairs, results, dim, _fn=overlay._sample_failures):
        U = np.random.default_rng(424242).random((128, dim))
        for op, got in results.items():
            for (f, g), h in zip(pairs, got):
                if isinstance(h, OverlayFailure):
                    continue
                box = np.array([fn.bbox() for fn in (f, g) if not fn.complex.is_empty()])
                lo, hi = box[:, 0].min(axis=0), box[:, 1].max(axis=0)
                X = lo + (hi - lo) * U
                v, a, b = (pf.evaluate_each([fn], X, np.zeros(len(X), dtype=int)) for fn in (h, f, g))
                want = np.maximum(a, b) if op == "join" else np.minimum(a, b)
                keep("sample", np.abs(v - want).max() / (1e-8 * max(1.0, np.abs(want).max())))
        return _fn(pairs, results, dim)

    monkeypatch.setattr(overlay, "_cover_failures", cover_failures)
    monkeypatch.setattr(overlay, "_fail", fail)
    monkeypatch.setattr(overlay, "_sample_failures", sample_failures)
    dict(default_battery(0))["inclusion_exclusion"]()
    monkeypatch.undo()
    path = tmp_path / "inclusion_exclusion.jsonl"
    code, _, _ = run(capsys, "verify", "--suite", "inclusion_exclusion", "--timing", "--output", str(path))
    assert code == 0
    header, row = path.with_name(path.name + ".csv").read_text().splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    margins = {key: float(got[key]) for key in ("cover", "fill", "spread", "sample")}
    assert margins == dict(reference)
    # every check passed, and each came within its bound by a nonzero amount
    assert all(0.0 < m <= 1.0 for m in margins.values())
    wall = float(got["wall_s"])
    for key in ("cut_s", "assemble_s", "build_s"):
        assert 0.0 < float(got[key]) < wall
    # the three stages never run inside one another
    assert sum(float(got[key]) for key in ("cut_s", "assemble_s", "build_s")) < wall


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "--suite", "homogeneity", "--tolerance", "-1"), "--tolerance"),
        (("verify", "--suite", "homogeneity", "--tolerance", "nan"), "--tolerance"),
        (("verify", "--suite", "homogeneity", "--tolerance", "inf"), "--tolerance"),
        (("norms", "--input", "missing.json", "--p", "nan"), "--p"),
        (("recover", "--input", "missing.csv", "--n", "2", "--p", "-inf"), "--p"),
        (("norms", "--input", "missing.json", "--q-list", "1,nan"), "--q-list"),
        (("polytope", "--input", "missing.json", "--q-list", "inf"), "--q-list"),
        (("valuate", "--input", "missing.json", "--kernel", "missing.json", "--s-grid", "0:2:nan"), "--s-grid"),
        (("valuate", "--input", "missing.json", "--kernel", "missing.json", "--s-grid", "2:0:0.1"), "--s-grid"),
        (("valuate", "--input", "missing.json", "--kernel", "missing.json", "--s-grid", "0:1:0.1", "--n", "-1"),
         "--n"),
        (("valuate", "--input", "missing.json", "--kernel", "missing.json", "--s-grid", "0:1:0.1", "--n", "0"), "--n"),
        (("recover", "--input", "missing.csv", "--n", "0"), "--n"),
    ],
    ids=["tolerance-negative", "tolerance-nan", "tolerance-inf", "norms-p", "recover-p", "norms-q", "polytope-q",
         "s-grid-nan", "s-grid-empty", "valuate-n-negative", "valuate-n-zero", "recover-n-zero"],
)
def test_bad_numeric_options_are_usage_errors(capsys, monkeypatch, argv, option):
    # refused by the parser, naming the option, before any suite runs or
    # any file is read
    from plval import verify

    def no_battery(seed):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(verify, "default_battery", no_battery)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "argument %s" % option in err
    assert out == ""


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "psi_identity", "--tolerance", "0")
    assert code in (0, 1)
    assert out
