"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/tests

Checks that every metric BENCHMARK.json names is emitted with its unit,
on every workload, and that a wrong result is counted as a failure.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._load_program()

import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, record = run.bench(workload, seed=3, seconds=0, trace=0, tiny=True, probes=1)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_frac"] == 0.0
    assert len(record["input_fingerprint"]) == len(record["output_digest"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result, record = run.bench(workload, seed=3, seconds=0, trace=1, tiny=True)
    assert result["correct"], record["failures"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert 0.0 < result["metrics"]["trace.child_cover_frac"]["value"] <= 1.0


def test_same_seed_same_inputs():
    from tracing import NullTracer

    a = workloads.prepare_integrate(5, NullTracer(), tiny=True)
    b = workloads.prepare_integrate(5, NullTracer(), tiny=True)
    c = workloads.prepare_integrate(6, NullTracer(), tiny=True)
    assert a.fingerprint == b.fingerprint != c.fingerprint


def test_wrong_result_counts_in_fail_frac(monkeypatch):
    real = workloads.ig.grad_p_norm
    monkeypatch.setattr(workloads.ig, "grad_p_norm", lambda f, p: real(f, p) * (1.0 + 1e-6))
    result, record = run.bench("integrate", seed=3, seconds=0, trace=0, tiny=True, probes=1)
    assert not result["correct"]
    assert result["failed"] == 2  # the 2-D and the 3-D mesh
    assert record["fail_frac"] == result["failed"] / result["attempted"]
    assert all("grad" in msg for msg in record["failures"])
