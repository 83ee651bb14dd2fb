"""Tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs at its smallest size ("smoke"); the full sizes are
exercised only by the benchmark runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line)
                    for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted_with_unit(workload):
    plain_info, plain = smoke(workload, 0)
    traced_info, traced = smoke(workload, 1)
    for result, spec in ((plain, SPEC["end_to_end"]),
                         (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec}
    for name, m in plain["metrics"].items():
        assert m["value"] > 0, name
    assert plain_info["digest"] == traced_info["digest"]
    assert traced_info["digests_agree"]
    assert plain_info["provenance"]["seed"] == 7
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    if workload == "pyramid_diagram":
        assert layers["superalgebra.adjoint_calls"] == 0
    if workload == "classify_oracle":
        requests = workloads.WORKLOADS[workload].requests("smoke")
        assert layers["classification.accepted"] == sum(
            workloads.expected_count(r) for r in requests)


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    key = ("osp", (3, 3), (4,))
    monkeypatch.setitem(workloads.KNOWN_COUNTS, key,
                        workloads.KNOWN_COUNTS[key] + 1)
    requests = worker.ordered_requests("classify_oracle", 1, "smoke")
    summary = worker.run_pass("classify_oracle", requests)
    assert len(summary["failures"]) == 1
    assert "classification count" in summary["failures"][0]
    assert len(summary["latencies"]) == summary["attempted"] - 1


def test_times_scale_with_the_reference_around_them():
    order = ["a", "b", "c", "d", "e", "f"]
    refs = [1, 1, 1, 1, 2, 2]
    p = {"order": order, "latencies": {k: 0.5 for k in order if k != "c"},
         "references": {k: run.REFERENCE_S * r for k, r in zip(order, refs)}}
    scaled = run.scaled_latencies(p)
    assert sorted(scaled) == ["a", "b", "d", "e", "f"]
    # e's window is c..f, f's is d..f
    assert scaled["a"] == scaled["b"] == scaled["d"] == 0.5
    assert scaled["e"] == 0.5 / 1.5 and scaled["f"] == 0.25
    assert run.pass_scale(p) == 1.0


def test_tail_leaves_enough_orbits_beyond():
    assert run.tail_percentile(113) == 90
    assert run.tail_percentile(107) == 90
    assert run.tail_percentile(76) == 85
    assert run.tail_percentile(5) == 90


def test_seed_permutes_order_only():
    a = worker.ordered_requests("dynkin_sweep", 1, "full")
    b = worker.ordered_requests("dynkin_sweep", 2, "full")
    assert [r.key for r in a] != [r.key for r in b]
    assert sorted(r.key for r in a) == sorted(r.key for r in b)
    assert [r.key for r in a] == \
        [r.key for r in worker.ordered_requests("dynkin_sweep", 1, "full")]


def test_tracer_wraps_every_namespace_and_restores():
    import goodgradings.gradings as gradings
    import goodgradings.superalgebra as superalgebra
    original = superalgebra.adjoint_matrix
    with tracing.Tracer().installed():
        assert gradings.adjoint_matrix is superalgebra.adjoint_matrix
        assert superalgebra.adjoint_matrix.__wrapped__ is original
    assert gradings.adjoint_matrix is original
    assert superalgebra.adjoint_matrix is original


def test_missing_traced_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("gradings", "no_such", "x.y")])
    with pytest.raises(tracing.TraceError, match="no_such"):
        with tracing.Tracer().installed():
            pass


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dynkin_sweep", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
