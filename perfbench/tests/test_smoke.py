"""Smoke test of the benchmark harness on tiny configs.

    python3 -m pytest -q perfbench/tests

One run per CLI command the workloads use, each checked to print every
metric ``BENCHMARK.json`` names, with its unit; plus a check that a wrap
target that no longer exists is reported by name while the run goes on.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--tiny", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("chaos-smoothed", 1),    # chaos-rate
    ("compare", 0),           # compare
    ("pde", 1),               # pde
])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TINY) == set(workloads.WORKLOADS)


def test_missing_wrap_target_is_reported_and_the_run_continues(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import layers
    import levymv.cli
    import levymv.particles

    monkeypatch.delattr(levymv.particles._SigmaEvaluator, "density_table")
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = levymv.cli.main([
            "chaos-rate", os.path.join(PERFBENCH, "configs", "tiny", "chaos_sine.json"),
            "--out", str(tmp_path), "--threads", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == ["levymv.particles._SigmaEvaluator.density_table"]
    assert set(tracer.absent_metrics()) == {"particles.sigma_binned_calls",
                                            "particles.sigma_binned_s"}
    metrics = tracer.metrics()
    assert {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s", "exports.bytes_written"} \
        <= set(metrics)
    assert metrics["drivers.build_calls"] == 14    # base + reference + 12 coupled runs
    assert metrics["coefficients.sine_summary_calls"] == 12 * 6
