"""Smoke test of the benchmark: every workload at toy size, plain and traced.

Checks the result line against BENCHMARK.json (names, units, numbers),
that the full report lists every layer metric as a number or as absent,
and that tracing survives functions the program no longer has. Run from
the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def test_benchmark_json_declares_what_run_py_reports():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layer == dict({k: v[0] for k, v in tracing.LAYER_METRICS.items()}, **{"trace.overhead_s": "s"})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run(workload, trace, tmp_path):
    report_path = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--report", str(report_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)

    report = json.loads(report_path.read_text())
    assert report["end_to_end"]["error_rate"]["value"] == 0
    for name, metric in report["end_to_end"].items():
        assert NAME.match(name) and UNIT.match(metric["unit"])
    if trace:
        for name in tracing.LAYER_METRICS:
            metric = report["per_layer"][name]
            assert metric["absent"] or isinstance(metric["value"], float), name


def test_tracing_reports_a_deleted_function_as_absent(monkeypatch):
    from volseg import cli, inference

    monkeypatch.delattr(cli, "ensemble_predict")
    monkeypatch.delattr(inference, "ensemble_predict")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("case"):
            cli.argmax_labels(cli.Volume3D(np.ones((3, 2, 2, 2)), (1, 1, 1)))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["inference.ensemble_s"]["value"] is None
    assert metrics["inference.argmax_s"]["value"] > 0
    assert not hasattr(cli, "ensemble_predict")
