"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The exact per-layer counts of a traced run must repeat, so that a change can
cite them as counts; the result line must follow BENCHMARK.json; and the
runner must refuse to run without the engine sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def traced_run(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return result_line(proc.stdout)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counts_repeat_in_process(workload):
    first = run.exact_counts(workload, seed=3)
    assert first == run.exact_counts(workload, seed=3)
    assert first["algebra.table.degrees"] > 0


def test_exact_counts_repeat_across_processes():
    a = traced_run("verify-suites", "1")
    b = traced_run("verify-suites", "2")
    for result in (a, b):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
    exact = [k for k in a["metrics"] if not k.endswith("self_s") and not k.startswith("trace.")]
    assert {k: a["metrics"][k]["value"] for k in exact} == {k: b["metrics"][k]["value"] for k in exact}


def test_zero_degrees_match_the_closed_forms():
    wl = run.SeriesVanishing(seed=1)
    expected = wl.prepare(run.Engine(), None)
    counts = run.exact_counts("series-vanishing", seed=1)
    assert counts["algebra.table.degrees"] == sum(len(c) for c in expected)
    assert counts["algebra.table.zero_degrees"] == sum(1 for c in expected for v in c if v == 0)


def test_product_pass_reads_warm_tables_only():
    wl = run.NormalFormProducts(seed=2)
    eng = run.Engine()
    rings = wl.build(eng)
    inputs = wl.prepare(eng, rings)
    tracer = spans.Tracer()
    with tracer.active():
        wl.run_pass(eng, rings, inputs, lambda fn: fn())
    metrics = tracer.metrics()
    assert metrics["linalg.rref.calls"] == 0
    assert metrics["algebra.table.degrees"] == 0
    assert metrics["algebra.normal_form.calls"] == 2 * len(inputs[0])


def test_untraced_result_follows_the_spec():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suites", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
