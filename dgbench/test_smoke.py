"""Smoke test of the benchmark on tiny problems.

    python3 -m pytest dgbench/test_smoke.py

It drives `run.main` the way the command line does, with each workload
shrunk to a few thousand rows, and checks the result line against the
metric names and units that BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from deltagrad import engine  # noqa: E402

TINY = {
    "gd-delete-1e5": dict(n=2_000, p=10, iterations=40),
    "online-mixed-5k": dict(n=500, p=5, iterations=40, stream=20),
    "sgd-ridge-1e5": dict(n=4_000, p=10, iterations=300, batch=400),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep the run's files under tmp_path."""
    for name, fields in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **fields))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(workloads, "REPEAT_S", 0.2)


def run_bench(capsys, name, trace):
    assert bench.main(["--workload", name, "--seed", "5", "--seconds", "0.2",
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_its_unit(tiny, capsys, name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    section = declared["per_layer" if trace else "end_to_end"]
    record, result = run_bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert record["failed_ratio"] == 0
    assert record["seed"] == 5 and len(record["digest"]) == 16
    assert record["rounds"] == (1 if trace else workloads.ROUNDS)
    assert record["machine"]["x_bytes"] == 8 * TINY[name]["n"] * TINY[name]["p"]


def test_same_seed_gives_same_inputs():
    w = dataclasses.replace(workloads.WORKLOADS["online-mixed-5k"], **TINY["online-mixed-5k"])
    assert workloads.make_inputs(w, 7).digest == workloads.make_inputs(w, 7).digest
    assert workloads.make_inputs(w, 7).digest != workloads.make_inputs(w, 8).digest


def test_perturbed_result_counts_as_failed(tiny, capsys, monkeypatch):
    original = engine.unlearn_batch_gd

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        out.w_final = out.w_final + 0.05
        return out

    monkeypatch.setattr(engine, "unlearn_batch_gd", perturbed)
    record, result = run_bench(capsys, "gd-delete-1e5", 0)
    assert not result["correct"] and result["failed"] >= 2
    assert record["failed_ratio"] > 0
    assert any(f.startswith("r=0") for f in record["failures"])
    assert any("err_ratio" in f for f in record["failures"])


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "dgbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "dgbench/run.py", "--workload", "gd-delete-1e5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
