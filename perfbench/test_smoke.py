"""Smoke test of the benchmark at miniature sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import scale  # noqa: E402
from worker import Loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MINI = {  # extent, chunk
    "scan_grid": (64, 16),
    "window_overlap": (32, 8),
    "ring_median": (32, 8),
    "subbox_mix": (128, 16),
}


def mini(name: str, pins=None):
    """The workload at a miniature size; the full-size pins do not apply."""
    extent, chunk = MINI[name]
    return replace(WORKLOADS[name], extent=extent, chunk=chunk, pins=pins or {})


def declared_units(kind: str) -> dict[str, str]:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_benchmark_json_names_known_workloads():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(MINI))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    line, _ = run.measure(mini(name), 3, 0.05, trace, tmp_path, traces=tmp_path)
    assert line["correct"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    assert emitted == declared_units("per_layer" if trace else "end_to_end")
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_query_times_are_scaled_by_the_calibrations_around_them():
    loop = Loop()
    loop.calibrate(0.0)
    loop.raw_times += [0.5, 1.5]
    loop.calibrate(0.0)
    factor = scale(*loop.calibrations)
    assert loop.times == [0.5 * factor, 1.5 * factor]


def test_corrupted_reference_trips_the_gate(tmp_path):
    def corrupt(refs):
        refs["q0"][0] += 0.5

    line, _ = run.measure(mini("window_overlap"), 3, 0.05, False, tmp_path, corrupt=corrupt)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]


def test_pinned_counter_drift_fails_without_failing_queries(tmp_path):
    workload = mini("ring_median", pins={"bytes_shuffled": 1})
    line, _ = run.measure(workload, 3, 0.05, False, tmp_path)
    assert not line["correct"]
    assert line["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", "scan_grid", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
