"""Tests of the benchmark itself.  The last two run every workload for real,
twice over, and take about four minutes on two cores:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())


def test_p90_needs_ten_samples_beyond_it():
    assert run._p90(range(99)) is None
    assert run._p90(range(100)) == 89


def test_layer_counts_must_repeat_and_times_take_the_median():
    first = {"qseries.mul.calls": [10, "count"], "qseries.mul.self_s": [1.0, "s"]}
    second = {"qseries.mul.calls": [10, "count"], "qseries.mul.self_s": [3.0, "s"]}
    layers, repeat = run._layers([first, second])
    assert repeat and layers["qseries.mul.self_s"] == [2.0, "s"]
    second["qseries.mul.calls"] = [11, "count"]
    assert not run._layers([first, second])[1]


def test_wall_sums_check_medians_rescaled_to_reference_speed():
    ref = run.REF_S
    passes = [
        {"checks": [["a", 1.0, True, ref], ["b", 2.0, True, 2 * ref]]},
        {"checks": [["a", 3.0, True, ref], ["b", 9.0, True, 2 * ref]]},
        {"checks": [["a", 2.0, True, 2 * ref], ["b", 4.0, True, 2 * ref]]},
    ]
    assert run._wall(passes, False) == 2.0 + 4.0
    assert run._wall(passes, True) == 1.0 + 2.0


def test_refuses_to_run_without_the_package(tmp_path):
    here = Path(run.__file__).parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_first_and_second_pass_record_identical_counts(workload):
    """Every pass runs in a fresh interpreter, so none reuses an earlier
    pass's cached lattice, code words or partner data: the first two traced
    passes must record the same per-layer counts."""
    summary = run.run_workload(workload, seed=1, seconds=0, trace=1, min_passes=2)
    assert summary["passes"] == 2
    assert summary["failed"] == 0, summary["failed_checks"]
    assert set(summary["layers"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_has_no_failures(workload):
    summary = run.run_workload(workload, seed=2, seconds=0, trace=0)
    assert summary["passes"] >= 1
    assert summary["failed"] == 0, summary["failed_checks"]
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
