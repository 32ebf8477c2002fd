"""Tests of the ledger itself.

* ``compare`` verdicts on synthetic run sets;
* a smoke run of every workload at tiny sizes, plain and traced, checked
  against ``BENCHMARK.json``;
* the loud failures: a missing wrapper target, and a checkout without the
  program's source.

Run with ``python3 -m pytest perfledger/test_ledger.py -q`` from the
repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ledger  # noqa: E402

BENCHMARK = ledger.load_benchmark()
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
NOISY = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]


def _scaled(values, factor):
    return [value * factor for value in values]


def test_identical_runs_are_unchanged():
    assert ledger.classify(PARENT, list(PARENT), 0.05, "lower") == ledger.UNCHANGED


def test_consistent_gain_is_better():
    change = _scaled(PARENT, 0.97)
    assert ledger.classify(PARENT, change, 0.05, "lower") == ledger.BETTER


def test_gain_within_parent_spread_is_unchanged():
    # Wins every pair, but by less than the parent's interquartile range.
    change = [value - 0.05 for value in PARENT]
    assert ledger.classify(PARENT, change, 0.05, "lower") == ledger.UNCHANGED


def test_slowdown_beyond_bound_is_worse():
    change = _scaled(PARENT, 1.08)
    assert ledger.classify(PARENT, change, 0.05, "lower") == ledger.WORSE
    assert ledger.classify(PARENT, change, 0.10, "lower") == ledger.UNCHANGED


def test_direction_follows_better():
    change = _scaled(PARENT, 1.08)
    assert ledger.classify(PARENT, change, 0.05, "higher") == ledger.BETTER


def test_spread_wider_than_bound_is_unresolved():
    change = _scaled(NOISY, 1.02)
    assert ledger.classify(NOISY, change, 0.05, "lower") == ledger.UNRESOLVED


def test_every_run_beating_every_run_overrides_spread():
    change = _scaled(NOISY, 0.5)
    assert ledger.classify(NOISY, change, 0.05, "lower") == ledger.BETTER


def test_more_failed_operations_is_worse():
    def run_set(values, failed):
        runs = [
            {
                "attempted": 100,
                "failed": failed,
                "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}},
            }
            for value in values
        ]
        return {"runs": {"fig4-grid": runs}}

    end_to_end = [{"name": "op_p50_ms", "bound": 0.05, "better": "lower"}]
    parent = run_set(PARENT, failed=0)
    change = run_set(_scaled(PARENT, 0.5), failed=1)
    rows = ledger.compare_sets(parent, change, end_to_end)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"op_p50_ms": ledger.BETTER, "fail_rate": ledger.WORSE}


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def _ledger(*args, script=HERE / "ledger.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(workload, trace):
    args = [f"--workload={workload}", "--seed=3", "--seconds=0.5", f"--trace={trace}"]
    completed = _ledger(*args, "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], completed.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, spec["name"]
    if trace:
        from workloads import WORKLOADS

        for name in WORKLOADS[workload].expected_calls:
            assert result["metrics"][f"{name}.calls_per_op"]["value"] > 0, name


def test_code_computes_exactly_the_listed_layer_metrics():
    from layers import Recorder, layer_metrics

    computed = set(layer_metrics(Recorder())) | {"obs.trace_overhead"}
    assert computed == {spec["name"] for spec in BENCHMARK["per_layer"]}


def test_missing_wrapper_target_fails_loudly():
    import repro.probability.base as base
    from layers import LedgerError, Recorder, instrument

    original = base.sampled_path_combinations
    present = ("repro.probability.base", "sampled_path_combinations", "a.span")
    missing = ("repro.probability.base", "no_such_function", "b.span")
    with pytest.raises(LedgerError, match="no_such_function"):
        with instrument(Recorder(), (present, missing)):
            pass
    assert base.sampled_path_combinations is original


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    args = ["--workload=fig4-grid", "--seed=1", "--seconds=1", "--trace=0"]
    completed = _ledger(*args, script=tmp_path / HERE.name / "ledger.py")
    assert completed.returncode != 0
    assert completed.stdout == ""
