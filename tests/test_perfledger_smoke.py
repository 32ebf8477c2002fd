"""Smoke runs of the performance ledger on tiny inputs.

The ledger (``perfledger/ledger.py``) wraps program-internal calls where
their callers look them up, e.g. ``null_space_update`` in
``repro.probability.correlation_complete``. A refactor that moves such a
call site makes the traced run fail or report zero calls; these runs catch
it in the test suite, not only when the benchmark runs. Every workload
runs once, and each asserts the wrappers its hot path must go through.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "perfledger" / "ledger.py"

#: Per workload: run seconds and the wrapped calls that must fire.
SMOKE_RUNS = {
    "fig4-grid": (2, ("linalg.null_space_update",)),
    "aslevel-10k": (2, ("linalg.null_space_update",)),
    "mitigation-loop": (
        4,
        ("mitigation.score", "probability.sampled_path_combinations"),
    ),
    "stream-monitor": (4, ("probability.sampled_path_combinations",)),
}


@pytest.mark.parametrize("workload", sorted(SMOKE_RUNS))
def test_traced_smoke_run(workload):
    seconds, wrapped = SMOKE_RUNS[workload]
    completed = subprocess.run(
        [
            sys.executable,
            str(LEDGER),
            f"--workload={workload}",
            "--seed=1",
            f"--seconds={seconds}",
            "--trace=1",
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stderr
    assert result["attempted"] > 0
    for name in wrapped:
        assert result["metrics"][f"{name}.calls_per_op"]["value"] > 0, name
