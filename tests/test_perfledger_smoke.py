"""Smoke runs of the performance ledger on tiny inputs.

The ledger (``perfledger/ledger.py``) wraps program-internal calls where
their callers look them up, e.g. ``null_space_update`` in
``repro.probability.correlation_complete``. A refactor that moves such a
call site makes the traced run fail or report zero calls; these runs catch
it in the test suite, not only when the benchmark runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "perfledger" / "ledger.py"


@pytest.mark.parametrize("workload", ["fig4-grid", "aslevel-10k"])
def test_traced_smoke_run(workload):
    completed = subprocess.run(
        [
            sys.executable,
            str(LEDGER),
            f"--workload={workload}",
            "--seed=1",
            "--seconds=2",
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
    calls = result["metrics"]["linalg.null_space_update.calls_per_op"]["value"]
    assert calls > 0
