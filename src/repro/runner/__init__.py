"""Parallel campaign execution: sharded sweeps with a deterministic merge.

The paper's sweeps are embarrassingly parallel over
(topology, scenario, estimator, seed); this package decomposes them into
independent :class:`TrialSpec` cells, shards the cells across a process
pool, and merges worker results in canonical order so parallel runs are
bit-identical to serial ones. See :mod:`repro.runner.pool` for the
execution model and :mod:`repro.runner.campaign` for named campaigns,
JSON sweep specs, and on-disk results.
"""

from repro.runner.pool import (
    ProgressFn,
    ShardReport,
    TrialFn,
    partition_specs,
    resolve_workers,
    run_trials,
)
from repro.runner.spec import TrialError, TrialResult, TrialSpec

__all__ = [
    "ProgressFn",
    "ShardReport",
    "TrialError",
    "TrialFn",
    "TrialResult",
    "TrialSpec",
    "partition_specs",
    "resolve_workers",
    "run_trials",
]
