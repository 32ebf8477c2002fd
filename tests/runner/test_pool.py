"""Unit tests for the sharded trial executor."""

from __future__ import annotations

import os
import time

import pytest

from repro.runner import (
    ShardReport,
    TrialError,
    TrialSpec,
    partition_specs,
    resolve_workers,
    run_trials,
)


def _spec(index, group=(), cost=1.0, **params):
    return TrialSpec(
        campaign="unit",
        topology="t",
        scenario=f"s{index}",
        estimator=f"e{index}",
        seeds=(42,),
        index=index,
        group=group,
        cost=cost,
        params=params,
    )


def echo_trial(spec, cache):
    """Pure trial: payload derived only from the spec."""
    return (spec.index, spec.scenario, sum(spec.seeds))


def cache_counting_trial(spec, cache):
    """Counts how many trials ran before it on the same shard."""
    count = cache.get("count", 0)
    cache["count"] = count + 1
    return count


def failing_trial(spec, cache):
    if spec.index == 2:
        raise ValueError("boom on index 2")
    return spec.index


def crashing_trial(spec, cache):
    if spec.params.get("crash"):
        os._exit(17)  # simulate a segfault: no Python traceback possible
    return spec.index


def sleeping_trial(spec, cache):
    time.sleep(spec.params.get("sleep", 0.0))
    return spec.index


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_uses_local_cpus(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestPartition:
    def test_groups_stay_together(self):
        specs = [_spec(i, group=("g", i % 2)) for i in range(6)]
        shards = partition_specs(specs, 2)
        assert len(shards) == 2
        for shard in shards:
            assert len({spec.group for spec in shard}) == 1

    def test_deterministic_and_complete(self):
        specs = [_spec(i, group=("g", i % 3), cost=1.0 + i) for i in range(9)]
        first = partition_specs(specs, 4)
        second = partition_specs(specs, 4)
        assert [[s.index for s in shard] for shard in first] == [
            [s.index for s in shard] for shard in second
        ]
        assert sorted(s.index for shard in first for s in shard) == list(range(9))

    def test_respects_shard_limit(self):
        specs = [_spec(i) for i in range(10)]
        assert len(partition_specs(specs, 3)) == 3
        # Never more shards than groups.
        assert len(partition_specs(specs[:2], 8)) == 2

    def test_costs_balance_loads(self):
        # One heavy group and three light ones over two shards: the heavy
        # group must sit alone.
        specs = [_spec(0, group=("heavy",), cost=10.0)] + [
            _spec(i, group=(f"light{i}",), cost=1.0) for i in range(1, 4)
        ]
        shards = partition_specs(specs, 2)
        heavy_shard = [s for s in shards if any(x.index == 0 for x in s)][0]
        assert len(heavy_shard) == 1


class TestRunTrials:
    def test_empty(self):
        assert run_trials(echo_trial, [], workers=1) == []

    def test_serial_results_in_index_order(self):
        specs = [_spec(i) for i in (3, 0, 2, 1)]
        results = run_trials(echo_trial, specs, workers=1)
        assert [r.spec.index for r in results] == [0, 1, 2, 3]
        assert [r.payload[0] for r in results] == [0, 1, 2, 3]

    def test_parallel_matches_serial(self):
        specs = [_spec(i, group=("g", i % 3)) for i in range(9)]
        serial = run_trials(echo_trial, specs, workers=1)
        parallel = run_trials(echo_trial, specs, workers=4)
        assert [r.payload for r in serial] == [r.payload for r in parallel]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_trials(echo_trial, [_spec(1), _spec(1)], workers=1)

    def test_shard_local_cache_is_shared_serially(self):
        specs = [_spec(i) for i in range(3)]
        results = run_trials(cache_counting_trial, specs, workers=1)
        # One shard, one cache: each trial sees its predecessors.
        assert [r.payload for r in results] == [0, 1, 2]

    def test_shard_local_cache_restarts_per_shard(self):
        specs = [_spec(i, group=("g", i % 2)) for i in range(6)]
        results = run_trials(cache_counting_trial, specs, workers=2)
        # Two shards of three trials each: counts restart per shard cache.
        assert sorted(r.payload for r in results) == [0, 0, 1, 1, 2, 2]

    def test_progress_reports(self):
        specs = [_spec(i, group=("g", i % 2)) for i in range(4)]
        reports = []
        run_trials(echo_trial, specs, workers=2, progress=reports.append)
        assert len(reports) == 2
        assert all(isinstance(r, ShardReport) for r in reports)
        seen = [name for r in reports for name, _ in r.trials]
        assert len(seen) == 4
        assert all("unit" in name for name in seen)
        assert all("shard" in r.describe() for r in reports)

    def test_trial_timing_recorded(self):
        results = run_trials(echo_trial, [_spec(0)], workers=1)
        assert results[0].elapsed >= 0.0
        assert results[0].worker_pid == os.getpid()


class TestFaultPaths:
    def test_serial_failure_names_the_trial(self):
        specs = [_spec(i) for i in range(4)]
        with pytest.raises(TrialError) as excinfo:
            run_trials(failing_trial, specs, workers=1)
        assert "unit / t / s2 / e2" in str(excinfo.value)
        assert excinfo.value.spec is not None
        assert excinfo.value.spec.index == 2
        assert "boom on index 2" in excinfo.value.traceback_text

    def test_parallel_failure_names_the_trial(self):
        specs = [_spec(i, group=("g", i)) for i in range(4)]
        with pytest.raises(TrialError) as excinfo:
            run_trials(failing_trial, specs, workers=2)
        assert excinfo.value.spec is not None
        assert excinfo.value.spec.index == 2
        assert "boom on index 2" in str(excinfo.value)

    def test_worker_death_surfaces_the_shard(self):
        specs = [_spec(0, group=("a",)), _spec(1, group=("b",), crash=True)]
        with pytest.raises(TrialError) as excinfo:
            run_trials(crashing_trial, specs, workers=2)
        assert "worker process died" in str(excinfo.value)
        assert "unit / t / s1 / e1" in str(excinfo.value)

    def test_timeout_does_not_hang(self):
        specs = [
            _spec(0, group=("fast",)),
            _spec(1, group=("slow",), sleep=1.5),
        ]
        start = time.monotonic()
        with pytest.raises(TrialError, match="timed out"):
            run_trials(sleeping_trial, specs, workers=2, timeout=0.3)
        assert time.monotonic() - start < 10.0
