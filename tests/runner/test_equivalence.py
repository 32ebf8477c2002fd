"""Parallel runs must be bit-identical to serial runs, driver by driver.

The runner's core guarantee: a sweep's merged result is a pure function of
its trial specs, so ``workers=4`` (process-sharded) reproduces
``workers=1`` (serial, in-process) exactly, including the raw per-link
error arrays, not just summary statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablation import run_ablation
from repro.experiments.config import TINY
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.scaling import run_algorithm1_scaling


@pytest.fixture(scope="module")
def figure4_serial():
    return run_figure4(TINY, seed=2, workers=1)


@pytest.fixture(scope="module")
def figure4_parallel():
    return run_figure4(TINY, seed=2, workers=4)


def test_figure4_rows_bit_identical(figure4_serial, figure4_parallel):
    assert set(figure4_serial.rows) == set(figure4_parallel.rows)
    for key, serial in figure4_serial.rows.items():
        parallel = figure4_parallel.rows[key]
        assert serial.mean_absolute_error == parallel.mean_absolute_error
        assert np.array_equal(serial.errors, parallel.errors)
        assert serial.subset_mean_absolute_error == (
            parallel.subset_mean_absolute_error
        )
        assert serial.num_links_scored == parallel.num_links_scored


def test_figure4_panels_bit_identical(figure4_serial, figure4_parallel):
    assert figure4_serial.subset_rows == figure4_parallel.subset_rows
    assert figure4_serial.topology_stats == figure4_parallel.topology_stats
    assert figure4_serial.to_table("brite") == figure4_parallel.to_table("brite")
    assert figure4_serial.to_table("sparse") == figure4_parallel.to_table("sparse")


def test_figure3_bit_identical():
    serial = run_figure3(TINY, seed=1, workers=1)
    parallel = run_figure3(TINY, seed=1, workers=4)
    assert set(serial.rows) == set(parallel.rows)
    for key, metrics in serial.rows.items():
        assert metrics.detection_rate == parallel.rows[key].detection_rate
        assert (metrics.false_positive_rate == parallel.rows[key].false_positive_rate)
    assert serial.topology_stats == parallel.topology_stats


def test_ablation_bit_identical():
    serial = run_ablation(TINY, seed=5, workers=1)
    parallel = run_ablation(TINY, seed=5, workers=4)
    assert serial.errors == parallel.errors


def test_scaling_bit_identical():
    serial = run_algorithm1_scaling(TINY, seed=3, subset_sizes=[1, 2], workers=1)
    parallel = run_algorithm1_scaling(TINY, seed=3, subset_sizes=[1, 2], workers=2)
    assert serial.num_paths == parallel.num_paths
    for a, b in zip(serial.rows, parallel.rows):
        assert a.requested_subset_size == b.requested_subset_size
        assert a.num_unknowns == b.num_unknowns
        assert a.num_equations == b.num_equations
        assert a.rank == b.rank
        assert a.num_identifiable == b.num_identifiable


def test_workers_auto_matches_serial():
    """``workers=None`` (all local CPUs) is bit-identical too."""
    serial = run_algorithm1_scaling(TINY, seed=3, subset_sizes=[1], workers=1)
    auto = run_algorithm1_scaling(TINY, seed=3, subset_sizes=[1], workers=None)
    assert serial.rows[0].num_equations == auto.rows[0].num_equations
    assert serial.rows[0].rank == auto.rows[0].rank
