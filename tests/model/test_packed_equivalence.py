"""Packed observation words vs the dense reference: property tests.

The bit-packed ``uint64`` words are the one observation store; the dense
queries of :mod:`tests.dense_observations` are the executable
specification. These tests check that every frequency query matches the
reference bit for bit across randomized observation matrices (including
horizons that are not a multiple of 64, all-good and all-congested
extremes) and that interval slicing matches at arbitrary (word-aligned and
unaligned) offsets. The estimators' fits on these words are pinned by the
frozen digests of ``tests/probability/test_algorithm1_digests.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.packed import WORD_BITS, pack_bool_matrix, unpack_words
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.simulation.congestion import CongestionModel, Driver
from repro.simulation.probing import oracle_path_status
from tests import dense_observations as dense


def _random_matrices(seed: int, trials: int):
    """Randomized (T, paths) boolean matrices with deliberate edge cases."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        num_intervals = int(rng.integers(1, 400))
        num_paths = int(rng.integers(1, 30))
        kind = trial % 5
        if kind == 0:
            matrix = np.zeros((num_intervals, num_paths), dtype=bool)
        elif kind == 1:
            matrix = np.ones((num_intervals, num_paths), dtype=bool)
        elif kind == 2:
            # Horizon precisely off a word boundary.
            num_intervals = int(rng.integers(1, 7)) * WORD_BITS + int(
                rng.integers(1, WORD_BITS)
            )
            matrix = rng.random((num_intervals, num_paths)) < rng.random()
        else:
            matrix = rng.random((num_intervals, num_paths)) < rng.random()
        yield matrix


def _random_path_sets(rng, num_paths, count=12):
    sets = [[]]
    for _ in range(count):
        size = int(rng.integers(1, min(num_paths, 6) + 1))
        sets.append(sorted(rng.choice(num_paths, size=size, replace=False).tolist()))
    return sets


def test_pack_roundtrip_exact():
    rng = np.random.default_rng(0)
    for matrix in _random_matrices(seed=1, trials=40):
        words = pack_bool_matrix(matrix)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_words(words, matrix.shape[0]), matrix)


def test_query_equivalence_randomized():
    rng = np.random.default_rng(2)
    for matrix in _random_matrices(seed=3, trials=60):
        packed = ObservationMatrix(matrix)
        sets = _random_path_sets(rng, matrix.shape[1])
        reference = dense.all_good_frequencies(matrix, sets)
        np.testing.assert_array_equal(packed.all_good_frequencies(sets), reference)
        for path_set, expected in zip(sets, reference):
            assert packed.all_good_frequency(path_set) == expected
        frequency = dense.congestion_frequencies(matrix)
        np.testing.assert_array_equal(packed.path_congestion_frequency(), frequency)
        for tolerance in (0.0, 0.15):
            assert packed.always_good_paths(tolerance) == frozenset(
                np.flatnonzero(frequency <= tolerance).tolist()
            )
            assert packed.always_congested_paths(tolerance) == frozenset(
                np.flatnonzero(frequency >= 1.0 - tolerance).tolist()
            )
        interval = int(rng.integers(matrix.shape[0]))
        assert packed.congested_paths(interval) == frozenset(
            np.flatnonzero(matrix[interval]).tolist()
        )


def test_slice_equivalence_aligned_and_unaligned():
    rng = np.random.default_rng(4)
    matrix = rng.random((500, 17)) < 0.3
    packed = ObservationMatrix(matrix)
    windows = [(0, 64), (64, 192), (0, 500), (3, 130), (65, 100), (499, 500), (100, 100)]
    windows += [tuple(sorted(rng.integers(0, 501, size=2).tolist())) for _ in range(20)]
    for start, stop in windows:
        packed_window = packed.slice_intervals(start, stop)
        assert packed_window.num_intervals == stop - start
        if stop > start:
            assert np.array_equal(packed_window.matrix, matrix[start:stop])
            sets = _random_path_sets(rng, matrix.shape[1], count=6)
            np.testing.assert_array_equal(
                packed_window.all_good_frequencies(sets),
                dense.all_good_frequencies(matrix[start:stop], sets),
            )


def test_slice_out_of_range_rejected():
    obs = ObservationMatrix(np.zeros((10, 2), dtype=bool))
    with pytest.raises(IndexError):
        obs.slice_intervals(-1, 5)
    with pytest.raises(IndexError):
        obs.slice_intervals(0, 11)


def test_padding_bits_never_leak():
    # All-congested with T one past a word boundary: the 63 padding bits
    # must not count as good intervals.
    matrix = np.ones((WORD_BITS + 1, 3), dtype=bool)
    packed = ObservationMatrix(matrix)
    assert packed.all_good_frequency([0]) == 0.0
    assert packed.always_congested_paths() == frozenset({0, 1, 2})


@pytest.fixture(scope="module")
def fig_scenario_observations(request):
    """A Fig. 3/4-style simulated experiment on the toy topology."""
    from repro.topology.builders import fig1_topology

    network = fig1_topology(case=1)
    truth = CongestionModel(
        4,
        [
            Driver(probability=0.3, links=frozenset({1, 2})),
            Driver(probability=0.2, links=frozenset({0})),
        ],
    )
    states = truth.sample(3000, np.random.default_rng(11))
    return network, oracle_path_status(network, states)


def test_frequency_cache_counters_and_bound():
    from repro.probability.pipeline import FrequencyCache

    rng = np.random.default_rng(23)
    obs = ObservationMatrix(rng.random((200, 10)) < 0.3)
    cache = FrequencyCache(obs, max_entries=4)
    sets = [[0], [1], [2], [0, 1]]
    cache.query_many(sets)
    assert cache.misses == 4
    assert cache.hits == 0
    cache.query_many(sets)
    assert cache.hits == 4
    # Exceeding the bound evicts FIFO instead of growing without limit.
    cache([3])
    cache([4])
    assert cache.evictions == 2
    assert cache.hits == 4
    # The evicted oldest entry recomputes (a miss), fresh ones hit.
    cache([0])
    assert cache.misses == 7


def test_fit_report_exposes_cache_counters(fig_scenario_observations):
    network, observations = fig_scenario_observations
    model = CorrelationCompleteEstimator(
        EstimatorConfig(pruning_tolerance=0.0)
    ).fit(network, observations)
    report = model.report
    assert report.frequency_cache_misses > 0
    assert report.frequency_cache_hits > 0
