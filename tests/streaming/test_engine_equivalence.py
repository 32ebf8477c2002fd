"""The streaming engine's timeline against the offline window loop.

A :class:`StreamingEstimator` fed a fig1_horizon in any chunking must emit
exactly the timeline of fitting every window's slice in turn
(``tests/reference_windows.py``): the same window spans and bit-identical
link marginals, across tumbling, overlapping and gapped strides, word-
aligned and unaligned window starts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.independence import IndependenceEstimator
from repro.probability.pipeline import FrequencyCache
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.streaming.engine import MAX_WINDOW_INTERVALS
from repro.topology.builders import fig1_topology
from tests.reference_windows import reference_timeline


@pytest.fixture(scope="module")
def network():
    return fig1_topology(case=1)


def _estimator():
    return CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0))


def _stream(network, estimator, dense, window, stride, sizes):
    engine = StreamingEstimator(network, estimator, window=window, stride=stride)
    bounds = np.cumsum([0, *sizes])
    engine.run(dense[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
    return engine


def _ragged(total, seed, largest=96):
    sizes = np.random.default_rng(seed).integers(1, largest + 1, size=total)
    cut = np.searchsorted(np.cumsum(sizes), total)
    return [*sizes[:cut].tolist(), total - int(sizes[:cut].sum())]


def _assert_same_timeline(actual, expected):
    assert actual.window_spans() == expected.window_spans()
    for got, want in zip(actual.windows, expected.windows):
        assert np.array_equal(got.model.link_marginals(), want.model.link_marginals())


@pytest.mark.parametrize("window,stride", [(200, 200), (200, 100), (150, 70)])
def test_streaming_matches_offline(network, fig1_horizon, window, stride):
    expected = reference_timeline(
        _estimator(), network, ObservationMatrix(fig1_horizon), window, stride
    )
    total = fig1_horizon.shape[0]
    for sizes in ([1] * total, _ragged(total, window + stride), [total]):
        engine = _stream(network, _estimator(), fig1_horizon, window, stride, sizes)
        _assert_same_timeline(engine.timeline, expected)
        assert engine.refits == len(expected.windows)


def test_streaming_matches_offline_other_estimator(network, fig1_horizon):
    """The engine is estimator-agnostic (Independence baseline)."""
    expected = reference_timeline(
        IndependenceEstimator(), network, ObservationMatrix(fig1_horizon), 200, 200
    )
    engine = StreamingEstimator(network, IndependenceEstimator(), window=200)
    engine.ingest(fig1_horizon)
    _assert_same_timeline(engine.timeline, expected)


@settings(max_examples=12, deadline=None)
@example(window=150, stride=97, chunk_seed=0)  # unaligned window starts
@example(window=128, stride=64, chunk_seed=1)  # word-aligned windows
@given(
    window=st.integers(2, 300),
    stride=st.integers(1, 300),
    chunk_seed=st.integers(0, 2**32 - 1),
)
def test_any_geometry_and_chunking_matches_reference(
    network, fig1_horizon, window, stride, chunk_seed
):
    observations = ObservationMatrix(fig1_horizon)
    independence = IndependenceEstimator()
    expected = reference_timeline(independence, network, observations, window, stride)
    sizes = _ragged(fig1_horizon.shape[0], chunk_seed, largest=2 * window)
    engine = _stream(network, independence, fig1_horizon, window, stride, sizes)
    _assert_same_timeline(engine.timeline, expected)


def test_warm_workload_does_not_change_results(network, fig1_horizon):
    """Prefetching is an amortisation, never a value change."""
    cold = reference_timeline(
        _estimator(), network, ObservationMatrix(fig1_horizon), 150, 70
    )
    warm = StreamingEstimator(network, _estimator(), window=150, stride=70)
    warm.ingest(fig1_horizon)
    _assert_same_timeline(warm.timeline, cold)
    # The warm engine resolves the fit's queries from the prefetched
    # workload (hits), never computing more distinct sets than cold fits
    # — the per-window query set collapses into one batched kernel call
    # instead of being re-derived query by query during the fit.
    reports = [window.model.report for window in cold.windows]
    assert warm.cache_hits > sum(r.frequency_cache_hits for r in reports)
    assert warm.cache_misses <= sum(r.frequency_cache_misses for r in reports)


def test_refits_are_incremental_not_full_horizon(network, fig1_horizon):
    """Each refit touches one window, regardless of how much history exists."""
    engine = StreamingEstimator(network, _estimator(), window=150, stride=70)
    engine.ingest(fig1_horizon)
    # Every emitted window spans exactly `window` intervals; the engine
    # never fit anything wider than one window even though the stream was
    # > 5 windows long.
    for start, stop in engine.timeline.window_spans():
        assert stop - start == engine.window
    assert engine.refits == len(engine.timeline.windows)
    # One fit or skip per completed stride window, no more and no fewer.
    expected_windows = (fig1_horizon.shape[0] - engine.window) // engine.stride + 1
    assert engine.refits + engine.skipped_windows == expected_windows
    assert engine.refits > 0


def test_unusable_windows_skipped_like_offline(network):
    blocks = np.vstack([np.ones((100, 3), dtype=bool), np.zeros((100, 3), dtype=bool)])
    expected = reference_timeline(
        _estimator(), network, ObservationMatrix(blocks), 100, 100
    )
    engine = StreamingEstimator(network, _estimator(), window=100)
    engine.ingest(blocks)
    assert engine.timeline.window_spans() == expected.window_spans() == [(100, 200)]
    assert engine.skipped_windows == 1


def test_skipped_window_keeps_warm_workload(network, fig1_horizon):
    """One degenerate window must not cold-start the refits after it."""
    engine = StreamingEstimator(network, _estimator(), window=100)
    engine.ingest(fig1_horizon[:200])
    warm = list(engine._workload)
    assert warm
    engine.ingest(np.ones((100, network.num_paths), dtype=bool))  # skipped
    assert engine.skipped_windows == 1
    assert engine._workload == warm


def test_eviction_never_outruns_refit_cursor(network, fig1_horizon):
    """A bulk chunk far beyond the ring's retention yields the full timeline."""
    expected = reference_timeline(
        _estimator(), network, ObservationMatrix(fig1_horizon), 100, 100
    )
    engine = StreamingEstimator(network, _estimator(), window=100)
    assert engine.buffer.retention < fig1_horizon.shape[0]
    engine.ingest(fig1_horizon)  # one giant chunk; engine must self-throttle
    _assert_same_timeline(engine.timeline, expected)


def test_engine_validation(network):
    with pytest.raises(EstimationError):
        StreamingEstimator(network, window=1)
    with pytest.raises(EstimationError):
        StreamingEstimator(network, window=10, stride=0)
    # An oversized geometry fails typed before its ring is allocated.
    with pytest.raises(EstimationError, match="^window must be at most"):
        StreamingEstimator(network, window=MAX_WINDOW_INTERVALS + 1, stride=1)
    with pytest.raises(EstimationError, match="^stride must be at most"):
        StreamingEstimator(network, window=10, stride=10**13)
    engine = StreamingEstimator(network)
    with pytest.raises(EstimationError):
        engine.ingest(np.zeros(5, dtype=bool))


def test_workload_tracks_fit_queries_not_prefetch_history(network, fig1_horizon):
    """The carried workload is what the last fit queried — stale sets drop."""
    engine = StreamingEstimator(network, _estimator(), window=150, stride=70)
    sizes = []
    for start in range(0, 800, 50):
        engine.ingest(fig1_horizon[start : start + 50])
        sizes.append(len(engine._workload))
    # Once windows repeat the same query pattern the workload stabilises
    # instead of monotonically accumulating every set ever prefetched.
    assert sizes[-1] <= max(sizes[:-1])
    assert len(engine._workload) < 8192  # nowhere near the cap on fig1


def test_frequency_cache_touch_tracking_is_opt_in(network, fig1_horizon):
    """Offline fits must not accumulate a touched set (bounded-memory memo)."""
    cache = FrequencyCache(ObservationMatrix(fig1_horizon[:100]))
    cache(frozenset({0}))
    cache.query_many([frozenset({1}), frozenset({0, 1})])
    assert cache.touched_keys() == []  # tracking off by default
    cache.reset_touched()
    cache(frozenset({0}))
    assert cache.touched_keys() == [frozenset({0})]
    cache.reset_touched()
    assert cache.touched_keys() == []


def test_engine_leaves_estimator_stateless(network, fig1_horizon):
    """Cache injection flows through the fit context, never the estimator:
    the same estimator instance gives an untouched cold fit right after
    serving the engine."""
    estimator = _estimator()
    assert not hasattr(estimator, "frequency_factory")
    engine = StreamingEstimator(network, estimator, window=200)
    engine.ingest(fig1_horizon[:400])
    observations = ObservationMatrix(fig1_horizon[:200])
    after_engine = estimator.fit(network, observations)
    fresh = _estimator().fit(network, observations)
    assert np.array_equal(after_engine.link_marginals(), fresh.link_marginals())
    assert after_engine.report.frequency_cache_misses == (
        fresh.report.frequency_cache_misses
    )


def test_bounded_derived_state(network, fig1_horizon):
    """max_windows/max_alerts cap memory while keeping global numbering."""
    engine = StreamingEstimator(
        network,
        _estimator(),
        window=150,
        stride=70,
        max_windows=3,
        max_alerts=2,
        alert_manager=AlertManager(
            network, AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2)
        ),
    )
    engine.ingest(fig1_horizon)
    assert engine.windows_emitted > 3  # more emitted than retained
    assert len(engine.timeline.windows) == 3
    assert len(engine.alerts) <= 2
    # The retained tail is the newest windows, spans intact.
    spans = engine.timeline.window_spans()
    assert spans == sorted(spans)
    assert spans[-1][1] <= fig1_horizon.shape[0]
    with pytest.raises(EstimationError):
        StreamingEstimator(network, max_windows=0)
    with pytest.raises(EstimationError):
        StreamingEstimator(network, max_alerts=-1)


def test_run_from_chunk_iterator(network, fig1_horizon):
    engine = StreamingEstimator(network, _estimator(), window=200)
    timeline = engine.run(fig1_horizon[pos : pos + 33] for pos in range(0, 500, 33))
    assert engine.intervals_ingested == 528
    assert timeline.window_spans() == [(0, 200), (200, 400)]
