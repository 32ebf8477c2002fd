"""Streaming-vs-offline equivalence: the subsystem's defining invariant.

A :class:`StreamingEstimator` fed a horizon round by round must reproduce
the offline :class:`WindowedEstimator` timelines exactly — same window
spans, same link/set/peer series to 1e-9 (in practice bit-identical) —
across tumbling and overlapping strides and arbitrary ingest chunkings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.independence import IndependenceEstimator
from repro.probability.windowed import WindowedEstimator
from repro.simulation.congestion import CongestionModel, Driver, NonStationaryModel
from repro.simulation.probing import oracle_path_status
from repro.streaming import StreamingEstimator
from repro.topology.builders import fig1_topology


@pytest.fixture(scope="module")
def network():
    return fig1_topology(case=1)


@pytest.fixture(scope="module")
def horizon(network):
    """An 800-interval shifting horizon (quiet 400, busy 400) on Fig. 1."""
    quiet = CongestionModel(4, [Driver(0.1, frozenset({0}))])
    busy = CongestionModel(4, [Driver(0.7, frozenset({0}))])
    truth = NonStationaryModel([(quiet, 400), (busy, 400)])
    states = truth.sample(800, np.random.default_rng(4))
    return oracle_path_status(network, states).matrix


def _estimator():
    return CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0))


def _stream(network, dense, window, stride, chunks, **kwargs):
    engine = StreamingEstimator(
        network, _estimator(), window=window, stride=stride, **kwargs
    )
    pos = 0
    for n in chunks:
        engine.ingest(dense[pos : pos + n])
        pos += n
    assert pos == dense.shape[0]
    return engine


def _chunkings(total, seed):
    rng = np.random.default_rng(seed)
    round_by_round = [1] * total
    ragged = []
    pos = 0
    while pos < total:
        n = int(rng.integers(1, 97))
        n = min(n, total - pos)
        ragged.append(n)
        pos += n
    return {"round_by_round": round_by_round, "ragged": ragged, "bulk": [total]}


def _assert_timelines_match(network, offline, streaming, tol=1e-9):
    assert offline.window_spans() == streaming.window_spans()
    for link in range(network.num_links):
        np.testing.assert_allclose(
            streaming.link_series(link),
            offline.link_series(link),
            atol=tol,
            rtol=0,
        )
    np.testing.assert_allclose(
        streaming.set_series([0, 1]), offline.set_series([0, 1]), atol=tol, rtol=0
    )
    for asn in {link.asn for link in network.links}:
        np.testing.assert_allclose(
            streaming.peer_series(asn), offline.peer_series(asn), atol=tol, rtol=0
        )


@pytest.mark.parametrize("window,stride", [(200, 200), (200, 100), (150, 70)])
def test_streaming_matches_offline(network, horizon, window, stride):
    observations = ObservationMatrix(horizon)
    offline = WindowedEstimator(_estimator(), window=window, stride=stride).fit(
        network, observations
    )
    for label, chunks in _chunkings(horizon.shape[0], seed=window + stride).items():
        engine = _stream(network, horizon, window, stride, chunks)
        _assert_timelines_match(network, offline, engine.timeline, tol=1e-9)
        assert engine.refits == len(offline.windows), label


def test_streaming_matches_offline_other_estimator(network, horizon):
    """The engine is estimator-agnostic (Independence baseline)."""
    observations = ObservationMatrix(horizon)
    offline = WindowedEstimator(IndependenceEstimator(), window=200).fit(
        network, observations
    )
    engine = StreamingEstimator(network, IndependenceEstimator(), window=200)
    engine.ingest(horizon)
    _assert_timelines_match(network, offline, engine.timeline)


def test_warm_workload_does_not_change_results(network, horizon):
    """Prefetching is an amortisation, never a value change."""
    cold = StreamingEstimator(
        network, _estimator(), window=150, stride=70, workload_limit=0
    )
    warm = StreamingEstimator(network, _estimator(), window=150, stride=70)
    cold.ingest(horizon)
    warm.ingest(horizon)
    assert cold.timeline.window_spans() == warm.timeline.window_spans()
    for link in range(network.num_links):
        assert np.array_equal(
            cold.timeline.link_series(link), warm.timeline.link_series(link)
        )
    # The warm engine resolves the fit's queries from the prefetched
    # workload (hits), never computing more distinct sets than a cold
    # start — the per-window query set collapses into one batched kernel
    # call instead of being re-derived query by query during the fit.
    assert warm.cache_hits > cold.cache_hits
    assert warm.cache_misses <= cold.cache_misses


def test_refits_are_incremental_not_full_horizon(network, horizon):
    """Each refit touches one window, regardless of how much history exists."""
    engine = StreamingEstimator(network, _estimator(), window=150, stride=70)
    engine.ingest(horizon)
    # Every emitted window spans exactly `window` intervals; the engine
    # never fit anything wider than one window even though the stream was
    # > 5 windows long.
    for start, stop in engine.timeline.window_spans():
        assert stop - start == engine.window
    assert engine.refits == len(engine.timeline.windows)
    # One fit or skip per completed stride window, no more and no fewer.
    expected_windows = (horizon.shape[0] - engine.window) // engine.stride + 1
    assert engine.refits + engine.skipped_windows == expected_windows
    assert engine.refits > 0


def test_unusable_windows_skipped_like_offline(network):
    blocks = np.vstack([np.ones((100, 3), dtype=bool), np.zeros((100, 3), dtype=bool)])
    offline = WindowedEstimator(_estimator(), window=100).fit(
        network, ObservationMatrix(blocks)
    )
    engine = StreamingEstimator(network, _estimator(), window=100)
    engine.ingest(blocks)
    assert engine.timeline.window_spans() == offline.window_spans() == [(100, 200)]
    assert engine.skipped_windows == 1


def test_skipped_window_keeps_warm_workload(network, horizon):
    """One degenerate window must not cold-start the refits after it."""
    engine = StreamingEstimator(network, _estimator(), window=100)
    engine.ingest(horizon[:200])
    warm = list(engine._workload)
    assert warm
    engine.ingest(np.ones((100, network.num_paths), dtype=bool))  # skipped
    assert engine.skipped_windows == 1
    assert engine._workload == warm


def test_eviction_never_outruns_refit_cursor(network, horizon):
    """Tiny retention with bulk ingest still yields the full timeline."""
    offline = WindowedEstimator(_estimator(), window=100).fit(
        network, ObservationMatrix(horizon)
    )
    engine = StreamingEstimator(network, _estimator(), window=100, retention=100)
    engine.ingest(horizon)  # one giant chunk; engine must self-throttle
    _assert_timelines_match(network, offline, engine.timeline)


def test_engine_validation(network):
    with pytest.raises(EstimationError):
        StreamingEstimator(network, window=1)
    with pytest.raises(EstimationError):
        StreamingEstimator(network, window=10, stride=0)
    with pytest.raises(EstimationError):
        StreamingEstimator(network, workload_limit=-1)
    engine = StreamingEstimator(network)
    with pytest.raises(EstimationError):
        engine.ingest(np.zeros(5, dtype=bool))


def test_workload_tracks_fit_queries_not_prefetch_history(network, horizon):
    """The carried workload is what the last fit queried — stale sets drop."""
    engine = StreamingEstimator(network, _estimator(), window=150, stride=70)
    sizes = []
    for start in range(0, 800, 50):
        engine.ingest(horizon[start : start + 50])
        sizes.append(len(engine._workload))
    # Once windows repeat the same query pattern the workload stabilises
    # instead of monotonically accumulating every set ever prefetched.
    assert sizes[-1] <= max(sizes[:-1])
    cache_probe = {frozenset({0})}
    assert len(engine._workload) < 8192  # nowhere near the cap on fig1
    del cache_probe


def test_frequency_cache_touch_tracking_is_opt_in(network, horizon):
    """Offline fits must not accumulate a touched set (bounded-memory memo)."""
    from repro.probability.base import FrequencyCache

    cache = FrequencyCache(ObservationMatrix(horizon[:100]))
    cache(frozenset({0}))
    cache.query_many([frozenset({1}), frozenset({0, 1})])
    assert cache.touched_keys() == []  # tracking off by default
    cache.reset_touched()
    cache(frozenset({0}))
    assert cache.touched_keys() == [frozenset({0})]
    cache.reset_touched()
    assert cache.touched_keys() == []


def test_engine_leaves_estimator_stateless(network, horizon):
    """Cache injection flows through the fit context, never the estimator.

    The engine used to swap a mutable ``frequency_factory`` attribute on
    the estimator around every refit (stateful injection that could leak
    across fits); the pipeline's SharedFitWorkspace replaced it. The same
    estimator instance must therefore produce an untouched cold fit right
    after serving the engine.
    """
    import numpy as np

    from repro.probability.base import EstimatorConfig
    from repro.probability.correlation_complete import (
        CorrelationCompleteEstimator,
    )

    estimator = _estimator()
    assert not hasattr(estimator, "frequency_factory")
    engine = StreamingEstimator(network, estimator, window=200)
    engine.ingest(horizon[:400])
    observations = ObservationMatrix(horizon[:200])
    after_engine = estimator.fit(network, observations)
    fresh = CorrelationCompleteEstimator(
        EstimatorConfig(pruning_tolerance=0.0)
    ).fit(network, observations)
    assert np.array_equal(after_engine.link_marginals(), fresh.link_marginals())
    assert after_engine.report.frequency_cache_misses == (
        fresh.report.frequency_cache_misses
    )


def test_bounded_derived_state(network, horizon):
    """max_windows/max_alerts cap memory while keeping global numbering."""
    from repro.streaming import AlertManager, AlertPolicy

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
    engine.ingest(horizon)
    assert engine.windows_emitted > 3  # more emitted than retained
    assert len(engine.timeline.windows) == 3
    assert len(engine.alerts) <= 2
    # The retained tail is the newest windows, spans intact.
    spans = engine.timeline.window_spans()
    assert spans == sorted(spans)
    assert spans[-1][1] <= horizon.shape[0]
    with pytest.raises(EstimationError):
        StreamingEstimator(network, max_windows=0)
    with pytest.raises(EstimationError):
        StreamingEstimator(network, max_alerts=-1)


def test_run_from_chunk_iterator(network, horizon):
    engine = StreamingEstimator(network, _estimator(), window=200)
    chunks = (horizon[pos : pos + 33] for pos in range(0, 800, 33))
    timeline = engine.run(chunks, max_intervals=500)
    assert engine.intervals_ingested == 500
    assert timeline.window_spans() == [(0, 200), (200, 400)]
