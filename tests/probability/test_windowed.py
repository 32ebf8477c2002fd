"""Windowed probability computation: a recorded horizon through the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.streaming import MatrixSource, StreamingEstimator


def _timeline(network, observations, window, stride=None):
    estimator = CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0))
    engine = StreamingEstimator(network, estimator, window=window, stride=stride)
    return engine.run(MatrixSource(observations).chunks())


@pytest.fixture
def timeline(fig1_case1, fig1_horizon):
    return _timeline(fig1_case1, fig1_horizon, 200)


def test_window_count_and_spans(timeline):
    assert len(timeline.windows) == 4
    assert timeline.window_spans() == [(0, 200), (200, 400), (400, 600), (600, 800)]


def test_link_series_tracks_level_shift(timeline):
    series = timeline.link_series(0)
    assert series.shape == (4,)
    # Quiet epochs first, busy epochs afterwards.
    assert series[0] == pytest.approx(0.1, abs=0.06)
    assert series[1] == pytest.approx(0.1, abs=0.06)
    assert series[2] == pytest.approx(0.7, abs=0.06)
    assert series[3] == pytest.approx(0.7, abs=0.06)


def test_change_point_detected(timeline):
    assert timeline.change_points(0, threshold=0.2) == [2]
    assert timeline.change_points(3, threshold=0.2) == []


def test_peer_series(timeline):
    # AS 0 contains only e1 in Case 1.
    series = timeline.peer_series(0)
    assert series[2] > series[0]
    with pytest.raises(EstimationError):
        timeline.peer_series(99)


def test_set_series(timeline):
    series = timeline.set_series([0])
    assert series.shape == (4,)


def test_stride_overlapping_windows(fig1_case1, fig1_horizon):
    timeline = _timeline(fig1_case1, fig1_horizon[:600], 200, stride=100)
    assert len(timeline.windows) == 5
    assert timeline.window_spans()[1] == (100, 300)


def test_validation(fig1_case1):
    observations = np.zeros((50, 3), dtype=bool)
    with pytest.raises(EstimationError):
        _timeline(fig1_case1, observations, 1)
    with pytest.raises(EstimationError):
        _timeline(fig1_case1, observations, 10, stride=0)


def test_horizon_shorter_than_window(fig1_case1):
    assert _timeline(fig1_case1, np.zeros((50, 3), dtype=bool), 200).windows == []


def test_unusable_windows_skipped(fig1_case1):
    # All congested (unusable), then all good (usable, an empty model).
    blocks = np.vstack([np.ones((100, 3), dtype=bool), np.zeros((100, 3), dtype=bool)])
    timeline = _timeline(fig1_case1, blocks, 100)
    assert timeline.window_spans() == [(100, 200)]
