"""Online alerting: detectors, hysteresis, offline change-point parity."""

from __future__ import annotations

import pytest

from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.windowed import peer_link_members
from repro.streaming import (
    AlertManager,
    AlertPolicy,
    LevelShiftDetector,
    MatrixSource,
    StreamingEstimator,
    ThresholdDetector,
)
from repro.topology.builders import fig1_topology


# ----------------------------------------------------------------------
# Detector units
# ----------------------------------------------------------------------
def test_threshold_detector_hysteresis():
    detector = ThresholdDetector(high=0.5, low=0.3)
    assert detector.update(0.4) is None
    assert detector.update(0.6) == "raise"
    # Inside the hysteresis band: neither re-raise nor clear.
    assert detector.update(0.4) is None
    assert detector.update(0.55) is None
    assert detector.update(0.2) == "clear"
    assert detector.update(0.6) == "raise"


def test_threshold_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(high=1.5)
    with pytest.raises(ValueError):
        ThresholdDetector(high=0.4, low=0.5)
    with pytest.raises(ValueError):
        ThresholdDetector(high=0.5, low=-0.1)  # could never clear


def test_level_shift_detector_matches_change_points_semantics():
    series = [0.1, 0.12, 0.5, 0.52, 0.1, 0.11]
    detector = LevelShiftDetector(threshold=0.2)
    fired = [i for i, value in enumerate(series) if detector.update(value) is not None]
    expected = [
        i + 1
        for i in range(len(series) - 1)
        if abs(series[i + 1] - series[i]) > 0.2
    ]
    assert fired == expected == [2, 4]


def test_level_shift_detector_rearm_hysteresis():
    # Oscillating series: without rearm it flaps, with rearm one alert
    # per episode.
    series = [0.1, 0.5, 0.1, 0.5, 0.5, 0.5, 0.1]
    flapping = LevelShiftDetector(threshold=0.2)
    fired = [i for i, v in enumerate(series) if flapping.update(v) is not None]
    assert len(fired) == 4
    damped = LevelShiftDetector(threshold=0.2, rearm=0.1)
    fired = [i for i, v in enumerate(series) if damped.update(v) is not None]
    # Fires at the first jump, stays disarmed through the oscillation,
    # re-arms once the series settles at 0.5, fires on the drop back.
    assert fired == [1, 6]


def test_level_shift_detector_rearm_recovers_after_spike():
    """A one-window spike must not kill the detector permanently."""
    detector = LevelShiftDetector(threshold=0.25, rearm=0.05)
    series = [0.1, 0.6, 0.1, 0.1, 0.1, 0.9]
    fired = [i for i, v in enumerate(series) if detector.update(v) is not None]
    # Fires on the spike, re-arms once the series settles back at 0.1,
    # then catches the later genuine flash crowd.
    assert fired == [1, 5]
    assert detector._armed is False  # freshly disarmed by the last shift


def test_level_shift_detector_validation():
    with pytest.raises(ValueError):
        LevelShiftDetector(threshold=0.0)


# ----------------------------------------------------------------------
# Manager over a real streaming run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shifting_run(fig1_horizon):
    return fig1_topology(case=1), fig1_horizon


def test_manager_flags_the_flash_crowd(shifting_run):
    network, dense = shifting_run
    manager = AlertManager(
        network,
        AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2),
    )
    engine = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        window=200,
        alert_manager=manager,
    )
    engine.ingest(dense)
    kinds = {(a.kind, a.scope, a.target) for a in engine.alerts}
    # e0 (the shifting link, owned by AS 0) must raise both detector types.
    assert ("level_shift", "link", 0) in kinds
    assert ("threshold_raise", "peer", 0) in kinds
    shift = next(a for a in engine.alerts if a.kind == "level_shift")
    assert shift.window_index == 2  # busy epoch starts at window 2
    assert shift.value > shift.baseline
    assert "e0" in shift.message


def test_streaming_shifts_match_offline_change_points(shifting_run):
    """With rearm disabled, streaming level shifts == offline change_points."""
    network, dense = shifting_run
    offline = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        window=200,
    ).run(MatrixSource(dense).chunks())
    manager = AlertManager(
        network, AlertPolicy(peer_high=None, link_shift=0.2, rearm=None)
    )
    engine = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0)),
        window=200,
        alert_manager=manager,
    )
    engine.ingest(dense)
    for link in range(network.num_links):
        streamed = [
            a.window_index
            for a in engine.alerts
            if a.kind == "level_shift" and a.scope == "link" and a.target == link
        ]
        assert streamed == offline.change_points(link, threshold=0.2)


def test_peer_link_members_grouping(shifting_run):
    network, _ = shifting_run
    members = peer_link_members(network)
    assert set(members) == {link.asn for link in network.links}
    flattened = sorted(index for group in members.values() for index in group)
    assert flattened == list(range(network.num_links))
