"""Test-local offline window loop, the oracle for the streaming engine."""

from __future__ import annotations

from repro.exceptions import EstimationError
from repro.probability.windowed import CongestionTimeline, WindowEstimate


def reference_timeline(estimator, network, observations, window, stride):
    """Fit ``observations.slice_intervals(start, start + window)`` for each
    start ``0, stride, ...``, skipping windows whose fit raises."""
    timeline = CongestionTimeline(network=network)
    for start in range(0, observations.num_intervals - window + 1, stride):
        window_observations = observations.slice_intervals(start, start + window)
        try:
            model = estimator.fit(network, window_observations)
        except EstimationError:
            continue
        timeline.windows.append(WindowEstimate(start, start + window, model))
    return timeline
