"""Tests for the loss model and packet-level probing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ScenarioError
from repro.simulation.loss import LossModel
from repro.simulation.probing import (
    EMIT_CHUNK_INTERVALS,
    PathProber,
    oracle_path_status,
)
from tests import dense_observations as dense

#: A horizon spanning two full emission chunks and part of a third.
CHUNKED_HORIZON = 2 * EMIT_CHUNK_INTERVALS + 100


def test_loss_ranges():
    model = LossModel(threshold=0.01)
    states = np.array([[False, True], [True, False]])
    loss = model.assign(states, 0)
    assert loss.shape == states.shape
    good = loss[~states]
    congested = loss[states]
    assert (good <= 0.01).all() and (good >= 0.0).all()
    assert (congested > 0.01).all() and (congested <= 1.0).all()


def test_loss_threshold_validation():
    with pytest.raises(ScenarioError):
        LossModel(threshold=0.0)
    with pytest.raises(ScenarioError):
        LossModel(threshold=1.0)


def test_path_good_threshold_duffield_rule():
    model = LossModel(threshold=0.01)
    assert model.path_good_threshold(1) == pytest.approx(0.01)
    assert model.path_good_threshold(3) == pytest.approx(1 - 0.99**3)
    with pytest.raises(ScenarioError):
        model.path_good_threshold(0)


def test_oracle_status_matches_separability(fig1_case1):
    # e1 congested -> p1, p2 congested, p3 good.
    states = np.array([[True, False, False, False]])
    obs = oracle_path_status(fig1_case1, states)
    assert obs.congested_paths(0) == frozenset({0, 1})


def test_oracle_all_good(fig1_case1):
    states = np.zeros((3, 4), dtype=bool)
    obs = oracle_path_status(fig1_case1, states)
    assert not obs.matrix.any()


def test_prober_validation():
    with pytest.raises(ScenarioError):
        PathProber(num_packets=0)


def test_prober_shape(fig1_case1):
    prober = PathProber(num_packets=200)
    states = np.zeros((5, 4), dtype=bool)
    obs = prober.observe(fig1_case1, states, 0)
    assert obs.matrix.shape == (5, 3)


def test_prober_rejects_wrong_width(fig1_case1):
    prober = PathProber(num_packets=200)
    with pytest.raises(ScenarioError):
        prober.observe(fig1_case1, np.zeros((5, 7), dtype=bool), 0)


def test_prober_detects_heavy_congestion(fig1_case1):
    # With e1 congested at high loss most intervals should flag p1 and p2.
    prober = PathProber(num_packets=2000)
    states = np.zeros((200, 4), dtype=bool)
    states[:, 0] = True
    obs = prober.observe(fig1_case1, states, 1)
    # Congested loss is drawn U(0.01, 1); most draws are far above the
    # detection threshold, so detection is frequent though not certain.
    assert obs.matrix[:, 0].mean() > 0.9
    assert obs.matrix[:, 1].mean() > 0.9


def test_prober_rarely_flags_good_paths(fig1_case1):
    prober = PathProber(num_packets=2000)
    states = np.zeros((300, 4), dtype=bool)
    obs = prober.observe(fig1_case1, states, 2)
    # False-positive rate must stay small with a healthy probe budget (it
    # cannot reach 0: good-link loss draws near f put the true path loss at
    # the detection threshold — the E2E Monitoring inaccuracy the paper
    # acknowledges).
    assert obs.matrix.mean() < 0.06


def test_prober_agrees_with_oracle_mostly(fig1_case1, fig1_model):
    states = fig1_model.sample(300, 5)
    oracle = oracle_path_status(fig1_case1, states).matrix
    probed = PathProber(num_packets=2000).observe(fig1_case1, states, 6).matrix
    agreement = (oracle == probed).mean()
    assert agreement > 0.93


def test_chunked_oracle_matches_unchunked(fig1_case1, fig1_model):
    """Oracle observations packed chunk by chunk equal one unchunked pass."""
    states = fig1_model.sample(CHUNKED_HORIZON, np.random.default_rng(5))
    observed = oracle_path_status(fig1_case1, states)
    expected = fig1_case1.incidence.path_status(states)
    assert observed.num_intervals == CHUNKED_HORIZON
    assert np.array_equal(observed.matrix, expected)
    sets = [[], [0], [1, 2], list(range(fig1_case1.num_paths))]
    np.testing.assert_array_equal(
        observed.all_good_frequencies(sets),
        dense.all_good_frequencies(expected, sets),
    )
    np.testing.assert_array_equal(
        observed.path_congestion_frequency(), dense.congestion_frequencies(expected)
    )
    # Word-aligned and unaligned windows straddling each chunk boundary.
    for boundary in (EMIT_CHUNK_INTERVALS, 2 * EMIT_CHUNK_INTERVALS):
        windows = ((boundary - 64, boundary + 64), (boundary - 70, boundary + 50))
        for start, stop in windows:
            np.testing.assert_array_equal(
                observed.slice_intervals(start, stop).all_good_frequencies(sets),
                dense.all_good_frequencies(expected[start:stop], sets),
            )


def test_chunked_prober_matches_session_chunks(fig1_case1, fig1_model):
    """A long probed horizon is the same-seed session's chunk draws."""
    states = fig1_model.sample(CHUNKED_HORIZON, np.random.default_rng(6))
    prober = PathProber(num_packets=50)
    observed = prober.observe(fig1_case1, states, random_state=7)
    assert observed.num_intervals == CHUNKED_HORIZON
    session = prober.session(fig1_case1, random_state=7)
    for start in range(0, CHUNKED_HORIZON, EMIT_CHUNK_INTERVALS):
        stop = min(start + EMIT_CHUNK_INTERVALS, CHUNKED_HORIZON)
        np.testing.assert_array_equal(
            observed.slice_intervals(start, stop).matrix,
            session.observe_chunk(states[start:stop]),
        )
