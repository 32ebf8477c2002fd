"""PackedRingBuffer: append/eviction/window semantics vs dense reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError
from repro.streaming.buffer import PackedRingBuffer


def _random_horizon(rng, rounds, paths, density=0.3):
    return rng.random((rounds, paths)) < density


def test_validation():
    with pytest.raises(EstimationError):
        PackedRingBuffer(0)
    with pytest.raises(EstimationError):
        PackedRingBuffer(3, retention=0)
    ring = PackedRingBuffer(3)
    with pytest.raises(EstimationError):
        ring.append(np.zeros((4, 2), dtype=bool))
    with pytest.raises(EstimationError):
        ring.append(np.zeros(4, dtype=bool))


def test_append_and_full_view_matches_dense():
    rng = np.random.default_rng(0)
    horizon = _random_horizon(rng, 1000, 9)
    ring = PackedRingBuffer(9, retention=2048)
    pos = 0
    while pos < 1000:
        n = int(rng.integers(1, 100))
        ring.append(horizon[pos : pos + n])
        pos += n
    assert ring.end_interval == 1000
    assert ring.first_interval == 0
    assert len(ring) == 1000
    assert (ring.view().matrix == horizon).all()


def test_windows_match_dense_slices():
    rng = np.random.default_rng(1)
    horizon = _random_horizon(rng, 700, 5)
    ring = PackedRingBuffer(5, retention=1024)
    ring.append(horizon)
    for start, stop in [(0, 700), (0, 64), (64, 640), (13, 205), (699, 700),
                        (128, 128), (640, 700)]:
        window = ring.window(start, stop)
        assert window.num_intervals == stop - start
        assert (window.matrix == horizon[start:stop]).all(), (start, stop)


def test_word_aligned_windows_are_zero_copy():
    rng = np.random.default_rng(2)
    horizon = _random_horizon(rng, 512, 4)
    ring = PackedRingBuffer(4, retention=1024)
    ring.append(horizon[:500])
    aligned = ring.window(64, 448)
    assert np.shares_memory(aligned.words, ring._words)
    # Windows touching the partially-filled live-edge word are copies:
    # sharing that word with the writer would corrupt the view's counts
    # on the next append.
    live_edge = ring.window(128, 500)
    assert not np.shares_memory(live_edge.words, ring._words)
    unaligned = ring.window(13, 205)
    assert not np.shares_memory(unaligned.words, ring._words)


def test_live_edge_window_immutable_after_append():
    """Regression: a window ending mid-word must not see later appends."""
    ring = PackedRingBuffer(2, retention=1024)
    ring.append(np.zeros((10, 2), dtype=bool))
    view = ring.window(0, 10)
    assert view.path_congestion_frequency().tolist() == [0.0, 0.0]
    ring.append(np.ones((10, 2), dtype=bool))
    assert view.path_congestion_frequency().tolist() == [0.0, 0.0]
    assert view.all_good_frequency([0, 1]) == 1.0


def test_aligned_snapshot_views_survive_compaction():
    """Views alias old storage; compaction must never rewrite it."""
    rng = np.random.default_rng(3)
    horizon = _random_horizon(rng, 4000, 3)
    ring = PackedRingBuffer(3, retention=256)
    ring.append(horizon[:256])
    view = ring.window(64, 192)  # fully word-aligned: immutable snapshot
    expected = horizon[64:192].copy()
    ring.append(horizon[256:4000])  # forces evictions + compactions
    assert ring.compactions > 0
    assert (view.matrix == expected).all()


def test_eviction_bounds_retention_and_rejects_evicted_windows():
    rng = np.random.default_rng(4)
    horizon = _random_horizon(rng, 3000, 6)
    ring = PackedRingBuffer(6, retention=200)  # rounds up to 256
    assert ring.retention == 256
    pos = 0
    while pos < 3000:
        n = int(rng.integers(1, 70))
        ring.append(horizon[pos : pos + n])
        pos += n
        first, end = ring.first_interval, ring.end_interval
        assert end - first <= ring.retention
        assert first % 64 == 0
        assert (ring.view().matrix == horizon[first:end]).all()
    with pytest.raises(EstimationError):
        ring.window(0, 100)
    with pytest.raises(EstimationError):
        ring.window(ring.first_interval, ring.end_interval + 1)


def test_oversized_chunk_split():
    rng = np.random.default_rng(5)
    horizon = _random_horizon(rng, 2000, 2)
    ring = PackedRingBuffer(2, retention=128)
    ring.append(horizon)  # single append far beyond retention
    first, end = ring.first_interval, ring.end_interval
    assert end == 2000 and end - first <= ring.retention
    assert (ring.view().matrix == horizon[first:end]).all()


def test_snapshot_restore_round_trip():
    rng = np.random.default_rng(6)
    horizon = _random_horizon(rng, 900, 4)
    ring = PackedRingBuffer(4, retention=512)
    ring.append(horizon)
    words, first, end = ring.snapshot()
    restored = PackedRingBuffer.restore(words, first, end, retention=512)
    assert restored.first_interval == ring.first_interval
    assert restored.end_interval == ring.end_interval
    assert (restored.view().matrix == ring.view().matrix).all()
    # The restored ring keeps ingesting from where it left off.
    extra = _random_horizon(rng, 90, 4)
    restored.append(extra)
    tail = restored.window(end, end + 90)
    assert (tail.matrix == extra).all()


def test_restore_validation():
    with pytest.raises(EstimationError):
        PackedRingBuffer.restore(np.zeros((2, 1), np.uint64), 3, 70, 128)
    with pytest.raises(EstimationError):
        PackedRingBuffer.restore(np.zeros((2, 1), np.uint64), 0, 100, 128)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    retention=st.integers(65, 400),
    paths=st.integers(1, 8),
)
def test_property_random_chunking_matches_dense(seed, retention, paths):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(100, 1200))
    horizon = _random_horizon(rng, total, paths)
    ring = PackedRingBuffer(paths, retention=retention)
    pos = 0
    while pos < total:
        n = int(rng.integers(1, 97))
        ring.append(horizon[pos : pos + n])
        pos += n
    first, end = ring.first_interval, ring.end_interval
    assert end == total
    assert end - first <= ring.retention
    assert (ring.view().matrix == horizon[first:end]).all()
    # Random interior window
    if end - first > 2:
        lo = int(rng.integers(first, end - 1))
        hi = int(rng.integers(lo + 1, end + 1))
        assert (ring.window(lo, hi).matrix == horizon[lo:hi]).all()
