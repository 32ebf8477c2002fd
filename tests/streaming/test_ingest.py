"""Observation sources: prober streaming, replay, NDJSON round-trips."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.exceptions import ScenarioError
from repro.simulation.congestion import CongestionModel, Driver, NonStationaryModel
from repro.simulation.probing import (
    PathProber,
    StreamingProber,
    oracle_path_status,
)
from repro.streaming.ingest import (
    MatrixSource,
    NDJSONTraceSource,
    write_ndjson_trace,
)
from repro.topology.builders import fig1_topology


@pytest.fixture(scope="module")
def network():
    return fig1_topology(case=1)


@pytest.fixture(scope="module")
def truth():
    quiet = CongestionModel(4, [Driver(0.2, frozenset({0, 1}))])
    busy = CongestionModel(4, [Driver(0.6, frozenset({2}))])
    return NonStationaryModel([(quiet, 30), (busy, 45)])


# ----------------------------------------------------------------------
# Ground-truth streaming
# ----------------------------------------------------------------------
def test_sample_stream_matches_batch_sample(truth):
    batch = truth.sample(500, np.random.default_rng(9))
    stream = truth.sample_stream(13, np.random.default_rng(9))
    chunks = [next(stream) for _ in range(-(-500 // 13))]
    assert (np.vstack(chunks)[:500] == batch).all()


def test_sample_stream_validation(truth):
    with pytest.raises(ScenarioError):
        next(truth.sample_stream(0))


# ----------------------------------------------------------------------
# StreamingProber
# ----------------------------------------------------------------------
def test_streaming_oracle_chunk_size_invariance(network, truth):
    """Oracle rounds are chunking-invariant: same seed, any block size.

    The ground-truth substream is seeded independently of the chunk size
    and :meth:`sample_stream` carries epoch state across chunks, so the
    concatenated observation stream must not depend on how it was blocked.
    """
    prober_small = StreamingProber(network, truth, chunk_intervals=17)
    prober_large = StreamingProber(network, truth, chunk_intervals=300)
    small = np.vstack(list(prober_small.rounds(300, random_state=5)))
    large = np.vstack(list(prober_large.rounds(300, random_state=5)))
    assert small.shape == (300, network.num_paths)
    assert (small == large).all()
    # And the stream equals the oracle of the same derived state stream.
    seed_rng = np.random.default_rng(5)
    state_rng = np.random.default_rng(seed_rng.integers(0, 2**63 - 1))
    states = next(truth.sample_stream(300, state_rng))
    assert (large == oracle_path_status(network, states).matrix).all()


def test_streaming_prober_deterministic_and_bounded(network, truth):
    prober = StreamingProber(
        network, truth, prober=PathProber(num_packets=500), chunk_intervals=16
    )
    first = list(prober.rounds(100, random_state=3))
    second = list(prober.rounds(100, random_state=3))
    assert sum(chunk.shape[0] for chunk in first) == 100
    assert first[-1].shape[0] == 100 % 16 or first[-1].shape[0] == 16
    for a, b in zip(first, second):
        assert (a == b).all()


def test_streaming_prober_validation(network, truth):
    with pytest.raises(ScenarioError):
        StreamingProber(network, truth, chunk_intervals=0)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
def test_matrix_source_round_trip(network, truth):
    states = truth.sample(120, np.random.default_rng(8))
    observations = oracle_path_status(network, states)
    source = MatrixSource(observations, chunk_intervals=50)
    replayed = np.vstack(list(source.chunks()))
    assert (replayed == observations.matrix).all()
    with pytest.raises(ScenarioError):
        MatrixSource(observations, chunk_intervals=0)
    with pytest.raises(ScenarioError):
        MatrixSource(np.zeros(4, dtype=bool))


def test_ndjson_round_trip(network, truth, tmp_path):
    states = truth.sample(150, np.random.default_rng(2))
    observations = oracle_path_status(network, states)
    trace = tmp_path / "campaign.ndjson"
    written = write_ndjson_trace(trace, observations)
    assert written == 150
    source = NDJSONTraceSource(trace, chunk_intervals=40)
    assert source.num_paths == network.num_paths
    replayed = np.vstack(list(source.chunks()))
    assert (replayed == observations.matrix).all()
    # Replays are repeatable (the file is re-read lazily each time).
    replayed_again = np.vstack(list(source.chunks()))
    assert (replayed_again == replayed).all()


def test_ndjson_write_from_chunks(tmp_path):
    chunks = [
        np.array([[0, 1, 0], [1, 0, 0]], dtype=bool),
        np.array([[0, 0, 1]], dtype=bool),
    ]
    trace = tmp_path / "stream.ndjson"
    assert write_ndjson_trace(trace, iter(chunks), num_paths=3) == 3
    replayed = np.vstack(list(NDJSONTraceSource(trace, 2).chunks()))
    assert (replayed == np.vstack(chunks)).all()
    with pytest.raises(ScenarioError):
        write_ndjson_trace(trace, iter(chunks))  # num_paths required


def test_ndjson_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"type": "round", "congested": []}\n')
    with pytest.raises(ScenarioError):
        NDJSONTraceSource(bad)
    worse = tmp_path / "worse.ndjson"
    worse.write_text(
        '{"type": "header", "num_paths": 2}\n'
        '{"type": "round", "congested": [5]}\n'
    )
    with pytest.raises(ScenarioError):
        list(NDJSONTraceSource(worse).chunks())


_HEADER = b'{"type": "header", "num_paths": 2}\n'


@pytest.mark.parametrize(
    "content,line",
    [
        (b"", 1),
        (_HEADER + b'{"type": "round", "congested": [1', 2),
        (_HEADER + b'{"type": "round", "congested": []}\n\xff\xfe\n', 3),
        (b'["header", 2]\n', 1),
        (_HEADER + b'["round", [1]]\n', 2),
        (_HEADER + b'{"type": "round", "congested": ["a"]}\n', 2),
        (b'{"type": "header", "num_paths": -2}\n', 1),
        (b'{"type": "header", "num_paths": 10000000000000}\n', 1),
    ],
    ids=[
        "empty-file",
        "truncated-last-line",
        "non-utf8",
        "list-header",
        "list-record",
        "non-integer-index",
        "negative-num-paths",
        "oversized-num-paths",
    ],
)
def test_ndjson_hostile_trace_names_its_line(tmp_path, content, line):
    """Every malformed trace fails typed, naming ``path:line``."""
    trace = tmp_path / "hostile.ndjson"
    trace.write_bytes(content)
    with pytest.raises(ScenarioError, match=re.escape(f"{trace}:{line}:")):
        list(NDJSONTraceSource(trace).chunks())
