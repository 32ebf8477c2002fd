"""Checkpoint/restore: a restarted monitor continues the stream exactly."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import EstimationError
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.streaming.checkpoint import (
    checkpoint_state,
    restore_engine,
    save_checkpoint,
)
from repro.topology.builders import fig1_topology


@pytest.fixture(scope="module")
def setup(fig1_horizon):
    return fig1_topology(case=1), fig1_horizon


def _complete():
    return CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0))


def _engine(network, with_alerts=True):
    manager = (
        AlertManager(network, AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2))
        if with_alerts
        else None
    )
    return StreamingEstimator(
        network, _complete(), window=150, stride=70, alert_manager=manager
    )


def test_restart_resumes_identically(setup, tmp_path):
    network, dense = setup
    uninterrupted = _engine(network)
    uninterrupted.ingest(dense)

    interrupted = _engine(network)
    interrupted.ingest(dense[:430])
    path = save_checkpoint(interrupted, tmp_path / "monitor.json")
    resumed = restore_engine(
        path,
        network,
        _complete(),
        alert_manager=AlertManager(
            network, AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2)
        ),
    )
    assert resumed.intervals_ingested == 430
    assert resumed.next_window_start == interrupted.next_window_start
    resumed.ingest(dense[430:])

    spans = (interrupted.timeline.window_spans() + resumed.timeline.window_spans())
    assert spans == uninterrupted.timeline.window_spans()
    for full, part in zip(
        uninterrupted.timeline.windows,
        interrupted.timeline.windows + resumed.timeline.windows,
    ):
        for link in range(network.num_links):
            assert full.model.link_congestion_probability(
                link
            ) == part.model.link_congestion_probability(link)
    # Alerts continue with the same identities and *global* window indices:
    # detector hysteresis and numbering survive the restart.
    full_alerts = [
        (a.kind, a.scope, a.target, a.window_index)
        for a in uninterrupted.alerts
    ]
    split_alerts = [
        (a.kind, a.scope, a.target, a.window_index)
        for a in interrupted.alerts + resumed.alerts
    ]
    assert full_alerts == split_alerts


def test_checkpoint_preserves_counters_and_workload(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:430])
    state = checkpoint_state(engine)
    resumed = restore_engine(state, network, _complete())
    assert resumed.refits == engine.refits
    assert resumed.cache_hits == engine.cache_hits
    assert resumed.cache_misses == engine.cache_misses
    assert resumed._workload == engine._workload
    assert (resumed.buffer.view().matrix == engine.buffer.view().matrix).all()


def test_checkpoint_is_json_and_portable(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:430])
    path = save_checkpoint(engine, tmp_path / "state.json")
    document = json.loads(path.read_text())
    assert document["version"] == 1
    assert document["num_paths"] == network.num_paths
    assert isinstance(document["ring"]["words"], str)  # base64, not binary


def test_window_numbering_survives_repeated_restores(setup, tmp_path):
    """Alert window indices stay global across checkpoint generations."""
    network, dense = setup
    uninterrupted = _engine(network)
    uninterrupted.ingest(dense)

    engine = _engine(network)
    engine.ingest(dense[:300])
    alerts = list(engine.alerts)
    for boundary in (550, 800):  # two restart generations
        state = checkpoint_state(engine)
        engine = restore_engine(
            state,
            network,
            _complete(),
            alert_manager=AlertManager(
                network,
                AlertPolicy(peer_high=0.5, peer_low=0.4, link_shift=0.2),
            ),
        )
        start = engine.intervals_ingested
        engine.ingest(dense[start:boundary])
        alerts.extend(engine.alerts)
    assert engine.windows_emitted == uninterrupted.windows_emitted
    assert [(a.kind, a.scope, a.target, a.window_index) for a in alerts] == [
        (a.kind, a.scope, a.target, a.window_index)
        for a in uninterrupted.alerts
    ]


def test_restore_applies_new_alert_policy_to_old_targets(setup):
    """Thresholds are config, not state: a restart picks up policy changes."""
    network, dense = setup
    engine = _engine(network)  # peer_high=0.5
    engine.ingest(dense[:300])
    assert engine.alert_manager._peer_threshold  # targets seen pre-restart
    state = checkpoint_state(engine)
    raised_policy = AlertPolicy(peer_high=0.9, peer_low=0.8, link_shift=0.2)
    resumed = restore_engine(
        state,
        network,
        _complete(),
        alert_manager=AlertManager(network, raised_policy),
    )
    manager = resumed.alert_manager
    for target, detector in manager._peer_threshold.items():
        assert detector.high == 0.9, target  # new policy, old target
        # ... while the hysteresis state survived the restart.
        assert detector.active == engine.alert_manager._peer_threshold[target].active


def test_checkpoint_preserves_resource_bounds(setup):
    network, dense = setup
    engine = StreamingEstimator(
        network, _complete(), window=150, stride=70, max_windows=3, max_alerts=2
    )
    engine.ingest(dense[:300])
    resumed = restore_engine(checkpoint_state(engine), network, _complete())
    assert resumed.max_windows == 3
    assert resumed.max_alerts == 2


def test_restore_rejects_estimator_mismatch(setup):
    from repro.probability.independence import IndependenceEstimator

    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:200])
    state = checkpoint_state(engine)
    with pytest.raises(EstimationError):
        restore_engine(state, network, IndependenceEstimator())


def test_restore_validates_structure(setup, tmp_path):
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:200])
    state = checkpoint_state(engine)

    wrong_version = dict(state, version=99)
    with pytest.raises(EstimationError):
        restore_engine(wrong_version, network)

    wrong_paths = dict(state, num_paths=state["num_paths"] + 1)
    with pytest.raises(EstimationError):
        restore_engine(wrong_paths, network)

    wrong_links = dict(state, num_links=state["num_links"] + 1)
    with pytest.raises(EstimationError):
        restore_engine(wrong_links, network)


@pytest.mark.parametrize("kernel", [None, "numpy", "numba", "simd"])
def test_legacy_kernel_field_is_ignored(setup, kernel):
    """Fields older versions wrote still restore, and are ignored: a kernel
    pin, the ring retention (now set by the geometry) and the workload cap
    (now a constant)."""
    network, dense = setup
    engine = _engine(network, with_alerts=False)
    engine.ingest(dense[:300])
    state = checkpoint_state(engine)
    assert not {"kernel", "retention", "workload_limit"} & set(state)
    legacy = {**state, "kernel": kernel, "retention": 10**13, "workload_limit": 0}
    restored = restore_engine(legacy, network, _complete())
    assert restored.next_window_start == engine.next_window_start
    assert restored._workload == engine._workload
    assert restored.buffer.retention == engine.buffer.retention


@pytest.fixture(scope="module")
def document(setup):
    """A valid checkpoint of an alerting engine whose ring holds [320, 650)."""
    network, dense = setup
    engine = _engine(network)
    engine.ingest(dense[:650])
    return json.loads(json.dumps(checkpoint_state(engine)))


def _hostile(state, case):
    """One hostile variant of a valid checkpoint, and the text naming it."""
    ring, cursor = state["ring"], "'next_window_start'"
    without_ring = {key: value for key, value in state.items() if key != "ring"}
    return {
        "missing ring": (without_ring, "'ring'"),
        "ring not an object": (dict(state, ring=[1, 2]), "'ring'"),
        "bad base64": (dict(state, ring=dict(ring, words="@@not base64@@")), "words"),
        "num_words mismatch": (
            dict(state, ring=dict(ring, num_words=ring["num_words"] + 1)),
            "num_words",
        ),
        "non-numeric window": (dict(state, window="abc"), "'window'"),
        "null stride": (dict(state, stride=None), "'stride'"),
        "window too large": (dict(state, window=10**13), "window must be at most"),
        "stride too large": (dict(state, stride=10**13), "stride must be at most"),
        "cursor before the ring": (dict(state, next_window_start=0), cursor),
        "cursor past the stream": (dict(state, next_window_start=10**12), cursor),
        "workload not path sets": (dict(state, workload=[[0], 5]), "'workload'"),
        "workload outside the network": (
            dict(state, workload=[[state["num_paths"]]]),
            "'workload'",
        ),
        "counters as a list": (dict(state, counters=[1]), "'counters'"),
        "alerts missing fields": (
            dict(state, alerts={"peer_threshold": {"0": {}}}),
            "'alerts'",
        ),
        "document is a list": ([state], "JSON object"),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "missing ring",
        "ring not an object",
        "bad base64",
        "num_words mismatch",
        "non-numeric window",
        "null stride",
        "window too large",
        "stride too large",
        "cursor before the ring",
        "cursor past the stream",
        "workload not path sets",
        "workload outside the network",
        "counters as a list",
        "alerts missing fields",
        "document is a list",
    ],
)
def test_restore_rejects_hostile_documents(setup, document, case):
    network, _ = setup
    hostile, needle = _hostile(document, case)
    with pytest.raises(EstimationError, match=needle):
        restore_engine(
            hostile,
            network,
            _complete(),
            alert_manager=AlertManager(network, AlertPolicy(peer_high=0.5)),
        )


@pytest.mark.parametrize(
    "content",
    [b'{"version": 1, "window": 15', b'{"version": 1, "estimator": "\xff"}'],
    ids=["truncated", "non-utf8"],
)
def test_restore_rejects_unreadable_files(setup, tmp_path, content):
    network, _ = setup
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(EstimationError, match="not readable JSON"):
        restore_engine(path, network)
