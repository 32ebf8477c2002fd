"""Serialize and restore streaming-engine state across restarts.

A monitoring daemon must survive restarts without losing its place in the
probe stream: the retained ring contents, the refit cursor, the warm
frequency workload, the alert detectors' hysteresis state, and the
diagnostic counters. This module snapshots exactly that into a single JSON
document (ring words as base64 of the canonical packed byte stream, so
checkpoints are portable across hosts of any word endianness) and rebuilds
a live engine from it.

Fitted models are *not* serialized: window estimates are derived data the
engine re-emits as new windows complete, and a restored monitor continues
the stream rather than re-reporting history. The restored engine's
timeline therefore starts empty while its cursor, counters, and window
numbering carry on from the checkpoint.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.exceptions import EstimationError
from repro.probability.base import ProbabilityEstimator
from repro.streaming.alerts import AlertManager, LevelShiftDetector, ThresholdDetector
from repro.streaming.buffer import PackedRingBuffer
from repro.streaming.engine import StreamingEstimator, ring_retention
from repro.topology.graph import Network

#: Schema version of the checkpoint document.
CHECKPOINT_VERSION = 1

_REQUIRED = object()


def _field(
    document: dict,
    key: str,
    convert: Callable[[Any], Any] = int,
    default: Any = _REQUIRED,
    where: str = "",
) -> Any:
    """``convert(document[key])``, with any failure named by its key.

    A missing key yields ``default`` (or an error when there is none); a
    value ``convert`` rejects raises :class:`EstimationError` naming the
    key instead of the converter's own error.
    """
    if key not in document:
        if default is _REQUIRED:
            raise EstimationError(f"checkpoint is missing {where + key!r}")
        return default
    try:
        return convert(document[key])
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise EstimationError(
            f"checkpoint field {where + key!r} is invalid: {exc!r}"
        ) from None


def _object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _optional_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


def _alert_state(manager: AlertManager) -> dict:
    def thresholds(detectors):
        return {
            str(target): {"active": d.active, "high": d.high, "low": d.low}
            for target, d in detectors.items()
        }

    def shifts(detectors):
        return {
            str(target): {
                "level": d._level,
                "armed": d._armed,
                "threshold": d.threshold,
                "rearm": d.rearm,
            }
            for target, d in detectors.items()
        }

    return {
        "peer_threshold": thresholds(manager._peer_threshold),
        "peer_shift": shifts(manager._peer_shift),
        "link_threshold": thresholds(manager._link_threshold),
        "link_shift": shifts(manager._link_shift),
    }


def _restore_alert_state(manager: AlertManager, state: dict) -> None:
    """Re-seed detector *state* (hysteresis, levels) under the manager's
    own policy.

    Thresholds are configuration, not state: detectors are rebuilt from
    the supplied manager's :class:`AlertPolicy` — so an operator who
    changes a threshold and restarts sees the new value apply to every
    target, while active/armed/level hysteresis survives the restart.
    Families the new policy disables are simply not restored.
    """
    policy = manager.policy
    for name, high, low in (
        ("peer_threshold", policy.peer_high, policy.peer_low),
        ("link_threshold", policy.link_high, policy.link_low),
    ):
        if high is None:
            continue
        detectors = getattr(manager, f"_{name}")
        for target, fields in state.get(name, {}).items():
            detector = ThresholdDetector(high, low)
            detector.active = bool(fields["active"])
            detectors[int(target)] = detector
    for name, threshold in (
        ("peer_shift", policy.peer_shift),
        ("link_shift", policy.link_shift),
    ):
        if threshold is None:
            continue
        detectors = getattr(manager, f"_{name}")
        for target, fields in state.get(name, {}).items():
            detector = LevelShiftDetector(threshold, policy.rearm)
            detector._level = fields["level"]
            detector._armed = bool(fields["armed"])
            detectors[int(target)] = detector


def checkpoint_state(engine: StreamingEstimator) -> dict:
    """The engine's persistent state as a JSON-serializable document."""
    words, first, end = engine.buffer.snapshot()
    state = {
        "version": CHECKPOINT_VERSION,
        "window": engine.window,
        "stride": engine.stride,
        "max_windows": engine.max_windows,
        "max_alerts": engine.max_alerts,
        "num_paths": engine.buffer.num_paths,
        "num_links": engine.network.num_links,
        "estimator": engine.estimator.name,
        "ring": {
            "first_interval": first,
            "end_interval": end,
            "num_words": words.shape[1],
            # The packed layout is byte-semantic (packbits byte order, see
            # pack_bool_matrix), so the wire format is the raw byte stream
            # — identical on every host, unlike the uint64 *values*, which
            # differ with word endianness.
            "words": base64.b64encode(
                np.ascontiguousarray(words).view(np.uint8).tobytes()
            ).decode("ascii"),
        },
        "next_window_start": engine.next_window_start,
        # The *global* emit counter (not len(timeline.windows)): it carries
        # windows trimmed by max_windows and windows emitted before any
        # earlier restore, so window numbering survives repeated
        # checkpoint/restore generations.
        "emitted_windows": engine.windows_emitted,
        "workload": [sorted(path_set) for path_set in engine._workload],
        "counters": {
            "refits": engine.refits,
            "skipped_windows": engine.skipped_windows,
            "cache_hits": engine.cache_hits,
            "cache_misses": engine.cache_misses,
        },
        "alerts": (
            _alert_state(engine.alert_manager)
            if engine.alert_manager is not None
            else None
        ),
    }
    return state


def save_checkpoint(engine: StreamingEstimator, path: Union[str, Path]) -> Path:
    """Write the engine's state to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(checkpoint_state(engine)), encoding="utf-8")
    return path


def restore_engine(
    source: Union[str, Path, dict],
    network: Network,
    estimator: Optional[ProbabilityEstimator] = None,
    alert_manager: Optional[AlertManager] = None,
) -> StreamingEstimator:
    """Rebuild a live engine from a checkpoint file or document.

    ``network`` and ``estimator`` are supplied by the caller (topology and
    algorithm are code/config, not state); the checkpoint's structural
    echo (path/link counts, window geometry) is validated against them.
    The restored engine resumes ingestion at the exact round the
    checkpointed one stopped, with the same warm workload, alert
    hysteresis state, and window numbering. The ``"kernel"``,
    ``"retention"`` and ``"workload_limit"`` fields, written by older
    versions, are ignored: the ring's retention follows from the window
    geometry and the workload cap is the engine's constant.

    Raises
    ------
    EstimationError
        When the checkpoint is unreadable, is not a JSON object, lacks a
        required field, or holds a field that is malformed or
        inconsistent with ``network``; the message names the field.
    """
    if isinstance(source, (str, Path)):
        try:
            state = json.loads(Path(source).read_bytes().decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise EstimationError(
                f"checkpoint {source} is not readable JSON: {exc}"
            ) from None
    else:
        state = source
    if not isinstance(state, dict):
        raise EstimationError(
            f"checkpoint must be a JSON object, got {type(state).__name__}"
        )
    if state.get("version") != CHECKPOINT_VERSION:
        raise EstimationError(
            f"unsupported checkpoint version {state.get('version')!r}"
        )
    num_paths = _field(state, "num_paths")
    if num_paths != network.num_paths:
        raise EstimationError(
            f"checkpoint monitored {num_paths} paths, "
            f"network has {network.num_paths}"
        )
    num_links = _field(state, "num_links")
    if num_links != network.num_links:
        raise EstimationError(
            f"checkpoint monitored {num_links} links, "
            f"network has {network.num_links}"
        )
    ring_state = _field(state, "ring", _object)
    raw = _field(
        ring_state,
        "words",
        lambda text: base64.b64decode(text, validate=True),
        where="ring.",
    )
    num_words = _field(ring_state, "num_words", where="ring.")
    if num_words < 0 or len(raw) != num_paths * num_words * 8:
        raise EstimationError(
            f"checkpoint field 'ring.num_words' ({num_words}) does not match "
            f"the {len(raw)}-byte payload for {num_paths} paths"
        )
    # Inverse of the byte-semantic serialization above: reinterpret the
    # canonical packed bytes as this host's native uint64 words, exactly
    # as pack_bool_matrix does when packing fresh observations.
    words = (
        np.frombuffer(raw, dtype=np.uint8)
        .reshape(num_paths, num_words * 8)
        .copy()
        .view(np.uint64)
    )
    window = _field(state, "window")
    stride = _field(state, "stride")
    # Checked before the ring is allocated: a corrupt geometry must fail
    # typed, not as an allocation of the ring it implies.
    retention = ring_retention(window, stride)
    ring = PackedRingBuffer.restore(
        words,
        _field(ring_state, "first_interval", where="ring."),
        _field(ring_state, "end_interval", where="ring."),
        retention,
    )
    engine = StreamingEstimator(
        network,
        estimator=estimator,
        window=window,
        stride=stride,
        alert_manager=alert_manager,
        max_windows=_field(state, "max_windows", _optional_int, None),
        max_alerts=_field(state, "max_alerts", _optional_int, None),
        ring=ring,
    )
    if engine.estimator.name != state.get("estimator"):
        raise EstimationError(
            f"checkpoint was taken with estimator "
            f"{state.get('estimator')!r}, restore supplied "
            f"{engine.estimator.name!r}"
        )
    # The cursor sits on a retained interval, at most one stride past the
    # start of the last window the ring could have completed (0 before
    # any window completed).
    next_start = _field(state, "next_window_start")
    latest = max(0, ring.end_interval - window + stride)
    if not ring.first_interval <= next_start <= latest:
        raise EstimationError(
            f"checkpoint field 'next_window_start' ({next_start}) is outside "
            f"[{ring.first_interval}, {latest}] for the ring's "
            f"[{ring.first_interval}, {ring.end_interval})"
        )
    engine._next_start = next_start
    engine._workload = _field(
        state,
        "workload",
        lambda sets: [_path_set(members, num_paths) for members in sets],
        [],
    )
    # Window numbering continues from the checkpoint: the restored engine's
    # first emitted window picks up the global index where the
    # checkpointed monitor stopped.
    engine.windows_emitted = _field(state, "emitted_windows", default=0)
    counters = _field(state, "counters", _object, {})
    engine.refits = _field(counters, "refits", default=0, where="counters.")
    engine.skipped_windows = _field(
        counters, "skipped_windows", default=0, where="counters."
    )
    engine.cache_hits = _field(counters, "cache_hits", default=0, where="counters.")
    engine.cache_misses = _field(counters, "cache_misses", default=0, where="counters.")
    if alert_manager is not None and state.get("alerts"):
        _field(
            state, "alerts", lambda alerts: _restore_alert_state(alert_manager, alerts)
        )
    return engine


def _path_set(members: Any, num_paths: int) -> frozenset:
    """One workload path set, with every member a path of the network."""
    path_set = frozenset(int(member) for member in members)
    if any(not 0 <= member < num_paths for member in path_set):
        raise ValueError(f"path set {sorted(path_set)} outside [0, {num_paths})")
    return path_set
