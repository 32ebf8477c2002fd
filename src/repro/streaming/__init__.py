"""Streaming estimation engine: the paper's monitoring scenario, live.

The batch stack answers "what were the congestion probabilities over this
recorded horizon?"; this package turns it into a long-lived service that
answers "what are they *now*?" — the source ISP continuously watching how
frequently a peer is congested and how its level changes over a day or
week (Section 1), reacting to flash crowds and failures as they happen.

Layers, bottom up:

* :mod:`repro.streaming.buffer` — :class:`PackedRingBuffer`, word-aligned
  ``uint64`` ring storage with bounded retention and zero-copy window
  views onto the packed frequency kernel;
* :mod:`repro.streaming.ingest` — observation sources: in-memory replay
  (:class:`MatrixSource`) and NDJSON trace record/replay; live probing is
  :meth:`~repro.simulation.probing.StreamingProber.rounds`;
* :mod:`repro.streaming.engine` — :class:`StreamingEstimator`, the one
  windowed-fit path: incremental refits on stride boundaries with a warm
  frequency workload, live or over an offline horizon
  (``engine.run(MatrixSource(observations).chunks())``), the same timeline
  however the stream is chunked;
* :mod:`repro.streaming.alerts` — online per-link/per-peer threshold and
  level-shift detection with hysteresis, emitting structured
  :class:`Alert` events;
* :mod:`repro.streaming.checkpoint` — serialize/restore engine state so a
  monitor survives restarts.
"""

from repro.streaming.alerts import (
    Alert,
    AlertManager,
    AlertPolicy,
    LevelShiftDetector,
    ThresholdDetector,
    peer_congestion_levels,
)
from repro.streaming.buffer import PackedRingBuffer
from repro.streaming.checkpoint import (
    checkpoint_state,
    restore_engine,
    save_checkpoint,
)
from repro.streaming.engine import StreamingEstimator
from repro.streaming.ingest import (
    MatrixSource,
    NDJSONTraceSource,
    write_ndjson_trace,
)

__all__ = [
    "Alert",
    "AlertManager",
    "AlertPolicy",
    "LevelShiftDetector",
    "ThresholdDetector",
    "peer_congestion_levels",
    "PackedRingBuffer",
    "StreamingEstimator",
    "MatrixSource",
    "NDJSONTraceSource",
    "write_ndjson_trace",
    "checkpoint_state",
    "save_checkpoint",
    "restore_engine",
]
