"""Windowed estimation over a probe stream: the one windowed-fit path.

:class:`StreamingEstimator` ingests probe rounds as they arrive, refits
exactly when a stride boundary completes a window over the ring buffer,
and emits each :class:`~repro.probability.windowed.WindowEstimate` into a
live :class:`~repro.probability.windowed.CongestionTimeline` (and through
the attached :class:`~repro.streaming.alerts.AlertManager`). An offline
timeline is the same engine over an in-memory horizon:
``engine.run(MatrixSource(observations).chunks())``.

The invariant is chunking-invariance: however the stream is cut into
blocks, the timeline is the one from fitting
``observations.slice_intervals(start, start + window)`` for each window in
turn (the test reference). Windows are served from the packed ring as
exactly those slices, and the only cross-window state — the warm
frequency workload — is a *prefetch*, not a value reuse: each window's
frequencies are computed by the same batched kernel on the same window
content, merely all at once up front instead of query by query during the
fit. Overlapping refits are therefore amortised (one big kernel call plus
cache hits) without ever recomputing over the full horizon.

The warm cache reaches the fit through the estimation pipeline's
:class:`~repro.probability.pipeline.SharedFitWorkspace` — per-window
immutable injection via the fit's context, so the estimator object itself
carries no engine state and stays freely shareable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.system import SystemWorkspace
from repro.model.packed import WORD_BITS
from repro.obs import counter, gauge, histogram, metrics_enabled, span
from repro.probability.base import ProbabilityEstimator
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import resolve_estimator
from repro.probability.windowed import CongestionTimeline, WindowEstimate
from repro.streaming.alerts import Alert, AlertManager
from repro.streaming.buffer import PackedRingBuffer
from repro.topology.graph import Network

# Streaming-engine telemetry (REPRO_OBS=metrics|trace). Refit latency is
# the histogram behind the ROADMAP's p99-refit-latency goal; ingest and
# occupancy expose the ring's live state.
_INTERVALS_TOTAL = counter(
    "repro_streaming_intervals_total",
    "Probe rounds ingested into streaming rings.",
)
_RING_OCCUPANCY = gauge(
    "repro_streaming_ring_occupancy",
    "Intervals currently retained in the ring buffer.",
)
_REFITS_TOTAL = counter(
    "repro_streaming_refits_total",
    "Windows refitted and emitted by streaming engines.",
)
_SKIPPED_TOTAL = counter(
    "repro_streaming_skipped_windows_total",
    "Windows skipped because their fit raised EstimationError.",
)
_REFIT_SECONDS = histogram(
    "repro_streaming_refit_seconds",
    "Wall time per streaming window refit (including skipped fits).",
)

#: Cap on the carried-over frequency workload: path sets the last
#: successful fit queried, prefetched into the next window's cache.
WORKLOAD_LIMIT = 8192

#: Longest ``window`` and ``stride`` the engine accepts. The ring holds
#: ``window + stride`` intervals per path, so a larger value (a corrupt
#: checkpoint, a mistyped ``--window``) is rejected before allocation.
MAX_WINDOW_INTERVALS = 1 << 20


def ring_retention(window: int, stride: int) -> int:
    """Ring retention for this geometry; EstimationError names a bad field.

    The ring must always retain ``[next_start, end)``: the un-refitted
    suffix never exceeds window + ingest-piece size, and pieces are capped
    at retention - window - one word of eviction slack (the second word
    keeps every piece longer than a stride).
    """
    if window < 2:
        raise EstimationError("window must cover at least 2 intervals")
    if stride < 1:
        raise EstimationError("stride must be >= 1")
    for name, value in (("window", window), ("stride", stride)):
        if value > MAX_WINDOW_INTERVALS:
            raise EstimationError(
                f"{name} must be at most {MAX_WINDOW_INTERVALS} intervals, "
                f"got {value}"
            )
    return window + stride + 2 * WORD_BITS


class StreamingEstimator:
    """Windowed probability estimation as an online service.

    Parameters
    ----------
    network:
        The monitored topology (fixes the path width of the ring).
    estimator:
        Any :class:`ProbabilityEstimator`, or a registered estimator name
        (see :mod:`repro.probability.registry`); defaults to
        Correlation-complete.
    window:
        Window length in intervals (the paper suggests horizons of
        "hours or so" per estimate).
    stride:
        Step between window starts; defaults to ``window`` (tumbling).
        Smaller strides give overlapping (smoother) series. The ring
        retains :func:`ring_retention` intervals, so the next due window
        can never be evicted before it is fitted.
    alert_manager:
        Online alerting sink; ``None`` disables alert evaluation.
    max_windows:
        Bound on retained :attr:`timeline` windows (oldest dropped first);
        ``None`` keeps every emitted window. A long-lived monitor should
        set this — the ring bounds raw observations, this bounds the
        derived per-window models. Alert window indices stay global
        (:attr:`windows_emitted` counts trimmed windows too).
    max_alerts:
        Bound on the retained :attr:`alerts` backlog; ``None`` keeps all.
    ring:
        A pre-built :class:`PackedRingBuffer` to adopt instead of
        allocating a fresh one — the checkpoint-restore path hands the
        restored ring in directly so the store is allocated once. Its
        path width must match and its retention must cover
        :func:`ring_retention`.
    """

    def __init__(
        self,
        network: Network,
        estimator: Union[ProbabilityEstimator, str, None] = None,
        window: int = 200,
        stride: Optional[int] = None,
        alert_manager: Optional[AlertManager] = None,
        max_windows: Optional[int] = None,
        max_alerts: Optional[int] = None,
        ring: Optional[PackedRingBuffer] = None,
    ) -> None:
        stride = stride if stride is not None else window
        retention = ring_retention(window, stride)
        if max_windows is not None and max_windows < 1:
            raise EstimationError("max_windows must be >= 1")
        if max_alerts is not None and max_alerts < 0:
            raise EstimationError("max_alerts must be >= 0")
        self.network = network
        self.estimator = resolve_estimator(estimator)
        self.window = window
        self.stride = stride
        if ring is not None:
            if ring.num_paths != network.num_paths:
                raise EstimationError(
                    "supplied ring's path width does not match the network"
                )
            if ring.retention < retention:
                raise EstimationError(
                    "supplied ring's retention is below the engine's floor"
                )
            self._ring = ring
        else:
            self._ring = PackedRingBuffer(network.num_paths, retention)
        self._max_piece = self._ring.retention - self.window - WORD_BITS
        self.alert_manager = alert_manager
        self.max_windows = max_windows
        self.max_alerts = max_alerts
        self.timeline = CongestionTimeline(network=network)
        self.alerts: List[Alert] = []
        self._next_start = 0
        self._workload: List[frozenset] = []
        # Equation-arena carried across windows: each refit's fit context
        # checks it out through its SharedFitWorkspace, so consecutive
        # windows reuse one growth buffer instead of reallocating.
        self._system_workspace = SystemWorkspace()
        #: Global count of windows ever emitted — includes windows trimmed
        #: by ``max_windows`` and, after a checkpoint restore, windows
        #: emitted before the restart. Alert window indices come from it,
        #: so numbering is stable across trimming and restarts.
        self.windows_emitted = 0
        # Diagnostics of the amortisation story.
        self.refits = 0
        self.skipped_windows = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    @property
    def intervals_ingested(self) -> int:
        """Total probe rounds ever ingested (absolute stream length)."""
        return self._ring.end_interval

    @property
    def next_window_start(self) -> int:
        """Absolute start of the next window awaiting completion."""
        return self._next_start

    @property
    def buffer(self) -> PackedRingBuffer:
        """The underlying packed ring (read access for checkpointing)."""
        return self._ring

    def telemetry_status(self) -> dict:
        """Live engine counters as a JSON-able dict.

        The ``/healthz`` payload of a served monitor run
        (``repro-tomography monitor --serve-port``) — a scraper's
        one-request answer to "is the engine making progress".
        """
        return {
            "estimator": self.estimator.name,
            "window": self.window,
            "stride": self.stride,
            "intervals_ingested": int(self.intervals_ingested),
            "ring_occupancy": int(self._ring.num_retained),
            "refits": self.refits,
            "skipped_windows": self.skipped_windows,
            "windows_emitted": self.windows_emitted,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "alerts": len(self.alerts),
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, chunk: np.ndarray) -> List[WindowEstimate]:
        """Feed one boolean ``(rounds, num_paths)`` block of probe rounds.

        Appends to the ring, then refits every window completed by the new
        rounds (zero or more, depending on the stride). Returns the newly
        emitted estimates; alerts raised along the way are appended to
        :attr:`alerts`.
        """
        chunk = np.asarray(chunk, dtype=bool)
        if chunk.ndim != 2:
            raise EstimationError("ingest expects a (rounds, paths) block")
        emitted: List[WindowEstimate] = []
        # Pieces are bounded so ring eviction can never outrun the refit
        # cursor, even for a giant backfill chunk.
        for start in range(0, chunk.shape[0], self._max_piece):
            self._ring.append(chunk[start : start + self._max_piece])
            emitted.extend(self._refit_due())
        if metrics_enabled() and chunk.shape[0]:
            _INTERVALS_TOTAL.inc(float(chunk.shape[0]))
            _RING_OCCUPANCY.set(float(self._ring.num_retained))
        return emitted

    def run(self, chunks: Iterable[np.ndarray]) -> CongestionTimeline:
        """Ingest every block of a chunk iterator (a prober, trace or
        in-memory replay); returns the timeline."""
        for chunk in chunks:
            self.ingest(chunk)
        return self.timeline

    # ------------------------------------------------------------------
    # Refitting
    # ------------------------------------------------------------------
    def _refit_due(self) -> List[WindowEstimate]:
        emitted: List[WindowEstimate] = []
        while self._next_start + self.window <= self._ring.end_interval:
            estimate = self._fit_window(
                self._next_start, self._next_start + self.window
            )
            self._next_start += self.stride
            if estimate is None:
                self.skipped_windows += 1
                _SKIPPED_TOTAL.inc()
                continue
            self.refits += 1
            _REFITS_TOTAL.inc()
            self.timeline.windows.append(estimate)
            emitted.append(estimate)
            window_index = self.windows_emitted
            self.windows_emitted += 1
            if self.alert_manager is not None:
                self.alerts.extend(self.alert_manager.observe(window_index, estimate))
            # Bound derived state for long-lived monitors: the ring bounds
            # raw observations, these bound per-window models and alerts.
            if (
                self.max_windows is not None
                and len(self.timeline.windows) > self.max_windows
            ):
                del self.timeline.windows[
                    : len(self.timeline.windows) - self.max_windows
                ]
            if (self.max_alerts is not None and len(self.alerts) > self.max_alerts):
                del self.alerts[: len(self.alerts) - self.max_alerts]
        return emitted

    def _fit_window(self, start: int, stop: int) -> Optional[WindowEstimate]:
        # The refit span (and its latency histogram sample) covers the
        # whole attempt — prefetch, fit, workload harvest — skipped
        # windows included: a degenerate window that burns fit time must
        # show up in the p99.
        with span("streaming.refit", start=start, stop=stop) as refit_span:
            estimate = self._fit_window_inner(start, stop)
        _REFIT_SECONDS.observe(refit_span.elapsed)
        return estimate

    def _fit_window_inner(self, start: int, stop: int) -> Optional[WindowEstimate]:
        observations = self._ring.window(start, stop)
        workspace = SharedFitWorkspace(
            observations, system=self._system_workspace
        )
        cache = workspace.frequency
        if self._workload:
            # One batched kernel call evaluates the previous window's
            # whole frequency workload against the new window. The
            # subsequent fit then runs almost entirely on cache hits —
            # the incremental refit never re-derives its query set from
            # scratch, and never touches intervals outside [start, stop).
            cache.prefetch(self._workload)
        cache.reset_touched()
        try:
            model = self.estimator.fit(self.network, observations, workspace=workspace)
        except EstimationError:
            # Skipped window: keep the last good window's workload — one
            # degenerate window must not cold-start the refits after it.
            return None
        finally:
            self.cache_hits += cache.hits
            self.cache_misses += cache.misses
        # Carry forward only the queries this (successful) fit actually
        # made — path sets the estimator stopped needing fall out of the
        # workload instead of being prefetched forever.
        self._workload = cache.touched_keys()[-WORKLOAD_LIMIT:]
        return WindowEstimate(start=start, stop=stop, model=model)
