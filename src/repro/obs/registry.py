"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency and deliberately small. Three pieces:

* **Family declarations** (:func:`counter` / :func:`gauge` /
  :func:`histogram`) — made once at module import by every instrumented
  layer. Declarations are process-wide metadata, independent of any
  registry instance, so an exposition always covers every family the
  loaded code *could* emit, even at zero. Handles route updates to the
  context's target registry at call time, not to a registry captured at
  declaration time.
* :class:`MetricsRegistry` — the thread-safe value store. The process
  has one global registry; :func:`capture_metrics` swaps a fresh
  registry in for the current :mod:`contextvars` context, which is how
  shard workers collect their increments into a picklable snapshot the
  parent merges back deterministically — the merged totals are identical
  whether the shards ran inline or in worker processes.
* **Local counter scopes** (:func:`local_counters`) — always-on,
  context-local delta accounting used where a *result* (not telemetry)
  needs per-scope counts: ``FitReport``'s per-fit frequency-cache
  traffic. Scopes are context-local, so two fits sharing one
  ``FrequencyCache`` concurrently in threads each see only their own
  traffic — global counter snapshots would double-count.

Metric updates are cheap but not free; hot loops guard them with
``if config.metrics_enabled():`` so ``REPRO_OBS=off`` costs one branch.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.obs import config

#: Default histogram buckets: latencies from 100us to 60s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One (family name, label values) series key.
SeriesKey = Tuple[str, Tuple[str, ...]]


class FamilySpec:
    """Declared metadata of one metric family."""

    __slots__ = ("name", "kind", "help", "labels", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labels = labels
        self.buckets = buckets


#: Every family the loaded code declares, by name (process-wide).
FAMILIES: Dict[str, FamilySpec] = {}

_declare_lock = threading.Lock()


def _declare(
    name: str,
    kind: str,
    help_text: str,
    labels: Sequence[str],
    buckets: Optional[Sequence[float]] = None,
) -> FamilySpec:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r} on metric {name!r}")
    bucket_tuple: Optional[Tuple[float, ...]] = None
    if kind == "histogram":
        bucket_tuple = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(bucket_tuple) != sorted(set(bucket_tuple)):
            raise ValueError(f"histogram {name!r} buckets must strictly increase")
    with _declare_lock:
        existing = FAMILIES.get(name)
        if existing is not None:
            if (
                existing.kind != kind
                or existing.labels != tuple(labels)
                or existing.buckets != bucket_tuple
            ):
                raise ValueError(
                    f"metric {name!r} already declared as a {existing.kind} "
                    f"with labels {existing.labels}"
                )
            return existing
        spec = FamilySpec(name, kind, help_text, tuple(labels), bucket_tuple)
        FAMILIES[name] = spec
        return spec


class _Hist:
    """One histogram series: cumulative-free bucket counts plus a sum."""

    __slots__ = ("counts", "sum")

    def __init__(self, num_buckets: int) -> None:
        # counts[i] observes bucket i (<= buckets[i]); the last slot is
        # the +Inf overflow bucket.
        self.counts = [0] * (num_buckets + 1)
        self.sum = 0.0


class MetricsRegistry:
    """Thread-safe value store for every declared family."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._hists: Dict[SeriesKey, _Hist] = {}

    # -- updates ---------------------------------------------------------
    def inc(self, spec: FamilySpec, label_values: Tuple[str, ...], amount: float) -> None:
        key = (spec.name, label_values)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set(self, spec: FamilySpec, label_values: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._gauges[(spec.name, label_values)] = value

    def observe(
        self, spec: FamilySpec, label_values: Tuple[str, ...], value: float
    ) -> None:
        buckets = spec.buckets or ()
        key = (spec.name, label_values)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Hist(len(buckets))
            index = len(buckets)
            for i, bound in enumerate(buckets):
                if value <= bound:
                    index = i
                    break
            hist.counts[index] += 1
            hist.sum += value

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable, JSON-able copy of every series plus family specs.

        The family metadata travels with the values so a snapshot file
        renders standalone (``repro-tomography obs export --snapshot``).
        """
        with self._lock:
            counters = [
                [name, list(lv), value]
                for (name, lv), value in sorted(self._counters.items())
            ]
            gauges = [
                [name, list(lv), value]
                for (name, lv), value in sorted(self._gauges.items())
            ]
            hists = [
                [name, list(lv), {"counts": list(h.counts), "sum": h.sum}]
                for (name, lv), h in sorted(self._hists.items())
            ]
        with _declare_lock:
            families = {
                name: {
                    "kind": spec.kind,
                    "help": spec.help,
                    "labels": list(spec.labels),
                    "buckets": list(spec.buckets) if spec.buckets else None,
                }
                for name, spec in sorted(FAMILIES.items())
            }
        return {
            "families": families,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters/histograms add, gauges overwrite.

        Addition commutes, so counter and histogram totals are
        independent of merge order; gauges (point-in-time values) take
        the merged snapshot's value, which is why callers merge shard
        snapshots in deterministic shard order.
        """
        with self._lock:
            for name, lv, value in snapshot.get("counters", []):
                key = (name, tuple(lv))
                self._counters[key] = self._counters.get(key, 0.0) + value
            for name, lv, value in snapshot.get("gauges", []):
                self._gauges[(name, tuple(lv))] = value
            for name, lv, payload in snapshot.get("histograms", []):
                key = (name, tuple(lv))
                hist = self._hists.get(key)
                counts = payload["counts"]
                if hist is None:
                    hist = self._hists[key] = _Hist(len(counts) - 1)
                if len(hist.counts) != len(counts):
                    raise ValueError(
                        f"histogram {name!r} bucket layout changed between "
                        "snapshot and registry"
                    )
                for i, count in enumerate(counts):
                    hist.counts[i] += count
                hist.sum += payload["sum"]

    def clear(self) -> None:
        """Drop every recorded value (declarations are untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


#: The process registry; the context target below can shadow it.
_GLOBAL = MetricsRegistry()

_target: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_registry", default=None
)


def registry() -> MetricsRegistry:
    """The registry metric updates currently land in (context-aware)."""
    return _target.get() or _GLOBAL


def global_registry() -> MetricsRegistry:
    """The process-wide registry (ignoring any active capture)."""
    return _GLOBAL


@contextmanager
def capture_metrics() -> Iterator[MetricsRegistry]:
    """Collect this context's metric updates into a fresh registry.

    Contexts are per-thread (and trivially per-process), so a shard
    captured this way observes exactly its own updates wherever it
    runs; the caller ships ``registry.snapshot()`` home and
    the parent merges.
    """
    captured = MetricsRegistry()
    token = _target.set(captured)
    try:
        yield captured
    finally:
        _target.reset(token)


# ---------------------------------------------------------------------------
# Family handles
# ---------------------------------------------------------------------------
class CounterHandle:
    """Declared counter family; ``inc`` routes to the context registry."""

    __slots__ = ("spec",)

    def __init__(self, spec: FamilySpec) -> None:
        self.spec = spec

    def _label_values(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        return tuple(str(labels[name]) for name in self.spec.labels)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not config.metrics_enabled():
            return
        registry().inc(self.spec, self._label_values(labels), amount)


class GaugeHandle:
    __slots__ = ("spec",)

    def __init__(self, spec: FamilySpec) -> None:
        self.spec = spec

    def set(self, value: float, **labels: str) -> None:
        if not config.metrics_enabled():
            return
        registry().set(
            self.spec, tuple(str(labels[n]) for n in self.spec.labels), value
        )


class HistogramHandle:
    __slots__ = ("spec",)

    def __init__(self, spec: FamilySpec) -> None:
        self.spec = spec

    def observe(self, value: float, **labels: str) -> None:
        if not config.metrics_enabled():
            return
        registry().observe(
            self.spec, tuple(str(labels[n]) for n in self.spec.labels), value
        )


def counter(name: str, help_text: str, labels: Sequence[str] = ()) -> CounterHandle:
    """Declare (idempotently) a counter family and return its handle."""
    return CounterHandle(_declare(name, "counter", help_text, labels))


def gauge(name: str, help_text: str, labels: Sequence[str] = ()) -> GaugeHandle:
    """Declare (idempotently) a gauge family and return its handle."""
    return GaugeHandle(_declare(name, "gauge", help_text, labels))


def histogram(
    name: str,
    help_text: str,
    labels: Sequence[str] = (),
    buckets: Optional[Sequence[float]] = None,
) -> HistogramHandle:
    """Declare (idempotently) a histogram family and return its handle."""
    return HistogramHandle(_declare(name, "histogram", help_text, labels, buckets))


def quantile_from_counts(
    buckets: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile from fixed-bucket counts.

    Linear interpolation inside the selected bucket (Prometheus
    ``histogram_quantile`` semantics); observations in the +Inf
    overflow bucket report the highest finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(buckets):  # +Inf bucket
                return float(buckets[-1]) if buckets else math.nan
            lower = float(buckets[i - 1]) if i > 0 else 0.0
            upper = float(buckets[i])
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
    return float(buckets[-1]) if buckets else math.nan


# ---------------------------------------------------------------------------
# Always-on local counter scopes (per-fit result accounting)
# ---------------------------------------------------------------------------
class LocalCounters:
    """One scope's integer deltas, keyed by free-form counter name."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Dict[str, int] = {}

    def get(self, name: str) -> int:
        return self.values.get(name, 0)


_local_scopes: ContextVar[Tuple[LocalCounters, ...]] = ContextVar(
    "repro_obs_local_counters", default=()
)


@contextmanager
def local_counters() -> Iterator[LocalCounters]:
    """Open a context-local counter scope (scopes nest; all active ones
    observe every :func:`bump_local` made in this context)."""
    scope = LocalCounters()
    token = _local_scopes.set(_local_scopes.get() + (scope,))
    try:
        yield scope
    finally:
        _local_scopes.reset(token)


def bump_local(name: str, amount: int = 1) -> None:
    """Add ``amount`` to every active local scope of this context.

    Mode-independent by design: results (``FitReport``) depend on these
    deltas, telemetry does not. With no scope active this is one
    context-variable read and a falsy check.
    """
    scopes = _local_scopes.get()
    if scopes:
        for scope in scopes:
            scope.values[name] = scope.values.get(name, 0) + amount


def merge_snapshot(snapshot: dict) -> None:
    """Merge a shard snapshot into the context's current registry."""
    registry().merge(snapshot)


__all__ = [
    "DEFAULT_BUCKETS",
    "FAMILIES",
    "CounterHandle",
    "FamilySpec",
    "GaugeHandle",
    "HistogramHandle",
    "LocalCounters",
    "MetricsRegistry",
    "bump_local",
    "capture_metrics",
    "counter",
    "gauge",
    "global_registry",
    "histogram",
    "local_counters",
    "merge_snapshot",
    "quantile_from_counts",
    "registry",
]
