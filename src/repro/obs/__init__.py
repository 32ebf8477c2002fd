"""`repro.obs` — zero-dependency telemetry: metrics, spans, exposition.

The observability layer for the whole package, switched by
``REPRO_OBS=off|metrics|trace``:

* **Metrics** (:mod:`repro.obs.registry`): process-wide counter /
  gauge / histogram families with fixed-bucket quantile estimation,
  exportable as Prometheus text or a JSON snapshot
  (:mod:`repro.obs.exposition`). Shard workers capture their updates
  into local registries that merge deterministically into the parent.
* **Spans** (:mod:`repro.obs.span`): timed scopes emitted as JSONL
  events with monotonic timestamps, span ids, and parent links that
  survive thread and process boundaries; rendered as a flame-style
  tree by :mod:`repro.obs.render` and the ``repro-tomography obs``
  CLI.
* **Timer** (:mod:`repro.obs.timer`): the bare wall-clock primitive.
* **Analysis** (:mod:`repro.obs.analyze`): post-hoc trace analytics —
  critical-path decomposition per root span, runner shard
  utilization/straggler reports, and cross-run diffing of per-span
  self times (``repro-tomography obs critical-path`` / ``obs diff``).
* **Serving** (:mod:`repro.obs.serve`): a stdlib HTTP exporter
  (``/metrics`` Prometheus text, ``/metrics.json``, ``/healthz``,
  ``/spans/recent``) on a daemon thread, plus a background resource
  sampler (RSS, CPU time, GC counts) — ``obs serve`` or
  ``--serve-port`` on ``monitor`` / ``campaign``.

This package imports nothing from the rest of ``repro`` — every other
layer imports it, so it must stand alone.
"""

from repro.obs.config import (
    METRICS,
    MODE_ENV,
    MODES,
    OFF,
    TRACE,
    TRACE_PATH_ENV,
    apply_runtime_config,
    configure,
    metrics_enabled,
    mode,
    reset,
    runtime_config,
    set_default_trace_path,
    trace_enabled,
    trace_path,
    use_mode,
)
from repro.obs.analyze import (
    CriticalPath,
    ShardUtilizationReport,
    SpanDelta,
    critical_paths,
    diff_aggregates,
    diff_traces,
    load_trace,
    render_critical_paths,
    render_diff,
    render_shard_report,
    shard_report,
    top_regressions,
)
from repro.obs.exposition import render_json, render_prometheus, render_summary
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    FAMILIES,
    LocalCounters,
    MetricsRegistry,
    bump_local,
    capture_metrics,
    counter,
    gauge,
    global_registry,
    histogram,
    local_counters,
    merge_snapshot,
    quantile_from_counts,
    registry,
)
from repro.obs.render import (
    aggregate_spans,
    build_tree,
    load_events,
    read_events,
    render_tree,
    stage_durations,
    validate_events,
)
from repro.obs.serve import (
    ResourceSampler,
    TelemetryServer,
    ensure_metrics_mode,
    recent_spans,
)
from repro.obs.span import (
    Span,
    current_span_id,
    event,
    flush,
    parent_scope,
    span,
)
from repro.obs.timer import Timer

__all__ = [
    "CriticalPath",
    "DEFAULT_BUCKETS",
    "FAMILIES",
    "LocalCounters",
    "METRICS",
    "MODE_ENV",
    "MODES",
    "MetricsRegistry",
    "OFF",
    "ResourceSampler",
    "ShardUtilizationReport",
    "Span",
    "SpanDelta",
    "TRACE",
    "TRACE_PATH_ENV",
    "TelemetryServer",
    "Timer",
    "aggregate_spans",
    "apply_runtime_config",
    "build_tree",
    "bump_local",
    "capture_metrics",
    "configure",
    "counter",
    "critical_paths",
    "current_span_id",
    "diff_aggregates",
    "diff_traces",
    "ensure_metrics_mode",
    "event",
    "flush",
    "gauge",
    "global_registry",
    "histogram",
    "load_events",
    "load_trace",
    "local_counters",
    "merge_snapshot",
    "metrics_enabled",
    "mode",
    "parent_scope",
    "quantile_from_counts",
    "read_events",
    "recent_spans",
    "registry",
    "render_critical_paths",
    "render_diff",
    "render_json",
    "render_prometheus",
    "render_shard_report",
    "render_summary",
    "render_tree",
    "reset",
    "runtime_config",
    "set_default_trace_path",
    "shard_report",
    "span",
    "stage_durations",
    "top_regressions",
    "trace_enabled",
    "trace_path",
    "use_mode",
    "validate_events",
]
