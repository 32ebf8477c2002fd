"""Telemetry mode switch: ``REPRO_OBS=off|metrics|trace``.

The whole :mod:`repro.obs` subsystem hangs off one three-way mode:

* ``off`` (the default) — no metrics are collected and no spans are
  emitted. Instrumented hot loops pay exactly one branch
  (:func:`metrics_enabled` returning ``False``); spans still measure
  wall time (two ``perf_counter`` calls, the cost the code paid before
  the telemetry layer existed) because callers such as the estimation
  pipeline feed ``FitReport.stage_seconds`` from them.
* ``metrics`` — counters, gauges, and histograms accumulate in the
  process registry (:mod:`repro.obs.registry`), exportable as
  Prometheus text or a JSON snapshot.
* ``trace`` — metrics plus structured span events appended as JSONL to
  the trace sink (``REPRO_OBS_TRACE`` or :func:`set_trace_path`;
  defaults to ``telemetry.jsonl`` in the working directory).

The mode is read from the environment once at import; tests and
embedding code change it with :func:`configure` / :func:`use_mode`, and
:func:`reset` re-reads the environment. The module is intentionally
dependency-free — it must import before (and independently of) the rest
of the package.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

#: Recognised modes, in increasing order of collection.
OFF = "off"
METRICS = "metrics"
TRACE = "trace"
MODES = (OFF, METRICS, TRACE)

#: Environment variable selecting the mode.
MODE_ENV = "REPRO_OBS"

#: Environment variable naming the span-event JSONL sink.
TRACE_PATH_ENV = "REPRO_OBS_TRACE"

#: Default trace sink when tracing is on and no path was given.
DEFAULT_TRACE_FILENAME = "telemetry.jsonl"

_mode: str = OFF
_trace_path: Optional[Path] = None
#: True when the trace path came from the environment or an explicit
#: :func:`configure` call — run wrappers (the campaign CLI) only install
#: their default sink when the user has not pinned one.
_trace_path_explicit: bool = False


def _parse_mode(raw: Optional[str]) -> str:
    if not raw:
        return OFF
    value = raw.strip().lower()
    if value in MODES:
        return value
    warnings.warn(
        f"unknown {MODE_ENV} value {raw!r}; expected one of {list(MODES)}; "
        "telemetry stays off",
        RuntimeWarning,
        stacklevel=3,
    )
    return OFF


def mode() -> str:
    """The resolved telemetry mode (``off`` / ``metrics`` / ``trace``)."""
    return _mode


def metrics_enabled() -> bool:
    """True when metric collection is on (modes ``metrics`` and ``trace``).

    The single branch instrumented hot loops take: call sites guard
    every metric update with it so ``off`` costs one bool check.
    """
    return _mode != OFF


def trace_enabled() -> bool:
    """True when span events are emitted (mode ``trace``)."""
    return _mode == TRACE


def trace_path() -> Path:
    """The JSONL file span events append to."""
    if _trace_path is not None:
        return _trace_path
    return Path(DEFAULT_TRACE_FILENAME)


def trace_path_explicit() -> bool:
    """Whether the trace sink was pinned by env or an explicit configure."""
    return _trace_path_explicit


def configure(
    mode: Optional[str] = None,
    trace_path: Optional[Union[str, Path]] = None,
) -> None:
    """Programmatically set the mode and/or trace sink.

    Unknown mode names raise (unlike the forgiving environment path —
    a typo in code is a bug, a typo in an env var should not kill a
    run). ``None`` leaves the corresponding setting untouched.
    """
    global _mode, _trace_path, _trace_path_explicit
    if mode is not None:
        if mode not in MODES:
            raise ValueError(
                f"unknown telemetry mode {mode!r}; expected one of {list(MODES)}"
            )
        _mode = mode
    if trace_path is not None:
        _trace_path = Path(trace_path)
        _trace_path_explicit = True


def set_default_trace_path(path: Union[str, Path]) -> bool:
    """Install ``path`` as the sink unless one was explicitly pinned.

    Returns True when the path was installed. Run wrappers (the
    campaign CLI dropping ``telemetry.jsonl`` next to its results) use
    this so ``REPRO_OBS_TRACE`` always wins.
    """
    global _trace_path
    if _trace_path_explicit:
        return False
    _trace_path = Path(path)
    return True


def reset() -> None:
    """Re-read the environment, discarding programmatic overrides."""
    global _mode, _trace_path, _trace_path_explicit
    _mode = _parse_mode(os.environ.get(MODE_ENV))
    raw_path = os.environ.get(TRACE_PATH_ENV)
    _trace_path = Path(raw_path) if raw_path else None
    _trace_path_explicit = raw_path is not None


def runtime_config() -> dict:
    """The picklable settings a worker needs to mirror this process.

    Shipped to shard workers by :mod:`repro.runner.pool` so telemetry
    behaves identically in forked and spawned workers.
    """
    return {
        "mode": _mode,
        "trace_path": str(_trace_path) if _trace_path is not None else None,
        "trace_path_explicit": _trace_path_explicit,
    }


def apply_runtime_config(settings: dict) -> None:
    """Adopt a parent process's :func:`runtime_config` verbatim."""
    global _mode, _trace_path, _trace_path_explicit
    _mode = _parse_mode(settings.get("mode"))
    raw_path = settings.get("trace_path")
    _trace_path = Path(raw_path) if raw_path else None
    _trace_path_explicit = bool(settings.get("trace_path_explicit"))


@contextmanager
def use_mode(
    mode_name: str, trace_path: Optional[Union[str, Path]] = None
) -> Iterator[None]:
    """Scope a mode (and optionally a trace sink), restoring on exit."""
    global _mode, _trace_path, _trace_path_explicit
    saved = (_mode, _trace_path, _trace_path_explicit)
    try:
        configure(mode_name, trace_path)
        yield
    finally:
        _mode, _trace_path, _trace_path_explicit = saved


reset()
