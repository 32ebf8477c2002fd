"""Wall-clock timer.

``Timer`` is the telemetry-free primitive: two ``perf_counter`` calls
and an ``elapsed`` attribute, exactly what the experiment harness and
benchmarks need. Code that wants the measurement *and* telemetry uses
:func:`repro.obs.span` instead — a span is a ``Timer`` that also knows
its name, parents, and sink.
"""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Example
    -------
    >>> with Timer() as t:
    ...     sum(range(1000))
    500500
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self.start


__all__ = ["Timer"]
