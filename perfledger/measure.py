"""Run one workload for a fixed time and turn what it did into metrics.

A plain run visits the workload's corpus in laps until the time is up;
set-up is timed per visit and operations one by one. Timings are kept
per corpus position (unit, operation) and averaged there first, so every
position weighs the same however far into its last lap the run got.
Between visits the previous unit is released and garbage collected, so
each visit starts from the same heap and peak memory does not depend on
when the collector last ran.

A traced run measures the same visits twice, once with tracing off and
once on, in alternating order, so tracing overhead is the ratio of the
two over identical operations, and the per-layer metrics come from the
traced copies only.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Hashable, List

import numpy as np

from layers import OP_SPAN, LedgerError, Recorder, instrument, layer_metrics
from repro.exceptions import EstimationError
from repro.obs import TRACE, span, use_mode
from workloads import PerPosition, Step, Tally, Workload, per_position, position_means


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Timings:
    """Operation timings and counts, kept per corpus position."""

    samples: PerPosition = per_position()
    busy: PerPosition = per_position()
    work: PerPosition = per_position()
    attempted: int = 0
    failed: int = 0

    def record(self, position: Hashable, elapsed: float, step: Step) -> None:
        self.busy[position].append(elapsed)
        self.work[position].append(step.work)
        self.attempted += step.ops
        self.failed += step.failed
        if step.ops:
            self.samples[position].append(elapsed)

    def latency_ms(self, percentile: float) -> float:
        """A percentile of the sampled positions' mean latencies."""
        return float(np.percentile(position_means(self.samples), percentile)) * 1e3

    def throughput(self) -> float:
        """Work per second of operation time, over one lap of the corpus."""
        return sum(position_means(self.work)) / sum(position_means(self.busy))


def _run_unit(
    workload: Workload,
    unit,
    position: int,
    tally: Tally,
    timings: Timings,
    deadline: float,
    traced: bool = False,
) -> List[float]:
    """Run a unit's operations until it ends or the deadline passes.

    Returns the duration of every operation run. The deadline is only
    honoured once ``timings`` holds a latency sample, so even a run
    shorter than one operation reports one.
    """
    durations: List[float] = []
    for index, op in enumerate(workload.ops(unit, tally)):
        if timings.samples and time.perf_counter() >= deadline:
            break
        tally.position = (position, index)
        start = time.perf_counter()
        try:
            if traced:
                with use_mode(TRACE), span(OP_SPAN):
                    result = op.run()
            else:
                result = op.run()
        except EstimationError:
            elapsed = time.perf_counter() - start
            step = Step(work=0, ops=1, failed=1)
        else:
            elapsed = time.perf_counter() - start
            step = op.account(result)
        timings.record(tally.position, elapsed, step)
        durations.append(elapsed)
    return durations


def measure(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    """A plain run: the end-to-end metrics of ``workload``."""
    tally, timings = Tally(), Timings()
    setups: List[float] = []
    setup_rss = None
    deadline = time.perf_counter() + seconds
    visit = 0
    while not (timings.samples and time.perf_counter() >= deadline):
        position, lap = visit % workload.corpus_size, visit // workload.corpus_size
        start = time.perf_counter()
        unit = workload.setup(seed, position, lap)
        setups.append(time.perf_counter() - start)
        if setup_rss is None:
            setup_rss = peak_rss_mb()
        _run_unit(workload, unit, position, tally, timings, deadline)
        del unit
        gc.collect()
        visit += 1
    workload.finish(tally)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": timings.latency_ms(50),
        "op_p90_ms": timings.latency_ms(90),
        "work_per_s": timings.throughput(),
        "peak_rss_mb": peak_rss_mb(),
        "setup_rss_mb": setup_rss,
        "link_mae": tally.link_mae(),
        "identifiable_fraction": tally.identifiable_fraction(),
    }
    return _result(tally, [timings], metrics)


def measure_traced(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    """A traced run: the per-layer metrics of ``workload``."""
    tally, recorder = Tally(), Recorder()
    plain, traced = Timings(), Timings()
    plain_seconds = traced_seconds = 0.0
    deadline = time.perf_counter() + seconds
    visit = 0
    while not (plain.samples and traced.samples and time.perf_counter() >= deadline):
        position, lap = visit % workload.corpus_size, visit // workload.corpus_size
        # The first unit runs whole in both copies, so every layer it calls
        # is seen however short the run.
        until = deadline if visit else float("inf")
        durations = {}
        # Alternate which copy runs first so warm-up favours neither.
        for tracing in (visit % 2 == 1, visit % 2 == 0):
            unit = workload.setup(seed, position, lap)
            timings = traced if tracing else plain
            with instrument(recorder) if tracing else nullcontext():
                durations[tracing] = _run_unit(
                    workload, unit, position, tally, timings, until, traced=tracing
                )
            del unit
            gc.collect()
        shared = min(len(durations[False]), len(durations[True]))
        plain_seconds += sum(durations[False][:shared])
        traced_seconds += sum(durations[True][:shared])
        visit += 1
    workload.finish(tally)
    metrics = layer_metrics(recorder)
    for name in workload.expected_calls:
        if not metrics[f"{name}.calls_per_op"]:
            raise LedgerError(f"{workload.name}: the traced run never called {name}")
    metrics["obs.trace_overhead"] = traced_seconds / plain_seconds - 1.0
    return _result(tally, [plain, traced], metrics)


def _result(
    tally: Tally, timings: List[Timings], metrics: Dict[str, float]
) -> Dict[str, object]:
    return {
        "correct": not tally.problems,
        "attempted": sum(t.attempted for t in timings),
        "failed": sum(t.failed for t in timings),
        "metrics": metrics,
        "problems": tally.problems,
    }
