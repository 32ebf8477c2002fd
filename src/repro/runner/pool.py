"""Sharded trial execution across processes with a deterministic merge.

The executor takes a list of :class:`~repro.runner.spec.TrialSpec` and a
top-level *trial function* ``fn(spec, cache) -> payload`` and runs every
trial, either inline (``workers=1`` — the serial path is the degenerate
single-shard case of the same code) or sharded across a
``concurrent.futures.ProcessPoolExecutor``, at the cost of pickling specs
(with their embedded experiments/packed words) into workers.

Three properties the experiment drivers rely on:

* **Determinism** — trials derive all randomness from their spec, shards
  are formed by a deterministic longest-processing-time partition, and the
  merge reassembles results in spec-index order, so the merged output is
  bit-identical whatever ``workers`` is and whichever shard finishes first.
* **Locality** — trials sharing ``spec.group`` are kept on one shard and
  handed a shard-local ``cache`` dict, so expensive intermediates (a
  simulated experiment reused by three estimators) are built once per
  shard; packed observation matrices cross process boundaries only in
  their uint64 word form (:class:`repro.model.status.ObservationMatrix`
  pickles as its word array).
* **Fault surfacing** — a trial that raises aborts the sweep with a
  :class:`~repro.runner.spec.TrialError` naming the failing sweep cell and
  carrying the worker traceback; a worker process that dies outright
  (segfault, ``os._exit``) is mapped to the shard it was running instead
  of hanging the pool.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import (
    apply_runtime_config,
    capture_metrics,
    counter,
    current_span_id,
    event,
    gauge,
    histogram,
    merge_snapshot,
    metrics_enabled,
    parent_scope,
    runtime_config,
    span,
)
from repro.runner.spec import TrialError, TrialResult, TrialSpec

# Runner telemetry (REPRO_OBS=metrics|trace). Shards record into
# capture-local registries that the parent merges in shard-index order, so
# the merged totals are identical whether the shards ran inline or in
# worker processes.
_TRIALS_TOTAL = counter(
    "repro_runner_trials_total",
    "Trials completed by shard workers.",
)
_SHARD_SECONDS = histogram(
    "repro_runner_shard_seconds",
    "Wall time per completed shard.",
)
_QUEUE_WAIT_SECONDS = histogram(
    "repro_runner_queue_wait_seconds",
    "Delay between shard submission and a worker picking it up.",
)
_MERGE_SECONDS = histogram(
    "repro_runner_merge_seconds",
    "Time reassembling shard results into canonical sweep order.",
)
_SHARD_UTILIZATION = gauge(
    "repro_runner_shard_utilization",
    "Fraction of a shard's wall time spent inside trials.",
    ["shard"],
)

#: Signature of a campaign's trial function. ``cache`` is shard-local and
#: may be used to share intermediates between same-group trials.
TrialFn = Callable[[TrialSpec, Dict[Any, Any]], Any]

#: Signature of the optional progress callback.
ProgressFn = Callable[["ShardReport"], None]


@dataclass
class ShardReport:
    """Progress/timing record emitted once per completed shard."""

    shard: int
    num_shards: int
    elapsed: float
    worker_pid: int
    trials: List[Tuple[str, float]] = field(default_factory=list)
    #: Seconds between shard submission and its worker starting (0 on the
    #: serial path, which never queues).
    queue_wait: float = 0.0

    def describe(self) -> str:
        """One progress line: shard position, size, and wall time."""
        return (
            f"shard {self.shard + 1}/{self.num_shards}: "
            f"{len(self.trials)} trial(s) in {self.elapsed:.2f}s "
            f"(pid {self.worker_pid})"
        )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request (``None``/``0`` = all local CPUs)."""
    if workers is None or workers == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError(f"workers must be >= 1 or None, got {workers}")
    return workers


def partition_specs(specs: Sequence[TrialSpec], shards: int) -> List[List[TrialSpec]]:
    """Deterministically partition trials into at most ``shards`` shards.

    Trials sharing a ``group`` stay together (they share cached
    intermediates); groups are balanced across shards greedily by summed
    ``cost`` in longest-processing-time order, ties broken by first spec
    index so the partition never depends on dict order or timing.
    """
    groups: Dict[Any, List[TrialSpec]] = {}
    for spec in specs:
        key = spec.group if spec.group else ("__solo__", spec.index)
        groups.setdefault(key, []).append(spec)
    ordered = sorted(
        groups.values(),
        key=lambda members: (
            -sum(spec.cost for spec in members),
            min(spec.index for spec in members),
        ),
    )
    shards = max(1, min(shards, len(ordered)))
    loads = [0.0] * shards
    assignment: List[List[TrialSpec]] = [[] for _ in range(shards)]
    for members in ordered:
        target = min(range(shards), key=lambda i: (loads[i], i))
        assignment[target].extend(members)
        loads[target] += sum(spec.cost for spec in members)
    for shard in assignment:
        shard.sort(key=lambda spec: spec.index)
    return [shard for shard in assignment if shard]


@dataclass
class _ShardOutcome:
    """What a shard sends back: per-trial rows, or the first failure hit.

    ``results`` rows are ``(spec index, payload, elapsed)`` — the specs
    themselves are *not* echoed back (the parent already holds them, and
    they can carry multi-MB pre-simulated experiments in ``params``), so
    the return trip ships only the payloads.
    """

    shard: int
    worker_pid: int
    elapsed: float
    results: List[Tuple[int, Any, float]] = field(default_factory=list)
    failed_index: Optional[int] = None
    failure_traceback: str = ""
    #: Seconds the shard sat queued before its worker started.
    queue_wait: float = 0.0
    #: Shard-local metrics snapshot (None when telemetry is off).
    metrics: Optional[dict] = None


def _run_shard(
    trial_fn: TrialFn,
    shard: int,
    specs: List[TrialSpec],
    submitted_at: Optional[float] = None,
    parent_span: Optional[str] = None,
    obs_settings: Optional[dict] = None,
) -> _ShardOutcome:
    """Run one shard's trials in spec order with a shard-local cache.

    Top-level (picklable) so it can be shipped to pool workers; also the
    exact code path of the serial run. The last three parameters carry
    telemetry context across the executor boundary: the submission
    timestamp (``perf_counter`` is CLOCK_MONOTONIC on Linux, comparable
    across the fork), the parent span id (worker processes start with
    fresh span contexts), and the parent's
    :func:`repro.obs.runtime_config` (spawned workers re-read their own
    environment otherwise). Metric updates land in a capture-local
    registry shipped back on the outcome — never directly in a worker's
    global registry.
    """
    if obs_settings is not None:
        apply_runtime_config(obs_settings)
    queue_wait = (
        max(0.0, perf_counter() - submitted_at) if submitted_at is not None else 0.0
    )
    outcome = _ShardOutcome(
        shard=shard, worker_pid=os.getpid(), elapsed=0.0, queue_wait=queue_wait
    )
    cache: Dict[Any, Any] = {}
    with parent_scope(parent_span), capture_metrics() as captured:
        event("runner.worker.start", shard=shard, pid=os.getpid())
        with span("runner.shard", shard=shard, trials=len(specs)) as shard_span:
            if metrics_enabled():
                _QUEUE_WAIT_SECONDS.observe(queue_wait)
            busy = 0.0
            for spec in specs:
                try:
                    with span("runner.trial", index=spec.index) as trial_span:
                        payload = trial_fn(spec, cache)
                except Exception:
                    outcome.failed_index = spec.index
                    outcome.failure_traceback = traceback.format_exc()
                    break
                outcome.results.append((spec.index, payload, trial_span.elapsed))
                busy += trial_span.elapsed
                _TRIALS_TOTAL.inc()
        outcome.elapsed = shard_span.elapsed
        if metrics_enabled():
            _SHARD_SECONDS.observe(shard_span.elapsed)
            _SHARD_UTILIZATION.set(
                busy / shard_span.elapsed if shard_span.elapsed > 0 else 0.0,
                shard=str(shard),
            )
            outcome.metrics = captured.snapshot()
        event("runner.worker.stop", shard=shard, pid=os.getpid())
    return outcome


def _abort_pool(pool) -> None:
    """Shut the pool down and kill its in-flight worker processes.

    ``shutdown(cancel_futures=True)`` only cancels *unstarted* shards; a
    shard already running — possibly the hung trial that triggered the
    abort — would otherwise keep its non-daemon worker alive (and the
    interpreter waiting on it at exit) until the trial finished on its
    own. There is no public API for terminating workers, so snapshot the
    executor's process table *before* shutdown clears it, then SIGTERM
    the survivors.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.terminate()
        except (OSError, ValueError):
            pass  # already dead or being reaped


def _pool_context():
    """Multiprocessing context for the shard pool.

    ``fork`` (where available) keeps worker start-up cheap — the parent has
    already paid numpy/scipy import costs — while the default context keeps
    the runner working on spawn-only platforms.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_trials(
    trial_fn: TrialFn,
    specs: Sequence[TrialSpec],
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    timeout: Optional[float] = None,
) -> List[TrialResult]:
    """Execute every trial and merge results in canonical sweep order.

    Parameters
    ----------
    trial_fn:
        Top-level function ``(spec, cache) -> payload``; must be
        importable by name (picklable) when ``workers > 1``.
    specs:
        The sweep's trials; ``spec.index`` values must be distinct.
    workers:
        Shard count: ``1`` runs inline (serial), ``None``/``0`` uses all
        local CPUs, ``N`` uses at most N workers.
    progress:
        Called with a :class:`ShardReport` as each shard completes.
    timeout:
        Overall wall-clock bound in seconds; on expiry the pool is torn
        down, its workers are SIGTERMed, and a :class:`TrialError` lists
        the unfinished shards.

    Returns
    -------
    list of :class:`TrialResult`, sorted by ``spec.index`` — the same list
    whatever the shard layout, because trials are pure
    functions of their specs.
    """
    specs = list(specs)
    if not specs:
        return []
    by_index = {spec.index: spec for spec in specs}
    if len(by_index) != len(specs):
        raise ValueError("trial spec indices must be distinct")
    shards = partition_specs(specs, resolve_workers(workers))
    if len(shards) == 1 or resolve_workers(workers) == 1:
        outcomes = []
        for shard_index, shard in enumerate(shards):
            outcome = _run_shard(trial_fn, shard_index, shard)
            _check_outcome(outcome, by_index)
            _report(progress, outcome, len(shards), by_index)
            outcomes.append(outcome)
        return _finish(outcomes, specs, by_index)

    outcomes = []
    parent_span = current_span_id()
    obs_settings = runtime_config()
    pool = ProcessPoolExecutor(max_workers=len(shards), mp_context=_pool_context())
    # Not a ``with`` block: ``Executor.__exit__`` joins workers, which
    # would hold the abort path's TrialError behind a hung trial. Errors
    # shut down without waiting; the success path waits so no worker
    # outlives its sweep.
    try:
        futures = {
            pool.submit(
                _run_shard,
                trial_fn,
                shard_index,
                shard,
                perf_counter(),
                parent_span,
                obs_settings,
            ): (
                shard_index,
                shard,
            )
            for shard_index, shard in enumerate(shards)
        }
        try:
            for future in as_completed(futures, timeout=timeout):
                shard_index, shard = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    _abort_pool(pool)
                    # Pool breakage poisons every unfinished future, so the
                    # first broken future seen is not necessarily the shard
                    # whose worker died: name every shard that did not
                    # finish cleanly as a candidate.
                    finished = {
                        other
                        for other in futures
                        if other.done()
                        and not other.cancelled()
                        and other.exception() is None
                    }
                    candidates = "; ".join(
                        spec.describe()
                        for other, (_, other_shard) in futures.items()
                        if other not in finished
                        for spec in other_shard
                    )
                    raise TrialError(
                        "a worker process died while running shard "
                        f"{shard_index + 1}/{len(shards)} "
                        f"(candidate trials: {candidates})",
                        spec=shard[0],
                    ) from exc
                if outcome.failed_index is not None:
                    _abort_pool(pool)
                    _check_outcome(outcome, by_index)
                _report(progress, outcome, len(shards), by_index)
                outcomes.append(outcome)
        except FutureTimeout:
            _abort_pool(pool)
            stuck = sorted(
                spec.describe()
                for future, (_, shard) in futures.items()
                if not future.done()
                for spec in shard
            )
            raise TrialError(
                f"sweep timed out after {timeout}s; unfinished trials: "
                + "; ".join(stuck)
            ) from None
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return _finish(outcomes, specs, by_index)


def _finish(
    outcomes: List[_ShardOutcome],
    specs: Sequence[TrialSpec],
    by_index: Dict[int, TrialSpec],
) -> List[TrialResult]:
    """Fold shard telemetry into this process's registry, then merge.

    Metrics snapshots merge in shard-index order — not completion order —
    so the parent registry ends up identical however the shards'
    finishes interleaved.
    """
    for outcome in sorted(outcomes, key=lambda o: o.shard):
        if outcome.metrics is not None:
            merge_snapshot(outcome.metrics)
    with span("runner.merge", shards=len(outcomes)) as merge_span:
        results = _merge(outcomes, specs, by_index)
    if metrics_enabled():
        _MERGE_SECONDS.observe(merge_span.elapsed)
    return results


def _check_outcome(outcome: _ShardOutcome, by_index: Dict[int, TrialSpec]) -> None:
    """Raise the shard's recorded trial failure, if any."""
    if outcome.failed_index is not None:
        spec = by_index[outcome.failed_index]
        raise TrialError(
            f"trial '{spec.describe()}' (index {spec.index}) failed:\n"
            f"{outcome.failure_traceback}",
            spec=spec,
            traceback_text=outcome.failure_traceback,
        )


def _report(
    progress: Optional[ProgressFn],
    outcome: _ShardOutcome,
    num_shards: int,
    by_index: Dict[int, TrialSpec],
) -> None:
    if progress is None:
        return
    progress(
        ShardReport(
            shard=outcome.shard,
            num_shards=num_shards,
            elapsed=outcome.elapsed,
            worker_pid=outcome.worker_pid,
            trials=[
                (by_index[index].describe(), elapsed)
                for index, _, elapsed in outcome.results
            ],
            queue_wait=outcome.queue_wait,
        )
    )


def _merge(
    outcomes: Sequence[_ShardOutcome],
    specs: Sequence[TrialSpec],
    by_index: Dict[int, TrialSpec],
) -> List[TrialResult]:
    """Reassemble shard results in canonical sweep order.

    Payloads are rebound to the parent-held spec objects — workers never
    echo specs back.
    """
    rows = {
        index: (payload, elapsed, outcome.worker_pid)
        for outcome in outcomes
        for index, payload, elapsed in outcome.results
    }
    missing = [spec for spec in specs if spec.index not in rows]
    if missing:
        raise TrialError(
            "sweep finished without results for: "
            + "; ".join(spec.describe() for spec in missing),
            spec=missing[0],
        )
    ordered = sorted(specs, key=lambda spec: spec.index)
    return [
        TrialResult(
            spec=spec,
            payload=rows[spec.index][0],
            elapsed=rows[spec.index][1],
            worker_pid=rows[spec.index][2],
        )
        for spec in ordered
    ]
