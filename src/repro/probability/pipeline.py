"""Staged estimation pipeline: one fit path for every estimator.

The paper's Probability Computation is a single conceptual pipeline —
prune always-good links, derive empirical all-good frequencies, discover
the identifiable correlation unknowns, assemble the log-domain equation
system, solve, and wrap the solution into a queryable model. This module
makes that pipeline explicit:

* :class:`FitContext` — the state of one fit. Its *inputs* (network,
  observations, config, the :class:`FrequencyCache`, the
  :class:`~repro.linalg.system.SystemWorkspace`) are fixed at creation —
  cache injection happens here, immutably, instead of through mutable
  estimator attributes — and each stage fills its product slots.
* :class:`EstimationPipeline` — runs an estimator's stage list over a
  context, timing every stage into the extended :class:`FitReport`.
* :class:`SharedFitWorkspace` — trial-scoped state shared by several
  fits against one observation set: a warm :class:`FrequencyCache` plus
  reusable equation-system arenas, one per fit in flight. Sweep drivers
  fit all three estimators of a (topology, scenario, seed) cell against
  one warm cache instead of three cold ones, and the streaming engine
  carries its prefetched window workload through the same mechanism.

Estimators declare *stage configurations* (see
:mod:`repro.probability.registry`); the pipeline itself is estimator
agnostic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.system import EquationSystem, SystemWorkspace
from repro.model.kernels import active_kernel
from repro.model.status import ObservationMatrix
from repro.obs import (
    LocalCounters,
    bump_local,
    counter,
    histogram,
    local_counters,
    span,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linalg.system import Solution
    from repro.probability.base import EstimatorConfig
    from repro.probability.query import CongestionProbabilityModel
    from repro.probability.subsets import SubsetIndex
    from repro.topology.graph import Network

# Telemetry families of the estimation layer (collected under
# REPRO_OBS=metrics|trace; declarations alone cost nothing).
_FITS_TOTAL = counter(
    "repro_pipeline_fits_total",
    "Completed estimation pipeline fits.",
    ["estimator"],
)
_STAGE_SECONDS = histogram(
    "repro_pipeline_stage_seconds",
    "Wall time per executed pipeline stage.",
    ["stage"],
)
_CACHE_HITS = counter(
    "repro_frequency_cache_hits_total",
    "FrequencyCache lookups served from the memo.",
)
_CACHE_MISSES = counter(
    "repro_frequency_cache_misses_total",
    "FrequencyCache lookups computed by the packed kernel.",
)
_CACHE_EVICTIONS = counter(
    "repro_frequency_cache_evictions_total",
    "FrequencyCache FIFO evictions under the entry bound.",
)

#: Canonical stage order of every estimator's fit.
STAGE_ORDER: Tuple[str, ...] = (
    "prune",
    "frequency",
    "discover",
    "assemble",
    "solve",
    "build_model",
)


@dataclass
class FitReport:
    """Diagnostics attached to every fitted model.

    Attributes
    ----------
    num_unknowns, num_equations, rank:
        Size and rank of the solved system.
    num_identifiable:
        Unknowns pinned down uniquely.
    residual:
        Root-mean-square equation residual.
    path_sets:
        The path sets whose Eq. 1 equations entered the system, in
        selection order (Algorithm 1's output ``P^``).
    frequency_cache_hits, frequency_cache_misses:
        :class:`FrequencyCache` traffic during *this fit* — how often an
        empirical all-good frequency was re-used vs computed by the packed
        kernel. Counted by a context-local scope the pipeline opens around
        the fit (:func:`repro.obs.local_counters`), so a fit against a warm
        :class:`SharedFitWorkspace` cache reports its own traffic — and two
        fits sharing one cache concurrently under the thread executor each
        see only their own, where the old global-snapshot deltas would
        attribute both fits' traffic to whichever finished last.
    equation_storage_bytes:
        Logical bytes of the assembled equation system's storage
        (:attr:`repro.linalg.system.EquationSystem.storage_nbytes`): one
        ``(column, value)`` pair per nonzero plus per-row scalars, without
        solve transients. The scaling study and the ledger report it.
    stage_seconds:
        Wall time per executed pipeline stage, keyed by stage name in
        execution order (see :data:`STAGE_ORDER`).
    kernel:
        Name of the frequency kernel (:mod:`repro.model.kernels`) active
        when the pipeline finished this fit — diagnostic only; kernels are
        bit-identical, so it never explains a numeric difference.
    """

    num_unknowns: int = 0
    num_equations: int = 0
    rank: int = 0
    num_identifiable: int = 0
    residual: float = 0.0
    path_sets: List[FrozenSet[int]] = field(default_factory=list)
    frequency_cache_hits: int = 0
    frequency_cache_misses: int = 0
    equation_storage_bytes: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    kernel: str = ""

    @property
    def total_seconds(self) -> float:
        """Summed wall time of every executed stage."""
        return float(sum(self.stage_seconds.values()))


class FrequencyCache:
    """Batch-aware, bounded memo over empirical all-good frequencies.

    A thin facade over the observation backend's batched Eq. 1 kernel
    (:meth:`repro.model.status.ObservationMatrix.all_good_frequencies`):
    single queries memoise through ``__call__``, and :meth:`query_many`
    evaluates a whole batch of path sets in one packed-kernel invocation,
    only computing the sets the memo has not seen.

    The memo is *bounded* (``max_entries``, FIFO eviction) so that windowed
    and long-horizon reruns cannot grow it without limit, and it counts
    hits/misses/evictions for diagnosability — estimators surface the
    counters in :class:`FitReport`.
    """

    #: Default bound on memoised path sets (~a few MB of keys at worst).
    DEFAULT_MAX_ENTRIES = 65536

    def __init__(
        self,
        observations: ObservationMatrix,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise EstimationError("FrequencyCache max_entries must be >= 1")
        self._observations = observations
        self._cache: Dict[FrozenSet[int], float] = {}
        self._max_entries = max_entries
        # Keys accessed since the last reset_touched(), in first-touch
        # order (a dict used as an ordered set). ``None`` = tracking off
        # (the default), so ordinary fits pay neither time nor memory;
        # reset_touched() switches it on.
        self._touched: Optional[Dict[FrozenSet[int], None]] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def observations(self) -> ObservationMatrix:
        """The observation set whose frequencies this cache memoises."""
        return self._observations

    @property
    def num_intervals(self) -> int:
        """Observation horizon ``T`` backing the frequencies."""
        return self._observations.num_intervals

    def _store(self, key: FrozenSet[int], value: float) -> None:
        if len(self._cache) >= self._max_entries:
            # FIFO eviction: drop the oldest insertion (dicts preserve
            # insertion order). Estimators touch a path set in bursts, so
            # recency-of-insertion is a good enough proxy for usefulness.
            self._cache.pop(next(iter(self._cache)))
            self.evictions += 1
            bump_local("frequency_cache.evictions")
            _CACHE_EVICTIONS.inc()
        self._cache[key] = value

    def __call__(self, path_set: Iterable[int]) -> float:
        key = frozenset(path_set)
        if self._touched is not None:
            self._touched[key] = None
        value = self._cache.get(key)
        if value is None:
            self.misses += 1
            bump_local("frequency_cache.misses")
            _CACHE_MISSES.inc()
            value = self._observations.all_good_frequency(key)
            self._store(key, value)
        else:
            self.hits += 1
            bump_local("frequency_cache.hits")
            _CACHE_HITS.inc()
        return value

    def query_many(self, path_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Frequencies for a batch of path sets, one kernel call for misses.

        Returns a float array aligned with ``path_sets``. Duplicate keys
        within the batch are evaluated once.
        """
        keys = [frozenset(path_set) for path_set in path_sets]
        resolved: Dict[FrozenSet[int], float] = {}
        missing: List[FrozenSet[int]] = []
        if self._touched is not None:
            for key in keys:
                self._touched[key] = None
        batch_hits = 0
        for key in keys:
            if key in resolved:
                continue
            value = self._cache.get(key)
            if value is None:
                missing.append(key)
            else:
                batch_hits += 1
                resolved[key] = value
        if batch_hits:
            self.hits += batch_hits
            bump_local("frequency_cache.hits", batch_hits)
            _CACHE_HITS.inc(batch_hits)
        if missing:
            self.misses += len(missing)
            bump_local("frequency_cache.misses", len(missing))
            _CACHE_MISSES.inc(len(missing))
            values = self._observations.all_good_frequencies(missing)
            for key, value in zip(missing, values):
                resolved[key] = float(value)
                self._store(key, float(value))
        return np.array([resolved[key] for key in keys])

    def prefetch(self, path_sets: Sequence[Iterable[int]]) -> None:
        """Warm the memo for ``path_sets`` without returning values."""
        self.query_many(path_sets)

    def reset_touched(self) -> None:
        """Start (or restart) access tracking from an empty touched set.

        Tracking is off by default so ordinary fits keep the documented
        bounded-memory behaviour; callers that need the access trace (the
        streaming engine, between prefetch and fit) switch it on here and
        clear it with the same call on each reuse.
        """
        self._touched = {}

    def touched_keys(self) -> List[FrozenSet[int]]:
        """Path sets accessed since the last :meth:`reset_touched`.

        The streaming engine prefetches the previous workload, resets, and
        harvests these after the fit — so the carried workload is exactly
        the frequency queries the fit actually made, and path sets the
        estimator no longer needs fall out instead of accumulating.
        Empty when tracking was never enabled.
        """
        return list(self._touched) if self._touched is not None else []


class SharedFitWorkspace:
    """Trial-scoped state shared by several fits against one observation set.

    Holds the warm :class:`FrequencyCache` and a pool of reusable
    :class:`~repro.linalg.system.SystemWorkspace` arenas that the fits in
    one sweep cell (topology, scenario, seed) check out instead of
    cold-starting. Frequencies are pure functions of (observations, path
    set), so a cache hit returns the exact value a cold fit would compute
    — shared-workspace fits are bit-identical to cold-cache fits, only
    cheaper.

    An arena holds one live equation system at a time, so every fit in
    flight gets its own: :meth:`system_arena` hands out an idle arena (or
    a new one when all are busy) and takes it back when the fit ends.
    Serial fits therefore keep reusing one arena, while concurrent fits
    never recycle each other's equations.

    Parameters
    ----------
    observations:
        The observation set every fit through this workspace must target;
        :meth:`checkout` rejects any other (a silently mismatched cache
        would poison every estimate).
    max_entries:
        Bound on the shared frequency memo.
    system:
        An existing equation-system arena to adopt as the first idle one
        (the streaming engine carries one across windows).
    """

    def __init__(
        self,
        observations: ObservationMatrix,
        max_entries: int = FrequencyCache.DEFAULT_MAX_ENTRIES,
        system: Optional[SystemWorkspace] = None,
    ) -> None:
        self.observations = observations
        self.frequency = FrequencyCache(observations, max_entries)
        self._idle_arenas: List[SystemWorkspace] = [] if system is None else [system]
        self._arena_lock = threading.Lock()

    def checkout(self, observations: ObservationMatrix) -> FrequencyCache:
        """The shared cache, after verifying the observation set matches."""
        if observations is not self.observations:
            raise EstimationError(
                "SharedFitWorkspace is bound to a different observation set; "
                "build one workspace per observation matrix"
            )
        return self.frequency

    @contextmanager
    def system_arena(self) -> Iterator[SystemWorkspace]:
        """An equation arena no other fit in flight holds, for one fit."""
        with self._arena_lock:
            arena = self._idle_arenas.pop() if self._idle_arenas else SystemWorkspace()
        try:
            yield arena
        finally:
            with self._arena_lock:
                self._idle_arenas.append(arena)


#: One pipeline stage: mutates the context's product slots in place.
StageFn = Callable[["FitContext"], None]


@dataclass
class FitContext:
    """Everything one fit reads and produces, stage by stage.

    The first five fields are the fit's *inputs* and are fixed at
    creation (``frequency`` may start ``None`` for cold fits — the
    ``frequency`` stage then builds the per-fit cache). The remaining
    fields are product slots, each owned by the stage of the same phase;
    stages only ever fill slots, never re-point the inputs.
    """

    network: "Network"
    observations: ObservationMatrix
    config: "EstimatorConfig"
    frequency: Optional[FrequencyCache] = None
    system_workspace: Optional[SystemWorkspace] = None
    # --- prune products -------------------------------------------------
    active: FrozenSet[int] = frozenset()
    always_good: FrozenSet[int] = frozenset()
    # --- discover products ----------------------------------------------
    index: Optional["SubsetIndex"] = None
    pool: List[FrozenSet[int]] = field(default_factory=list)
    path_sets: List[FrozenSet[int]] = field(default_factory=list)
    # --- assemble products ----------------------------------------------
    extra_path_sets: List[FrozenSet[int]] = field(default_factory=list)
    used_path_sets: List[FrozenSet[int]] = field(default_factory=list)
    system: Optional[EquationSystem] = None
    # --- solve / build_model products -----------------------------------
    solution: Optional["Solution"] = None
    model: Optional["CongestionProbabilityModel"] = None
    report: Optional[FitReport] = None
    # --- bookkeeping ----------------------------------------------------
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    done: bool = False
    # Per-fit cache-counter scope, opened by EstimationPipeline.run().
    # Context-local (one per thread of execution), so concurrent fits
    # sharing a SharedFitWorkspace cache under the thread executor each
    # account only their own traffic — global-counter snapshots would
    # fold the other fit's hits into this fit's delta.
    _local: Optional[LocalCounters] = None

    @property
    def frequency_hits(self) -> int:
        """Cache hits this fit made (scope-local count)."""
        return self._local.get("frequency_cache.hits") if self._local else 0

    @property
    def frequency_misses(self) -> int:
        """Cache misses this fit made (scope-local count)."""
        return self._local.get("frequency_cache.misses") if self._local else 0

    def finish(
        self, model: "CongestionProbabilityModel", report: FitReport
    ) -> None:
        """Record the finished model/report and stop the pipeline."""
        self.model = model
        self.report = report
        self.done = True


class EstimationPipeline:
    """Run a named stage list over a :class:`FitContext`.

    Stages execute in order; a stage may short-circuit the rest by calling
    :meth:`FitContext.finish` (the prune stage does, when nothing is
    potentially congested). Each stage runs inside a telemetry span
    (``pipeline.<stage>``, under a ``pipeline.fit`` parent) whose elapsed
    time is *also* the ``stage_seconds`` entry of the report — the trace
    and the report are the same measurement, not two clocks.
    """

    def __init__(
        self, stages: Sequence[Tuple[str, StageFn]], name: str = "unknown"
    ) -> None:
        if not stages:
            raise EstimationError("EstimationPipeline needs at least one stage")
        names = [name for name, _ in stages]
        if len(set(names)) != len(names):
            raise EstimationError(f"duplicate pipeline stage names: {names}")
        self._stages: List[Tuple[str, StageFn]] = list(stages)
        self._name = name

    @property
    def stage_names(self) -> List[str]:
        """The stage names, in execution order."""
        return [name for name, _ in self._stages]

    def run(self, context: FitContext) -> "CongestionProbabilityModel":
        """Execute the stages and return the fitted, report-carrying model."""
        with local_counters() as local, span(
            "pipeline.fit", estimator=self._name
        ):
            context._local = local
            for name, stage in self._stages:
                with span(f"pipeline.{name}", estimator=self._name) as sp:
                    stage(context)
                context.stage_seconds[name] = sp.elapsed
                _STAGE_SECONDS.observe(sp.elapsed, stage=name)
                if context.done:
                    break
        if context.model is None or context.report is None:
            raise EstimationError(
                "estimation pipeline finished without producing a model"
            )
        _FITS_TOTAL.inc(estimator=self._name)
        context.report.stage_seconds = dict(context.stage_seconds)
        context.report.kernel = active_kernel().name
        context.model.report = context.report  # type: ignore[attr-defined]
        return context.model
