"""Shared estimator interface, configuration, and fitting utilities.

Every Probability Computation algorithm in this package runs the same
staged pipeline (see :mod:`repro.probability.pipeline`):

1. **prune** — determine the potentially congested links;
2. **frequency** — bind the fit to its empirical all-good frequency cache
   (cold, or checked out of a trial's shared workspace);
3. **discover** — assemble an unknown index (correlation subsets, or plain
   links for the Independence baseline) and the candidate path sets;
4. **assemble** — apply Eq. 1 in log domain and build the linear system;
5. **solve** — (bounded, optionally weighted) least squares;
6. **build_model** — wrap the solution into a
   :class:`CongestionProbabilityModel` carrying a :class:`FitReport`.

The algorithms differ in stages 3-4 and the model wrap; the common
plumbing lives here. ``FrequencyCache`` and ``FitReport`` are defined in
:mod:`repro.probability.pipeline` and re-exported here for compatibility.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.exceptions import EstimationError
from repro.model.status import ObservationMatrix
from repro.probability.pipeline import (
    EstimationPipeline,
    FitContext,
    FitReport,
    FrequencyCache,
    SharedFitWorkspace,
    StageFn,
)
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import potentially_congested_links
from repro.topology.graph import Network
from repro.util.rng import as_generator

__all__ = [
    "EstimatorConfig",
    "FitReport",
    "FrequencyCache",
    "ProbabilityEstimator",
    "log_frequency_weight",
    "log_frequency_weights",
    "sampled_path_combinations",
    "shared_sampled_pool",
    "singleton_path_sets",
]


@dataclass
class EstimatorConfig:
    """Tuning knobs shared by the estimators.

    Attributes
    ----------
    requested_subset_size:
        Compute the probabilities of all correlation subsets up to this many
        links (Section 4's "sets of one, two, or three links" resource
        knob). Individual links need size 1; Fig. 4(d) uses 2. Size 1
        admits multi-link unknowns only as the observed path sets demand
        them (:meth:`~repro.probability.subsets.SubsetIndex.build_observed`),
        the configuration for internet-scale topologies.
    hard_subset_cap:
        Absolute bound on the size of any unknown admitted to the index;
        equations that would touch a larger subset are unusable.
    path_set_max_size:
        Bound on the size of the path sets enumerated by Algorithm 1's
        line 11 (and by the baselines' equation pools).
    path_set_max_count:
        Cap on the number of path subsets enumerated per correlation subset.
    pair_sample:
        Number of random multi-path sets added to the candidate pool for
        unknown discovery and baseline equations.
    min_frequency:
        Path sets whose empirical all-good frequency is at or below this
        bound are unusable (``log 0``); leave at 0 to only skip never-good
        sets.
    weighted:
        Solve by precision-weighted least squares: the log of an empirical
        frequency ``f`` over ``T`` intervals has variance ``(1-f)/(f T)``,
        so equations built from rarely-good path sets are down-weighted
        accordingly. The Correlation-heuristic baseline deliberately ignores
        this (its unweighted redundant pool is the noise source the paper
        describes).
    seed:
        Randomness for sampled candidate pools and tie-breaking.
    """

    requested_subset_size: int = 2
    hard_subset_cap: int = 6
    path_set_max_size: int = 3
    path_set_max_count: int = 200
    pair_sample: int = 800
    min_frequency: float = 0.0
    weighted: bool = True
    pruning_tolerance: float = 0.02
    prior_weight: float = 1.0
    prior_mode: str = "independence"
    seed: Optional[int] = 7

    def validate(self) -> None:
        """Raise :class:`EstimationError` on inconsistent parameters."""
        if self.requested_subset_size < 1:
            raise EstimationError("requested_subset_size must be >= 1")
        if not 0.0 <= self.pruning_tolerance < 1.0:
            raise EstimationError("pruning_tolerance must be in [0, 1)")
        if self.prior_mode not in ("independence", "correlation"):
            raise EstimationError("prior_mode must be 'independence' or 'correlation'")
        if self.hard_subset_cap < self.requested_subset_size:
            raise EstimationError("hard_subset_cap < requested_subset_size")
        if self.path_set_max_size < 1 or self.path_set_max_count < 1:
            raise EstimationError("path-set enumeration bounds must be >= 1")
        if not 0.0 <= self.min_frequency < 1.0:
            raise EstimationError("min_frequency must be in [0, 1)")


def log_frequency_weight(frequency: float, num_intervals: int) -> float:
    """Precision (1/sigma) of ``log`` of an empirical frequency.

    A binomial proportion estimate ``f`` over ``T`` intervals has
    ``Var(log f) ~ (1 - f) / (f T)`` by the delta method, so the weight is
    ``sqrt(f T / (1 - f))``. ``f`` is clipped away from 0 and 1 to keep the
    weight finite.
    """
    return float(log_frequency_weights(np.array([frequency]), num_intervals)[0])


def log_frequency_weights(frequencies: np.ndarray, num_intervals: int) -> np.ndarray:
    """Vectorised :func:`log_frequency_weight` over a frequency array."""
    clipped = np.clip(
        np.asarray(frequencies, dtype=float),
        1.0 / (2.0 * num_intervals),
        0.999,
    )
    return np.sqrt(num_intervals * clipped / (1.0 - clipped))


def singleton_path_sets(
    observations: ObservationMatrix,
) -> List[FrozenSet[int]]:
    """All single-path sets that were good at least once."""
    always_congested = observations.always_congested_paths()
    return [
        frozenset({p})
        for p in range(observations.num_paths)
        if p not in always_congested
    ]


def sampled_path_combinations(
    network: Network,
    observations: ObservationMatrix,
    count: int,
    max_size: int,
    rng: np.random.Generator,
) -> List[FrozenSet[int]]:
    """Random small path sets biased toward paths sharing a correlation set.

    Paths that share an AS produce equations whose rows couple the joint
    unknowns of that AS — exactly the equations that distinguish correlated
    from independent links. Pure random combinations rarely intersect, so we
    sample a neighbour from the paths covering the links of a pivot path's
    ASes.
    """
    if count <= 0 or observations.num_paths < 2:
        return []
    always_congested = observations.always_congested_paths()
    usable = [p for p in range(observations.num_paths) if p not in always_congested]
    if len(usable) < 2:
        return []
    results: Set[FrozenSet[int]] = set()
    max_attempts = count * 6
    # All pivot and size draws happen as two vectorized RNG calls up front;
    # the loop then only draws neighbour picks. Pivot neighbourhoods are
    # deterministic and memoised, so repeated pivots cost dict lookups
    # instead of coverage set algebra.
    pivots = rng.integers(0, len(usable), size=max_attempts)
    if max_size >= 2:
        sizes = rng.integers(2, max_size + 1, size=max_attempts)
    else:
        sizes = np.full(max_attempts, 2)
    incidence = network.incidence
    usable_mask = np.zeros(observations.num_paths, dtype=bool)
    usable_mask[usable] = True
    neighbour_cache: Dict[int, List[int]] = {}
    for attempt in range(max_attempts):
        if len(results) >= count:
            break
        pivot = usable[pivots[attempt]]
        neighbours = neighbour_cache.get(pivot)
        if neighbours is None:
            # Paths sharing a link with the pivot, restricted to usable
            # paths; flatnonzero lists them in ascending order.
            covering_mask = incidence.sharing_mask(pivot)
            covering_mask &= usable_mask
            covering_mask[pivot] = False
            neighbours = np.flatnonzero(covering_mask).tolist()
            neighbour_cache[pivot] = neighbours
        size = int(sizes[attempt])
        members = {pivot}
        if neighbours:
            want = min(size - 1, len(neighbours))
            if want >= len(neighbours):
                members.update(neighbours)
            else:
                # Distinct picks by rejection on fast integer draws; path
                # sets are tiny relative to the neighbourhood, so repeats
                # are rare and each draw is a single cheap rng call.
                while len(members) < want + 1:
                    members.add(neighbours[rng.integers(len(neighbours))])
        else:
            members.add(usable[rng.integers(len(usable))])
        if len(members) >= 2:
            results.add(frozenset(members))
    return sorted(results, key=sorted)


#: Sampled candidate pools per observation set; weak keys so a pool (and
#: the Network objects in its keys) never outlives its observations.
_SAMPLED_POOLS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_sampled_pool(
    network: Network,
    observations: ObservationMatrix,
    count: int,
    max_size: int,
    seed: Optional[int],
) -> List[FrozenSet[int]]:
    """Seed-keyed memo around :func:`sampled_path_combinations`.

    Estimators with the same config draw the same candidate pool (the
    sampler is a pure function of network, observations, bounds, and seed),
    so the pool is computed once per observation set and shared. Unseeded
    estimators bypass the memo. Entries live exactly as long as their
    observation set (weak keys), so neither pools nor networks outlive it.
    """
    if seed is None:
        return sampled_path_combinations(
            network, observations, count, max_size, as_generator(None)
        )
    cache = _SAMPLED_POOLS.get(observations)
    if cache is None:
        cache = {}
        _SAMPLED_POOLS[observations] = cache
    key = (network, count, max_size, seed)
    pool = cache.get(key)
    if pool is None:
        pool = sampled_path_combinations(
            network, observations, count, max_size, as_generator(seed)
        )
        cache[key] = pool
    # Copy so an in-place mutation by one estimator cannot corrupt the
    # pool every later same-seed estimator receives.
    return list(pool)


class ProbabilityEstimator(ABC):
    """Abstract Probability Computation algorithm.

    Every estimator is a *stage configuration* of the shared
    :class:`~repro.probability.pipeline.EstimationPipeline`: subclasses
    implement the ``discover``, ``assemble``, and ``build_model`` stages
    (the ``prune``/``frequency``/``solve`` stages are common), and
    :meth:`fit` runs the pipeline over a fresh
    :class:`~repro.probability.pipeline.FitContext`, returning a queryable
    :class:`CongestionProbabilityModel` carrying a :class:`FitReport` on
    its ``report`` attribute.
    """

    #: Human-readable algorithm name (used in experiment tables).
    name: str = "abstract"

    def __init__(self, config: Optional[EstimatorConfig] = None) -> None:
        # Copy so per-estimator adjustments (e.g. the heuristic forcing
        # weighted=False) never leak into a config shared between estimators.
        self.config = replace(config) if config is not None else EstimatorConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    # The one fit path
    # ------------------------------------------------------------------
    def fit(
        self,
        network: Network,
        observations: ObservationMatrix,
        workspace: Optional[SharedFitWorkspace] = None,
    ) -> CongestionProbabilityModel:
        """Estimate congestion probabilities from path observations.

        ``workspace`` checks the fit into a trial's
        :class:`~repro.probability.pipeline.SharedFitWorkspace`: the fit
        reads the workspace's warm frequency cache and holds one of its
        equation arenas for the whole fit, instead of cold-starting both.
        Injection is fixed at context creation — the estimator itself
        stays stateless between fits.
        """
        if workspace is None:
            context = FitContext(network, observations, self.config)
            return self.pipeline().run(context)
        frequency = workspace.checkout(observations)
        with workspace.system_arena() as arena:
            context = FitContext(
                network,
                observations,
                self.config,
                frequency=frequency,
                system_workspace=arena,
            )
            return self.pipeline().run(context)

    def pipeline(self) -> EstimationPipeline:
        """This estimator's staged fit path."""
        return EstimationPipeline(self._stages(), name=self.name)

    def stage_names(self) -> List[str]:
        """The estimator's pipeline stages, in execution order."""
        return [name for name, _ in self._stages()]

    def _stages(self) -> List[Tuple[str, StageFn]]:
        return [
            ("prune", self._stage_prune),
            ("frequency", self._stage_frequency),
            ("discover", self._stage_discover),
            ("assemble", self._stage_assemble),
            ("solve", self._stage_solve),
            ("build_model", self._stage_build_model),
        ]

    # ------------------------------------------------------------------
    # Shared stages
    # ------------------------------------------------------------------
    def _stage_prune(self, context: FitContext) -> None:
        """Drop always-good links; short-circuit when nothing can congest."""
        context.active = potentially_congested_links(
            context.network, context.observations, self.config.pruning_tolerance
        )
        context.always_good = (
            frozenset(range(context.network.num_links)) - context.active
        )
        if not context.active:
            context.finish(self._empty_model(context), FitReport())

    def _stage_frequency(self, context: FitContext) -> None:
        """Bind the fit's frequency cache (cold unless a workspace injected
        a warm one). Per-fit hit/miss accounting needs no snapshot here:
        the pipeline's context-local counter scope collects it."""
        if context.frequency is None:
            context.frequency = FrequencyCache(context.observations)

    def _stage_solve(self, context: FitContext) -> None:
        """Bounded least squares in log domain (probabilities <= 1)."""
        context.solution = context.system.solve(upper_bound=0.0)

    # ------------------------------------------------------------------
    # Estimator-specific stages
    # ------------------------------------------------------------------
    @abstractmethod
    def _stage_discover(self, context: FitContext) -> None:
        """Build the unknown index and candidate path sets."""

    @abstractmethod
    def _stage_assemble(self, context: FitContext) -> None:
        """Turn usable path sets into the log-domain equation system."""

    @abstractmethod
    def _stage_build_model(self, context: FitContext) -> None:
        """Wrap the solution into the model + report (``context.finish``)."""

    def _empty_model(self, context: FitContext) -> CongestionProbabilityModel:
        """The model when pruning leaves no potentially congested link."""
        return CongestionProbabilityModel(
            context.network, {}, {}, always_good_links=context.always_good
        )
