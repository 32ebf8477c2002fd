"""Correlation-heuristic: the earlier estimator of [9].

Like Correlation-complete it assumes Correlation Sets (Assumption 5) and
works with joint unknowns per correlation subset, but instead of *selecting*
a minimal rank-increasing collection of path sets, it pours a large redundant
equation pool into the solver: every single path, every subset selector, and
a big sample of multi-path combinations (including large ones whose all-good
frequencies are small and therefore noisy in log domain).

This is the behaviour the paper contrasts against: "these algorithms create
a significantly larger number of equations than ours, which introduces more
noise when solving the system" (Section 5.4) — on sparse topologies its
per-link accuracy sits between Independence and Correlation-complete.
Following [9], it reports *individual-link* probabilities (joint estimates
exist internally but are not advertised as identifiable).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.system import EquationSystem
from repro.probability.base import (
    ProbabilityEstimator,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.pipeline import FitContext, FitReport
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import SubsetIndex


class CorrelationHeuristicEstimator(ProbabilityEstimator):
    """Per-link probabilities under Correlation Sets, via a redundant pool."""

    name = "Correlation-heuristic"

    #: Multiplier on the configured pair sample: the heuristic deliberately
    #: uses a much larger equation pool than Correlation-complete.
    POOL_FACTOR = 3

    def __init__(self, config=None) -> None:
        super().__init__(config)
        # The defining flaw of the heuristic: its redundant pool is solved
        # unweighted, so rarely-good (high-variance) path sets inject noise.
        self.config.weighted = False

    def _stage_discover(self, context: FitContext) -> None:
        """Redundant pool (singletons, oversampled combos, selectors) plus
        the singleton-subset index the joint unknowns live in."""
        pool: List[FrozenSet[int]] = list(singleton_path_sets(context.observations))
        pool.extend(
            shared_sampled_pool(
                context.network,
                context.observations,
                count=self.config.pair_sample * self.POOL_FACTOR,
                # Larger sets than Correlation-complete enumerates: their
                # small all-good frequencies carry most of the extra noise.
                max_size=self.config.path_set_max_size + 2,
                seed=self.config.seed,
            )
        )
        active = context.active
        active_sets = [
            frozenset(c & active)
            for c in context.network.correlation_sets
            if c & active
        ]
        for members in active_sets:
            for link in sorted(members):
                selector = context.network.paths_covering(
                    [link]
                ) - context.network.paths_covering(members - {link})
                if selector:
                    pool.append(frozenset(selector))
        context.pool = pool
        context.index = SubsetIndex.build(
            context.network,
            active,
            pool,
            requested_subset_size=1,
            hard_subset_cap=self.config.hard_subset_cap + 2,
        )

    def _stage_assemble(self, context: FitContext) -> None:
        """Deduplicate the pool, then evaluate every frequency in one batched
        kernel call and every equation row in one index sweep."""
        deduped: List[FrozenSet[int]] = list(dict.fromkeys(context.pool))
        frequencies = context.frequency.query_many(deduped)
        frequent = frequencies > self.config.min_frequency
        candidates = [s for s, keep in zip(deduped, frequent) if keep]
        flat_positions, row_lengths, usable = context.index.decompose_batch(candidates)
        if row_lengths.shape[0] == 0:
            raise EstimationError("Correlation-heuristic: no usable path-set equations")
        context.used_path_sets = [
            s for s, keep in zip(candidates, usable) if keep
        ]
        system = EquationSystem(len(context.index), workspace=context.system_workspace)
        system.add_sparse_batch(
            flat_positions, row_lengths, np.log(frequencies[frequent][usable])
        )
        context.system = system

    def _stage_build_model(self, context: FitContext) -> None:
        solution = context.solution
        good = np.exp(np.minimum(solution.values, 0.0))
        estimates: Dict[FrozenSet[int], float] = {}
        identifiable: Dict[FrozenSet[int], bool] = {}
        for i, subset in enumerate(context.index.subsets):
            estimates[subset] = float(good[i])
            # Advertised output is per-link only ([9] computes "the
            # congestion probability of each individual link").
            identifiable[subset] = bool(solution.identifiable[i]) and len(subset) == 1
        model = CongestionProbabilityModel(
            context.network,
            estimates,
            identifiable,
            always_good_links=context.always_good,
        )
        report = FitReport(
            num_unknowns=len(context.index),
            num_equations=len(context.system),
            rank=solution.rank,
            num_identifiable=int(solution.identifiable.sum()),
            residual=solution.residual,
            path_sets=list(context.used_path_sets),
            frequency_cache_hits=context.frequency_hits,
            frequency_cache_misses=context.frequency_misses,
            equation_storage_bytes=context.system.storage_nbytes,
        )
        context.finish(model, report)
