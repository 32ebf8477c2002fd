"""Independence: the Probability Computation step of CLINK [11].

Under Assumption 4 (all links independent), Eq. 1 factorises completely:

    P(all paths in P good) = prod_{e in Links(P)} P(X_e = 0)

so the unknowns are just the per-link good probabilities and every usable
path set yields one linear equation in their logs. The estimator forms
equations from all single paths plus sampled multi-path sets (mirroring the
pairs the paper's Fig. 2(a) example uses), and solves by min-norm least
squares.

When links are actually correlated, the factorisation is wrong — "the last
two equations in Fig. 2(a) are wrong" — which is precisely the bias the
No-Independence scenarios expose (Fig. 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.system import EquationSystem
from repro.probability.base import (
    ProbabilityEstimator,
    log_frequency_weights,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.pipeline import FitContext, FitReport
from repro.probability.query import CongestionProbabilityModel


class IndependenceEstimator(ProbabilityEstimator):
    """Per-link probability computation assuming link independence.

    Faithful to the published CLINK step 1: the log-domain system is solved
    by *plain* (unweighted) least squares — the precision weighting of
    :func:`repro.probability.base.log_frequency_weight` is a refinement this
    reproduction applies only to the paper's own algorithm (README,
    "Deviations from the paper").
    Pass a config with ``weighted=True`` to study the strengthened baseline.
    """

    name = "Independence"

    def __init__(self, config=None, weighted: bool = False) -> None:
        super().__init__(config)
        self.config.weighted = weighted

    def _empty_model(self, context: FitContext) -> CongestionProbabilityModel:
        return CongestionProbabilityModel(
            context.network,
            {},
            {},
            always_good_links=context.always_good,
            independent=True,
        )

    def _stage_discover(self, context: FitContext) -> None:
        """Candidate pool: every live single path plus sampled multi-sets.

        The unknowns are simply the active links (no correlation index),
        so discovery is just the equation pool.
        """
        context.path_sets = list(singleton_path_sets(context.observations))
        context.path_sets.extend(
            shared_sampled_pool(
                context.network,
                context.observations,
                count=self.config.pair_sample,
                max_size=self.config.path_set_max_size,
                seed=self.config.seed,
            )
        )

    def _stage_assemble(self, context: FitContext) -> None:
        """One batched frequency-kernel call for the whole pool, then a
        vectorized coverage pass builds every equation row at once."""
        active = sorted(context.active)
        path_sets = context.path_sets
        frequencies = context.frequency.query_many(path_sets)
        network = context.network
        column_of = np.full(network.num_links, -1, dtype=np.intp)
        column_of[active] = np.arange(len(active))
        # Every (path set, traversed link) pair off the CSR in one gather,
        # scattered into boolean rows over the active columns.
        members = [path for path_set in path_sets for path in path_set]
        owners = np.repeat(
            np.arange(len(path_sets)), [len(path_set) for path_set in path_sets]
        )
        pair_rows = np.repeat(owners, network.path_lengths()[members])
        pair_columns = column_of[network.incidence.links_of(members)]
        on_active = pair_columns >= 0
        coverage = np.zeros((len(path_sets), len(active)), dtype=bool)
        coverage[pair_rows[on_active], pair_columns[on_active]] = True
        usable = (frequencies > self.config.min_frequency) & coverage.any(axis=1)
        if not usable.any():
            raise EstimationError(
                "Independence: no usable path-set equations "
                "(were all paths always congested?)"
            )
        freqs = frequencies[usable]
        weights = (
            log_frequency_weights(freqs, context.frequency.num_intervals)
            if self.config.weighted
            else np.ones(len(freqs))
        )
        system = EquationSystem(len(active), workspace=context.system_workspace)
        # Equation entries straight off the boolean coverage rows —
        # np.nonzero walks row-major, so per-row columns are already
        # ascending (the canonical run order) and every value is 1.0.
        kept = coverage[usable]
        row_ids, columns = np.nonzero(kept)
        row_lengths = np.bincount(row_ids, minlength=kept.shape[0])
        system.add_sparse_batch(columns, row_lengths, np.log(freqs), weights)
        context.system = system
        context.used_path_sets = [
            frozenset(path_set)
            for path_set, keep in zip(path_sets, usable)
            if keep
        ]

    def _stage_build_model(self, context: FitContext) -> None:
        active = sorted(context.active)
        solution = context.solution
        good = np.exp(np.minimum(solution.values, 0.0))
        estimates: Dict[FrozenSet[int], float] = {}
        identifiable: Dict[FrozenSet[int], bool] = {}
        for i, link in enumerate(active):
            estimates[frozenset({link})] = float(good[i])
            identifiable[frozenset({link})] = bool(solution.identifiable[i])
        model = CongestionProbabilityModel(
            context.network,
            estimates,
            identifiable,
            always_good_links=context.always_good,
            independent=True,
        )
        report = FitReport(
            num_unknowns=len(active),
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
