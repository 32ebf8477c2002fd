"""Correlation-complete: the paper's Algorithm 1 (Section 5.3).

The estimator computes, for every admitted potentially-congested correlation
subset, the probability that all its links are good, by:

1. forming an **initial list of path sets** — for each subset ``E``, the
   selector ``Paths(E) \\ Paths(complement(E))`` (Algorithm 1 lines 1-5);
2. computing the null space ``N`` of the associated ``Matrix(P^, E^)``
   (lines 6-7);
3. **iteratively adding path sets that increase the system rank**: subsets
   ``E`` whose null-space row is nonzero are visited in index order
   (:func:`visit_order`, in place of the listing's
   ``SortByHammingWeight``), candidate path sets are enumerated inside
   ``Paths(E) \\ Paths(complement(E))``, and the first row ``r`` with
   ``||r N|| > 0`` is kept, after which ``N`` is shrunk *incrementally* by
   Algorithm 2 (lines 8-22). The candidates live in a
   :class:`CandidateFrontier` for the whole selection, not re-enumerated
   after every pick: each subset's slate is enumerated once, and a
   candidate that fails a test is never tested again. This keeps the
   listing's choices exactly. A candidate's usability and frequency do
   not depend on ``N``. ``N`` stays orthonormal (an SVD, then one
   Householder downdate per pick) while its span only shrinks, so
   ``||r N||`` never grows and a failed rank test stays failed. Gains are
   gather-sums of rows of ``N`` over the candidate's unknowns, and
   frequencies are queried only for candidates whose gain passes;
4. solving the final log-domain least-squares system and classifying each
   unknown as identifiable iff the final null space vanishes on its
   coordinate.

Steps 1-3 are the pipeline's ``discover`` stage, the redundancy pass plus
system construction its ``assemble`` stage. Deviations from the listing
(README, "Deviations from the paper"): the enumeration of path subsets on
line 11 is bounded (size- and count-capped, smallest first) and the
unknown ordering ``E^`` is the configurable index of
:class:`~repro.probability.subsets.SubsetIndex` rather than the full
exponential family — both are the paper's own "configurable subset of the
computable probabilities" resource knob (Section 4).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, null_space, null_space_update
from repro.linalg.system import EquationSystem
from repro.model.status import ObservationMatrix
from repro.probability.base import (
    ProbabilityEstimator,
    log_frequency_weights,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.pipeline import FitContext, FitReport, FrequencyCache
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import SubsetIndex
from repro.topology.graph import Network
from repro.util.subsets import bounded_subsets


#: Candidates whose gains one gather-sum computes. A slate is enumerated
#: and tested in blocks, so an early winner pays for neither the rest of
#: the enumeration nor its rank tests.
_BLOCK = 16

#: A usable candidate path set and the distinct unknown positions of its row.
Candidate = Tuple[FrozenSet[int], Tuple[int, ...]]


def visit_order(basis: np.ndarray) -> np.ndarray:
    """The subset positions Algorithm 1 visits, in the order it visits them.

    A position is visited iff its row of the null-space basis ``N`` has a
    nonzero norm (rounded to 12 decimals, so rounding noise counts as 0),
    in index order. Row norms of an orthonormal basis depend only on the
    span, so every basis of the same null space gives the same order.
    This replaces the listing's ``SortByHammingWeight``, whose count of
    nonzero entries depends on the basis (README, "Deviations from the
    paper").
    """
    norms = np.round(np.sqrt(np.einsum("ij,ij->i", basis, basis)), 12)
    return np.flatnonzero(norms > 0)


class _Slate:
    """The candidates of one subset position, in enumeration order.

    ``candidates`` were enumerated and decomposed on an earlier visit and
    are not yet known to fail; ``pending`` enumerates the rest lazily.
    """

    __slots__ = ("candidates", "pending")

    def __init__(self, pending: Iterator[Tuple[int, ...]]) -> None:
        self.candidates: List[Candidate] = []
        self.pending = pending


class CandidateFrontier:
    """The candidate path sets of Algorithm 1's rank growth, for one fit.

    Lines 9-20 visit the subsets in :func:`visit_order` and keep
    the first candidate path set inside ``Paths(E) \\ Paths(complement(E))``
    whose row ``r`` has a frequency above ``min_frequency`` and
    ``||r N|| > DEFAULT_TOL``. Each subset position gets a *slate* the
    first time the order reaches it: the bounded enumeration of its
    selector, each usable candidate stored with its unknown positions.

    A candidate that fails a test is *settled*: it is never tested again,
    in any slate. This drops no winner. Usability and frequency do not
    depend on the basis; and since ``N`` stays orthonormal while its span
    only shrinks, ``||r N||`` never grows, so a gain at or below the
    tolerance stays there. Chosen path sets are settled too.
    """

    def __init__(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        settled: Set[FrozenSet[int]],
        max_size: int,
        max_count: int,
        min_frequency: float,
    ) -> None:
        self._index = index
        self._frequency = frequency
        self._settled = settled
        self._max_size = max_size
        self._max_count = max_count
        self._min_frequency = min_frequency
        self._slates: Dict[int, _Slate] = {}
        # Positions whose slate is used up: every candidate settled.
        self._exhausted = np.zeros(len(index), dtype=bool)

    def next_row(
        self, basis: np.ndarray
    ) -> Optional[Tuple[FrozenSet[int], np.ndarray]]:
        """One pass of lines 9-20: the winning path set and its row, or None.

        Subsets are visited in :func:`visit_order`: every position whose
        null-space row is nonzero, in index order.
        """
        order = visit_order(basis)
        # Positions whose null-space row is 0 are skipped. That is a speed
        # filter, not an exactness argument: a candidate path set of such a
        # subset also touches other unknowns and could add rank through
        # them, so skipping them can leave rank unused.
        for position in order[~self._exhausted[order]].tolist():
            winner = self._scan(self._slate(position), basis)
            if winner is None:
                self._exhausted[position] = True
                continue
            path_set, positions = winner
            row = np.zeros(len(self._index))
            row[list(positions)] = 1.0
            return path_set, row
        return None

    def _slate(self, position: int) -> _Slate:
        slate = self._slates.get(position)
        if slate is None:
            index = self._index
            base = sorted(index.paths_selector(index.subsets[position]))
            combos = bounded_subsets(
                base, max_size=self._max_size, max_count=self._max_count
            )
            slate = self._slates[position] = _Slate(combos)
        return slate

    def _enumerate(self, slate: _Slate, count: int) -> List[Candidate]:
        """Up to ``count`` more usable, unsettled candidates of ``slate``."""
        found: List[Candidate] = []
        for combo in slate.pending:
            path_set = frozenset(combo)
            if path_set in self._settled:
                continue
            positions = self._index.decompose(path_set)
            # None touches a subset outside the index, [] no unknown.
            if not positions:
                self._settled.add(path_set)
                continue
            found.append((path_set, tuple(dict.fromkeys(positions))))
            if len(found) == count:
                break
        return found

    def _scan(self, slate: _Slate, basis: np.ndarray) -> Optional[Candidate]:
        """The first candidate of ``slate`` passing both tests, settling failures.

        The rank test runs first, a block at a time; the frequency is
        queried only for candidates whose gain passes, in slate order.
        Without a winner every candidate of the slate ends up settled.
        """
        settled = self._settled
        live = [c for c in slate.candidates if c[0] not in settled]
        slate.candidates = []
        start = 0
        while True:
            block = live[start : start + _BLOCK]
            start += len(block)
            if len(block) < _BLOCK:
                block += self._enumerate(slate, _BLOCK - len(block))
            if not block:
                return None
            gains = self.gains(basis, block)
            winner: Optional[Candidate] = None
            kept: List[Candidate] = []
            for candidate, gain in zip(block, gains):
                path_set = candidate[0]
                if gain <= DEFAULT_TOL:
                    settled.add(path_set)
                elif winner is not None:
                    kept.append(candidate)
                elif self._frequency(path_set) <= self._min_frequency:
                    settled.add(path_set)
                else:
                    settled.add(path_set)
                    winner = candidate
            if winner is not None:
                slate.candidates = kept + live[start:]
                return winner

    @staticmethod
    def gains(basis: np.ndarray, block: Sequence[Candidate]) -> np.ndarray:
        """``||r N||`` per candidate: the norm of a sum of rows of ``N``."""
        lengths = [len(positions) for _, positions in block]
        starts = np.zeros(len(block), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        flat = np.fromiter(
            chain.from_iterable(positions for _, positions in block),
            dtype=np.intp,
            count=sum(lengths),
        )
        return np.linalg.norm(np.add.reduceat(basis[flat], starts, axis=0), axis=1)


class CorrelationCompleteEstimator(ProbabilityEstimator):
    """The paper's Probability Computation algorithm (Algorithm 1 + 2)."""

    name = "Correlation-complete"

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _stage_discover(self, context: FitContext) -> None:
        """Assemble ``E^`` and run Algorithm 1's path-set selection.

        Raises
        ------
        EstimationError
            When no usable equation exists (e.g. every path was congested
            in every interval).
        """
        context.index, context.pool = self._build_index(
            context.network, context.observations, context.active
        )
        context.path_sets = self._select_path_sets(context.index, context.frequency)
        if not context.path_sets:
            raise EstimationError(
                "Correlation-complete: no usable path-set equations "
                "(were all paths always congested?)"
            )

    def _stage_assemble(self, context: FitContext) -> None:
        """Redundancy pass, then the weighted log-domain system + priors."""
        context.extra_path_sets = self._redundant_path_sets(
            context.index, context.frequency, context.pool, context.path_sets
        )
        all_sets = list(context.path_sets) + list(context.extra_path_sets)
        flat_positions, row_lengths, usable = context.index.decompose_batch(all_sets)
        if not usable.all():
            raise EstimationError("selected path set became unusable")
        freqs = context.frequency.query_many(all_sets)
        weights = (
            log_frequency_weights(freqs, context.frequency.num_intervals)
            if self.config.weighted
            else np.ones(len(all_sets))
        )
        system = EquationSystem(len(context.index), workspace=context.system_workspace)
        system.add_sparse_batch(flat_positions, row_lengths, np.log(freqs), weights)
        self._add_prior_equations(system, context.index)
        context.system = system
        context.used_path_sets = list(context.path_sets)

    def _stage_build_model(self, context: FitContext) -> None:
        solution = context.solution
        log_good = np.minimum(solution.values, 0.0)
        good = np.exp(log_good)
        estimates: Dict[FrozenSet[int], float] = {}
        identifiable: Dict[FrozenSet[int], bool] = {}
        for position, subset in enumerate(context.index.subsets):
            estimates[subset] = float(good[position])
            identifiable[subset] = bool(solution.identifiable[position])
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

    # ------------------------------------------------------------------
    # Unknown discovery
    # ------------------------------------------------------------------
    def _build_index(
        self,
        network: Network,
        observations: ObservationMatrix,
        active: FrozenSet[int],
    ) -> Tuple[SubsetIndex, List[FrozenSet[int]]]:
        """Assemble ``E^`` plus the candidate path-set pool that shaped it."""
        candidates: List[FrozenSet[int]] = list(singleton_path_sets(observations))
        candidates.extend(
            shared_sampled_pool(
                network,
                observations,
                count=self.config.pair_sample,
                max_size=self.config.path_set_max_size,
                seed=self.config.seed,
            )
        )
        # Selectors of singleton subsets make per-link equations usable even
        # before the index exists (they only need correlation sets).
        active_sets = [
            frozenset(c & active) for c in network.correlation_sets if c & active
        ]
        for members in active_sets:
            for link in sorted(members):
                selector = network.paths_covering([link]) - network.paths_covering(
                    members - {link}
                )
                if selector:
                    candidates.append(frozenset(selector))
        index = SubsetIndex.build(
            network,
            active,
            candidates,
            requested_subset_size=self.config.requested_subset_size,
            hard_subset_cap=self.config.hard_subset_cap,
        )
        return index, candidates

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _usable_row(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        path_set: FrozenSet[int],
    ) -> Optional[np.ndarray]:
        """Row for ``path_set`` or None (outside index / zero frequency)."""
        if not path_set:
            return None
        row = index.row(path_set)
        if row is None or not row.any():
            return None
        if frequency(path_set) <= self.config.min_frequency:
            return None
        return row

    def _select_path_sets(
        self, index: SubsetIndex, frequency: FrequencyCache
    ) -> List[FrozenSet[int]]:
        """Algorithm 1: choose the path sets whose equations enter the system."""
        chosen: List[FrozenSet[int]] = []
        rows: List[np.ndarray] = []
        # Path sets tested once, chosen or not: no later test can differ.
        settled: Set[FrozenSet[int]] = set()

        # Lines 1-5: one selector path set per correlation subset. All
        # selector frequencies are prefetched through one batched kernel
        # call before the sequential admission loop runs.
        selectors = [
            frozenset(index.paths_selector(subset)) for subset in index.subsets
        ]
        frequency.prefetch([s for s in selectors if s])
        for path_set in selectors:
            if path_set in settled:
                continue
            settled.add(path_set)
            row = self._usable_row(index, frequency, path_set)
            if row is None:
                continue
            chosen.append(path_set)
            rows.append(row)

        # Lines 6-7: null space of the initial system.
        matrix = (np.vstack(rows) if rows else np.zeros((0, len(index))))
        basis = null_space(matrix)

        # Lines 8-22: grow rank with incrementally-updated null space.
        frontier = CandidateFrontier(
            index,
            frequency,
            settled=settled,
            max_size=self.config.path_set_max_size,
            max_count=self.config.path_set_max_count,
            min_frequency=self.config.min_frequency,
        )
        while basis.shape[1] > 0:
            found = frontier.next_row(basis)
            if found is None:
                break
            path_set, added = found
            chosen.append(path_set)
            basis = null_space_update(basis, added)
        return chosen

    # ------------------------------------------------------------------
    # Variance reduction
    # ------------------------------------------------------------------
    def _redundant_path_sets(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        pool: Sequence[FrozenSet[int]],
        selected: Sequence[FrozenSet[int]],
    ) -> List[FrozenSet[int]]:
        """Additional consistent equations for finite-sample averaging.

        Algorithm 1 guarantees *rank* with the minimum number of equations;
        with finite ``T`` each empirical frequency is noisy, so the solve
        additionally averages over the already-computed candidate pool
        (usable, non-duplicate path sets). The rows lie in the span of the
        selected system, leaving identifiability untouched, and are weighted
        by their estimated precision — this is an implementation refinement
        over the paper's listing (README, "Deviations from the paper").
        """
        seen = set(selected)
        fresh = [
            path_set
            for path_set in dict.fromkeys(pool)
            if path_set and path_set not in seen
        ]
        if not fresh:
            return []
        frequencies = frequency.query_many(fresh)
        _, _, usable = index.decompose_batch(fresh)
        keep = usable & (frequencies > self.config.min_frequency)
        return [path_set for path_set, ok in zip(fresh, keep) if ok]

    # ------------------------------------------------------------------
    def _add_prior_equations(self, system: EquationSystem, index: SubsetIndex) -> None:
        """Weak within-correlation-set prior tying singletons to joints.

        Where the data equations identify the unknowns, their far larger
        weights dominate and the prior is immaterial; along *unidentifiable*
        directions (Identifiability++ failures — e.g. a path's unique tail,
        or an inter-domain link inseparable from the intra-domain link
        behind it) the prior decides how a joint's log-probability is
        apportioned to its members:

        * ``prior_mode='correlation'`` (default): ``log g_e = log g_S`` for
          every member — bundle members co-congest, which is the natural
          default under Assumption 5 ("links from the same correlation set
          may be correlated") and exact when the bundle shares a
          router-level link;
        * ``prior_mode='independence'``: ``log g_S = sum log g_e`` — the
          joint splits evenly, mirroring what a min-norm independence solve
          does on a series bundle.

        Prior rows are excluded from the rank/identifiability accounting
        (see :meth:`repro.linalg.system.EquationSystem.add`).
        """
        if self.config.prior_weight <= 0.0:
            return
        columns: List[int] = []
        values: List[float] = []
        row_lengths: List[int] = []
        for subset in index.subsets:
            if len(subset) < 2:
                continue
            singleton_positions = []
            for link in subset:
                singleton = frozenset({link})
                if singleton not in index:
                    break
                singleton_positions.append(index.position(singleton))
            else:
                if self.config.prior_mode == "independence":
                    members = [singleton_positions]
                else:
                    members = [[position] for position in singleton_positions]
                for singletons in members:
                    columns += [index.position(subset), *singletons]
                    values += [1.0] + [-1.0] * len(singletons)
                    row_lengths.append(1 + len(singletons))
        system.add_sparse_batch(
            columns,
            row_lengths,
            np.zeros(len(row_lengths)),
            np.full(len(row_lengths), self.config.prior_weight),
            values,
            prior=True,
        )


class CorrelationCompleteNoRedundancy(CorrelationCompleteEstimator):
    """Correlation-complete restricted to Algorithm 1's minimal equations.

    The ablation's "no redundancy" stage configuration: the assemble stage
    skips the variance-reduction pass, so the system holds exactly the
    rank-guaranteeing path sets Algorithm 1 selected.
    """

    name = "Correlation-complete (no redundancy)"

    def _redundant_path_sets(self, index, frequency, pool, selected):
        return []
