"""Correlation subsets, potential congestion, and the unknown index.

Section 5.2 of the paper defines, for the estimation machinery:

* a **correlation subset** — a non-empty subset of a correlation set;
* its **complement** within the correlation set;
* **potentially congested** subsets — those none of whose links is traversed
  by an always-good path (all other subsets have congestion probability 0
  and are excluded from the unknowns);
* the vector ``Row(P, E^)`` and matrix ``Matrix(P^, E^)`` mapping path sets
  to equations over an ordering ``E^`` of the unknowns.

:class:`SubsetIndex` realises ``E^``: a frozen ordering of the correlation
subsets admitted as unknowns. Because the total number of correlation
subsets is exponential ("there may be billions of such sets"), the index is
*configurable* exactly as Section 4 prescribes: it admits requested subsets
up to a target size plus every subset that actually occurs as
``Links(P) intersect C`` for the candidate path sets, up to a hard size cap.
Rows touching a subset outside the index are unusable and rejected.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.model.status import ObservationMatrix
from repro.topology.graph import Network


def potentially_congested_links(
    network: Network,
    observations: ObservationMatrix,
    tolerance: float = 0.0,
) -> FrozenSet[int]:
    """Links not traversed by any (effectively) always-good path.

    By Separability, every link on an always-good path is good in every
    interval, so its congestion probability is 0 and it is excluded from the
    unknowns (Section 5.2: "the congestion probability of any correlation
    subset that is not potentially congested is 0"). ``tolerance`` absorbs
    E2E-monitoring false positives — without it, a noisy monitor leaves no
    path always-good over a long horizon and the pruning collapses.
    """
    always_good = observations.always_good_paths(tolerance)
    surely_good = network.links_covered(always_good)
    return frozenset(range(network.num_links)) - surely_good


def _mask_of(links: Iterable[int]) -> int:
    """Integer bitmask with bit ``e`` set for every link ``e``."""
    mask = 0
    for link_index in links:
        mask |= 1 << link_index
    return mask


def _active_parts(
    network: Network, active_links: FrozenSet[int]
) -> Tuple[List[FrozenSet[int]], List[int], int]:
    """Each correlation set restricted to ``active_links``.

    Returns, indexed by position in ``network.correlation_sets``, the
    active members and their link bitmask (empty and 0 when none is
    active), plus a bitmask with bit ``j`` set for every set ``j`` that
    keeps an active link.
    """
    parts = [frozenset(c & active_links) for c in network.correlation_sets]
    masks = [_mask_of(members) for members in parts]
    active_sets = _mask_of(j for j, members in enumerate(parts) if members)
    return parts, masks, active_sets


def _touched_parts(
    path_set: Iterable[int],
    path_masks: List[int],
    path_set_masks: List[int],
    set_masks: List[int],
    active_sets: int,
) -> List[int]:
    """The non-empty ``Links(P) intersect C`` masks, in correlation-set order.

    ORs the paths' link masks and correlation-set masks, then visits only
    the active sets the path set touches, lowest index first: the same
    parts, in the same order, as a scan over every active set.
    """
    links_mask = 0
    touched = 0
    for path_index in path_set:
        links_mask |= path_masks[path_index]
        touched |= path_set_masks[path_index]
    touched &= active_sets
    parts: List[int] = []
    while touched:
        low = touched & -touched
        touched ^= low
        part = links_mask & set_masks[low.bit_length() - 1]
        if part:  # a path may touch a set only through its inactive links
            parts.append(part)
    return parts


def _links_of_mask(mask: int) -> FrozenSet[int]:
    """Inverse of :func:`_mask_of`."""
    links = []
    while mask:
        low = mask & -mask
        links.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(links)


class SubsetIndex:
    """Frozen ordering ``E^`` of admitted potentially-congested subsets.

    Parameters
    ----------
    network:
        Supplies correlation sets and coverage functions.
    active_links:
        The potentially congested links; all subsets are formed within this
        set (always-good links contribute probability 1 and are projected
        out of every equation).
    subsets:
        The admitted correlation subsets, in index (``E^``) order.
    """

    def __init__(
        self,
        network: Network,
        active_links: FrozenSet[int],
        subsets: Sequence[FrozenSet[int]],
    ) -> None:
        self.network = network
        self.active_links = active_links
        self.subsets: List[FrozenSet[int]] = list(subsets)
        self._position: Dict[FrozenSet[int], int] = {
            subset: i for i, subset in enumerate(self.subsets)
        }
        if len(self._position) != len(self.subsets):
            raise EstimationError("SubsetIndex: duplicate subsets in ordering")
        parts, self._set_masks, self._active_sets = _active_parts(
            network, active_links
        )
        self._correlation_set_of: Dict[FrozenSet[int], FrozenSet[int]] = {}
        for subset in self.subsets:
            owner = None
            link_index = min(subset, default=-1)
            if 0 <= link_index < network.num_links:
                members = parts[network.correlation_set_index(link_index)]
                if subset <= members:
                    owner = members
            if owner is None:
                raise EstimationError(
                    f"subset {sorted(subset)} crosses correlation-set boundaries"
                )
            self._correlation_set_of[subset] = owner
        # Bitmask mirrors of the frozenset structures: decomposing a path
        # set into Eq. 1 unknowns becomes a few integer AND/ORs over the
        # correlation sets it touches instead of per-query frozenset algebra.
        self._position_by_mask: Dict[int, int] = {
            _mask_of(subset): i for i, subset in enumerate(self.subsets)
        }
        self._path_masks = network.path_link_masks()
        self._path_set_masks = network.path_correlation_set_masks()
        self._selector_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._decompose_cache: Dict[FrozenSet[int], Optional[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: Network,
        active_links: FrozenSet[int],
        candidate_path_sets: Iterable[FrozenSet[int]],
        requested_subset_size: int = 1,
        hard_subset_cap: int = 6,
        max_requested_per_set: Optional[int] = 2000,
    ) -> "SubsetIndex":
        """Assemble the unknown ordering.

        Admits (a) every subset of each active correlation set up to
        ``requested_subset_size`` (the caller's "compute sets of one, two,
        or three links" knob from Section 4, optionally capped per
        correlation set), and (b) every subset occurring as
        ``Links(P) intersect C`` for a candidate path set ``P``, up to
        ``hard_subset_cap`` links (rows needing anything larger are
        unusable).
        """
        admitted: Dict[FrozenSet[int], None] = {}

        def admit(subset: FrozenSet[int]) -> None:
            if subset and subset not in admitted:
                admitted[subset] = None

        parts, set_masks, active_sets = _active_parts(network, active_links)
        for members in parts:
            ordered = sorted(members)
            count = 0
            for size in range(1, min(requested_subset_size, len(ordered)) + 1):
                for combo in combinations(ordered, size):
                    admit(frozenset(combo))
                    count += 1
                    if max_requested_per_set is not None and count >= max_requested_per_set:
                        break
                if max_requested_per_set is not None and count >= max_requested_per_set:
                    break
        # Mask arithmetic for the candidate sweep: the pool may hold
        # thousands of path sets, and each only needs a few integer ANDs.
        path_masks = network.path_link_masks()
        path_set_masks = network.path_correlation_set_masks()
        known_parts: Dict[int, FrozenSet[int]] = {}
        for path_set in candidate_path_sets:
            for part_mask in _touched_parts(
                path_set, path_masks, path_set_masks, set_masks, active_sets
            ):
                if part_mask.bit_count() > hard_subset_cap:
                    continue
                part = known_parts.get(part_mask)
                if part is None:
                    part = _links_of_mask(part_mask)
                    known_parts[part_mask] = part
                admit(part)
        return cls(network, active_links, list(admitted))

    @classmethod
    def build_observed(
        cls,
        network: Network,
        active_links: FrozenSet[int],
        candidate_path_sets: Iterable[FrozenSet[int]],
        hard_subset_cap: int = 6,
    ) -> "SubsetIndex":
        """Lazily-discovered unknowns: admit only what the data demands.

        The internet-scale admission policy: no up-front enumeration of
        multi-link subsets per correlation set — beyond the singletons
        (always unknowns), a joint subset enters the index only when it
        actually occurs as ``Links(P) intersect C`` for an observed
        candidate path set. Equivalent to
        ``build(requested_subset_size=1, ...)``, so the index size is
        output-sensitive in the observed outcome patterns instead of
        combinatorial in the correlation-set sizes.
        """
        return cls.build(
            network,
            active_links,
            candidate_path_sets,
            requested_subset_size=1,
            hard_subset_cap=hard_subset_cap,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.subsets)

    def __contains__(self, subset: FrozenSet[int]) -> bool:
        return subset in self._position

    def position(self, subset: FrozenSet[int]) -> int:
        """Index of ``subset`` in the ordering ``E^``."""
        try:
            return self._position[subset]
        except KeyError as exc:
            raise EstimationError(f"subset {sorted(subset)} not indexed") from exc

    def complement(self, subset: FrozenSet[int]) -> FrozenSet[int]:
        """The paper's complement: the rest of the (active) correlation set.

        Complementing within the *active* links is equivalent to the paper's
        definition over the full correlation set, because paths through
        always-good links contribute probability-1 factors.
        """
        return self._correlation_set_of[subset] - subset

    # ------------------------------------------------------------------
    # Row construction (Section 5.2)
    # ------------------------------------------------------------------
    def decompose(self, path_set: Iterable[int]) -> Optional[List[int]]:
        """Unknown positions occurring in Eq. 1 applied to ``path_set``.

        Returns ``None`` when the equation would touch a subset outside the
        index (the row is unusable). The empty path set decomposes to no
        unknowns. Memoised per path set: the estimators revisit the same
        sets across selection, redundancy, and solve passes.
        """
        key = (path_set if isinstance(path_set, frozenset) else frozenset(path_set))
        try:
            cached = self._decompose_cache[key]
        except KeyError:
            pass
        else:
            return None if cached is None else list(cached)
        positions: List[int] = []
        for part in _touched_parts(
            key,
            self._path_masks,
            self._path_set_masks,
            self._set_masks,
            self._active_sets,
        ):
            position = self._position_by_mask.get(part)
            if position is None:
                self._decompose_cache[key] = None
                return None
            positions.append(position)
        self._decompose_cache[key] = tuple(positions)
        return positions

    def row(self, path_set: Iterable[int]) -> Optional[np.ndarray]:
        """``Row(P, E^)``: the 0/1 coefficient vector for ``path_set``."""
        positions = self.decompose(path_set)
        if positions is None:
            return None
        row = np.zeros(len(self.subsets))
        row[positions] = 1.0
        return row

    def decompose_batch(
        self, path_sets: Sequence[Iterable[int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse ``Matrix(P^, E^)``: unknown positions per usable path set.

        Returns ``(flat_positions, row_lengths, usable)``:
        ``flat_positions`` concatenates each usable path set's unknown
        positions (in decomposition order), ``row_lengths`` holds the
        per-row counts, and ``usable`` is a boolean mask of length
        ``len(path_sets)``. Unusable path sets (touching subsets outside
        the index, or touching no unknown at all) get no row. These are
        the entry runs
        :meth:`~repro.linalg.system.EquationSystem.add_sparse_batch`
        takes; rows never densify to ``len(self)`` width here.
        """
        usable = np.zeros(len(path_sets), dtype=bool)
        flat_positions: List[int] = []
        row_lengths: List[int] = []
        for i, path_set in enumerate(path_sets):
            positions = self.decompose(path_set)
            if not positions:
                continue
            usable[i] = True
            flat_positions.extend(positions)
            row_lengths.append(len(positions))
        return (
            np.asarray(flat_positions, dtype=np.int64),
            np.asarray(row_lengths, dtype=np.int64),
            usable,
        )

    def paths_selector(self, subset: FrozenSet[int]) -> FrozenSet[int]:
        """The paper's path-set primitive ``Paths(E) \\ Paths(complement(E))``.

        Paths that traverse ``subset`` but avoid the rest of its correlation
        set, so Eq. 1 applied to them intersects the correlation set in
        exactly ``subset``. Memoised: Algorithm 1 revisits subsets many
        times while growing rank.
        """
        cached = self._selector_cache.get(subset)
        if cached is None:
            cached = self.network.paths_covering(
                subset
            ) - self.network.paths_covering(self.complement(subset))
            self._selector_cache[subset] = cached
        return cached
