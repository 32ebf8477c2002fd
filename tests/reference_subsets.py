"""Test-local all-sets subset scans, the oracle for ``SubsetIndex``.

Both scans intersect ``Links(P)`` with *every* correlation set, in
``network.correlation_sets`` order, using frozensets only. They read
neither the link bitmasks nor the per-path correlation-set masks, so they
can check the touched-set scans ``SubsetIndex`` runs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional


def active_parts(network, active_links, path_set) -> List[FrozenSet[int]]:
    """Non-empty ``Links(P) & C`` over every correlation set, in set order."""
    links = network.links_covered(path_set) & active_links
    parts = [frozenset(members & links) for members in network.correlation_sets]
    return [part for part in parts if part]


def decompose(index, path_set: Iterable[int]) -> Optional[List[int]]:
    """Unknown positions of Eq. 1 on ``path_set``; ``None`` if one is not indexed."""
    positions = []
    for part in active_parts(index.network, index.active_links, path_set):
        if part not in index:
            return None
        positions.append(index.position(part))
    return positions


def build(
    network,
    active_links,
    candidate_path_sets,
    requested_subset_size: int = 1,
    hard_subset_cap: int = 6,
    max_requested_per_set: Optional[int] = 2000,
) -> List[FrozenSet[int]]:
    """The ``E^`` ordering ``SubsetIndex.build`` admits, by the all-sets scan."""
    admitted: Dict[FrozenSet[int], None] = {}
    for correlation_set in network.correlation_sets:
        ordered = sorted(correlation_set & active_links)
        count = 0
        for size in range(1, min(requested_subset_size, len(ordered)) + 1):
            for combo in combinations(ordered, size):
                admitted.setdefault(frozenset(combo))
                count += 1
                if max_requested_per_set is not None and count >= max_requested_per_set:
                    break
            if max_requested_per_set is not None and count >= max_requested_per_set:
                break
    for path_set in candidate_path_sets:
        for part in active_parts(network, active_links, path_set):
            if len(part) <= hard_subset_cap:
                admitted.setdefault(part)
    return list(admitted)
