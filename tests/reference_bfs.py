"""Test-local interpreted BFS over CSR arrays, the oracle for the compiled one."""

from __future__ import annotations

from typing import List

import numpy as np


def bfs_parents(indptr, neighbors, source: int) -> np.ndarray:
    """First-discovery BFS parent array over a CSR adjacency.

    FIFO frontier, each node's neighbours visited in stored (ascending)
    order, the first discoverer becomes the parent, ``-1`` marks
    unreachable nodes and ``parents[source] == source``.
    """
    parents = np.full(len(indptr) - 1, -1, dtype=np.int64)
    parents[source] = source
    frontier = [int(source)]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in neighbors[indptr[node] : indptr[node + 1]].tolist():
                if parents[neighbor] < 0:
                    parents[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return parents
