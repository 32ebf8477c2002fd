"""Test-local dense path-link incidence, the oracle for the CSR one."""

from __future__ import annotations

import numpy as np


def dense_incidence(network) -> np.ndarray:
    """Boolean (paths, links) matrix built straight from ``Path.links``.

    ``matrix[p, e]`` is true iff path ``p`` traverses link ``e``. It does
    not read ``Network.incidence``, so it can check it.
    """
    matrix = np.zeros((network.num_paths, network.num_links), dtype=bool)
    for path in network.paths:
        matrix[path.index, list(path.links)] = True
    return matrix
