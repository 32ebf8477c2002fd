"""Test-local dense observation queries, the oracle for the packed words."""

from __future__ import annotations

import numpy as np


def congested_any_counts(matrix, path_sets) -> np.ndarray:
    """Per path set, the rows of boolean ``(T, paths)`` ``matrix`` in which
    some member path is congested (0 for the empty set)."""
    matrix = np.asarray(matrix, dtype=bool)
    return np.array(
        [int(matrix[:, list(s)].any(axis=1).sum()) for s in path_sets],
        dtype=np.int64,
    )


def all_good_frequencies(matrix, path_sets) -> np.ndarray:
    """Eq. 1's left-hand side per path set: the share of rows in which
    every member path is good (1 for the empty set)."""
    total = np.asarray(matrix).shape[0]
    return (total - congested_any_counts(matrix, path_sets)) / float(total)


def congestion_frequencies(matrix) -> np.ndarray:
    """Per path, the share of rows in which it is congested."""
    matrix = np.asarray(matrix, dtype=bool)
    return matrix.sum(axis=0, dtype=np.int64) / float(matrix.shape[0])
