"""Entry-run EquationSystem storage against a frozen dense solve.

Rows are stored as (column, value) entry runs and the solve deduplicates
on those runs before densifying only the unique rows. The oracle below is
a frozen copy of the solve the system used when it also had a dense row
storage (one ``num_unknowns``-wide row per equation, duplicates grouped
by their raw bytes). Every solution field must match it exactly — same
floats, not approximately.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from scipy.optimize import lsq_linear, nnls

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL
from repro.linalg.system import EquationSystem, Solution, SystemWorkspace


# ----------------------------------------------------------------------
# Frozen dense-storage solve (the oracle)
# ----------------------------------------------------------------------
def _group_duplicate_rows(matrix: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(first_of_group, inverse)`` of identical rows, by raw bytes."""
    matrix = np.ascontiguousarray(matrix)
    groups: dict = {}
    first_of_group: List[int] = []
    inverse = np.empty(matrix.shape[0], dtype=np.intp)
    for i, row in enumerate(matrix):
        key = row.tobytes()
        group = groups.get(key)
        if group is None:
            group = len(groups)
            groups[key] = group
            first_of_group.append(i)
        inverse[i] = group
    return np.asarray(first_of_group, dtype=np.intp), inverse


def _dense_solve_bounded(
    matrix: np.ndarray, rhs: np.ndarray, upper_bound: float
) -> np.ndarray:
    shifted_rhs = rhs - upper_bound * matrix.sum(axis=1)
    try:
        negated, _ = nnls(-matrix, shifted_rhs)
        return upper_bound - negated
    except RuntimeError:
        outcome = lsq_linear(
            matrix,
            rhs,
            bounds=(-np.inf, upper_bound),
            method="bvls" if matrix.shape[0] >= matrix.shape[1] else "trf",
        )
        return outcome.x


def dense_solve(
    matrix: np.ndarray,
    rhs: np.ndarray,
    weights: np.ndarray,
    prior_mask: np.ndarray,
    tol: float = DEFAULT_TOL,
    upper_bound: Optional[float] = None,
) -> Solution:
    """The dense-storage ``EquationSystem.solve``, frozen."""
    num_unknowns = matrix.shape[1]
    first_of_group, inverse = _group_duplicate_rows(matrix)
    unique_rows = matrix[first_of_group]
    if unique_rows.shape[0] < matrix.shape[0]:
        precision = weights * weights
        group_precision = np.bincount(inverse, weights=precision)
        group_rhs = np.bincount(inverse, weights=precision * rhs) / group_precision
        group_weight = np.sqrt(group_precision)
        weighted_matrix = unique_rows * group_weight[:, None]
        weighted_rhs = group_rhs * group_weight
    else:
        weighted_matrix = matrix * weights[:, None]
        weighted_rhs = rhs * weights
    q_factor, r_factor = np.linalg.qr(weighted_matrix)
    compressed_rhs = q_factor.T @ weighted_rhs
    if upper_bound is None:
        values, _, _, _ = np.linalg.lstsq(r_factor, compressed_rhs, rcond=None)
    else:
        values = _dense_solve_bounded(r_factor, compressed_rhs, upper_bound)
    data_mask = ~prior_mask
    data_matrix = matrix[data_mask]
    data_rhs = rhs[data_mask]
    data_groups = np.unique(inverse[data_mask])
    data_unique = matrix[first_of_group[data_groups]]
    data_triangle = np.linalg.qr(data_unique, mode="r")
    _, singular_values, vt = np.linalg.svd(data_triangle, full_matrices=True)
    if singular_values.size and singular_values.max() > 0:
        cutoff = tol * max(data_unique.shape) * singular_values.max()
        rank = int((singular_values > cutoff).sum())
    else:
        rank = 0
    basis = vt[rank:].T
    if basis.shape[1] == 0:
        identifiable = np.ones(num_unknowns, dtype=bool)
    else:
        identifiable = np.abs(basis).max(axis=1) <= 1e-7
    fitted = data_matrix @ values
    residual = float(np.sqrt(np.mean((fitted - data_rhs) ** 2)))
    return Solution(
        values=values, identifiable=identifiable, rank=rank, residual=residual
    )


def dense_solve_of(system: EquationSystem, **kwargs) -> Solution:
    """The frozen dense solve over a system's densified equations."""
    return dense_solve(
        system.matrix, system.rhs, system.weights, system.prior_mask, **kwargs
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _random_system(
    num_rows: int,
    num_unknowns: int,
    seed: int,
    duplicate_fraction: float = 0.3,
):
    """Random sparse boolean rows + rhs/weights, with duplicated rows."""
    rng = np.random.default_rng(seed)
    rows = (rng.random((num_rows, num_unknowns)) < 0.15).astype(float)
    rows[rows.sum(axis=1) == 0, 0] = 1.0  # no empty equations
    duplicates = rng.random(num_rows) < duplicate_fraction
    rows[duplicates] = rows[0]
    rhs = -rng.random(num_rows)
    weights = 0.5 + rng.random(num_rows)
    return rows, rhs, weights


def _fill(system: EquationSystem, rows, rhs, weights, prior_rows=None):
    system.add_batch(rows, rhs, weights)
    if prior_rows is not None:
        p_rows, p_rhs, p_weights = prior_rows
        system.add_batch(p_rows, p_rhs, p_weights, prior=True)
    return system


def _stacked(rows, rhs, weights, prior_rows):
    """The dense ``(matrix, rhs, weights, prior_mask)`` of data + priors."""
    p_rows, p_rhs, p_weights = prior_rows
    return (
        np.vstack([rows, p_rows]),
        np.concatenate([rhs, p_rhs]),
        np.concatenate([weights, p_weights]),
        np.concatenate([np.zeros(len(rhs), bool), np.ones(len(p_rhs), bool)]),
    )


def _assert_solutions_identical(expected, actual):
    assert np.array_equal(expected.values, actual.values)
    assert np.array_equal(expected.identifiable, actual.identifiable)
    assert expected.rank == actual.rank
    assert expected.residual == actual.residual


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("upper_bound", [None, 0.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_solve_bit_identical_to_dense(seed, upper_bound):
    """Random systems with duplicate rows and duplicated prior rows."""
    rows, rhs, weights = _random_system(120, 40, seed)
    p_rows, p_rhs, _ = _random_system(30, 40, seed + 100)
    priors = (p_rows, 0.1 * p_rhs, np.full(30, 0.01))
    system = _fill(EquationSystem(40), rows, rhs, weights, priors)
    _assert_solutions_identical(
        dense_solve(*_stacked(rows, rhs, weights, priors), upper_bound=upper_bound),
        system.solve(upper_bound=upper_bound),
    )


def test_sparse_solve_with_priors_matches_dense():
    rows, rhs, weights = _random_system(60, 25, seed=5)
    priors = (np.eye(25), np.full(25, -0.1), np.full(25, 0.01))
    system = _fill(EquationSystem(25), rows, rhs, weights, priors)
    _assert_solutions_identical(
        dense_solve(*_stacked(rows, rhs, weights, priors), upper_bound=0.0),
        system.solve(upper_bound=0.0),
    )


def test_sparse_only_prior_equations_rejected():
    system = EquationSystem(4)
    system.add_batch(np.eye(4), np.zeros(4), np.ones(4), prior=True)
    with pytest.raises(EstimationError, match="only prior"):
        system.solve()


def test_add_sparse_batch_canonicalises_column_order():
    """Unsorted per-row columns must still dedupe against sorted ones."""
    rows = np.array([[1.0, 0, 1.0, 0, 0, 1.0], [1.0, 0, 1.0, 0, 0, 1.0]])
    system = EquationSystem(6)
    system.add_sparse_batch(
        np.array([0, 2, 5, 5, 0, 2]),  # second row out of order
        np.array([3, 3]),
        np.array([-0.5, -0.5]),
        np.array([1.0, 1.0]),
    )
    assert np.array_equal(system.matrix, rows)
    _assert_solutions_identical(
        dense_solve(rows, np.array([-0.5, -0.5]), np.ones(2), np.zeros(2, bool)),
        system.solve(),
    )


def test_add_sparse_batch_rejects_repeated_column():
    system = EquationSystem(6)
    with pytest.raises(EstimationError, match="repeats a column"):
        system.add_sparse_batch(
            np.array([0, 4, 2, 2]),  # second row names column 2 twice
            np.array([2, 2]),
            np.array([-0.5, -0.5]),
        )
    assert len(system) == 0
    # The same column in different rows is fine.
    system.add_sparse_batch(np.array([0, 2, 2, 4]), np.array([2, 2]), np.zeros(2))
    assert len(system) == 2


def test_sparse_matrix_property_materialises_rows():
    rows, rhs, weights = _random_system(30, 12, seed=3)
    system = _fill(EquationSystem(12), rows, rhs, weights)
    assert np.array_equal(system.matrix, rows)
    assert np.array_equal(system.rhs, rhs)
    assert np.array_equal(system.weights, weights)


def test_workspace_backed_sparse_system_and_generation_guard():
    workspace = SystemWorkspace()
    rows, rhs, weights = _random_system(50, 20, seed=8)
    first = _fill(EquationSystem(20, workspace=workspace), rows, rhs, weights)
    expected = dense_solve(rows, rhs, weights, np.zeros(50, bool))
    _assert_solutions_identical(expected, first.solve())
    # A newer system recycles the arena; the old handle must refuse.
    second = EquationSystem(20, workspace=workspace)
    with pytest.raises(EstimationError, match="recycled"):
        first.solve()
    del second


def test_storage_nbytes_counts_entries():
    rows, rhs, weights = _random_system(200, 80, seed=4, duplicate_fraction=0)
    system = _fill(EquationSystem(80), rows, rhs, weights)
    entries = int(np.count_nonzero(rows))
    per_row = 200 * (8 + 8 + 8 + 1)  # entry count, rhs, weight, prior
    assert system.storage_nbytes == entries * 16 + per_row
    # Far below the dense rows x unknowns matrix the rows would fill.
    assert system.storage_nbytes < 200 * 80 * 8 / 2
