"""Entry-run EquationSystem storage against a frozen dense solve.

Rows are stored as (column, value) entry runs and the solve deduplicates
on those runs before densifying only the unique rows. The oracle below is
a frozen copy of the solve the system used when it also had a dense row
storage (one ``num_unknowns``-wide row per equation, duplicates grouped
by their raw bytes). Every solution field must match it exactly — same
floats, not approximately — except the residual of the Hypothesis-drawn
systems, which may differ in its last bits (see
``test_block_identifiability_matches_frozen_oracles``).

The solve now takes rank and identifiability from per-block
factorisations of the data rows; ``frozen_identifiability`` keeps the
step it replaced (one QR of all data rows, then a full SVD) as the
oracle for those two fields, and ``_dict_group_entry_runs`` the Python
loop that grouped duplicate entry runs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear, nnls

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, rank
from repro.linalg.system import (
    EquationSystem,
    Solution,
    SystemWorkspace,
    _group_entry_runs,
)


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


def frozen_identifiability(
    data_unique: np.ndarray, tol: float = DEFAULT_TOL
) -> "tuple[int, np.ndarray]":
    """``(rank, identifiable)`` from one factorisation of all data rows.

    The identifiability step the solve used before it factorised block by
    block, frozen: a QR of the unique data rows, then a full SVD of the
    triangle, thresholded once.
    """
    data_triangle = np.linalg.qr(data_unique, mode="r")
    _, singular_values, vt = np.linalg.svd(data_triangle, full_matrices=True)
    if singular_values.size and singular_values.max() > 0:
        cutoff = tol * max(data_unique.shape) * singular_values.max()
        rank = int((singular_values > cutoff).sum())
    else:
        rank = 0
    basis = vt[rank:].T
    if basis.shape[1] == 0:
        identifiable = np.ones(data_unique.shape[1], dtype=bool)
    else:
        identifiable = np.abs(basis).max(axis=1) <= 1e-7
    return rank, identifiable


def dense_solve(
    matrix: np.ndarray,
    rhs: np.ndarray,
    weights: np.ndarray,
    prior_mask: np.ndarray,
    tol: float = DEFAULT_TOL,
    upper_bound: Optional[float] = None,
) -> Solution:
    """The dense-storage ``EquationSystem.solve``, frozen."""
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
    rank, identifiable = frozen_identifiability(data_unique, tol)
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


# ----------------------------------------------------------------------
# Block identifiability and vectorised grouping, against frozen oracles
# ----------------------------------------------------------------------
def _dict_group_entry_runs(columns, values, row_lengths):
    """The solve's former duplicate grouping: a dict keyed on run bytes."""
    indptr = np.concatenate(([0], np.cumsum(row_lengths)))
    groups: dict = {}
    first_of_group: List[int] = []
    inverse = np.empty(row_lengths.shape[0], dtype=np.intp)
    for i in range(row_lengths.shape[0]):
        start, stop = indptr[i], indptr[i + 1]
        key = (columns[start:stop].tobytes(), values[start:stop].tobytes())
        group = groups.get(key)
        if group is None:
            group = len(groups)
            groups[key] = group
            first_of_group.append(i)
        inverse[i] = group
    return np.asarray(first_of_group, dtype=np.intp), inverse


#: Entry values: repeated magnitudes make duplicate and dependent rows
#: likely, and -0.0 is a stored entry that touches no unknown.
_ENTRY_VALUES = st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0, -1.5, -0.0])


@st.composite
def _entry_run_rows(draw, num_unknowns, max_rows=14, values=_ENTRY_VALUES):
    """Rows as sorted entry runs, drawn from a small pool so some repeat.

    Every row draws its columns from one column group, so the touched
    columns fall into several blocks; a group may be empty, leaving its
    columns untouched. Two pool rows may share columns with other values.
    """
    num_groups = draw(st.integers(1, 4))
    group_ids = st.integers(0, num_groups)
    group_of = np.array(
        draw(st.lists(group_ids, min_size=num_unknowns, max_size=num_unknowns))
    )
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        members = np.flatnonzero(group_of == draw(st.integers(0, num_groups - 1)))
        if members.size == 0:
            continue
        picked = draw(
            st.lists(
                st.sampled_from(list(members)),
                min_size=1,
                max_size=members.size,
                unique=True,
            )
        )
        cols = np.sort(np.array(picked, dtype=np.int64))
        pool.append((cols, np.array([draw(values) for _ in cols])))
    if not pool:  # every drawn group was empty: an all -0.0 rank-0 row
        pool.append((np.array([0], dtype=np.int64), np.array([-0.0])))
    picks = st.integers(0, len(pool) - 1)
    return [pool[i] for i in draw(st.lists(picks, min_size=1, max_size=max_rows))]


def _runs(rows):
    """``(columns, values, row_lengths)`` of a list of entry-run rows."""
    return (
        np.concatenate([cols for cols, _ in rows]),
        np.concatenate([vals for _, vals in rows]),
        np.array([cols.shape[0] for cols, _ in rows], dtype=np.int64),
    )


def _dense(rows, num_unknowns):
    matrix = np.zeros((len(rows), num_unknowns))
    for i, (cols, vals) in enumerate(rows):
        matrix[i, cols] = vals
    return matrix


@st.composite
def _systems(draw):
    """``(num_unknowns, rows, rhs, weights, prior_columns, upper_bound)``.

    Systems with several blocks, untouched columns, duplicate rows, -0.0
    entries, wide blocks and prior rows; one in five has rank 0.
    """
    num_unknowns = draw(st.integers(1, 10))
    rows = draw(_entry_run_rows(num_unknowns))
    if draw(st.integers(0, 4)) == 0:  # rank 0: every stored entry is -0.0
        rows = [(cols, np.full(cols.shape[0], -0.0)) for cols, _ in rows]
    rhs = np.array([draw(st.floats(-3.0, 0.0, allow_subnormal=False)) for _ in rows])
    weights = np.array([draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in rows])
    prior_columns = draw(
        st.lists(st.integers(0, num_unknowns - 1), max_size=3, unique=True)
    )
    upper_bound = draw(st.sampled_from([None, 0.0]))
    return num_unknowns, rows, rhs, weights, sorted(prior_columns), upper_bound


def _build(num_unknowns, rows, rhs, weights, prior_columns, permutation=None):
    """The system through ``add_sparse_batch`` (columns optionally permuted)."""
    relabel = np.arange(num_unknowns) if permutation is None else permutation
    columns, values, row_lengths = _runs(rows)
    system = EquationSystem(num_unknowns)
    system.add_sparse_batch(relabel[columns], row_lengths, rhs, weights, values)
    if prior_columns:
        count = len(prior_columns)
        system.add_sparse_batch(
            relabel[np.array(prior_columns)],
            np.ones(count, dtype=np.int64),
            np.full(count, -0.1),
            np.full(count, 0.01),
            prior=True,
        )
    return system


_SIX_ONES = (np.arange(6), np.ones(6))


@settings(max_examples=200, deadline=None)
@given(system_spec=_systems())
# Two identical rows: the oracle's residual reads 2.78e-17, the solve's
# 2.08e-17 (the one row's dot product rounds differently as a 1-row and
# as a 2-row matvec).
@example(
    system_spec=(
        8,
        [_SIX_ONES, _SIX_ONES],
        np.array([0.0, 0.0]),
        np.array([0.5, 0.5]),
        [0],
        None,
    )
)
def test_block_identifiability_matches_frozen_oracles(system_spec):
    *spec, upper_bound = system_spec
    system = _build(*spec)
    solution = system.solve(upper_bound=upper_bound)
    expected = dense_solve_of(system, upper_bound=upper_bound)
    # Values: bit-identical to the frozen dense solve; rank and
    # identifiability: equal to its frozen one-factorisation step.
    assert np.array_equal(expected.values, solution.values)
    assert np.array_equal(expected.identifiable, solution.identifiable)
    assert expected.rank == solution.rank
    # Residual: to rounding. The oracle takes one matvec over every data
    # row, the solve one over the unique rows and scatters it back, and a
    # row's dot product can round differently in products of other
    # heights, so duplicate rows may move the last bits.
    assert abs(solution.residual - expected.residual) <= (
        1e-15 + 1e-12 * abs(expected.residual)
    )
    num_unknowns, rows = spec[:2]
    data = _dense(rows, num_unknowns)
    data_unique = data[_group_duplicate_rows(data)[0]]
    # The solve's cutoff is nullspace.rank's: one formula for both.
    assert solution.rank == rank(data_unique)
    # A column no data row touches is never identifiable.
    assert not solution.identifiable[~data.any(axis=0)].any()


@settings(max_examples=100, deadline=None)
@given(system_spec=_systems(), data=st.data())
def test_column_permutation_permutes_identifiability(system_spec, data):
    *spec, upper_bound = system_spec
    permutation = np.array(data.draw(st.permutations(range(spec[0]))))
    base = _build(*spec).solve(upper_bound=upper_bound)
    permuted = _build(*spec, permutation).solve(upper_bound=upper_bound)
    assert permuted.rank == base.rank
    assert np.array_equal(permuted.identifiable[permutation], base.identifiable)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 8).flatmap(
        lambda n: _entry_run_rows(
            n, max_rows=20, values=st.sampled_from([1.0, 2.0, 0.0, -0.0])
        )
    ),
    empty_rows=st.lists(st.integers(0, 20), max_size=3),
)
def test_vectorised_grouping_matches_dict_grouping(rows, empty_rows):
    """Same first-seen group order and inverse as the dict on run bytes.

    ``0.0`` and ``-0.0`` entries differ in their bits, so they group apart;
    empty rows (no entries) group together.
    """
    for position in empty_rows:
        rows.insert(
            min(position, len(rows)),
            (np.zeros(0, dtype=np.int64), np.zeros(0)),
        )
    columns, values, row_lengths = _runs(rows)
    expected_first, expected_inverse = _dict_group_entry_runs(
        columns, values, row_lengths
    )
    first, inverse = _group_entry_runs(columns, values, row_lengths)
    assert np.array_equal(first, expected_first)
    assert np.array_equal(inverse, expected_inverse)


def test_rank_cutoff_spans_all_blocks():
    """A block far below the largest singular value adds no rank.

    Per block, the small block is well conditioned; against the whole
    matrix's cutoff (as in the frozen oracle) it is numerically zero.
    """
    rows = np.array(
        [
            [1e6, 0.0, 0.0, 0.0],
            [0.0, 1e-6, 1e-6, 0.0],
            [0.0, 1e-6, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1e-6],
        ]
    )
    system = _fill(EquationSystem(4), rows, -np.arange(1.0, 5.0), np.ones(4))
    solution = system.solve(upper_bound=0.0)
    _assert_solutions_identical(dense_solve_of(system, upper_bound=0.0), solution)
    assert solution.rank == 1
    assert list(solution.identifiable) == [True, False, False, False]
