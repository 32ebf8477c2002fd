"""Tests for null spaces and the Algorithm 2 incremental update."""

from __future__ import annotations

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.nullspace import (
    DEFAULT_TOL,
    null_space,
    null_space_update,
    rank,
    rank_increases,
)


def test_null_space_of_full_rank():
    basis = null_space(np.eye(3))
    assert basis.shape == (3, 0)


def test_null_space_of_zero_matrix():
    basis = null_space(np.zeros((2, 3)))
    assert basis.shape == (3, 3)


def test_null_space_orthogonal_to_rows():
    matrix = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    basis = null_space(matrix)
    assert basis.shape == (3, 1)
    assert np.allclose(matrix @ basis, 0.0, atol=1e-9)


def test_null_space_empty_rows():
    basis = null_space(np.zeros((0, 4)))
    assert basis.shape == (4, 4)


def test_rank():
    assert rank(np.eye(3)) == 3
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_honours_tol():
    matrix = np.diag([1.0, 1e-12])
    assert rank(matrix) == 1
    assert rank(matrix, tol=1e-15) == 2
    assert null_space(matrix).shape[1] == 1
    assert null_space(matrix, tol=1e-15).shape[1] == 0


@settings(max_examples=60, deadline=None)
@given(
    matrix=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.sampled_from([0.0, 1.0, 2.0, -1.0]),
    ),
    tol=st.sampled_from([DEFAULT_TOL, 1e-6, 1e-3]),
)
def test_rank_plus_nullity_is_column_count(matrix, tol):
    assert rank(matrix, tol) + null_space(matrix, tol).shape[1] == matrix.shape[1]


def test_rank_increases_detects_new_direction():
    matrix = np.array([[1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    assert rank_increases(basis, np.array([0.0, 1.0, 0.0]))
    assert not rank_increases(basis, np.array([5.0, 0.0, 0.0]))


def test_rank_increases_empty_null_space():
    basis = null_space(np.eye(2))
    assert not rank_increases(basis, np.array([1.0, 1.0]))


def test_update_matches_recompute_simple():
    matrix = np.array([[1.0, 1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    row = np.array([0.0, 0.0, 1.0, 1.0])
    updated = null_space_update(basis, row)
    recomputed = null_space(np.vstack([matrix, row]))
    assert updated.shape == recomputed.shape
    # Same subspace: each updated column lies in the recomputed span.
    projector = recomputed @ recomputed.T
    assert np.allclose(projector @ updated, updated, atol=1e-8)


def test_update_no_op_for_dependent_row():
    matrix = np.array([[1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    updated = null_space_update(basis, np.array([2.0, 0.0, 0.0]))
    assert updated.shape == basis.shape


def test_update_empty_basis():
    basis = np.zeros((3, 0))
    updated = null_space_update(basis, np.array([1.0, 0.0, 0.0]))
    assert updated.shape == (3, 0)


def test_update_of_last_direction_leaves_none():
    basis = null_space(np.array([[1.0, -1.0]]))
    updated = null_space_update(basis, np.array([1.0, 0.0]))
    assert updated.shape == (2, 0)


def frozen_qr_update(null_basis, row, tol=DEFAULT_TOL):
    """The pivoted rank-one update plus full QR that Algorithm 2 used to be.

    The test oracle for :func:`null_space_update`: both must span the same
    null space.
    """
    row = np.asarray(row, dtype=float).reshape(-1)
    if null_basis.shape[1] == 0:
        return null_basis
    projection = row @ null_basis
    pivot = int(np.argmax(np.abs(projection)))
    if abs(projection[pivot]) <= tol:
        return null_basis
    pivot_column = null_basis[:, pivot : pivot + 1]
    rest = np.delete(null_basis, pivot, axis=1)
    if rest.shape[1] == 0:
        return rest
    updated = rest - pivot_column @ ((row @ rest)[None, :] / projection[pivot])
    q, r_factor = np.linalg.qr(updated)
    keep = np.abs(np.diag(r_factor)) > tol
    return q[:, keep]


def _rank_increasing_row(rng, basis):
    """A 0/1 row with ``||r N|| > DEFAULT_TOL``, else a real one."""
    size = basis.shape[0]
    row = (rng.random(size) < 0.3).astype(float)
    if np.linalg.norm(row @ basis) <= DEFAULT_TOL:
        row = basis @ rng.standard_normal(basis.shape[1])
    return row


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 12),
    rows=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_spans_what_the_qr_update_spans(size, rows, seed):
    """Every step of a chain of rank-increasing updates keeps the projector
    ``N N^T`` of the frozen QR update, drops exactly one column and makes
    the new row orthogonal to the basis."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((min(rows, size - 1), size)) < 0.4).astype(float)
    basis = oracle = null_space(matrix)
    while basis.shape[1] > 0:
        row = _rank_increasing_row(rng, basis)
        updated = null_space_update(basis, row)
        oracle = frozen_qr_update(oracle, row)
        assert updated.shape == (size, basis.shape[1] - 1)
        assert np.allclose(updated @ updated.T, oracle @ oracle.T, atol=1e-10)
        assert np.allclose(row @ updated, 0.0, atol=1e-10)
        basis = updated


def test_long_chain_stays_orthonormal():
    """60 updates at n=80 with no re-orthonormalisation: ``N^T N`` stays the
    identity and the projector stays the QR update's."""
    rng = np.random.default_rng(7)
    basis = oracle = null_space(np.zeros((0, 80)))
    for _ in range(60):
        row = _rank_increasing_row(rng, basis)
        basis = null_space_update(basis, row)
        oracle = frozen_qr_update(oracle, row)
    assert basis.shape == (80, 20)
    assert np.allclose(basis.T @ basis, np.eye(20), atol=1e-10)
    assert np.allclose(basis @ basis.T, oracle @ oracle.T, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    matrix=arrays(
        np.float64,
        (4, 6),
        elements=st.sampled_from([0.0, 1.0]),
    ),
    row=arrays(
        np.float64,
        (6,),
        elements=st.sampled_from([0.0, 1.0]),
    ),
)
def test_update_equals_recompute_property(matrix, row):
    """Algorithm 2 invariant: the incrementally-updated null space spans
    exactly the null space of the extended matrix (when the row adds rank)."""
    basis = null_space(matrix)
    if not rank_increases(basis, row):
        return
    updated = null_space_update(basis, row)
    recomputed = null_space(np.vstack([matrix, row]))
    assert updated.shape[1] == recomputed.shape[1] == basis.shape[1] - 1
    extended = np.vstack([matrix, row])
    assert np.allclose(extended @ updated, 0.0, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(matrix=arrays( np.float64, (5, 5), elements=st.sampled_from([0.0, 1.0]), ))
def test_null_space_columns_orthonormal(matrix):
    basis = null_space(matrix)
    if basis.shape[1]:
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-8)


def _gains(rows, basis):
    return np.linalg.norm(rows @ basis, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 7),
    nullity=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_gains_never_grow_under_updates(size, nullity, seed):
    """The invariant Algorithm 1's candidate frontier rests on.

    Every rank-increasing ``null_space_update`` keeps ``N`` orthonormal
    and shrinks its span, so no row's gain ``||r N||`` grows, and a row
    whose gain is at or below ``DEFAULT_TOL`` stays there.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((size, min(nullity, size))))
    # Random real rows, every 0/1 row, and rows orthogonal to the start.
    probes = np.vstack(
        [
            rng.standard_normal((8, size)),
            np.array(list(product([0.0, 1.0], repeat=size))),
            rng.standard_normal((4, size)) @ (np.eye(size) - basis @ basis.T),
        ]
    )
    gains = _gains(probes, basis)
    settled = gains <= DEFAULT_TOL
    while basis.shape[1] > 0:
        row = rng.integers(0, 2, size).astype(float)
        if np.linalg.norm(row @ basis) <= DEFAULT_TOL:
            row = basis[:, rng.integers(basis.shape[1])] + 0.5 * rng.standard_normal(size)
            if np.linalg.norm(row @ basis) <= DEFAULT_TOL:
                continue
        basis = null_space_update(basis, row)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        updated = _gains(probes, basis)
        assert np.all(updated <= gains + 1e-12)
        assert np.all(updated[settled] <= DEFAULT_TOL)
        gains = updated
        settled |= gains <= DEFAULT_TOL
