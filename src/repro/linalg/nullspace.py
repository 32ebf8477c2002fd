"""Null spaces and the incremental update of Algorithm 2.

Algorithm 1 maintains a matrix ``N`` whose columns span the null space of the
growing system matrix ``R``. Each time a row ``r`` with ``||r N|| > 0`` is
appended to ``R``, Algorithm 2 shrinks the null space by one dimension. The
paper eliminates a pivot column (``N' = (I_n - (N_p r) / (r N_p)) N_rest``);
we reach the same span with one Householder reflection instead. With
``v = N^T r`` and ``u = (v + sign(v_0) ||v|| e_1) / ||.||``,

    N' = (N - 2 (N u) u^T)[:, 1:]

The reflection ``H = I_p - 2 u u^T`` is orthogonal and maps ``v`` onto a
multiple of ``e_1``, so ``r (N H) = (H v)^T`` vanishes outside the first
column: dropping that column leaves ``p - 1`` orthonormal columns that span
exactly the part of the old null space orthogonal to ``r``. The update costs
O(n p), with no pivot and no re-orthonormalisation.
"""

from __future__ import annotations


import numpy as np

#: Default numerical tolerance for rank decisions.
DEFAULT_TOL = 1e-9


def rank_cutoff(largest: float, shape, tol: float = DEFAULT_TOL) -> float:
    """The singular-value threshold of every rank decision in this package.

    A singular value counts towards the rank of a ``shape`` matrix whose
    largest singular value is ``largest`` iff it exceeds this cutoff.
    """
    return tol * max(shape) * largest


def _num_nonzero(singular_values: np.ndarray, shape, tol: float) -> int:
    """Singular values above :func:`rank_cutoff`."""
    if not singular_values.size or singular_values.max() <= 0:
        return 0
    cutoff = rank_cutoff(singular_values.max(), shape, tol)
    return int((singular_values > cutoff).sum())


def null_space(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return an orthonormal basis of the null space of ``matrix``.

    The result has shape (num_columns, nullity); an empty second dimension
    means the matrix has full column rank.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0 or matrix.shape[0] == 0:
        return np.eye(matrix.shape[1])
    _, singular_values, vt = np.linalg.svd(matrix, full_matrices=True)
    return vt[_num_nonzero(singular_values, matrix.shape, tol) :].T.copy()


def rank(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of ``matrix`` (0 for empty matrices).

    Uses the same relative cutoff as :func:`null_space`, so
    ``rank(M) + null_space(M).shape[1] == M.shape[1]``.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    return _num_nonzero(singular_values, matrix.shape, tol)


def rank_increases(
    null_basis: np.ndarray, row: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """Whether appending ``row`` to the system increases its rank.

    Equivalent to the paper's test ``||r x N|| > 0`` (Algorithm 1 line 13):
    ``row`` adds rank iff it is not orthogonal to the current null space.
    """
    if null_basis.shape[1] == 0:
        return False
    projection = np.asarray(row, dtype=float) @ null_basis
    return bool(np.linalg.norm(projection) > tol)


def null_space_update(
    null_basis: np.ndarray, row: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Algorithm 2: shrink ``null_basis`` by the constraint ``row``.

    Parameters
    ----------
    null_basis:
        Matrix N of shape (n, p) with orthonormal columns spanning the
        current null space.
    row:
        The newly-added equation row ``r`` (length n). If ``r`` is
        orthogonal to the null space (adds no rank), N is returned
        unchanged — this mirrors Algorithm 1, which only calls the update
        after the ``||r N|| > 0`` test succeeds (the ``r = 0`` no-op case).

    Returns
    -------
    numpy.ndarray
        A (n, p-1) matrix with orthonormal columns spanning the null space
        of the system extended with ``row``: ``N`` reflected by the
        Householder vector that maps ``N^T r`` onto ``e_1``, first column
        dropped (see the module docstring).
    """
    row = np.asarray(row, dtype=float).reshape(-1)
    if null_basis.shape[1] == 0:
        return null_basis
    projection = row @ null_basis
    if np.abs(projection).max() <= tol:
        return null_basis
    reflector = projection.copy()
    reflector[0] += np.copysign(np.linalg.norm(projection), projection[0])
    reflector /= np.linalg.norm(reflector)
    return null_basis[:, 1:] - np.outer(2.0 * (null_basis @ reflector), reflector[1:])
