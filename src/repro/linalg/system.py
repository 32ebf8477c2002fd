"""Growing least-squares equation system with identifiability reporting.

Taking logarithms of Eq. 1 turns every "all paths in P good" observation into
a *linear* equation over the unknown log-probabilities of correlation
subsets. This module hosts those equations: rows are appended as Algorithm 1
selects path sets — individually or as whole batches, which is how the
batched estimation stack feeds vectorized frequency/weight arrays in — the
system is solved by (min-norm) least squares, and each unknown is classified
*identifiable* iff its coordinate is constant across the solution affine
subspace — i.e. iff the corresponding row of the final null-space basis
vanishes. That null space splits over the blocks of unknowns that the
data rows couple, so it is computed block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import lsq_linear, nnls
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, rank_cutoff

#: Largest null-basis entry magnitude of an identifiable unknown.
IDENTIFIABLE_TOL = 1e-7


def _group_entry_runs(
    columns: np.ndarray, values: np.ndarray, row_lengths: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``(first_of_group, inverse)`` of rows with identical entry runs.

    Rows group together iff they have the same length, columns and value
    bit patterns (so a ``-0.0`` entry differs from ``0.0``). Groups are
    numbered in the order of their first row, and ``first_of_group`` lists
    those first rows ascending.
    """
    num_rows = row_lengths.shape[0]
    width = int(row_lengths.max())
    row_ids = np.repeat(np.arange(num_rows), row_lengths)
    run_starts = np.cumsum(row_lengths) - row_lengths
    slots = np.arange(columns.shape[0]) - run_starts[row_ids]
    # One sort key per padded entry slot (columns, then value bits) and the
    # row length last, which lexsort treats as the primary key.
    keys = np.zeros((2 * width + 1, num_rows), dtype=np.int64)
    keys[slots, row_ids] = columns
    keys[width + slots, row_ids] = values.view(np.int64)
    keys[2 * width] = row_lengths
    # lexsort is stable, so each run of equal keys starts at its first row.
    order = np.lexsort(keys)
    sorted_keys = keys[:, order]
    starts = np.ones(num_rows, dtype=bool)
    starts[1:] = (sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)
    first_sorted = order[starts]
    by_first = np.argsort(first_sorted)
    group_of_run = np.empty(by_first.shape[0], dtype=np.intp)
    group_of_run[by_first] = np.arange(by_first.shape[0])
    inverse = np.empty(num_rows, dtype=np.intp)
    inverse[order] = group_of_run[np.cumsum(starts) - 1]
    return first_sorted[by_first], inverse


def _block_identifiability(
    data_rows: np.ndarray, tol: float
) -> "tuple[int, np.ndarray]":
    """``(rank, identifiable)`` of ``data_rows``, one block at a time.

    Two columns share a block when some row has nonzeros in both, so after
    a column permutation the matrix is block-diagonal. Its singular values
    are then the union of the blocks' singular values, and its null space
    is the direct sum of the blocks' null spaces plus ``e_j`` for every
    column no row touches. Each block is factorised on its own (a QR first
    when it is tall), against the one cutoff of the whole matrix; a
    column is identifiable iff its entries in its block's null basis all
    vanish, and an untouched column never is. A one-column block's only
    singular value is its column's norm, so those skip the factorisation.
    """
    num_unknowns = data_rows.shape[1]
    identifiable = np.zeros(num_unknowns, dtype=bool)
    rows, cols = np.nonzero(data_rows)
    if rows.shape[0] == 0:
        return 0, identifiable
    # Chain each row's consecutive nonzero columns; blocks are the
    # connected components of that graph.
    chained = rows[1:] == rows[:-1]
    links = coo_matrix(
        (np.ones(int(chained.sum())), (cols[:-1][chained], cols[1:][chained])),
        shape=(num_unknowns, num_unknowns),
    )
    _, labels = connected_components(links, directed=False)
    touched = np.unique(cols)
    block_width = np.bincount(labels[touched], minlength=num_unknowns)
    alone = block_width[labels[touched]] == 1
    single, wide = touched[alone], touched[~alone]
    single_norms = np.linalg.norm(data_rows[:, single], axis=0)
    # Every row lies in one block: the block of its first nonzero column.
    first = np.flatnonzero(np.concatenate(([True], ~chained)))
    row_labels = labels[cols[first]]
    in_wide = block_width[row_labels] > 1
    factors = []
    for row_ids, col_ids in zip(
        _split_by_label(rows[first][in_wide], row_labels[in_wide]),
        _split_by_label(wide, labels[wide]),
    ):
        block = data_rows[np.ix_(row_ids, col_ids)]
        if block.shape[0] > block.shape[1]:
            block = np.linalg.qr(block, mode="r")
        _, singular_values, vt = np.linalg.svd(block, full_matrices=True)
        factors.append((col_ids, singular_values, vt))
    largest = max(
        [single_norms.max(initial=0.0)]
        + [singular_values.max() for _, singular_values, _ in factors]
    )
    cutoff = rank_cutoff(largest, data_rows.shape, tol)
    identifiable[single] = single_norms > cutoff
    rank = int(identifiable[single].sum())
    for col_ids, singular_values, vt in factors:
        block_rank = int((singular_values > cutoff).sum())
        rank += block_rank
        null_basis = vt[block_rank:]
        identifiable[col_ids] = (
            np.abs(null_basis).max(axis=0, initial=0.0) <= IDENTIFIABLE_TOL
        )
    return rank, identifiable


def _split_by_label(items: np.ndarray, item_labels: np.ndarray) -> list:
    """``items`` split into runs of equal label, in ascending label order."""
    if items.shape[0] == 0:
        return []
    order = np.argsort(item_labels, kind="stable")
    bounds = np.flatnonzero(np.diff(item_labels[order])) + 1
    return np.split(items[order], bounds)


class SystemWorkspace:
    """Reusable growth arenas for :class:`EquationSystem` blocks.

    Each equation row is stored as a run of ``(column, value)`` entries in
    flat capacity-doubling arrays, next to per-row arenas for the entry
    count, right-hand side, weight and prior flag. Storage therefore costs
    the number of nonzeros, not rows x unknowns.

    A sweep trial that fits several estimators against one observation set
    churns through several short-lived equation systems; sharing one
    workspace lets them append into the same arenas instead of
    reallocating per fit. The estimation pipeline threads one workspace per
    trial through its :class:`~repro.probability.pipeline.FitContext`.

    Only one system may grow in the workspace at a time: beginning a new
    system recycles the arenas, invalidating the previous system's views.
    Sweep trials fit sequentially, so this is the natural lifetime.
    """

    #: Initial row capacity of a fresh arena.
    INITIAL_CAPACITY = 256
    #: Initial flat (column, value) entry capacity of a fresh arena.
    INITIAL_ENTRIES = 1024

    def __init__(self) -> None:
        self._rhs = np.empty(self.INITIAL_CAPACITY)
        self._weights = np.empty(self.INITIAL_CAPACITY)
        self._prior = np.empty(self.INITIAL_CAPACITY, dtype=bool)
        self._row_lengths = np.empty(self.INITIAL_CAPACITY, dtype=np.int64)
        self._columns = np.empty(self.INITIAL_ENTRIES, dtype=np.int64)
        self._values = np.empty(self.INITIAL_ENTRIES)
        self._count = 0
        self._entry_count = 0
        # Bumped on every begin(); systems remember the generation they
        # were issued so a stale system can never read a recycled arena.
        self._generation = 0

    def begin(self) -> int:
        """Recycle the arenas for a new system; returns its generation."""
        self._count = 0
        self._entry_count = 0
        self._generation += 1
        return self._generation

    @property
    def generation(self) -> int:
        """Identity of the arena's current (live) system."""
        return self._generation

    def _grow(self, names: "tuple[str, ...]", used: int, needed: int) -> None:
        """Grow the named arenas to ``needed`` slots, keeping ``used``."""
        for name in names:
            old = getattr(self, name)
            if needed <= old.shape[0]:
                continue
            grown = np.empty(max(needed, 2 * old.shape[0]), dtype=old.dtype)
            grown[:used] = old[:used]
            setattr(self, name, grown)

    def append(
        self,
        columns: np.ndarray,
        values: np.ndarray,
        row_lengths: np.ndarray,
        rhs: np.ndarray,
        weights: np.ndarray,
        prior: bool,
    ) -> None:
        """Copy one validated block of entry-run equations into the arenas."""
        stop = self._count + row_lengths.shape[0]
        entry_stop = self._entry_count + columns.shape[0]
        self._grow(("_rhs", "_weights", "_prior", "_row_lengths"), self._count, stop)
        self._grow(("_columns", "_values"), self._entry_count, entry_stop)
        self._row_lengths[self._count : stop] = row_lengths
        self._rhs[self._count : stop] = rhs
        self._weights[self._count : stop] = weights
        self._prior[self._count : stop] = prior
        self._columns[self._entry_count : entry_stop] = columns
        self._values[self._entry_count : entry_stop] = values
        self._count = stop
        self._entry_count = entry_stop

    @property
    def num_equations(self) -> int:
        """Rows appended since the last :meth:`begin`."""
        return self._count

    def rhs_view(self) -> np.ndarray:
        """The live system's right-hand sides (a view into the arena)."""
        return self._rhs[: self._count]

    def weights_view(self) -> np.ndarray:
        """The live system's equation weights (a view into the arena)."""
        return self._weights[: self._count]

    def prior_view(self) -> np.ndarray:
        """The live system's prior-row mask (a view into the arena)."""
        return self._prior[: self._count]

    def entry_views(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The live system's ``(columns, values, row_lengths)``."""
        return (
            self._columns[: self._entry_count],
            self._values[: self._entry_count],
            self._row_lengths[: self._count],
        )


@dataclass
class Solution:
    """Solved unknowns with identifiability flags.

    Attributes
    ----------
    values:
        Estimated unknowns (here: log "all-good" probabilities), length n.
        Unidentifiable coordinates carry the min-norm solution value and
        must be interpreted through ``identifiable``.
    identifiable:
        Boolean mask, length n; true where the system pins the unknown down
        uniquely.
    rank:
        Rank of the solved system.
    residual:
        Root-mean-square equation residual (diagnostic; large residuals mean
        the model assumptions are violated or T is too small).
    """

    values: np.ndarray
    identifiable: np.ndarray
    rank: int
    residual: float


class EquationSystem:
    """A growing linear system ``A x = b`` over ``num_unknowns`` unknowns.

    Equations may carry *weights* (generalised least squares): an equation
    whose right-hand side is a noisy estimate with standard deviation
    ``sigma`` should be weighted ``1/sigma`` so that precise equations
    dominate the solve. Weights scale rows and right-hand sides together, so
    the row space — and therefore identifiability — is unchanged.

    Each Eq. 1 row touches one unknown per correlation subset its path set
    covers, so rows are stored as ``(column, value)`` entry runs in a
    :class:`SystemWorkspace`: :meth:`add_sparse_batch` appends runs
    directly, while :meth:`add` and :meth:`add_batch` take dense rows (e.g.
    the estimators' prior rows) and convert them. The solve deduplicates on
    the entry runs and densifies only the unique rows. A system given a
    shared ``workspace`` grows in its arenas (one live system per workspace
    at a time — beginning a newer system there invalidates this one);
    otherwise it owns a private one.
    """

    def __init__(
        self,
        num_unknowns: int,
        workspace: Optional[SystemWorkspace] = None,
    ) -> None:
        if num_unknowns < 0:
            raise EstimationError("num_unknowns must be non-negative")
        self.num_unknowns = num_unknowns
        self._workspace = workspace if workspace is not None else SystemWorkspace()
        self._generation = self._workspace.begin()

    def __len__(self) -> int:
        return self._arena().num_equations

    def add(
        self, row: np.ndarray, rhs: float, weight: float = 1.0, prior: bool = False
    ) -> None:
        """Append one equation ``row . x = rhs`` with precision ``weight``.

        Equations flagged ``prior`` are regularisers, not measurements: they
        participate in the least-squares solve (pulling underdetermined
        directions toward the prior) but are excluded from rank and
        identifiability accounting — an unknown only counts as identifiable
        when the *data* pins it down.
        """
        row = np.asarray(row, dtype=float).reshape(-1)
        self.add_batch(
            row[None, :],
            np.array([float(rhs)]),
            np.array([float(weight)]),
            prior=prior,
        )

    def add_batch(
        self,
        rows: np.ndarray,
        rhs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        prior: bool = False,
    ) -> None:
        """Append a block of dense equation rows in one call.

        Parameters
        ----------
        rows:
            Coefficient matrix, shape (k, num_unknowns).
        rhs:
            Right-hand sides, shape (k,).
        weights:
            Per-equation precisions, shape (k,); defaults to 1.
        prior:
            Marks the whole block as regulariser rows (see :meth:`add`).
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if rows.shape[1] != self.num_unknowns:
            raise EstimationError(
                f"row has {rows.shape[1]} coefficients, expected {self.num_unknowns}"
            )
        if rows.shape[0] != rhs.shape[0]:
            raise EstimationError("rows and rhs lengths differ")
        if rows.shape[0] == 0:
            return
        weights = self._checked_weights(weights, rows.shape[0])
        # np.nonzero walks row-major, so columns come out ascending per
        # row — already the canonical run order for duplicate grouping.
        row_ids, columns = np.nonzero(rows)
        self._arena().append(
            columns.astype(np.int64),
            rows[row_ids, columns],
            np.bincount(row_ids, minlength=rows.shape[0]).astype(np.int64),
            rhs,
            weights,
            bool(prior),
        )

    def add_sparse_batch(
        self,
        columns: np.ndarray,
        row_lengths: np.ndarray,
        rhs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        prior: bool = False,
    ) -> None:
        """Append a block of entry-run equations in one call.

        Parameters
        ----------
        columns:
            Flat array concatenating each row's unknown indices. Indices
            must be distinct within a row (any order; rows are
            canonicalised to ascending column order internally so that
            identical rows group together in the solve).
        row_lengths:
            Entries per row, shape (k,); ``sum(row_lengths) == len(columns)``.
        rhs:
            Right-hand sides, shape (k,).
        weights:
            Per-equation precisions, shape (k,); defaults to 1.
        values:
            Per-entry coefficients aligned with ``columns``; defaults to 1
            (the 0/1 Eq. 1 rows).
        prior:
            Marks the whole block as regulariser rows (see :meth:`add`).

        Raises
        ------
        EstimationError
            On mismatched lengths, an out-of-range column, a column
            repeated within a row, or a non-positive weight.
        """
        columns = np.asarray(columns, dtype=np.int64).reshape(-1)
        row_lengths = np.asarray(row_lengths, dtype=np.int64).reshape(-1)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if row_lengths.shape[0] != rhs.shape[0]:
            raise EstimationError("row_lengths and rhs lengths differ")
        if int(row_lengths.sum()) != columns.shape[0]:
            raise EstimationError("row_lengths do not sum to len(columns)")
        if row_lengths.shape[0] == 0:
            return
        if columns.size and (
            columns.min() < 0 or columns.max() >= self.num_unknowns
        ):
            raise EstimationError("sparse column index out of range")
        if values is None:
            values = np.ones(columns.shape[0])
        else:
            values = np.asarray(values, dtype=float).reshape(-1)
            if values.shape[0] != columns.shape[0]:
                raise EstimationError("columns and values lengths differ")
        weights = self._checked_weights(weights, row_lengths.shape[0])
        if columns.size:
            # Canonical ascending-column order per row, so identical rows
            # produce identical entry runs.
            row_ids = np.repeat(np.arange(row_lengths.shape[0]), row_lengths)
            order = np.lexsort((columns, row_ids))
            columns = columns[order]
            values = values[order]
            if np.any((columns[1:] == columns[:-1]) & (row_ids[1:] == row_ids[:-1])):
                raise EstimationError("sparse row repeats a column index")
        self._arena().append(columns, values, row_lengths, rhs, weights, bool(prior))

    @staticmethod
    def _checked_weights(weights: Optional[np.ndarray], count: int) -> np.ndarray:
        """Per-equation precisions: default 1, one per row, all positive."""
        if weights is None:
            return np.ones(count)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape[0] != count:
            raise EstimationError("rows and weights lengths differ")
        if np.any(weights <= 0.0):
            raise EstimationError("equation weight must be positive")
        return weights

    def _arena(self) -> SystemWorkspace:
        """The backing workspace, after checking this system still owns it."""
        if self._workspace.generation != self._generation:
            raise EstimationError(
                "workspace was recycled by a newer EquationSystem; "
                "this system's equations are gone"
            )
        return self._workspace

    @property
    def matrix(self) -> np.ndarray:
        """The system matrix A, shape (num_equations, num_unknowns).

        *Materialises* the dense matrix from the entry runs (diagnostics
        and tests only — the solve never does this).
        """
        columns, values, row_lengths = self._arena().entry_views()
        matrix = np.zeros((row_lengths.shape[0], self.num_unknowns))
        row_ids = np.repeat(np.arange(row_lengths.shape[0]), row_lengths)
        matrix[row_ids, columns] = values
        return matrix

    @property
    def storage_nbytes(self) -> int:
        """Logical bytes of the stored equations.

        One ``(column, value)`` pair per nonzero, plus a per-row entry
        count, rhs, weight and prior flag. Solve-time transients (the
        densified unique rows) are deliberately excluded.
        """
        columns, _, row_lengths = self._arena().entry_views()
        return columns.shape[0] * (8 + 8) + row_lengths.shape[0] * (8 + 8 + 8 + 1)

    @property
    def rhs(self) -> np.ndarray:
        """The right-hand side b, shape (num_equations,)."""
        return self._arena().rhs_view()

    @property
    def weights(self) -> np.ndarray:
        """Per-equation precisions, shape (num_equations,)."""
        return self._arena().weights_view()

    @property
    def prior_mask(self) -> np.ndarray:
        """Boolean mask of regulariser rows, shape (num_equations,)."""
        return self._arena().prior_view()

    @staticmethod
    def _solve_bounded(
        matrix: np.ndarray, rhs: np.ndarray, upper_bound: float
    ) -> np.ndarray:
        """Least squares subject to ``x_i <= upper_bound`` for all i.

        Substituting ``x = upper_bound + d`` with ``d <= 0`` turns the
        problem into non-negative least squares on ``-d``, which scipy
        solves with the compiled Lawson–Hanson active-set method — far
        faster than the generic bounded solvers on these systems. Falls
        back to ``lsq_linear`` if NNLS hits its iteration limit.
        """
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

    def solve(
        self, tol: float = DEFAULT_TOL, upper_bound: Optional[float] = None
    ) -> Solution:
        """Solve by (optionally bounded) least squares and classify
        identifiability.

        Duplicate rows are merged first. The minimiser comes from one thin
        QR of all weighted unique rows, then NNLS (or lstsq) on its
        triangle. Rank and identifiability come from the data rows only
        (prior rows excluded), factorised per block of the unknowns they
        couple; unknowns no data row touches are never identifiable.

        Parameters
        ----------
        upper_bound:
            When given, solve subject to ``x_i <= upper_bound`` for every
            unknown. The log-domain probability systems use 0 (probabilities
            cannot exceed 1); without the bound, noise can push one
            unknown's log-probability positive and dump the compensating
            mass on another, badly misattributing congestion.

        Raises
        ------
        EstimationError
            If the system has no equations but unknowns exist.
        """
        if self.num_unknowns == 0:
            return Solution(
                values=np.zeros(0),
                identifiable=np.zeros(0, dtype=bool),
                rank=0,
                residual=0.0,
            )
        if len(self) == 0:
            raise EstimationError("cannot solve an empty equation system")
        columns, entry_values, row_lengths = self._arena().entry_views()
        rhs = self.rhs
        weights = self.weights
        num_rows = row_lengths.shape[0]
        first_of_group, inverse = _group_entry_runs(columns, entry_values, row_lengths)
        num_groups = first_of_group.shape[0]
        # Densify each group's first row in one scatter.
        entry_rows = np.repeat(np.arange(num_rows), row_lengths)
        is_first = np.zeros(num_rows, dtype=bool)
        is_first[first_of_group] = True
        kept = is_first[entry_rows]
        unique_rows = np.zeros((num_groups, self.num_unknowns))
        unique_rows[inverse[entry_rows[kept]], columns[kept]] = entry_values[kept]
        # Equations from different path sets frequently share a coefficient
        # row; a duplicate group {(r, b_i, w_i)} contributes
        # ``sum w_i^2 (r.x - b_i)^2 = W^2 (r.x - b_bar)^2 + const`` with
        # ``W^2 = sum w_i^2`` and ``b_bar`` the precision-weighted mean, so
        # merging duplicates leaves the minimiser set exactly unchanged
        # while shrinking the factorizations below.
        if num_groups < num_rows:
            precision = weights * weights
            group_precision = np.bincount(inverse, weights=precision)
            group_rhs = (
                np.bincount(inverse, weights=precision * rhs) / group_precision
            )
            group_weight = np.sqrt(group_precision)
            weighted_matrix = unique_rows * group_weight[:, None]
            weighted_rhs = group_rhs * group_weight
        else:
            weighted_matrix = unique_rows * weights[:, None]
            weighted_rhs = rhs * weights
        # Compress the least-squares problem through a thin QR: with
        # A = Q R, ``||A x - b|| = ||R x - Q' b||`` up to a constant, so
        # every solver below works on the (n, n) triangle instead of the
        # (num_equations, n) stack. Minimiser sets are identical.
        q_factor, r_factor = np.linalg.qr(weighted_matrix)
        compressed_rhs = q_factor.T @ weighted_rhs
        del q_factor, weighted_matrix
        if upper_bound is None:
            values, _, _, _ = np.linalg.lstsq(r_factor, compressed_rhs, rcond=None)
        else:
            # NNLS solves the bounded problem exactly whether or not the
            # bound binds, so no unconstrained pre-solve is needed (on the
            # log-probability systems the bound almost always binds).
            values = self._solve_bounded(r_factor, compressed_rhs, upper_bound)
        data_mask = ~self.prior_mask
        data_rhs = rhs[data_mask]
        if data_rhs.shape[0] == 0:
            raise EstimationError("cannot solve a system with only prior equations")
        # Rank and identifiability come from the data rows alone, one
        # representative per duplicate group (duplicates don't change the
        # row space), factorised block by block over the unknowns they
        # couple (see _block_identifiability).
        if data_rhs.shape[0] == num_rows:
            data_groups = np.arange(num_groups)
            data_unique = unique_rows
        else:
            data_groups = np.unique(inverse[data_mask])
            data_unique = unique_rows[data_groups]
        rank, identifiable = _block_identifiability(data_unique, tol)
        # One matvec over the unique data rows; every duplicate row's
        # fitted value equals its representative's, so scattering through
        # the group ids gives the per-row residual.
        fitted_unique = data_unique @ values
        fitted = fitted_unique[np.searchsorted(data_groups, inverse[data_mask])]
        residual = float(np.sqrt(np.mean((fitted - data_rhs) ** 2)))
        return Solution(
            values=values,
            identifiable=identifiable,
            rank=rank,
            residual=residual,
        )
