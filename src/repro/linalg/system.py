"""Growing least-squares equation system with identifiability reporting.

Taking logarithms of Eq. 1 turns every "all paths in P good" observation into
a *linear* equation over the unknown log-probabilities of correlation
subsets. This module hosts those equations: rows are appended as Algorithm 1
selects path sets — individually or as whole batches, which is how the
batched estimation stack feeds vectorized frequency/weight arrays in — the
system is solved by (min-norm) least squares, and each unknown is classified
*identifiable* iff its coordinate is constant across the solution affine
subspace — i.e. iff the corresponding row of the final null-space basis
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import lsq_linear, nnls

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL


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
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        # Group identical rows (first-seen order) by their entry runs.
        groups: dict = {}
        first_of_group_list = []
        inverse = np.empty(num_rows, dtype=np.intp)
        for i in range(num_rows):
            start, stop = indptr[i], indptr[i + 1]
            key = (
                columns[start:stop].tobytes(),
                entry_values[start:stop].tobytes(),
            )
            group = groups.get(key)
            if group is None:
                group = len(groups)
                groups[key] = group
                first_of_group_list.append(i)
            inverse[i] = group
        first_of_group = np.asarray(first_of_group_list, dtype=np.intp)
        num_groups = first_of_group.shape[0]
        unique_rows = np.zeros((num_groups, self.num_unknowns))
        for group, i in enumerate(first_of_group):
            start, stop = indptr[i], indptr[i + 1]
            unique_rows[group, columns[start:stop]] = entry_values[start:stop]
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
        # Rank and null space of the data rows, via SVD of their QR
        # triangle: A'A = R'R, so singular values and right singular
        # vectors coincide while the decomposition runs on (n, n).
        # Duplicate rows don't change the row space, so only one
        # representative per group enters the factorization.
        data_groups = np.unique(inverse[data_mask])
        data_unique = unique_rows[data_groups]
        data_triangle = np.linalg.qr(data_unique, mode="r")
        _, singular_values, vt = np.linalg.svd(data_triangle, full_matrices=True)
        if singular_values.size and singular_values.max() > 0:
            cutoff = tol * max(data_unique.shape) * singular_values.max()
            rank = int((singular_values > cutoff).sum())
        else:
            rank = 0
        basis = vt[rank:].T
        if basis.shape[1] == 0:
            identifiable = np.ones(self.num_unknowns, dtype=bool)
        else:
            # Unknown i is pinned down iff every null vector has a zero
            # i-th coordinate.
            identifiable = np.abs(basis).max(axis=1) <= 1e-7
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
