"""The frequency-kernel contract.

A kernel is a stateless pair of word-level loops over packed uint64
observation words (see :mod:`repro.model.packed` for the bit layout).
Implementations must accept *strided* word matrices — ring-buffer window
views are non-contiguous column slices — and must be bit-identical to the
numpy kernel on every input.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class FrequencyKernel:
    """Word-level popcount loops behind :class:`ObservationMatrix`.

    ``name`` is the kernel's key in :data:`repro.model.kernels.KERNELS`.
    """

    name: str = "abstract"

    def congestion_counts(self, words: np.ndarray) -> np.ndarray:
        """Per-row popcount sums: congested-interval counts per path.

        ``words`` is ``(num_paths, num_words)`` uint64, possibly strided.
        Returns int64 of shape ``(num_paths,)``.
        """
        raise NotImplementedError

    def union_popcounts(
        self,
        words: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        scratch: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Popcount of the OR-union of each path set's rows.

        Parameters
        ----------
        words:
            ``(num_paths, num_words)`` uint64 word store, possibly strided.
        indices:
            ``(num_sets, widest)`` intp member matrix; row ``i``'s first
            ``lengths[i]`` entries are real path rows, the rest are padded
            with the dummy value ``num_paths`` (an implicit all-good row).
        lengths:
            ``(num_sets,)`` int64 true member counts (``0`` for an empty
            set, whose union popcounts to zero).
        scratch:
            Observation-owned dict for kernel-managed caches tied to this
            word store (the numpy kernel keeps its dummy-padded copy of
            ``words`` here so repeated batches pay the copy once). Cleared
            whenever the observations cross a pickle boundary.

        Returns
        -------
        int64 array of shape ``(num_sets,)`` — congested-in-any interval
        counts; the caller derives all-good counts as ``T - result``.
        """
        raise NotImplementedError
