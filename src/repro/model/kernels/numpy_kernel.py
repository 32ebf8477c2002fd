"""The vectorised frequency kernel.

A chunked fancy-index gather over a dummy-padded word store, a
``np.bitwise_or.reduce`` over the member axis, and ``np.bitwise_count``
over the union.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.model.kernels.base import FrequencyKernel

#: Bytes per uint64 storage word (mirrors :data:`repro.model.packed.WORD_BYTES`).
_WORD_BYTES = 8

#: Working-set bound (bytes) for one gathered batch chunk: the padded
#: ``(chunk, widest, words)`` uint64 cube *plus* the ``(chunk, widest)``
#: index block that drives the gather. Sized to stay L2-resident.
GATHER_WORKING_SET_BYTES = 1 << 21

#: Floor on the batch chunk. Without it, a single very wide path set
#: (``widest * words * 8 > GATHER_WORKING_SET_BYTES``) degenerated the
#: batch to ``chunk=1`` — one reduce call per set, all Python overhead.
MIN_GATHER_CHUNK = 16


def gather_chunk(widest: int, num_words: int, index_itemsize: int) -> int:
    """Sets per gather chunk under the working-set bound, floored.

    Accounts for both the gathered uint64 cube and the index cube's own
    dtype (``np.intp``), which the old hard-coded heuristic ignored.
    """
    row_bytes = max(1, widest) * (num_words * _WORD_BYTES + index_itemsize)
    return max(MIN_GATHER_CHUNK, GATHER_WORKING_SET_BYTES // max(1, row_bytes))


class NumpyKernel(FrequencyKernel):
    """Chunked gather + OR-reduce + popcount on numpy ufuncs."""

    name = "numpy"

    def congestion_counts(self, words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

    def union_popcounts(
        self,
        words: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        scratch: Dict[str, np.ndarray],
    ) -> np.ndarray:
        # The padded copy appends one all-zero (all-good) dummy row the
        # index matrix's padding points at — a no-op under OR — so the
        # whole ragged batch gathers as one rectangular cube. Cached in
        # the observations' scratch dict across batches.
        padded = scratch.get("words_padded")
        if padded is None:
            padded = np.concatenate(
                [words, np.zeros((1, words.shape[1]), dtype=np.uint64)]
            )
            scratch["words_padded"] = padded
        num_sets, widest = indices.shape
        counts = np.empty(num_sets, dtype=np.int64)
        chunk = gather_chunk(widest, words.shape[1], indices.itemsize)
        for lo in range(0, num_sets, chunk):
            block = indices[lo : lo + chunk]
            union = np.bitwise_or.reduce(padded[block], axis=1)
            counts[lo : lo + chunk] = np.bitwise_count(union).sum(
                axis=1, dtype=np.int64
            )
        return counts
