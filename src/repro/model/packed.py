"""The bit-packed word layout of path observations.

Path statuses are stored as ``uint64`` words: 64 intervals per word, one
row of words per path. A path set's congested intervals are then the
bitwise OR of its rows, and its all-good count (the numerator of the
paper's Eq. 1) is ``T - popcount(OR)``; per-path congestion counts are
per-row popcounts. :class:`~repro.model.status.ObservationMatrix` owns
such a word matrix and answers every frequency query on it through the
kernel layer (:mod:`repro.model.kernels`).

This module holds the layout itself: packing a boolean ``(T, paths)``
matrix into words and unpacking it again.
"""

from __future__ import annotations

import numpy as np

#: Intervals per storage word.
WORD_BITS = 64

#: Bytes per storage word.
WORD_BYTES = 8


def pack_bool_matrix(congested: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(T, paths)`` matrix into ``uint64`` words.

    Returns an array of shape ``(paths, ceil(T / 64))``; bit ``j`` (MSB
    first within each byte, bytes in little-endian word order is *not*
    assumed anywhere — only popcounts and ORs are taken) of row ``p`` is the
    status of path ``p`` in interval ``64 * w + j``. Padding bits beyond
    ``T`` are zero (good), so they never contribute to congestion counts.
    """
    congested = np.asarray(congested, dtype=bool)
    if congested.ndim != 2:
        raise ValueError("pack_bool_matrix expects a 2-D (T, paths) matrix")
    num_intervals, num_paths = congested.shape
    num_words = max(1, -(-num_intervals // WORD_BITS))
    # Pack along time per path; pad the byte dimension out to whole words.
    packed_bytes = np.packbits(congested.T, axis=1)
    padded = np.zeros((num_paths, num_words * WORD_BYTES), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view(np.uint64)


def unpack_words(words: np.ndarray, num_intervals: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`: back to boolean ``(T, paths)``."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=num_intervals)
    return bits.T.astype(bool)
