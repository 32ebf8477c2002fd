"""Bit-packed columnar observation storage and the batched frequency kernel.

Every Probability Computation algorithm in this package reduces to one hot
query — the empirical all-good frequency of a path set (the left-hand side
of the paper's Eq. 1). Evaluated against a dense boolean ``(T, paths)``
matrix, each query is an O(T * k) scan; evaluated against this backend it is
a handful of word operations: path statuses are stored as ``uint64`` words
(64 intervals per word, one row of words per path), a path set's congested
intervals are the bitwise OR of its rows, and the all-good count is
``T - popcount(OR)``.

The same layout yields the other frequency queries for free (per-path
congestion counts are per-row popcounts) and supports cheap interval
slicing for windowed estimation: a word-aligned window is a column slice of
the word matrix plus a tail mask, with no re-packing of the horizon.

Two interchangeable backends implement the storage contract:

* :class:`PackedBackend` — the ``uint64`` columnar store (default);
* :class:`DenseBackend` — the original boolean matrix, kept for tests,
  tiny inputs, and as the executable specification the packed kernels are
  property-tested against.

The packed backend's two hot loops — the batched gather/OR/popcount of
:meth:`PackedBackend.all_good_counts` and the row popcounts of
:meth:`PackedBackend.congestion_counts` — dispatch through the pluggable
kernel layer (:mod:`repro.model.kernels`), whose numpy kernel serves both.
"""

from __future__ import annotations

import sys
from typing import List, Sequence

import numpy as np

from repro.model import kernels
from repro.obs import counter, histogram, metrics_enabled

# Kernel-dispatch telemetry (REPRO_OBS=metrics|trace). Batch-size buckets
# are set counts, not seconds: the gather kernel's cost profile is driven
# by how many path sets one invocation carries.
_KERNEL_CALLS = counter(
    "repro_kernel_calls_total",
    "Frequency-kernel invocations by kernel and operation.",
    ["kernel", "op"],
)
_KERNEL_WORDS = counter(
    "repro_kernel_words_total",
    "uint64 words gathered/scanned by the frequency kernels.",
    ["kernel", "op"],
)
_KERNEL_BATCH_SETS = histogram(
    "repro_kernel_batch_path_sets",
    "Path sets per batched union-popcount invocation.",
    ["kernel"],
    buckets=[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536],
)

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


def _tail_mask(num_intervals: int, num_words: int) -> np.ndarray:
    """Per-word mask with ones on the first ``num_intervals`` bit slots."""
    total_bits = num_words * WORD_BITS
    bits = np.zeros(total_bits, dtype=np.uint8)
    bits[:num_intervals] = 1
    return np.packbits(bits).view(np.uint64)


class PackedBackend:
    """``uint64`` columnar path-status store with popcount kernels.

    Parameters
    ----------
    words:
        ``(num_paths, num_words)`` uint64 array; see
        :func:`pack_bool_matrix` for the bit layout. Padding bits must be 0.
    num_intervals:
        The observation horizon ``T`` (``<= num_words * 64``).
    """

    name = "packed"

    def __init__(self, words: np.ndarray, num_intervals: int) -> None:
        # `asarray` (not `ascontiguousarray`): a non-contiguous column view
        # of a larger word store — e.g. a window of the streaming ring
        # buffer — is accepted zero-copy. Every kernel below either works on
        # strided arrays directly or makes a bounded local copy of the
        # touched word range.
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("PackedBackend expects a 2-D (paths, words) array")
        if num_intervals > words.shape[1] * WORD_BITS:
            raise ValueError("num_intervals exceeds packed capacity")
        self.words = words
        self._num_intervals = int(num_intervals)
        # Kernel-owned caches tied to this word store (the numpy kernel
        # keeps its dummy-padded copy of `words` here). Lazily filled so
        # backends that never run a batch query — e.g. short-lived window
        # slices — pay nothing.
        self._kernel_scratch: dict = {}

    @classmethod
    def from_dense(cls, congested: np.ndarray) -> "PackedBackend":
        congested = np.asarray(congested, dtype=bool)
        return cls(pack_bool_matrix(congested), congested.shape[0])

    # -- pickling --------------------------------------------------------
    # Observations cross process boundaries (the parallel campaign runner
    # ships them to and from pool workers) in their uint64 word form: the
    # state is just the word matrix plus the horizon. The kernel scratch
    # is dropped — it holds caches, and strided window views are made
    # contiguous so the payload is exactly the touched words.
    def __getstate__(self) -> dict:
        return {
            "words": np.ascontiguousarray(self.words),
            "num_intervals": self._num_intervals,
        }

    def __setstate__(self, state: dict) -> None:
        self.words = state["words"]
        self._num_intervals = state["num_intervals"]
        self._kernel_scratch = {}

    # -- storage contract ------------------------------------------------
    @property
    def num_intervals(self) -> int:
        return self._num_intervals

    @property
    def num_paths(self) -> int:
        return self.words.shape[0]

    def dense(self) -> np.ndarray:
        """Materialise the boolean ``(T, paths)`` matrix."""
        return unpack_words(self.words, self._num_intervals)

    def congested_in_interval(self, interval: int) -> np.ndarray:
        """Boolean vector over paths for one interval ``t``."""
        if not 0 <= interval < self._num_intervals:
            raise IndexError(f"interval {interval} outside horizon")
        word_index, bit_in_word = divmod(interval, WORD_BITS)
        byte_index, bit_index = divmod(bit_in_word, 8)
        # Extract the single queried bit by shift+mask on the (possibly
        # strided) word column — no 8-byte-per-path contiguous copy of the
        # whole word column just to read one byte of it. The shift maps
        # pack_bool_matrix's layout (MSB-first bits, bytes in increasing
        # memory order) onto the host's uint64 byte order.
        if sys.byteorder == "little":
            shift = np.uint64(8 * byte_index + (7 - bit_index))
        else:  # pragma: no cover - big-endian hosts
            shift = np.uint64(8 * (7 - byte_index) + (7 - bit_index))
        column = self.words[:, word_index]
        return (column >> shift) & np.uint64(1) > 0

    def congestion_counts(self) -> np.ndarray:
        """Per-path congested-interval counts, shape (num_paths,)."""
        kernel = kernels.active_kernel()
        if metrics_enabled():
            _KERNEL_CALLS.inc(kernel=kernel.name, op="congestion_counts")
            _KERNEL_WORDS.inc(float(self.words.size), kernel=kernel.name, op="congestion_counts")
        return kernel.congestion_counts(self.words)

    def all_good_counts(self, path_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Batched Eq. 1 numerator: all-good interval counts per path set.

        The kernel of the whole estimation stack: for each path set, OR the
        packed rows of its members and popcount the union. The whole batch
        runs through the active frequency kernel
        (:mod:`repro.model.kernels`) — no Python per-set work. The empty
        set counts every interval (an all-empty batch short-circuits; an
        empty set inside a wider batch unions nothing and popcounts to
        zero). Returns an int64 array of
        len(path_sets).
        """
        num_sets = len(path_sets)
        total = self._num_intervals
        if num_sets == 0:
            return np.zeros(0, dtype=np.int64)
        members: List[List[int]] = [list(s) for s in path_sets]
        widest = max(len(m) for m in members)
        if widest == 0:
            return np.full(num_sets, total, dtype=np.int64)
        # Ragged sets become a rectangular index matrix padded with the
        # dummy row index ``num_paths`` (an implicit all-good row, a no-op
        # under OR) plus the true lengths.
        dummy = self.num_paths
        indices = np.full((num_sets, widest), dummy, dtype=np.intp)
        lengths = np.empty(num_sets, dtype=np.int64)
        for i, m in enumerate(members):
            indices[i, : len(m)] = m
            lengths[i] = len(m)
        kernel = kernels.active_kernel()
        if metrics_enabled():
            _KERNEL_CALLS.inc(kernel=kernel.name, op="union_popcounts")
            # Words gathered: every member row contributes its word columns
            # to the union.
            _KERNEL_WORDS.inc(
                float(int(lengths.sum()) * self.words.shape[1]),
                kernel=kernel.name,
                op="union_popcounts",
            )
            _KERNEL_BATCH_SETS.observe(float(num_sets), kernel=kernel.name)
        counts = kernel.union_popcounts(
            self.words, indices, lengths, self._kernel_scratch
        )
        return total - counts

    def slice_intervals(self, start: int, stop: int) -> "PackedBackend":
        """The window ``[start, stop)`` as a new backend.

        Word-aligned starts reuse the existing words (a column slice plus a
        tail mask); unaligned starts shift bits across words — both avoid
        re-packing from a dense matrix.
        """
        if not 0 <= start <= stop <= self._num_intervals:
            raise IndexError(f"window [{start}, {stop}) outside horizon")
        length = stop - start
        if length == 0:
            return PackedBackend(np.zeros((self.num_paths, 1), dtype=np.uint64), 0)
        num_words = -(-length // WORD_BITS)
        first_word, offset = divmod(start, WORD_BITS)
        if offset == 0:
            window = self.words[:, first_word : first_word + num_words].copy()
            window &= _tail_mask(length, num_words)
        else:
            # Unaligned window: unpack only the touched word range, slice
            # at bit granularity, and repack — still no dense (T, paths)
            # matrix and no re-scan of the full horizon.
            last_word = -(-stop // WORD_BITS)
            touched = np.ascontiguousarray(self.words[:, first_word:last_word])
            byte_start = start // 8
            byte_stop = -(-stop // 8)
            word_byte0 = first_word * WORD_BYTES
            raw = touched.view(np.uint8)[
                :, byte_start - word_byte0 : byte_stop - word_byte0
            ]
            bits = np.unpackbits(np.ascontiguousarray(raw), axis=1)
            head = start - byte_start * 8
            packed = np.packbits(bits[:, head : head + length], axis=1)
            window_bytes = np.zeros(
                (self.num_paths, num_words * WORD_BYTES), dtype=np.uint8
            )
            window_bytes[:, : packed.shape[1]] = packed
            window = window_bytes.view(np.uint64)
        return PackedBackend(window, length)


class DenseBackend:
    """The original boolean ``(T, paths)`` store — reference semantics.

    Kept as the executable specification for the packed kernels (the
    equivalence suite checks every query agrees between backends) and for
    callers that want the plain matrix without the packing round-trip.
    """

    name = "dense"

    def __init__(self, congested: np.ndarray) -> None:
        congested = np.asarray(congested, dtype=bool)
        if congested.ndim != 2:
            raise ValueError("DenseBackend expects a 2-D (T, paths) matrix")
        self._congested = congested

    @classmethod
    def from_dense(cls, congested: np.ndarray) -> "DenseBackend":
        return cls(congested)

    @property
    def num_intervals(self) -> int:
        return self._congested.shape[0]

    @property
    def num_paths(self) -> int:
        return self._congested.shape[1]

    def dense(self) -> np.ndarray:
        return self._congested

    def congested_in_interval(self, interval: int) -> np.ndarray:
        if not 0 <= interval < self.num_intervals:
            raise IndexError(f"interval {interval} outside horizon")
        return self._congested[interval]

    def congestion_counts(self) -> np.ndarray:
        return self._congested.sum(axis=0, dtype=np.int64)

    def all_good_counts(self, path_sets: Sequence[Sequence[int]]) -> np.ndarray:
        counts = np.empty(len(path_sets), dtype=np.int64)
        total = self.num_intervals
        for i, path_set in enumerate(path_sets):
            indices = list(path_set)
            if not indices:
                counts[i] = total
                continue
            congested_any = self._congested[:, indices].any(axis=1)
            counts[i] = total - int(congested_any.sum())
        return counts

    def slice_intervals(self, start: int, stop: int) -> "DenseBackend":
        if not 0 <= start <= stop <= self.num_intervals:
            raise IndexError(f"window [{start}, {stop}) outside horizon")
        return DenseBackend(self._congested[start:stop])
