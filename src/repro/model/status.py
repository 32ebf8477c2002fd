"""Boolean status conventions of Section 2.

Link status ``X_e(t)`` and path status ``Y_p(t)`` are 0 for *good* and 1 for
*congested*. The simulator emits these as boolean numpy matrices indexed by
(interval, link) and (interval, path); :class:`ObservationMatrix` stores the
path statuses and answers the empirical frequency queries every
probability-computation algorithm consumes.

Storage is columnar and bit-packed (:mod:`repro.model.packed`): path
statuses live as ``uint64`` words, and the hot query — the empirical
all-good frequency of a path set, Eq. 1's left-hand side — is an
OR-reduction over packed rows plus a popcount, batched over many path sets
at once via :meth:`ObservationMatrix.all_good_frequencies` and run by the
frequency kernel (:mod:`repro.model.kernels`). A word-aligned interval
window is a column slice of the words plus a tail mask, so windowed
estimation never re-packs the horizon.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Union

import numpy as np

from repro.model import kernels
from repro.model.packed import WORD_BITS, WORD_BYTES, pack_bool_matrix, unpack_words
from repro.obs import counter, histogram, metrics_enabled

#: Status value for a good link or path (``X = 0`` / ``Y = 0``).
GOOD = 0
#: Status value for a congested link or path (``X = 1`` / ``Y = 1``).
CONGESTED = 1

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


def _tail_mask(num_intervals: int, num_words: int) -> np.ndarray:
    """Per-word mask with ones on the first ``num_intervals`` bit slots."""
    bits = np.zeros(num_words * WORD_BITS, dtype=np.uint8)
    bits[:num_intervals] = 1
    return np.packbits(bits).view(np.uint64)


@dataclass(frozen=True)
class IntervalRecord:
    """Ground truth and observation for a single time interval ``t``.

    Attributes
    ----------
    interval:
        The interval index ``t``.
    congested_links:
        The true congested link set ``E^c(t)``.
    congested_paths:
        The observed congested path set ``P^c(t)``.
    """

    interval: int
    congested_links: FrozenSet[int]
    congested_paths: FrozenSet[int]


class ObservationMatrix:
    """Path observations over ``T`` intervals with frequency queries.

    Parameters
    ----------
    congested:
        Boolean matrix of shape (T, num_paths); ``congested[t, p]`` is true
        iff path ``p`` was observed congested during interval ``t``
        (``Y_p(t) = 1``). To adopt already-packed words without a dense
        round-trip, use :meth:`from_words` instead.

    Attributes
    ----------
    words:
        ``(num_paths, num_words)`` uint64 store; see
        :func:`~repro.model.packed.pack_bool_matrix` for the bit layout.
        Padding bits beyond ``T`` are 0. It may be a strided column view
        of a larger store (a window of the streaming ring buffer).
    """

    def __init__(self, congested: Union[np.ndarray, Sequence]) -> None:
        congested = np.asarray(congested, dtype=bool)
        if congested.ndim != 2:
            raise ValueError("ObservationMatrix expects a 2-D (T, paths) matrix")
        self._adopt(pack_bool_matrix(congested), congested.shape[0])

    @classmethod
    def from_words(cls, words: np.ndarray, num_intervals: int) -> "ObservationMatrix":
        """Adopt packed ``words`` holding ``num_intervals`` intervals.

        This is how the simulator and the streaming ring buffer hand over
        observations they packed themselves, so large horizons never
        materialise the full boolean matrix. The words are not copied.
        """
        observations = cls.__new__(cls)
        observations._adopt(words, num_intervals)
        return observations

    def _adopt(self, words: np.ndarray, num_intervals: int) -> None:
        # `asarray` (not `ascontiguousarray`): a non-contiguous column view
        # of a larger word store — e.g. a window of the streaming ring
        # buffer — is accepted zero-copy. Every kernel either works on
        # strided arrays directly or makes a bounded local copy of the
        # touched word range.
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("packed words must be a 2-D (paths, words) array")
        if num_intervals > words.shape[1] * WORD_BITS:
            raise ValueError("num_intervals exceeds packed capacity")
        self.words = words
        self._num_intervals = int(num_intervals)
        # Kernel-owned caches tied to these words (the numpy kernel keeps
        # its dummy-padded copy of `words` here). Filled on the first batch
        # query, so short-lived window slices that never run one pay
        # nothing.
        self._kernel_scratch: dict = {}

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
        self._adopt(state["words"], state["num_intervals"])

    @property
    def num_intervals(self) -> int:
        """The number of observed intervals ``T``."""
        return self._num_intervals

    @property
    def num_paths(self) -> int:
        """The number of monitored paths."""
        return self.words.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The boolean (T, paths) congestion matrix.

        Unpacked from the words on demand; prefer the frequency queries,
        which run on the words directly.
        """
        return unpack_words(self.words, self._num_intervals)

    def congested_paths(self, interval: int) -> FrozenSet[int]:
        """The congested path set ``P^c(t)`` for interval ``interval``."""
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
        mask = (column >> shift) & np.uint64(1) > 0
        return frozenset(np.flatnonzero(mask).tolist())

    def path_congestion_frequency(self) -> np.ndarray:
        """Empirical ``P(Y_p = 1)`` per path, shape (num_paths,)."""
        kernel = kernels.active_kernel()
        if metrics_enabled():
            _KERNEL_CALLS.inc(kernel=kernel.name, op="congestion_counts")
            _KERNEL_WORDS.inc(
                float(self.words.size), kernel=kernel.name, op="congestion_counts"
            )
        counts = kernel.congestion_counts(self.words)
        if self._num_intervals == 0:
            return np.zeros(self.num_paths)
        return counts / float(self._num_intervals)

    def all_good_frequency(self, path_set: Iterable[int]) -> float:
        """Empirical probability that every path in ``path_set`` is good.

        This is the left-hand side of the paper's Eq. 1,
        ``P(intersection_{p in P} Y_p = 0)``, estimated over the ``T``
        observed intervals. The empty set has frequency 1.
        """
        indices = sorted(set(path_set))
        if not indices:
            return 1.0
        counts = self._all_good_counts([indices])
        return float(counts[0] / self._num_intervals)

    def all_good_frequencies(self, path_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Batched :meth:`all_good_frequency` over many path sets.

        One kernel invocation answers the whole batch; this is the query
        the estimation stack routes every Eq. 1 evaluation through.
        Returns a float array of length ``len(path_sets)``.
        """
        if not len(path_sets):
            return np.zeros(0)
        normalized = [sorted(set(s)) for s in path_sets]
        counts = self._all_good_counts(normalized)
        return counts / float(self._num_intervals)

    def _all_good_counts(self, path_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Batched Eq. 1 numerator: all-good interval counts per path set.

        The kernel of the whole estimation stack: for each path set, OR the
        packed rows of its members and popcount the union. The whole batch
        runs through the active frequency kernel — no Python per-set work.
        The empty set counts every interval (an all-empty batch
        short-circuits; an empty set inside a wider batch unions nothing
        and popcounts to zero). Returns an int64 array of len(path_sets).
        """
        num_sets = len(path_sets)
        widest = max(len(s) for s in path_sets)
        if widest == 0:
            return np.full(num_sets, self._num_intervals, dtype=np.int64)
        # Ragged sets become a rectangular index matrix padded with the
        # dummy row index ``num_paths`` (an implicit all-good row, a no-op
        # under OR) plus the true lengths.
        indices = np.full((num_sets, widest), self.num_paths, dtype=np.intp)
        lengths = np.empty(num_sets, dtype=np.int64)
        for i, members in enumerate(path_sets):
            indices[i, : len(members)] = members
            lengths[i] = len(members)
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
        return self._num_intervals - counts

    def always_good_paths(self, tolerance: float = 0.0) -> FrozenSet[int]:
        """Paths (effectively) never observed congested.

        Used to prune potentially congested correlation subsets
        (Section 5.2). With a noisy E2E monitor (Assumption 2 is imperfect:
        "probing ... may incur false negatives and false positives"), a path
        whose links are all good can still flip to congested in a few
        intervals; ``tolerance`` declares a path always-good when its
        congestion frequency is at most that fraction, so that monitoring
        noise does not void the pruning.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if self.num_intervals == 0:
            # An empty horizon observes nothing: no path qualifies as
            # always-good (matching the pre-packed NaN-comparison result).
            return frozenset()
        frequency = self.path_congestion_frequency()
        return frozenset(np.flatnonzero(frequency <= tolerance).tolist())

    def always_congested_paths(self, tolerance: float = 0.0) -> FrozenSet[int]:
        """Paths congested in (effectively) every interval.

        Their all-good frequency is 0 (or tiny), so no reliable Eq. 1
        equation can use them; ``tolerance`` mirrors
        :meth:`always_good_paths`.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if self.num_intervals == 0:
            return frozenset()
        frequency = self.path_congestion_frequency()
        return frozenset(np.flatnonzero(frequency >= 1.0 - tolerance).tolist())

    def slice_intervals(self, start: int, stop: int) -> "ObservationMatrix":
        """The window ``[start, stop)`` as a new :class:`ObservationMatrix`.

        Word-aligned starts reuse the existing words (a column slice plus a
        tail mask); unaligned starts shift bits across the touched words
        only. Neither re-packs (or even materialises) the dense matrix.
        """
        if not 0 <= start <= stop <= self._num_intervals:
            raise IndexError(f"window [{start}, {stop}) outside horizon")
        length = stop - start
        if length == 0:
            empty = np.zeros((self.num_paths, 1), dtype=np.uint64)
            return ObservationMatrix.from_words(empty, 0)
        num_words = -(-length // WORD_BITS)
        first_word, offset = divmod(start, WORD_BITS)
        if offset == 0:
            window = self.words[:, first_word : first_word + num_words].copy()
            window &= _tail_mask(length, num_words)
        else:
            # Unaligned window: unpack only the touched word range, slice
            # at bit granularity, and repack.
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
        return ObservationMatrix.from_words(window, length)
