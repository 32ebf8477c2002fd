"""Word-aligned ring storage for live probe rounds.

The streaming monitor's observation store: probe rounds are appended as
boolean ``(rounds, paths)`` blocks and packed straight into the same
``uint64`` word layout the batch estimation stack runs on
(:mod:`repro.model.packed`), so a windowed refit over the ring is exactly as
fast as one over an offline campaign — and *bit-identical* to it.

Design points:

* **Amortised O(words) append** — an incoming block is packed once (with a
  bit-offset merge into the partially-filled tail word) and written in
  place; no re-pack of the retained horizon ever happens.
* **Bounded retention** — the buffer keeps at most ``retention`` intervals
  (rounded up to whole words) addressable; older rounds are evicted in
  whole-word steps. Evicted-but-not-yet-reclaimed words linger until the
  physical store fills, at which point the retained columns are compacted
  into a *fresh* allocation — so window views handed out earlier keep
  referencing the old, now-immutable storage instead of being silently
  rewritten.
* **Zero-copy windows** — a word-aligned window (both ends multiples of 64
  intervals) is an :class:`ObservationMatrix` adopting a column *view* of
  the word store (:meth:`ObservationMatrix.from_words`); unaligned windows
  pay a copy of their own span only, via
  :meth:`ObservationMatrix.slice_intervals`. Either way the result is an
  immutable snapshot — a window never shares the partially-filled tail
  word the writer is still filling.

Interval indices are **absolute** (round 0 is the first round ever
ingested); the buffer tracks which suffix of the stream it still retains.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.model.packed import WORD_BITS, pack_bool_matrix
from repro.model.status import ObservationMatrix


class PackedRingBuffer:
    """Append-only packed observation ring with bounded retention.

    Parameters
    ----------
    num_paths:
        Width of every appended block (monitored paths).
    retention:
        Maximum number of trailing intervals kept addressable. Rounded up
        to a whole number of 64-interval words; eviction advances the
        retained window in whole words, so ``first_interval`` is always a
        multiple of 64.
    """

    def __init__(self, num_paths: int, retention: int = 1 << 16) -> None:
        if num_paths < 1:
            raise EstimationError("PackedRingBuffer needs at least one path")
        if retention < 1:
            raise EstimationError("retention must be >= 1")
        self._num_paths = int(num_paths)
        self._retention_words = -(-int(retention) // WORD_BITS)
        # Physical store twice the retention (plus slack words for rounding
        # and a partially-filled tail) so compaction runs at most once per
        # retention's worth of appended words — amortised O(1) per word.
        self._phys_words = 2 * self._retention_words + 2
        self._words = np.zeros((self._num_paths, self._phys_words), dtype=np.uint64)
        #: Absolute interval of bit 0 of physical word column 0 (mult. of 64).
        self._origin = 0
        #: Oldest retained (addressable) absolute interval (mult. of 64).
        self._first = 0
        #: Absolute index of the next interval to be written.
        self._end = 0
        #: Total compactions performed (diagnostic).
        self.compactions = 0

    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        return self._num_paths

    @property
    def retention(self) -> int:
        """Retention bound in intervals (word-rounded)."""
        return self._retention_words * WORD_BITS

    @property
    def first_interval(self) -> int:
        """Oldest retained absolute interval index."""
        return self._first

    @property
    def end_interval(self) -> int:
        """One past the newest ingested absolute interval index."""
        return self._end

    @property
    def num_retained(self) -> int:
        """Currently addressable intervals."""
        return self._end - self._first

    def __len__(self) -> int:
        return self.num_retained

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append(self, chunk: np.ndarray) -> None:
        """Append one boolean ``(rounds, num_paths)`` block of probe rounds."""
        chunk = np.asarray(chunk, dtype=bool)
        if chunk.ndim != 2 or chunk.shape[1] != self._num_paths:
            raise EstimationError(
                f"append expects a (rounds, {self._num_paths}) boolean block"
            )
        # Blocks larger than one retention's worth are split so a single
        # append can never outgrow the physical store.
        max_block = self.retention
        for start in range(0, chunk.shape[0], max_block):
            self._append_block(chunk[start : start + max_block])

    def _append_block(self, chunk: np.ndarray) -> None:
        rounds = chunk.shape[0]
        if rounds == 0:
            return
        words_after = -(-(self._end + rounds - self._origin) // WORD_BITS)
        if words_after > self._phys_words:
            self._compact(incoming=rounds)
        head = self._end - self._origin
        word_index, bit_offset = divmod(head, WORD_BITS)
        # Pack the block shifted by the tail word's fill level, then merge:
        # OR into the partial tail word, plain writes for the rest. The
        # (bit_offset + rounds, paths) staging matrix is the only dense
        # intermediate and its size is independent of the horizon; the
        # packing itself is the kernel layout's own pack_bool_matrix.
        staged = np.zeros((bit_offset + rounds, self._num_paths), dtype=bool)
        staged[bit_offset:] = chunk
        new_words = pack_bool_matrix(staged)
        num_new_words = new_words.shape[1]
        self._words[:, word_index] |= new_words[:, 0]
        if num_new_words > 1:
            self._words[
                :, word_index + 1 : word_index + num_new_words
            ] = new_words[:, 1:]
        self._end += rounds
        # Retention bookkeeping only — data moves exclusively in _compact.
        overflow = self.num_retained - self.retention
        if overflow > 0:
            self._first += (-(-overflow // WORD_BITS)) * WORD_BITS

    def _compact(self, incoming: int) -> None:
        """Move retained words into a fresh allocation, dropping evicted ones.

        A fresh array (rather than an in-place shift) keeps previously
        handed-out zero-copy window views valid: they alias the old
        storage, which is never written again.
        """
        # Evict prospectively so the incoming block fits under retention;
        # round *down* to a word so nothing un-ingested is ever dropped.
        target = self._end + incoming - self.retention
        new_first = max(self._first, (target // WORD_BITS) * WORD_BITS)
        drop_words = (new_first - self._origin) // WORD_BITS
        used_words = -(-(self._end - self._origin) // WORD_BITS)
        fresh = np.zeros_like(self._words)
        fresh[:, : used_words - drop_words] = self._words[:, drop_words:used_words]
        self._words = fresh
        self._origin = new_first
        self._first = new_first
        self.compactions += 1

    # ------------------------------------------------------------------
    # Window views
    # ------------------------------------------------------------------
    def window(self, start: int, stop: int) -> ObservationMatrix:
        """The absolute interval window ``[start, stop)`` as observations.

        Every window is an **immutable snapshot**: fully word-aligned
        windows are zero-copy views of the ring's word store (compaction
        allocates fresh storage, so they stay valid forever), and windows
        with a partially-filled boundary word copy their own span only —
        never sharing the live tail word the writer still ORs bits into,
        which would silently corrupt the words' zero-padding invariant
        on the next append.

        Raises
        ------
        EstimationError
            When ``start`` has been evicted or ``stop`` not yet ingested.
        """
        if start < self._first:
            raise EstimationError(
                f"window start {start} evicted (oldest retained: {self._first})"
            )
        if not start <= stop <= self._end:
            raise EstimationError(
                f"window [{start}, {stop}) outside ingested range "
                f"[{self._first}, {self._end})"
            )
        rel_start = start - self._origin
        rel_stop = stop - self._origin
        used_words = -(-(self._end - self._origin) // WORD_BITS)
        if rel_start % WORD_BITS == 0 and rel_stop % WORD_BITS == 0:
            first = rel_start // WORD_BITS
            last = rel_stop // WORD_BITS
            return ObservationMatrix.from_words(
                self._words[:, first:last], stop - start
            )
        whole = ObservationMatrix.from_words(
            self._words[:, :used_words], self._end - self._origin
        )
        return whole.slice_intervals(rel_start, rel_stop)

    def view(self) -> ObservationMatrix:
        """The full retained horizon as observations (zero-copy)."""
        return self.window(self._first, self._end)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, int, int]:
        """Copy of the retained words plus ``(first_interval, end_interval)``.

        The words are trimmed to the retained span and detached from the
        live store, ready for serialization.
        """
        keep_lo = (self._first - self._origin) // WORD_BITS
        used_words = -(-(self._end - self._origin) // WORD_BITS)
        return self._words[:, keep_lo:used_words].copy(), self._first, self._end

    @classmethod
    def restore(
        cls,
        words: np.ndarray,
        first_interval: int,
        end_interval: int,
        retention: int,
    ) -> "PackedRingBuffer":
        """Rebuild a ring from a :meth:`snapshot`."""
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise EstimationError("snapshot words must be 2-D (paths, words)")
        if first_interval % WORD_BITS != 0:
            raise EstimationError("snapshot first_interval must be word-aligned")
        retained = end_interval - first_interval
        if retained < 0 or -(-retained // WORD_BITS) > words.shape[1]:
            raise EstimationError("snapshot words shorter than claimed span")
        ring = cls(num_paths=words.shape[0], retention=retention)
        span_words = -(-retained // WORD_BITS)
        if span_words > ring._phys_words:
            raise EstimationError("snapshot exceeds the ring's physical store")
        ring._words[:, :span_words] = words[:, :span_words]
        ring._origin = int(first_interval)
        ring._first = int(first_interval)
        ring._end = int(end_interval)
        overflow = ring.num_retained - ring.retention
        if overflow > 0:
            ring._first += (-(-overflow // WORD_BITS)) * WORD_BITS
        return ring
