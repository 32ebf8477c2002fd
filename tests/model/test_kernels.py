"""The frequency-kernel layer: registry, scoped selection, and parity.

Two families of guarantees:

* **Selection** — the numpy kernel serves every query unless a registered
  kernel is scoped in with :func:`use_kernel`, which restores the previous
  selection on exit; unknown names fail fast.
* **Parity** — every registered kernel is bit-identical to the dense
  reference (:mod:`tests.dense_observations`) on a property sweep over
  window offsets, window lengths, and path-set widths, including unaligned
  ``slice_intervals`` windows and the strided word views served by the
  streaming ring buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.kernels import (
    KERNELS,
    NumpyKernel,
    active_kernel,
    use_kernel,
)
from repro.model.kernels.numpy_kernel import (
    GATHER_WORKING_SET_BYTES,
    MIN_GATHER_CHUNK,
    gather_chunk,
)
from repro.model.status import ObservationMatrix
from repro.streaming.buffer import PackedRingBuffer
from tests import dense_observations as dense


class _Recording(NumpyKernel):
    """A numpy kernel registered under its own name that counts its calls."""

    name = "recording"

    def __init__(self) -> None:
        self.calls = 0

    def union_popcounts(self, words, indices, lengths, scratch):
        self.calls += 1
        return super().union_popcounts(words, indices, lengths, scratch)


class TestDispatch:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            with use_kernel("simd"):
                pass  # pragma: no cover
        assert active_kernel() is KERNELS["numpy"]

    def test_numpy_kernel_always_available(self):
        assert active_kernel() is KERNELS["numpy"]
        assert isinstance(active_kernel(), NumpyKernel)

    def test_env_selection(self, monkeypatch):
        """The environment selects nothing: an old ``REPRO_KERNEL`` is inert."""
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert active_kernel() is KERNELS["numpy"]

    def test_use_kernel_scopes_and_restores(self):
        """A registered kernel serves the observation queries only in scope."""
        kernel = _Recording()
        KERNELS[kernel.name] = kernel
        try:
            obs = ObservationMatrix(np.eye(70, 4, dtype=bool))
            with use_kernel(kernel.name) as scoped:
                assert scoped is kernel
                assert active_kernel() is kernel
                with use_kernel("numpy"):
                    assert active_kernel() is KERNELS["numpy"]
                assert active_kernel() is kernel
                obs.all_good_frequencies([[0, 1], [2]])
            assert kernel.calls == 1
            assert active_kernel() is KERNELS["numpy"]
            obs.all_good_frequencies([[0, 3]])
            assert kernel.calls == 1
        finally:
            KERNELS.pop(kernel.name)


class TestGatherChunk:
    def test_narrow_batches_get_large_chunks(self):
        chunk = gather_chunk(widest=2, num_words=4, index_itemsize=8)
        assert chunk > MIN_GATHER_CHUNK
        assert chunk * 2 * (4 * 8 + 8) <= GATHER_WORKING_SET_BYTES

    def test_wide_sets_floor_instead_of_degenerating(self):
        # One very wide set over a long horizon used to drive chunk to 1.
        assert gather_chunk(widest=4096, num_words=512, index_itemsize=8) == (
            MIN_GATHER_CHUNK
        )

    def test_index_dtype_counts_toward_the_working_set(self):
        ignoring = gather_chunk(widest=64, num_words=1, index_itemsize=0)
        counting = gather_chunk(widest=64, num_words=1, index_itemsize=8)
        assert counting < ignoring

    def test_degenerate_shapes(self):
        assert gather_chunk(widest=0, num_words=0, index_itemsize=8) >= (
            MIN_GATHER_CHUNK
        )


@pytest.mark.parametrize("name", list(KERNELS))
class TestKernelParity:
    def test_union_popcounts_unit_contract(self, name):
        """Raw kernel call vs dense reference, dummy padding and length 0."""
        rng = np.random.default_rng(31)
        matrix = rng.random((3 * 64 + 17, 19)) < 0.35
        words = ObservationMatrix(matrix).words
        num_paths = matrix.shape[1]
        path_sets = [[], [0], [num_paths - 1], list(range(num_paths))] + [
            sorted(rng.choice(num_paths, size=k, replace=False).tolist())
            for k in (1, 2, 5, 9)
            for _ in range(4)
        ]
        widest = max(len(s) for s in path_sets)
        indices = np.full((len(path_sets), widest), num_paths, dtype=np.intp)
        lengths = np.zeros(len(path_sets), dtype=np.int64)
        for i, members in enumerate(path_sets):
            indices[i, : len(members)] = members
            lengths[i] = len(members)
        counts = KERNELS[name].union_popcounts(words, indices, lengths, {})
        np.testing.assert_array_equal(
            counts, dense.congested_any_counts(matrix, path_sets)
        )

    def test_congestion_counts_match_dense(self, name):
        rng = np.random.default_rng(37)
        matrix = rng.random((5 * 64 + 1, 11)) < 0.5
        obs = ObservationMatrix(matrix)
        with use_kernel(name):
            np.testing.assert_array_equal(
                obs.path_congestion_frequency(),
                dense.congestion_frequencies(matrix),
            )

    def test_window_offset_length_widest_sweep(self, name):
        """Packed == dense reference over an (offset, length, widest) grid.

        Offsets straddle word boundaries (so unaligned ``slice_intervals``
        bit-shifting is exercised), lengths include sub-word, exact-word,
        and multi-word windows, and path-set widths run from empty to the
        full path population.
        """
        rng = np.random.default_rng(41)
        matrix = rng.random((7 * 64 + 13, 23)) < 0.3
        packed = ObservationMatrix(matrix)
        num_paths = matrix.shape[1]
        with use_kernel(name):
            for offset in (0, 1, 31, 63, 64, 65, 127, 200):
                for length in (1, 7, 63, 64, 65, 130, 256):
                    stop = offset + length
                    if stop > matrix.shape[0]:
                        continue
                    packed_window = packed.slice_intervals(offset, stop)
                    reference = matrix[offset:stop]
                    sets = [[]] + [
                        sorted(
                            rng.choice(
                                num_paths, size=widest, replace=False
                            ).tolist()
                        )
                        for widest in (1, 2, 3, 5, 8, 13, num_paths)
                    ]
                    np.testing.assert_array_equal(
                        packed_window.all_good_frequencies(sets),
                        dense.all_good_frequencies(reference, sets),
                    )
                    interval = int(rng.integers(length))
                    assert packed_window.congested_paths(interval) == frozenset(
                        np.flatnonzero(reference[interval]).tolist()
                    )

    def test_strided_ring_window_views(self, name):
        """Ring-buffer windows are strided word views; kernels must accept
        them and agree with a dense recomputation of the same rows."""
        rng = np.random.default_rng(43)
        num_paths = 13
        ring = PackedRingBuffer(num_paths, retention=512)
        stream = rng.random((900, num_paths)) < 0.25
        with use_kernel(name):
            for lo in range(0, stream.shape[0], 37):
                ring.append(stream[lo : lo + 37])
            for start, stop in (
                (ring.first_interval, ring.first_interval + 64),
                (ring.first_interval + 3, ring.first_interval + 130),
                (ring.end_interval - 65, ring.end_interval),
                (ring.first_interval, ring.end_interval),
            ):
                window = ring.window(start, stop)
                reference = stream[start:stop]
                sets = [[]] + [
                    sorted(
                        rng.choice(num_paths, size=k, replace=False).tolist()
                    )
                    for k in (1, 3, 6, num_paths)
                ]
                np.testing.assert_array_equal(
                    window.all_good_frequencies(sets),
                    dense.all_good_frequencies(reference, sets),
                )
                np.testing.assert_array_equal(
                    window.path_congestion_frequency(),
                    dense.congestion_frequencies(reference),
                )

    def test_kernels_agree_pairwise(self, name):
        """Every registered kernel reproduces the dense reference's exact bits."""
        rng = np.random.default_rng(47)
        matrix = rng.random((321, 17)) < 0.4
        sets = [[]] + [
            sorted(rng.choice(17, size=k, replace=False).tolist())
            for k in (1, 2, 4, 8, 17)
            for _ in range(3)
        ]
        reference = dense.all_good_frequencies(matrix, sets)
        with use_kernel(name):
            np.testing.assert_array_equal(
                ObservationMatrix(matrix).all_good_frequencies(sets), reference
            )


def test_numpy_kernel_scratch_caches_padded_words():
    rng = np.random.default_rng(53)
    matrix = rng.random((100, 5)) < 0.5
    kernel = NumpyKernel()
    words = ObservationMatrix(matrix).words
    scratch: dict = {}
    indices = np.array([[0, 5], [1, 2]], dtype=np.intp)  # 5 = dummy row
    lengths = np.array([1, 2], dtype=np.int64)
    first = kernel.union_popcounts(words, indices, lengths, scratch)
    padded = scratch["words_padded"]
    assert padded.shape == (6, words.shape[1])
    assert not padded[-1].any()
    second = kernel.union_popcounts(words, indices, lengths, scratch)
    assert scratch["words_padded"] is padded
    np.testing.assert_array_equal(first, second)


def test_backend_pickle_drops_kernel_scratch():
    import pickle

    rng = np.random.default_rng(59)
    obs = ObservationMatrix(rng.random((130, 7)) < 0.5)
    obs.all_good_frequencies([[0, 1], [2]])  # populate the scratch
    assert obs._kernel_scratch
    restored = pickle.loads(pickle.dumps(obs))
    assert restored._kernel_scratch == {}
    np.testing.assert_array_equal(
        restored.all_good_frequencies([[0, 1], [2]]),
        obs.all_good_frequencies([[0, 1], [2]]),
    )
