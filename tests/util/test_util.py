"""Tests for the utility helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timer import Timer
from repro.util.rng import as_generator, derive_rng, spawn_seeds
from repro.util.subsets import bounded_subsets, nonempty_subsets, powerset


def test_as_generator_from_seed():
    a = as_generator(5)
    b = as_generator(5)
    assert a.integers(0, 100) == b.integers(0, 100)


def test_as_generator_passthrough():
    generator = np.random.default_rng(0)
    assert as_generator(generator) is generator


def test_derive_rng_independent_streams():
    a = derive_rng(1, 0)
    b = derive_rng(1, 1)
    assert a.integers(0, 2**31) != b.integers(0, 2**31)


def test_derive_rng_deterministic():
    assert derive_rng(1, 0).integers(0, 2**31) == derive_rng(1, 0).integers(0, 2**31)


def test_spawn_seeds():
    seeds = spawn_seeds(3, 4)
    assert len(seeds) == 4
    assert len(set(seeds)) == 4
    assert seeds == spawn_seeds(3, 4)


def test_powerset():
    assert list(powerset([1, 2])) == [(), (1,), (2,), (1, 2)]


def test_nonempty_subsets_max_size():
    subsets = list(nonempty_subsets([1, 2, 3], max_size=2))
    assert (1, 2, 3) not in subsets
    assert len(subsets) == 6


def test_bounded_subsets_includes_full_set():
    subsets = list(bounded_subsets([1, 2, 3], max_size=1))
    assert (1, 2, 3) == subsets[-1]


def test_bounded_subsets_count_cap():
    subsets = list(bounded_subsets(list(range(10)), max_size=3, max_count=5))
    assert len(subsets) <= 6  # 5 + possibly the full set


def test_bounded_subsets_empty():
    assert list(bounded_subsets([], max_size=2)) == []


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(), min_size=0, max_size=6, unique=True))
def test_bounded_subsets_no_duplicates(items):
    subsets = list(bounded_subsets(items, max_size=len(items)))
    assert len(subsets) == len(set(subsets))


def test_timer():
    with Timer() as timer:
        sum(range(100))
    assert timer.elapsed >= 0.0
