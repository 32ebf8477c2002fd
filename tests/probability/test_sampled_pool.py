"""The sampled-pool memo: one draw per network and usable path set.

``shared_sampled_pool`` keys its memo on the network and, under it, on
``(count, max_size, seed)``. The sampler reads only ``num_paths`` and
``always_congested_paths()`` from the observations, so any observation set
with the same usable paths gets the same pool without a second draw.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.model.status import ObservationMatrix
from repro.probability import base
from repro.probability.base import sampled_path_combinations, shared_sampled_pool
from repro.topology.brite import BriteConfig, generate_brite_network
from repro.util.rng import as_generator

COUNT, MAX_SIZE, SEED = 60, 3, 11


def _network():
    """A fresh small Brite network, so no other test's pools are memoised."""
    config = BriteConfig(
        num_ases=6,
        as_attachment=2,
        routers_per_as=3,
        inter_as_links=2,
        num_vantage_points=2,
        num_destinations=20,
        num_paths=30,
    )
    return generate_brite_network(config, 3)


def _observations(network, seed, always_congested=()):
    """Random path statuses; the listed paths are congested in every interval."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((64, network.num_paths)) < 0.3
    matrix[:, list(always_congested)] = True
    return ObservationMatrix(matrix)


@pytest.fixture
def draws(monkeypatch):
    """Count the calls that reach the sampler through the module global."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sampled_path_combinations(*args, **kwargs)

    monkeypatch.setattr(base, "sampled_path_combinations", counting)
    return calls


def _direct(network, observations):
    return sampled_path_combinations(
        network, observations, COUNT, MAX_SIZE, as_generator(SEED)
    )


def test_same_usable_paths_draw_once(draws):
    network = _network()
    first = _observations(network, seed=1)
    second = _observations(network, seed=2)
    assert first.always_congested_paths() == second.always_congested_paths()
    pool_first = shared_sampled_pool(network, first, COUNT, MAX_SIZE, SEED)
    pool_second = shared_sampled_pool(network, second, COUNT, MAX_SIZE, SEED)
    assert len(draws) == 1
    assert pool_first == pool_second == _direct(network, second)
    assert len(pool_first) > 0


def test_extra_always_congested_path_redraws(draws):
    network = _network()
    plain = _observations(network, seed=1)
    shared_sampled_pool(network, plain, COUNT, MAX_SIZE, SEED)
    blocked = _observations(network, seed=1, always_congested=[0])
    assert blocked.always_congested_paths() - plain.always_congested_paths() == {0}
    pool = shared_sampled_pool(network, blocked, COUNT, MAX_SIZE, SEED)
    assert len(draws) == 2
    assert pool == _direct(network, blocked)
    assert all(0 not in path_set for path_set in pool)
    # The new pool replaced the old one: one entry per configuration.
    assert len(base._SAMPLED_POOLS[network]) == 1


def test_mutating_a_returned_pool_leaves_the_memo_intact():
    network = _network()
    observations = _observations(network, seed=1)
    pool = shared_sampled_pool(network, observations, COUNT, MAX_SIZE, SEED)
    expected = list(pool)
    pool.clear()
    again = shared_sampled_pool(network, observations, COUNT, MAX_SIZE, SEED)
    assert again == expected
    assert again is not pool


def test_entry_goes_with_its_network():
    network = _network()
    observations = _observations(network, seed=1)
    shared_sampled_pool(network, observations, COUNT, MAX_SIZE, SEED)
    assert network in base._SAMPLED_POOLS
    alive = weakref.ref(network)
    gc.collect()
    before = len(base._SAMPLED_POOLS)
    del network
    gc.collect()
    assert alive() is None
    assert len(base._SAMPLED_POOLS) == before - 1
