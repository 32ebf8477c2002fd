"""Shared fixtures: toy topologies, small generated networks, observations."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.simulation.congestion import CongestionModel, Driver, NonStationaryModel
from repro.simulation.probing import oracle_path_status
from repro.topology.brite import BriteConfig, generate_brite_network
from repro.topology.builders import fig1_topology
from repro.topology.traceroute import TracerouteConfig, generate_sparse_network


@pytest.fixture(scope="session", autouse=True)
def isolated_dataset_cache(tmp_path_factory):
    """Point the dataset parse cache at a per-session scratch directory.

    Keeps the suite hermetic (no writes under ``~/.cache``) while still
    exercising — and benefiting from — the cache across tests.
    """
    cache_dir = tmp_path_factory.mktemp("dataset-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def fig1_case1():
    """The paper's Fig. 1 toy topology, correlation sets of Case 1."""
    return fig1_topology(case=1)


@pytest.fixture
def fig1_case2():
    """The paper's Fig. 1 toy topology, correlation sets of Case 2."""
    return fig1_topology(case=2)


@pytest.fixture
def fig1_model():
    """Ground truth on Fig. 1: e2, e3 perfectly correlated, e1 independent.

    e4 is never congested, so path p3 is good whenever e3 is good.
    """
    return CongestionModel(
        4,
        [
            Driver(probability=0.3, links=frozenset({1, 2})),
            Driver(probability=0.2, links=frozenset({0})),
        ],
    )


@pytest.fixture
def fig1_observations(fig1_case1, fig1_model):
    """Long oracle observation window on Fig. 1 Case 1."""
    states = fig1_model.sample(8000, np.random.default_rng(42))
    return oracle_path_status(fig1_case1, states)


@pytest.fixture(scope="session")
def fig1_horizon():
    """800 dense oracle rounds on Fig. 1 Case 1 with a level shift: e1 is
    congested with probability 0.1 for 400 intervals, then 0.7."""
    quiet, busy = (CongestionModel(4, [Driver(p, frozenset({0}))]) for p in (0.1, 0.7))
    states = NonStationaryModel([(quiet, 400), (busy, 400)]).sample(800, 4)
    return oracle_path_status(fig1_topology(case=1), states).matrix


@pytest.fixture(scope="session")
def small_brite():
    """A small dense Brite-style network (deterministic)."""
    config = BriteConfig(
        num_ases=10,
        as_attachment=2,
        routers_per_as=4,
        inter_as_links=2,
        num_vantage_points=3,
        num_destinations=30,
        num_paths=80,
    )
    return generate_brite_network(config, 7)


@pytest.fixture(scope="session")
def small_sparse():
    """A small sparse traceroute-derived network (deterministic)."""
    config = TracerouteConfig(
        underlay=BriteConfig(
            num_ases=24,
            as_attachment=1,
            routers_per_as=4,
            inter_as_links=1,
            num_vantage_points=2,
            num_destinations=40,
            num_paths=80,
        ),
        num_probes=400,
        response_prob=0.95,
        load_balance_prob=0.3,
        max_kept_paths=80,
    )
    return generate_sparse_network(config, 7)
