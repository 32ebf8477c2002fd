"""Round-trip coverage for topology generation and JSON persistence.

Satellite of the datasets PR: every bundled dataset fixture, parsed by its
loader, must survive a serialize/parse round trip losslessly, and the
BRITE generator's output must be fully reconstructible from its JSON form
(the pipeline operators use to snapshot generated topologies).
"""

from __future__ import annotations

import pytest

from repro.datasets import dataset_names, load_dataset
from repro.topology.brite import BriteConfig, generate_brite_network
from repro.topology.serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from tests.dense_incidence import dense_incidence


def _assert_identical(a, b):
    """Structural equality down to router-level correlation structure."""
    assert a.name == b.name
    assert a.num_links == b.num_links
    assert a.num_paths == b.num_paths
    assert [
        (link.index, link.src, link.dst, link.asn, link.router_links)
        for link in a.links
    ] == [
        (link.index, link.src, link.dst, link.asn, link.router_links)
        for link in b.links
    ]
    assert [p.links for p in a.paths] == [p.links for p in b.paths]
    assert (dense_incidence(a) == dense_incidence(b)).all()
    assert a.correlation_sets == b.correlation_sets
    assert a.shared_router_links() == b.shared_router_links()
    assert a.describe() == b.describe()


@pytest.mark.parametrize("name", sorted(dataset_names()))
def test_every_dataset_fixture_round_trips(name, tmp_path):
    network = load_dataset(name)
    target = tmp_path / f"{name}.json"
    save_network(network, target)
    _assert_identical(network, load_network(target))


@pytest.mark.parametrize("name", sorted(dataset_names()))
def test_every_dataset_dict_round_trips(name):
    network = load_dataset(name)
    _assert_identical(network, network_from_dict(network_to_dict(network)))


def test_brite_network_round_trips(tmp_path):
    config = BriteConfig(num_ases=8, num_paths=60, num_destinations=25)
    network = generate_brite_network(config, 11)
    target = tmp_path / "brite.json"
    save_network(network, target)
    loaded = load_network(target)
    _assert_identical(network, loaded)
    # The reloaded network supports the full correlation machinery.
    assert loaded.correlated_link_pairs() == network.correlated_link_pairs()


def test_brite_round_trip_is_seed_stable(tmp_path):
    """Serialize -> load -> regenerate: the generator and the snapshot agree."""
    config = BriteConfig(num_ases=8, num_paths=60, num_destinations=25)
    network = generate_brite_network(config, 11)
    save_network(network, tmp_path / "a.json")
    regenerated = generate_brite_network(config, 11)
    _assert_identical(load_network(tmp_path / "a.json"), regenerated)
