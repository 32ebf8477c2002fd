"""Tests for topology JSON persistence."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TopologyError
from repro.topology.serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from tests.dense_incidence import dense_incidence


def test_round_trip_fig1(fig1_case1, tmp_path):
    target = tmp_path / "fig1.json"
    save_network(fig1_case1, target)
    loaded = load_network(target)
    assert loaded.name == fig1_case1.name
    assert loaded.num_links == fig1_case1.num_links
    assert [p.links for p in loaded.paths] == [p.links for p in fig1_case1.paths]
    assert loaded.correlation_sets == fig1_case1.correlation_sets


def test_round_trip_generated(small_sparse, tmp_path):
    target = tmp_path / "sparse.json"
    save_network(small_sparse, target)
    loaded = load_network(target)
    assert (dense_incidence(loaded) == dense_incidence(small_sparse)).all()
    assert loaded.shared_router_links() == small_sparse.shared_router_links()


def test_dict_round_trip(fig1_case2):
    rebuilt = network_from_dict(network_to_dict(fig1_case2))
    assert rebuilt.correlation_sets == fig1_case2.correlation_sets


def test_version_check(fig1_case1):
    data = network_to_dict(fig1_case1)
    data["format_version"] = 99
    with pytest.raises(TopologyError):
        network_from_dict(data)


def test_malformed_data(fig1_case1):
    data = network_to_dict(fig1_case1)
    del data["links"][0]["asn"]
    with pytest.raises(TopologyError):
        network_from_dict(data)


def test_not_json(tmp_path):
    target = tmp_path / "junk.json"
    target.write_text("not json {")
    with pytest.raises(TopologyError):
        load_network(target)


def test_json_is_human_readable(fig1_case1, tmp_path):
    target = tmp_path / "fig1.json"
    save_network(fig1_case1, target)
    data = json.loads(target.read_text())
    assert data["format_version"] == 1
    assert len(data["links"]) == 4
