"""Unit tests for the core network model (repro.topology.graph)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.graph import Link, Network, Path
from tests.dense_incidence import dense_incidence


def test_fig1_incidence(fig1_case1):
    expected = np.array(
        [
            [True, True, False, False],  # p1 = e1 e2
            [True, False, True, False],  # p2 = e1 e3
            [False, False, True, True],  # p3 = e4 e3
        ]
    )
    assert (dense_incidence(fig1_case1) == expected).all()
    incidence = fig1_case1.incidence
    assert incidence.shape == expected.shape
    assert (incidence.dense() == expected).all()
    assert incidence.indptr.tolist() == [0, 2, 4, 6]
    assert incidence.indices.tolist() == [0, 1, 0, 2, 3, 2]
    assert incidence.link_indptr.tolist() == [0, 2, 3, 5, 6]
    assert incidence.link_paths.tolist() == [0, 1, 0, 1, 2, 2]


def test_fig1_correlation_sets_case1(fig1_case1):
    assert fig1_case1.correlation_sets == [
        frozenset({0}),
        frozenset({1, 2}),
        frozenset({3}),
    ]


def test_fig1_correlation_sets_case2(fig1_case2):
    assert sorted(fig1_case2.correlation_sets, key=sorted) == [
        frozenset({0, 3}),
        frozenset({1, 2}),
    ]


def test_paths_covering_matches_paper_examples(fig1_case1):
    # Section 5.2: Paths({e1, e2}) = {p1, p2}, Paths({e1, e3}) = {p1, p2, p3}.
    assert fig1_case1.paths_covering([0, 1]) == frozenset({0, 1})
    assert fig1_case1.paths_covering([0, 2]) == frozenset({0, 1, 2})


def test_links_covered_matches_paper_examples(fig1_case1):
    # Section 5.2: Links({p1}) = {e1, e2}, Links({p1, p2}) = {e1, e2, e3}.
    assert fig1_case1.links_covered([0]) == frozenset({0, 1})
    assert fig1_case1.links_covered([0, 1]) == frozenset({0, 1, 2})


def test_links_covered_empty(fig1_case1):
    assert fig1_case1.links_covered([]) == frozenset()


def test_paths_covering_empty(fig1_case1):
    assert fig1_case1.paths_covering([]) == frozenset()


def test_paths_through_all(fig1_case1):
    assert fig1_case1.paths_through_all([0]) == frozenset({0, 1})
    assert fig1_case1.paths_through_all([0, 2]) == frozenset({1})
    assert fig1_case1.paths_through_all([]) == frozenset({0, 1, 2})


def test_correlation_set_of(fig1_case1):
    assert fig1_case1.correlation_set_of(1) == frozenset({1, 2})
    assert fig1_case1.correlation_set_of(0) == frozenset({0})


def test_path_lengths(fig1_case1):
    assert fig1_case1.path_lengths().tolist() == [2, 2, 2]


def test_link_degrees(fig1_case1):
    assert fig1_case1.link_degrees().tolist() == [2, 1, 2, 1]


def test_edge_links_are_last_hops(fig1_case1):
    # Last hops: e2 (p1), e3 (p2 and p3).
    assert fig1_case1.edge_links() == [1, 2]
    assert fig1_case1.core_links() == [0, 3]


def test_routing_rank(fig1_case1):
    assert fig1_case1.routing_rank() == 3


def test_path_rejects_duplicate_links():
    with pytest.raises(TopologyError):
        Path(index=0, links=(1, 2, 1))


def test_path_rejects_empty():
    with pytest.raises(TopologyError):
        Path(index=0, links=())


def test_network_rejects_out_of_order_links():
    links = [Link(index=1, src=0, dst=1)]
    with pytest.raises(TopologyError):
        Network(links, [])


def test_network_rejects_unknown_link_reference():
    links = [Link(index=0, src=0, dst=1)]
    paths = [Path(index=0, links=(3,))]
    with pytest.raises(TopologyError):
        Network(links, paths)


def test_network_rejects_out_of_order_paths():
    links = [Link(index=0, src=0, dst=1)]
    paths = [Path(index=1, links=(0,))]
    with pytest.raises(TopologyError):
        Network(links, paths)


def test_shared_router_links():
    links = [
        Link(index=0, src=0, dst=1, asn=0, router_links=frozenset({10, 11})),
        Link(index=1, src=1, dst=2, asn=0, router_links=frozenset({11, 12})),
        Link(index=2, src=2, dst=3, asn=1, router_links=frozenset({13})),
    ]
    paths = [Path(index=0, links=(0, 1, 2))]
    network = Network(links, paths)
    shared = network.shared_router_links()
    assert shared == {11: frozenset({0, 1})}
    assert network.correlated_link_pairs() == [(0, 1)]
    assert links[0].shares_router_link(links[1])
    assert not links[0].shares_router_link(links[2])


def test_describe_keys(fig1_case1):
    stats = fig1_case1.describe()
    assert stats["num_links"] == 4.0
    assert stats["num_paths"] == 3.0
    assert stats["num_correlation_sets"] == 3.0
    assert stats["routing_rank"] == 3.0
