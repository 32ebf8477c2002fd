"""Hypothesis property tests: the CSR path-link incidence against a dense one.

``Network`` keeps its routing structure only as a CSR
:class:`~repro.topology.graph.PathIncidence`. Every reader of it — the
coverage functions, the structural statistics, mitigation scoring, the
oracle observation path and the candidate sampler's neighbourhoods — must
agree exactly with the same question asked of a dense boolean
paths x links matrix built straight from ``Path.links``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.mitigation.evaluate import path_congestion_rate
from repro.simulation.probing import oracle_path_status
from repro.topology.graph import Link, Network, Path
from tests.dense_incidence import dense_incidence


@st.composite
def networks(draw):
    """Small networks: 1-8 links, 1-10 paths of distinct links in any order."""
    num_links = draw(st.integers(1, 8))
    links = [
        Link(index=e, src=e, dst=e + 1, asn=draw(st.integers(0, 2)))
        for e in range(num_links)
    ]
    num_paths = draw(st.integers(1, 10))
    paths = []
    for p in range(num_paths):
        members = draw(
            st.lists(
                st.integers(0, num_links - 1),
                min_size=1,
                max_size=num_links,
                unique=True,
            )
        )
        paths.append(Path(index=p, links=tuple(members)))
    return Network(links, paths, name="random")


@st.composite
def cases(draw):
    """A network, a link set, a path set and a (T, links) state matrix."""
    network = draw(networks())
    link_set = draw(st.sets(st.integers(0, network.num_links - 1)))
    path_set = draw(st.sets(st.integers(0, network.num_paths - 1)))
    num_intervals = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    link_states = rng.random((num_intervals, network.num_links)) < density
    return network, link_set, path_set, link_states


def check_against_dense(network, link_set, path_set, link_states):
    dense = dense_incidence(network)
    incidence = network.incidence
    links = sorted(link_set)
    paths = sorted(path_set)

    assert incidence.shape == dense.shape
    assert incidence.indices.size == int(dense.sum())
    assert incidence.nbytes > 0
    assert (incidence.dense() == dense).all()
    assert (incidence.dense(float) == dense.astype(float)).all()

    # Coverage functions of Section 5.2 and Condition 1's helper.
    expected = np.flatnonzero(dense[:, links].any(axis=1)).tolist()
    assert network.paths_covering(link_set) == frozenset(expected)
    expected = np.flatnonzero(dense[paths].any(axis=0)).tolist()
    assert network.links_covered(path_set) == frozenset(expected)
    expected = np.flatnonzero(dense[:, links].all(axis=1)).tolist()
    assert network.paths_through_all(link_set) == frozenset(expected)

    # Structural statistics.
    assert network.path_lengths().tolist() == dense.sum(axis=1).tolist()
    assert network.link_degrees().tolist() == dense.sum(axis=0).tolist()
    assert network.routing_rank() == np.linalg.matrix_rank(dense.astype(float))

    # The per-link index lists each link's paths in ascending order, and
    # sampler neighbourhoods equal the dense scan.
    bounds = incidence.link_indptr
    for e in range(network.num_links):
        through = incidence.link_paths[bounds[e] : bounds[e + 1]]
        assert through.tolist() == np.flatnonzero(dense[:, e]).tolist()
    for p in range(network.num_paths):
        expected = np.flatnonzero(dense[:, dense[p]].any(axis=1))
        neighbours = np.flatnonzero(incidence.sharing_mask(p))
        assert neighbours.tolist() == expected.tolist()

    # Separability: scoring and oracle observations against the counted
    # dense product.
    status = link_states.astype(np.int64) @ dense.T.astype(np.int64) > 0
    assert (incidence.path_status(link_states) == status).all()
    if link_states.shape[0]:
        assert path_congestion_rate(network, link_states) == float(status.mean())
    assert (oracle_path_status(network, link_states).matrix == status).all()


@settings(max_examples=150, deadline=None)
@given(cases())
def test_csr_incidence_matches_dense(case):
    check_against_dense(*case)


def test_compact_derived_network_matches_dense():
    """A network built through ``AsLevelBuilder`` by the compact derivation."""
    src, dst = generate_powerlaw_edges(400, attachment=2, seed=5)
    spec = DatasetSpec(seed=6, num_vantage_points=3, num_destinations=30, num_paths=50)
    network = derive_network_compact(400, src, dst, spec, "powerlaw-400")
    rng = np.random.default_rng(7)
    link_states = rng.random((40, network.num_links)) < 0.05
    link_set = set(rng.choice(network.num_links, size=6, replace=False).tolist())
    path_set = set(rng.choice(network.num_paths, size=5, replace=False).tolist())
    check_against_dense(network, link_set, path_set, link_states)
