"""Sparse large-topology routing structures.

The internet-scale path replaces per-object Python structures with flat
arrays: :class:`CompactGraph` (CSR adjacency), :class:`SparseRouteTable`
(CSR route storage), :func:`select_endpoint_pairs_lazy` (O(count) pair
selection), plus the deterministic BFS over the CSR graph. The
load-bearing property throughout is *identity* with the eager
``networkx`` equivalents (here a reference BFS over ``nx.Graph``) — the
sparse structures may only change memory, never a route.
"""

from __future__ import annotations

import tracemalloc
from typing import List

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import TopologyError
from repro.topology.routing import (
    CompactGraph,
    RouteOracle,
    SparseRouteTable,
    route_from_parents,
    select_endpoint_pairs_lazy,
    shortest_route,
)
from tests import reference_bfs


def bfs_parents_graph(graph: nx.Graph, source: int) -> dict:
    """Reference BFS over ``nx.Graph``: FIFO frontier, ascending neighbours."""
    parents = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in sorted(graph.neighbors(node)):
                if neighbor not in parents:
                    parents[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return parents


def _random_graph(num_nodes: int, num_edges: int, seed: int):
    """A random connected-ish multigraph as edge arrays + its nx.Graph."""
    rng = np.random.default_rng(seed)
    src = rng.integers(num_nodes, size=num_edges).astype(np.uint32)
    dst = rng.integers(num_nodes, size=num_edges).astype(np.uint32)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(
        (int(a), int(b)) for a, b in zip(src, dst) if int(a) != int(b)
    )
    return src, dst, graph


class TestCompactGraph:
    def test_matches_nx_adjacency(self):
        src, dst, graph = _random_graph(60, 150, seed=1)
        compact = CompactGraph.from_edges(60, src, dst)
        assert compact.num_edges == graph.number_of_edges()
        for node in range(60):
            assert list(compact.neighbors_of(node)) == sorted(graph.neighbors(node))
            assert compact.degree(node) == graph.degree(node)

    def test_drops_self_loops_and_duplicate_edges(self):
        compact = CompactGraph.from_edges(
            4, np.array([0, 0, 0, 2, 1]), np.array([1, 1, 0, 3, 0])
        )
        assert compact.num_edges == 2
        assert list(compact.neighbors_of(0)) == [1]

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(TopologyError, match="out of range"):
            CompactGraph.from_edges(3, np.array([0]), np.array([5]))
        with pytest.raises(TopologyError, match="differ in length"):
            CompactGraph.from_edges(3, np.array([0, 1]), np.array([2]))

    def test_bfs_parents_identical_to_nx_backend(self):
        """The CSR BFS reproduces the reference nx BFS parent for parent."""
        src, dst, graph = _random_graph(80, 200, seed=7)
        compact = CompactGraph.from_edges(80, src, dst)
        for source in (0, 13, 79):
            reference = np.full(80, -1, dtype=np.int64)
            for node, parent in bfs_parents_graph(graph, source).items():
                reference[node] = parent
            parents = compact.bfs_parents(source)
            assert np.array_equal(parents, reference)
            for target in range(80):
                route = route_from_parents(parents, source, target)
                if route is not None:
                    # Same hop count as a true shortest path.
                    expected = shortest_route(graph, source, target)
                    assert len(route) == len(expected)

    def test_unreachable_targets_return_none(self):
        compact = CompactGraph.from_edges(4, np.array([0]), np.array([1]))
        parents = compact.bfs_parents(0)
        assert route_from_parents(parents, 0, 3) is None

    def test_rejects_graphs_too_large_for_int32_indices(self):
        tracemalloc.start()
        try:
            with pytest.raises(TopologyError, match="int32"):
                CompactGraph.from_edges(2**31, [0], [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_nbytes_is_array_backed(self):
        compact = CompactGraph.from_edges(
            10_000, *map(np.asarray, _random_graph(10_000, 20_000, seed=3)[:2])
        )
        # CSR storage: well under 1MB where nx dict-of-dicts costs tens.
        assert compact.nbytes < 1_000_000


@st.composite
def edge_lists(draw):
    """A random multigraph edge list (self-loops and duplicates allowed)
    and a BFS source, which may be isolated."""
    num_nodes = draw(st.integers(1, 40))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    return num_nodes, edges, draw(node)


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(5, [(1, 2), (3, 4)], 0))  # degree-0 source
@example(case=(1, [], 0))  # a single isolated node
@example(case=(4, [(0, 0), (0, 1), (1, 0), (0, 1), (2, 2)], 0))  # loops, dupes
@example(case=(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], 4))  # two components
@example(case=(6, [(0, 5), (0, 4), (5, 3), (4, 3), (3, 1)], 0))  # tied parents
def test_compiled_bfs_matches_reference(case):
    """SciPy's BFS reproduces the interpreted FIFO BFS parent for parent."""
    num_nodes, edges, source = case
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    graph = CompactGraph.from_edges(num_nodes, src, dst)
    parents = graph.bfs_parents(source)
    expected = reference_bfs.bfs_parents(graph.indptr, graph.neighbors, source)
    assert parents.dtype == np.int64
    assert np.array_equal(parents, expected)
    adjacency = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    for target in range(num_nodes):
        route = route_from_parents(parents, source, target)
        if expected[target] < 0:
            assert route is None
            continue
        assert route[0] == source and route[-1] == target
        assert all(hop in adjacency for hop in zip(route, route[1:]))


class TestSparseRouteTable:
    def test_appends_and_reads_back(self):
        table = SparseRouteTable()
        routes = [(1, 5, 9), (2,), (7, 7, 7, 7)]
        for route in routes:
            table.append(route)
        assert len(table) == 3
        assert table.num_items == 8
        for index, route in enumerate(routes):
            assert tuple(table.route(index)) == route
        assert [tuple(r) for r in table] == [tuple(r) for r in routes]

    def test_growth_past_initial_capacity(self):
        table = SparseRouteTable()
        expected = []
        rng = np.random.default_rng(11)
        for index in range(500):
            route = tuple(int(x) for x in rng.integers(1000, size=1 + index % 30))
            expected.append(route)
            assert table.append(route) == index
        assert [tuple(r) for r in table] == expected

    def test_rejects_non_1d_routes_and_bad_indices(self):
        table = SparseRouteTable()
        with pytest.raises(TopologyError, match="1-D"):
            table.append([[1, 2], [3, 4]])
        table.append([1, 2])
        with pytest.raises(TopologyError, match="no route 5"):
            table.route(5)


class TestSelectEndpointPairsLazy:
    def test_deterministic_distinct_and_disjoint(self):
        sources = list(range(10))
        destinations = list(range(100, 400))
        first = select_endpoint_pairs_lazy(sources, destinations, 200, 5)
        second = select_endpoint_pairs_lazy(sources, destinations, 200, 5)
        assert first == second
        assert len(set(first)) == 200
        for source, destination in first:
            assert source in range(10)
            assert destination in range(100, 400)

    def test_both_sampling_branches(self):
        sources, destinations = [0, 1], [10, 11, 12]
        # 4 * count >= total: permutation branch, exhaustive draw works.
        dense = select_endpoint_pairs_lazy(sources, destinations, 6, 2)
        assert sorted(set(dense)) == [(s, d) for s in sources for d in destinations]
        # Rejection branch on a large virtual grid: O(count) memory.
        sparse = select_endpoint_pairs_lazy(range(1000), range(1000, 3000), 50, 2)
        assert len(set(sparse)) == 50

    def test_errors(self):
        with pytest.raises(TopologyError, match="empty pool"):
            select_endpoint_pairs_lazy([], [1], 1, 0)
        with pytest.raises(TopologyError, match="overlap"):
            select_endpoint_pairs_lazy([1, 2], [2, 3], 1, 0)
        with pytest.raises(TopologyError, match="only 4 exist"):
            select_endpoint_pairs_lazy([0, 1], [2, 3], 5, 0)


class TestRouteOracleBound:
    def test_exports_size_and_hit_rate_gauges(self):
        graph = nx.path_graph(10)
        with obs.use_mode("metrics"), obs.capture_metrics() as captured:
            oracle = RouteOracle(graph)
            oracle.shortest(0, 5)
            oracle.shortest(0, 5)
        gauges = {
            name: value for name, _labels, value in captured.snapshot()["gauges"]
        }
        assert gauges["repro_route_oracle_entries"] == float(oracle.num_entries)
        assert gauges["repro_route_oracle_hit_rate"] == 0.5
