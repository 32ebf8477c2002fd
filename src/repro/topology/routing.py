"""Path computation over router-level graphs.

The topology generators produce a router-level :mod:`networkx` graph; this
module selects end-to-end router-level routes (shortest paths, with optional
load-balanced alternatives) which :mod:`repro.topology.aslevel` then abstracts
into the AS-level network the tomography algorithms observe.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order

from repro.exceptions import TopologyError
from repro.obs import gauge
from repro.util.rng import RandomState, as_generator

#: A router-level route: a sequence of router identifiers.
RouterRoute = Tuple[int, ...]

#: Exclusive bound on :class:`CompactGraph` node ids and adjacency entries:
#: :mod:`scipy.sparse.csgraph` indexes with int32.
_INT32_LIMIT = 2**31

_ORACLE_ENTRIES = gauge(
    "repro_route_oracle_entries",
    "Memoised routes currently held by the RouteOracle",
)
_ORACLE_HIT_RATE = gauge(
    "repro_route_oracle_hit_rate",
    "Fraction of RouteOracle lookups answered from the memo",
)


def shortest_route(graph: nx.Graph, source: int, target: int) -> Optional[RouterRoute]:
    """Return a shortest route from ``source`` to ``target``, or ``None``.

    Ties are broken deterministically by networkx's BFS ordering; use
    :func:`load_balanced_route` when per-flow path diversity is needed.
    """
    try:
        return tuple(nx.shortest_path(graph, source, target))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def load_balanced_route(
    graph: nx.Graph,
    source: int,
    target: int,
    random_state: RandomState = None,
) -> Optional[RouterRoute]:
    """Return one of the shortest routes chosen uniformly at random.

    Models equal-cost multi-path (ECMP) forwarding: different probe flows
    between the same endpoints may take different equal-length routes, which
    is one of the traceroute artefacts the paper's operators fought with
    ("load-balancing interferes with traceroute results").
    """
    rng = as_generator(random_state)
    try:
        routes = list(nx.all_shortest_paths(graph, source, target))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return tuple(routes[int(rng.integers(0, len(routes)))])


class RouteOracle:
    """Memoised route computation for repeated-source probing campaigns.

    Traceroute campaigns probe from a handful of vantage routers toward
    hundreds of destinations; recomputing a BFS per probe dominates topology
    generation. The oracle caches, per source, the unweighted predecessor
    DAG (one BFS serving every destination's ECMP route enumeration) and,
    per (source, target) pair, the deterministic shortest route — producing
    routes identical to :func:`shortest_route` / :func:`load_balanced_route`
    call-for-call.

    The memos are unbounded: the oracle serves one topology's probing
    campaign (internet-scale graphs route through the CSR
    :class:`CompactGraph` instead).
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self._shortest: dict = {}
        self._ecmp: dict = {}
        self._predecessors: dict = {}
        self.hits = 0
        self.misses = 0

    def _hit(self) -> None:
        """Record a memo hit."""
        self.hits += 1
        self._export()

    def _store(self, memo: dict, key, value) -> None:
        """Record a miss and memoise its answer."""
        self.misses += 1
        memo[key] = value
        self._export()

    def _export(self) -> None:
        _ORACLE_ENTRIES.set(float(self.num_entries))
        total = self.hits + self.misses
        if total:
            _ORACLE_HIT_RATE.set(self.hits / total)

    @property
    def num_entries(self) -> int:
        """Memoised entries currently held across all memo dicts."""
        return len(self._shortest) + len(self._ecmp) + len(self._predecessors)

    def shortest(self, source: int, target: int) -> Optional[RouterRoute]:
        """Cached :func:`shortest_route`."""
        key = (source, target)
        try:
            route = self._shortest[key]
        except KeyError:
            route = shortest_route(self.graph, source, target)
            self._store(self._shortest, key, route)
            return route
        self._hit()
        return route

    def _equal_cost_routes(
        self, source: int, target: int
    ) -> Optional[List[RouterRoute]]:
        key = (source, target)
        try:
            routes = self._ecmp[key]
        except KeyError:
            pass
        else:
            self._hit()
            return routes
        try:
            # Private networkx helper: exactly the enumeration
            # all_shortest_paths performs on its internally-computed
            # predecessor map, which lets one BFS per source serve every
            # target. Fall back to the public API if it moves.
            from networkx.algorithms.shortest_paths.generic import (
                _build_paths_from_predecessors,
            )
        except ImportError:
            _build_paths_from_predecessors = None
        routes: Optional[List[RouterRoute]] = None
        if _build_paths_from_predecessors is None:
            try:
                routes = [
                    tuple(p)
                    for p in nx.all_shortest_paths(self.graph, source, target)
                ]
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                routes = None
        else:
            pred = self._predecessors.get(source)
            if pred is None:
                try:
                    pred = nx.predecessor(self.graph, source)
                except nx.NodeNotFound:
                    pred = {}
                self._predecessors[source] = pred
            if target in pred:
                routes = [
                    tuple(p)
                    for p in _build_paths_from_predecessors({source}, target, pred)
                ]
        self._store(self._ecmp, key, routes)
        return routes

    def load_balanced(
        self, source: int, target: int, random_state: RandomState = None
    ) -> Optional[RouterRoute]:
        """Cached-enumeration :func:`load_balanced_route`.

        The ECMP route list is enumerated once per pair; the per-probe
        random pick draws from the generator exactly as the uncached
        version does.
        """
        rng = as_generator(random_state)
        routes = self._equal_cost_routes(source, target)
        if routes is None:
            return None
        return routes[int(rng.integers(0, len(routes)))]


def route_links(route: RouterRoute) -> List[Tuple[int, int]]:
    """Return the router-level (directed) edges traversed by ``route``."""
    return [(route[i], route[i + 1]) for i in range(len(route) - 1)]


def select_endpoint_pairs(
    sources: Sequence[int],
    destinations: Sequence[int],
    count: int,
    random_state: RandomState = None,
) -> List[Tuple[int, int]]:
    """Pick ``count`` distinct (source, destination) pairs.

    Raises
    ------
    TopologyError
        If fewer than ``count`` distinct pairs exist.
    """
    if not sources or not destinations:
        raise TopologyError("select_endpoint_pairs: empty source/destination pool")
    rng = as_generator(random_state)
    all_pairs = [(s, d) for s in sources for d in destinations if s != d]
    if len(all_pairs) < count:
        raise TopologyError(
            f"requested {count} endpoint pairs but only {len(all_pairs)} exist"
        )
    chosen = rng.choice(len(all_pairs), size=count, replace=False)
    return [all_pairs[int(i)] for i in chosen]


def select_endpoint_pairs_lazy(
    sources: Sequence[int],
    destinations: Sequence[int],
    count: int,
    random_state: RandomState = None,
) -> List[Tuple[int, int]]:
    """Pick ``count`` distinct pairs without enumerating all O(V*D) of them.

    The sparse large-topology path's replacement for
    :func:`select_endpoint_pairs`: pairs are addressed as indices into the
    virtual grid ``sources x destinations`` and drawn by rejection sampling
    (O(count) memory) when the grid is sparse enough, falling back to one
    index permutation otherwise. The pools must be disjoint — on the
    derived monitoring deployments destinations are drawn from the
    non-vantage nodes, so no ``s == d`` pair can occur.

    The draw order is deterministic in ``random_state`` but intentionally
    *not* identical to :func:`select_endpoint_pairs` (whose draws are part
    of the bundled datasets' identity).
    """
    if not len(sources) or not len(destinations):
        raise TopologyError("select_endpoint_pairs_lazy: empty pool")
    if set(sources) & set(destinations):
        raise TopologyError(
            "select_endpoint_pairs_lazy: source/destination pools overlap"
        )
    total = len(sources) * len(destinations)
    if total < count:
        raise TopologyError(
            f"requested {count} endpoint pairs but only {total} exist"
        )
    rng = as_generator(random_state)
    if 4 * count >= total:
        chosen = rng.permutation(total)[:count]
    else:
        seen: set = set()
        picks: List[int] = []
        while len(picks) < count:
            index = int(rng.integers(total))
            if index not in seen:
                seen.add(index)
                picks.append(index)
        chosen = np.asarray(picks)
    width = len(destinations)
    return [
        (int(sources[int(i) // width]), int(destinations[int(i) % width]))
        for i in chosen
    ]


def route_from_parents(parents, source: int, target: int) -> Optional[RouterRoute]:
    """Walk a BFS parent array back from ``target`` to ``source``.

    ``parents`` is the int array produced by :meth:`CompactGraph.bfs_parents`
    (``-1`` marks unreachable nodes).
    """
    if target >= len(parents) or parents[int(target)] < 0:
        return None
    route = [int(target)]
    node = int(target)
    while node != source:
        node = int(parents[node])
        route.append(node)
    route.reverse()
    return tuple(route)


class CompactGraph:
    """An undirected graph as CSR adjacency arrays over dense node ids.

    The sparse counterpart of the router-level ``nx.Graph``: neighbours
    live in two flat int32 arrays (``indptr``/``neighbors``) instead of
    per-node dict-of-dicts, cutting a 10k-node AS graph from tens of MB of
    Python objects to a few hundred KB. Neighbour lists are sorted
    ascending, so :meth:`bfs_parents` discovers nodes in a reproducible
    order. The arrays are int32 because :mod:`scipy.sparse.csgraph`, which
    runs the search over them, takes int32 indices only.
    """

    __slots__ = ("num_nodes", "indptr", "neighbors")

    def __init__(self, num_nodes: int, indptr: np.ndarray, neighbors: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.indptr = indptr
        self.neighbors = neighbors

    @classmethod
    def from_edges(
        cls, num_nodes: int, src: np.ndarray, dst: np.ndarray
    ) -> "CompactGraph":
        """Build from edge endpoint arrays (self-loops and dupes dropped).

        Raises :class:`TopologyError` before allocating anything when the
        node ids or the adjacency entries would not fit int32 indices.
        """
        if num_nodes >= _INT32_LIMIT:
            raise TopologyError(
                f"CompactGraph: {num_nodes} nodes do not fit int32 indices"
            )
        if num_nodes < 1:
            raise TopologyError("CompactGraph: need at least one node")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise TopologyError("CompactGraph: src/dst arrays differ in length")
        if 2 * src.size >= _INT32_LIMIT:
            raise TopologyError(
                f"CompactGraph: {src.size} edges do not fit int32 indices"
            )
        if src.size and (
            src.min() < 0 or dst.min() < 0
            or src.max() >= num_nodes or dst.max() >= num_nodes
        ):
            raise TopologyError("CompactGraph: edge endpoint out of range")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # Both directions, sorted by (node, neighbour) in one key so each
        # adjacency slice comes out ascending; duplicate edges collapse.
        tails = np.concatenate([src, dst])
        heads = np.concatenate([dst, src])
        keys = tails * num_nodes + heads
        keys = np.unique(keys)
        tails = keys // num_nodes
        heads = keys % num_nodes
        degrees = np.bincount(tails, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int32)
        np.cumsum(degrees, out=indptr[1:])
        return cls(num_nodes, indptr, heads.astype(np.int32))

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return int(self.neighbors.size) // 2

    @property
    def nbytes(self) -> int:
        """Bytes held by the adjacency arrays."""
        return int(self.indptr.nbytes + self.neighbors.nbytes)

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def neighbors_of(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node`` (a view, do not mutate)."""
        return self.neighbors[self.indptr[node] : self.indptr[node + 1]]

    def bfs_parents(self, source: int) -> np.ndarray:
        """First-discovery BFS parent array (``-1`` = unreachable).

        FIFO frontier, neighbours visited in ascending order, the first
        node to discover a neighbour becomes its parent, and
        ``parents[source] == source``. SciPy's compiled
        ``breadth_first_order`` provides exactly this search: it scans
        each dequeued node's CSR slice in stored (ascending) order, and
        the adjacency arrays are handed to it without a copy.
        """
        adjacency = csr_array(
            (np.ones(self.neighbors.size), self.neighbors, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )
        _, predecessors = breadth_first_order(
            adjacency, int(source), directed=True, return_predecessors=True
        )
        parents = predecessors.astype(np.int64)
        parents[parents < 0] = -1
        parents[source] = source
        return parents


class SparseRouteTable:
    """Append-only CSR store for route sequences (router or link ids).

    Replaces per-route Python tuples with two flat arrays — ``indptr``
    (int64 offsets) and ``items`` (uint32 ids) — grown by capacity
    doubling. 10k routes of average length 12 cost ~0.5 MB instead of the
    several MB of tuple/int objects, and reading a route back is a zero-copy
    array view.
    """

    _INITIAL_ROUTES = 64
    _INITIAL_ITEMS = 1024

    def __init__(self) -> None:
        self._indptr = np.zeros(self._INITIAL_ROUTES + 1, dtype=np.int64)
        self._items = np.empty(self._INITIAL_ITEMS, dtype=np.uint32)
        self._num_routes = 0

    def __len__(self) -> int:
        return self._num_routes

    @property
    def num_items(self) -> int:
        """Total ids stored across all routes."""
        return int(self._indptr[self._num_routes])

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing arrays (capacity, not just fill)."""
        return int(self._indptr.nbytes + self._items.nbytes)

    def append(self, sequence) -> int:
        """Store one route; returns its index."""
        row = np.asarray(sequence, dtype=np.uint32)
        if row.ndim != 1:
            raise TopologyError("SparseRouteTable: route must be a 1-D sequence")
        start = self.num_items
        stop = start + row.size
        if self._num_routes + 1 >= self._indptr.size:
            grown = np.zeros(2 * self._indptr.size, dtype=np.int64)
            grown[: self._indptr.size] = self._indptr
            self._indptr = grown
        if stop > self._items.size:
            grown = np.empty(max(stop, 2 * self._items.size), dtype=np.uint32)
            grown[:start] = self._items[:start]
            self._items = grown
        self._items[start:stop] = row
        self._num_routes += 1
        self._indptr[self._num_routes] = stop
        return self._num_routes - 1

    def route(self, index: int) -> np.ndarray:
        """The ``index``-th route as a zero-copy uint32 view."""
        if not 0 <= index < self._num_routes:
            raise TopologyError(f"SparseRouteTable: no route {index}")
        return self._items[self._indptr[index] : self._indptr[index + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        for index in range(self._num_routes):
            yield self.route(index)
