"""Dataset loader protocol and the graph -> monitored-network derivation.

A *dataset* is a real topology (Topology Zoo GML, a Rocketfuel-style ISP
map, a CAIDA AS-relationship graph, a saved ``repro`` JSON network) or a
synthetic substitute (the BRITE-like generator) presented behind one
uniform interface: a :class:`DatasetLoader` turns a file (or nothing, for
synthetic datasets) plus a :class:`DatasetSpec` into the
:class:`~repro.topology.graph.Network` the tomography stack observes.

Real topology files describe a *graph*, not a monitoring deployment, so
every file-backed loader shares the same derivation
(:func:`derive_network`): pick vantage and destination nodes
deterministically from the spec's seed, compute shortest router-level
routes, and abstract them to the AS level with
:class:`~repro.topology.aslevel.AsLevelBuilder` — exactly the pipeline the
paper's operator runs on her traceroute campaign. Single-ISP maps carry no
AS structure of their own; :func:`partition_into_ases` groups their
routers into contiguous clusters that stand in for the paper's per-AS
correlation sets (one set per POP-sized region).
"""

from __future__ import annotations

import re
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Protocol, Union, runtime_checkable

import networkx as nx
import numpy as np

from repro.exceptions import DatasetError
from repro.topology.aslevel import AsLevelBuilder, IdentityAsnMap
from repro.topology.brite import _dedupe_paths
from repro.topology.graph import Network
from repro.topology.routing import (
    CompactGraph,
    RouteOracle,
    route_from_parents,
    select_endpoint_pairs,
    select_endpoint_pairs_lazy,
)

#: Anything acceptable as a dataset file location.
PathLike = Union[str, Path]


@dataclass(frozen=True)
class DatasetSpec:
    """How to derive a monitored network from a parsed topology.

    Attributes
    ----------
    num_vantage_points:
        Monitoring vantage nodes (probe sources), clamped to the topology.
    num_destinations:
        Probe destination nodes, sampled from the non-vantage nodes.
    num_paths:
        Monitored paths requested (clamped to the available endpoint
        pairs); duplicates collapsing to the same AS-level link sequence
        are dropped, so the derived network may monitor fewer.
    group_size:
        For topologies without intrinsic AS structure (single-ISP maps):
        routers per synthetic AS cluster (one correlation set each).
    seed:
        Seed of the endpoint selection. Part of the dataset's identity:
        the same file + spec always derives the same network.
    """

    num_vantage_points: int = 3
    num_destinations: int = 10
    num_paths: int = 48
    group_size: int = 4
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`DatasetError` on inconsistent parameters."""
        if self.num_vantage_points < 1 or self.num_destinations < 1:
            raise DatasetError("DatasetSpec: need >= 1 vantage and destination")
        if self.num_paths < 1:
            raise DatasetError("DatasetSpec: need at least one monitored path")
        if self.group_size < 1:
            raise DatasetError("DatasetSpec: group_size must be >= 1")


@dataclass
class ParsedTopology:
    """A parsed topology file: the graph plus its AS structure.

    Attributes
    ----------
    graph:
        Undirected router-level (or AS-level) graph on integer node ids.
    asn_of:
        Node -> AS number. For AS-level datasets (CAIDA) this is the
        identity; for single-ISP maps it is a synthetic partition.
    labels:
        Optional human-readable node labels (city names, AS names).
    """

    graph: nx.Graph
    asn_of: Dict[int, int]
    labels: Dict[int, str] = field(default_factory=dict)


@runtime_checkable
class DatasetLoader(Protocol):
    """Uniform interface over file formats and synthetic generators.

    Attributes
    ----------
    format_name:
        Short identifier of the source format (``"gml"``, ``"brite"``, ...).
    description:
        One-line description shown by ``repro-tomography datasets list``.
    """

    format_name: str
    description: str

    def load(self, path: Optional[PathLike], spec: DatasetSpec) -> Network:
        """Parse ``path`` (ignored by synthetic loaders) into a network."""
        ...

    def cache_token(self, path: Optional[PathLike]) -> bytes:
        """Bytes identifying the source content for the on-disk cache."""
        ...


def partition_into_ases(graph: nx.Graph, group_size: int) -> Dict[int, int]:
    """Group a single-ISP graph's nodes into contiguous synthetic ASes.

    A deterministic BFS from the lowest node id (restarting per connected
    component) visits nodes in a stable order; consecutive chunks of
    ``group_size`` nodes form one AS. Contiguity matters: the chunks stand
    in for the paper's per-AS correlation sets, so each set should cover a
    connected region whose internal links plausibly share infrastructure.
    """
    if group_size < 1:
        raise DatasetError("partition_into_ases: group_size must be >= 1")
    order = []
    visited = set()
    for start in sorted(graph.nodes):
        if start in visited:
            continue
        queue = [start]
        visited.add(start)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for neighbor in sorted(graph.neighbors(node)):
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
    return {node: position // group_size for position, node in enumerate(order)}


def derive_network(parsed: ParsedTopology, spec: DatasetSpec, name: str) -> Network:
    """Derive the monitored AS-level :class:`Network` from a parsed graph.

    Vantage and destination nodes are drawn without replacement from the
    node set using ``spec.seed`` (so a dataset is a pure function of its
    file and spec), shortest routes are abstracted through
    :class:`AsLevelBuilder`, and duplicate AS-level paths are dropped.
    """
    spec.validate()
    nodes = sorted(parsed.graph.nodes)
    if len(nodes) < 2:
        raise DatasetError(f"dataset {name!r}: need at least two nodes")
    rng = np.random.default_rng(spec.seed)
    num_vantage = min(spec.num_vantage_points, max(1, len(nodes) // 2))
    vantage = sorted(int(i) for i in rng.choice(nodes, size=num_vantage, replace=False))
    others = [node for node in nodes if node not in set(vantage)]
    num_destinations = min(spec.num_destinations, len(others))
    destinations = sorted(
        int(i)
        for i in rng.choice(others, size=num_destinations, replace=False)
    )
    available = len(vantage) * len(destinations)
    requested = min(spec.num_paths, available)
    pairs = select_endpoint_pairs(vantage, destinations, requested, rng)

    oracle = RouteOracle(parsed.graph)
    builder = AsLevelBuilder(parsed.asn_of, include_source_as=True)
    for source, destination in pairs:
        route = oracle.shortest(source, destination)
        if route is not None:
            builder.add_route(route)
    if builder.num_routes == 0:
        raise DatasetError(
            f"dataset {name!r}: no usable routes between the selected "
            "endpoints (is the graph connected?)"
        )
    network = builder.build(name=name)
    return _dedupe_paths(network, name)


def derive_network_compact(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    spec: DatasetSpec,
    name: str,
    stats: Optional[Dict[str, int]] = None,
) -> Network:
    """Derive a monitored network from an edge-array graph, at scale.

    The internet-scale twin of :func:`derive_network` for graphs given as
    flat endpoint arrays on dense node ids ``0..num_nodes-1`` (streamed
    CAIDA snapshots, the synthetic power-law generator). Differences from
    the eager path, by design:

    * endpoint pairs come from
      :func:`~repro.topology.routing.select_endpoint_pairs_lazy`, which
      never materialises the O(V x D) pair product;
    * one deterministic BFS parent tree (FIFO frontier, ascending
      neighbours, first discoverer is the parent) per distinct vantage
      serves all of its destinations (instead of one
      ``nx.shortest_path`` per pair); SciPy's compiled
      ``breadth_first_order`` runs that search over the CSR arrays
      (:meth:`~repro.topology.routing.CompactGraph.bfs_parents`);
    * the graph is a CSR :class:`~repro.topology.routing.CompactGraph`, the
      router->AS map is the O(1)
      :class:`~repro.topology.aslevel.IdentityAsnMap`, and routes
      accumulate in a :class:`~repro.topology.routing.SparseRouteTable`.

    When ``stats`` is given (a dict) and :mod:`tracemalloc` is tracing,
    ``stats["construction_bytes"]`` records the bytes *retained* by the
    graph, router->AS map, and accumulated route storage at the moment
    route derivation finishes, measured as a traced-allocation delta
    across this call.
    """
    spec.validate()
    trace_start = (
        tracemalloc.get_traced_memory()[0]
        if stats is not None and tracemalloc.is_tracing()
        else None
    )
    if num_nodes < 2:
        raise DatasetError(f"dataset {name!r}: need at least two nodes")
    rng = np.random.default_rng(spec.seed)
    num_vantage = min(spec.num_vantage_points, max(1, num_nodes // 2))
    vantage = np.sort(rng.choice(num_nodes, size=num_vantage, replace=False))
    others = np.setdiff1d(np.arange(num_nodes), vantage, assume_unique=True)
    num_destinations = min(spec.num_destinations, others.shape[0])
    destinations = np.sort(
        rng.choice(others, size=num_destinations, replace=False)
    )
    available = num_vantage * num_destinations
    requested = min(spec.num_paths, available)
    pairs = select_endpoint_pairs_lazy(
        [int(node) for node in vantage],
        [int(node) for node in destinations],
        requested,
        rng,
    )
    destinations_of: Dict[int, list] = {}
    for source, destination in pairs:
        destinations_of.setdefault(source, []).append(destination)

    graph = CompactGraph.from_edges(num_nodes, src, dst)
    builder = AsLevelBuilder(
        IdentityAsnMap(num_nodes),
        include_source_as=True,
        copy_mapping=False,
    )
    # Deterministic route order: sources ascending, then destinations
    # ascending within each source's parent tree.
    for source in sorted(destinations_of):
        parents = graph.bfs_parents(source)
        for destination in sorted(destinations_of[source]):
            route = route_from_parents(parents, source, destination)
            if route is not None:
                builder.add_route(route)
        del parents
    if trace_start is not None and stats is not None:
        # Graph + AS map + route storage are all still live here, while the
        # Network has not been materialised yet: the delta is exactly the
        # construction structures.
        stats["construction_bytes"] = max(
            0, tracemalloc.get_traced_memory()[0] - trace_start
        )
    if builder.num_routes == 0:
        raise DatasetError(
            f"dataset {name!r}: no usable routes between the selected "
            "endpoints (is the graph connected?)"
        )
    network = builder.build(name=name)
    return _dedupe_paths(network, name)


def read_dataset_text(path: Optional[PathLike], format_name: str) -> str:
    """Read a dataset file, with a uniform error for missing files."""
    if path is None:
        raise DatasetError(f"{format_name} loader requires a file path")
    file_path = Path(path)
    try:
        return file_path.read_text()
    except OSError as exc:
        raise DatasetError(
            f"cannot read {format_name} dataset {file_path}: {exc}"
        ) from exc


def dataset_stem(path: PathLike) -> str:
    """Filename without directories or extension: the default network name."""
    return Path(path).stem


#: GML node-block openers, for the streaming census in :func:`scan_nodes`.
_GML_NODE_BLOCK = re.compile(r"\bnode\s*\[")


def scan_nodes(
    path: PathLike,
    format_name: str,
    max_nodes: Optional[int] = None,
) -> Optional[int]:
    """Streaming node census of a dataset file, with a fail-fast bound.

    Reads the file line by line — never building a graph — and counts the
    nodes it declares: distinct AS numbers for ``caida``, ``node [``
    blocks for ``gml``. If ``max_nodes`` is given, raises
    :class:`DatasetError` the moment the count exceeds it, so validating
    an unexpectedly internet-sized snapshot aborts in O(bound) memory
    instead of parsing (and OOMing on) the whole file. Returns ``None``
    for formats without a file-backed node census (synthetic generators,
    saved JSON networks).
    """
    if format_name not in ("caida", "gml"):
        return None
    from repro.datasets.caida import iter_caida_edges

    file_path = Path(path)
    try:
        with file_path.open() as handle:
            if format_name == "caida":
                seen = set()
                for a, b, _ in iter_caida_edges(handle):
                    seen.add(a)
                    seen.add(b)
                    if max_nodes is not None and len(seen) > max_nodes:
                        raise DatasetError(
                            f"dataset {file_path.name}: more than "
                            f"{max_nodes} nodes (max-nodes guard)"
                        )
                return len(seen)
            count = 0
            for line in handle:
                count += len(_GML_NODE_BLOCK.findall(line))
                if max_nodes is not None and count > max_nodes:
                    raise DatasetError(
                        f"dataset {file_path.name}: more than "
                        f"{max_nodes} nodes (max-nodes guard)"
                    )
            return count
    except OSError as exc:
        raise DatasetError(
            f"cannot read {format_name} dataset {file_path}: {exc}"
        ) from exc
