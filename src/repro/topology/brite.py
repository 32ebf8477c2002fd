"""BRITE-like two-level synthetic topology generator.

The paper evaluates on topologies produced by the BRITE generator [1]: a
*top-down* hierarchical model with an AS-level graph and per-AS router-level
graphs. BRITE itself is an external Java tool; we implement the same model
natively (README, "Deviations from the paper"):

* the AS-level graph follows Barabasi-Albert preferential attachment (the
  mode BRITE uses for AS topologies);
* each AS contains a Waxman random router graph (BRITE's router-level mode),
  made connected by a random spanning backbone;
* each AS-level adjacency is realised by one or more inter-domain
  router-level links between randomly chosen border routers.

Monitored paths are shortest router-level routes from vantage routers in a
designated *source AS* to random destination routers elsewhere, abstracted to
the AS level by :class:`repro.topology.aslevel.AsLevelBuilder`. The result is
the "relatively dense" topology of Section 3.2 where "paths tend to
criss-cross", which is the favourable regime for inference algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError
from repro.topology.aslevel import AsLevelBuilder
from repro.topology.graph import Network
from repro.topology.routing import select_endpoint_pairs, shortest_route
from repro.util.rng import RandomState, as_generator, derive_rng


@dataclass
class BriteConfig:
    """Parameters of the BRITE-like generator.

    Defaults produce a laptop-scale dense topology (a few hundred AS-level
    links); scale ``num_ases``/``num_paths`` up for paper-sized instances
    (~1000 links, 1500 paths).
    """

    num_ases: int = 16
    as_attachment: int = 2
    routers_per_as: int = 6
    waxman_alpha: float = 0.4
    waxman_beta: float = 0.6
    inter_as_links: int = 2
    num_vantage_points: int = 4
    num_destinations: int = 80
    num_paths: int = 200
    source_asn: int = 0

    def validate(self) -> None:
        """Raise :class:`TopologyError` on inconsistent parameters."""
        if self.num_ases < 3:
            raise TopologyError("BriteConfig: need at least 3 ASes")
        if self.as_attachment < 1 or self.as_attachment >= self.num_ases:
            raise TopologyError("BriteConfig: as_attachment out of range")
        if self.routers_per_as < 2:
            raise TopologyError("BriteConfig: need at least 2 routers per AS")
        if self.num_paths < 1:
            raise TopologyError("BriteConfig: need at least one path")
        if not 0 <= self.source_asn < self.num_ases:
            raise TopologyError("BriteConfig: source_asn out of range")


def _waxman_as_graph(
    config: BriteConfig, asn: int, first_router: int, rng: np.random.Generator
) -> Tuple[nx.Graph, List[int]]:
    """Build one AS's router-level Waxman graph on fresh router identifiers."""
    n = config.routers_per_as
    routers = list(range(first_router, first_router + n))
    positions = rng.random((n, 2))
    graph = nx.Graph()
    graph.add_nodes_from(routers)
    scale = float(np.sqrt(2.0))
    for i in range(n):
        for j in range(i + 1, n):
            distance = float(np.linalg.norm(positions[i] - positions[j]))
            probability = config.waxman_alpha * np.exp(
                -distance / (config.waxman_beta * scale)
            )
            if rng.random() < probability:
                graph.add_edge(routers[i], routers[j])
    # Guarantee intra-AS connectivity with a random backbone path.
    order = rng.permutation(n)
    for i in range(n - 1):
        graph.add_edge(routers[int(order[i])], routers[int(order[i + 1])])
    return graph, routers


def build_router_internet(
    config: BriteConfig, random_state: RandomState = None
) -> Tuple[nx.Graph, Dict[int, int]]:
    """Build the full router-level graph and the router -> AS mapping.

    Returns
    -------
    (graph, asn_of_router):
        ``graph`` is an undirected router-level graph; ``asn_of_router``
        maps every router identifier to its AS number.
    """
    config.validate()
    rng = as_generator(random_state)
    as_graph = nx.barabasi_albert_graph(
        config.num_ases, config.as_attachment, seed=int(rng.integers(0, 2**31))
    )
    full = nx.Graph()
    asn_of: Dict[int, int] = {}
    routers_of: Dict[int, List[int]] = {}
    next_router = 0
    for asn in range(config.num_ases):
        subgraph, routers = _waxman_as_graph(config, asn, next_router, rng)
        next_router += config.routers_per_as
        # Router ids are globally fresh, so an in-place update equals
        # nx.union (which would re-copy the accumulated graph per AS).
        full.update(subgraph)
        routers_of[asn] = routers
        for router in routers:
            asn_of[router] = asn
    for a, b in as_graph.edges():
        for _ in range(config.inter_as_links):
            u = int(rng.choice(routers_of[a]))
            v = int(rng.choice(routers_of[b]))
            full.add_edge(u, v)
    return full, asn_of


def generate_brite_network(
    config: BriteConfig | None = None, random_state: RandomState = None
) -> Network:
    """Generate a dense Brite-style AS-level :class:`Network`.

    Vantage routers live in ``config.source_asn``; destinations are sampled
    from all other ASes. Duplicate AS-level paths (distinct router pairs that
    collapse to the same AS-level link sequence) are dropped, as are routes
    that would loop at the AS level.
    """
    config = config or BriteConfig()
    rng = as_generator(random_state)
    graph, asn_of = build_router_internet(config, derive_rng(rng, 0))
    routers = sorted(asn_of)
    source_routers = [r for r in routers if asn_of[r] == config.source_asn]
    other_routers = [r for r in routers if asn_of[r] != config.source_asn]
    pair_rng = derive_rng(rng, 1)
    vantage = [
        int(i)
        for i in pair_rng.choice(
            source_routers,
            size=min(config.num_vantage_points, len(source_routers)),
            replace=False,
        )
    ]
    destinations = [
        int(i)
        for i in pair_rng.choice(
            other_routers,
            size=min(config.num_destinations, len(other_routers)),
            replace=False,
        )
    ]
    builder = AsLevelBuilder(
        asn_of, source_asn=config.source_asn, include_source_as=False
    )
    requested = min(config.num_paths, len(vantage) * len(destinations))
    pairs = select_endpoint_pairs(vantage, destinations, requested, pair_rng)
    seen_sequences = set()
    for source, destination in pairs:
        route = shortest_route(graph, source, destination)
        if route is None:
            continue
        before = builder.num_routes
        if builder.add_route(route) and builder.num_routes > before:
            pass
    network = builder.build(name="brite")
    return _dedupe_paths(network, "brite")


def _dedupe_paths(network: Network, name: str) -> Network:
    """Drop monitored paths with identical link sequences."""
    from repro.topology.graph import Path

    seen = set()
    kept = []
    for path in network.paths:
        if path.links not in seen:
            seen.add(path.links)
            kept.append(path.links)
    paths = [Path(index=i, links=links) for i, links in enumerate(kept)]
    return Network(network.links, paths, name=name)
