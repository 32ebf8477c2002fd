"""Router-level to AS-level abstraction.

The paper's operator collects a *router-level* graph from traceroutes, maps
each router to an AS, and derives an *AS-level* graph in which

* each vertex is a border router,
* each edge is either an **inter-domain link** between border routers of
  peering ASes or an **intra-domain path** between two border routers of the
  same AS,

and "the router-level graph tells us how the links in the AS-level graph are
correlated — if a router-level link becomes congested, then all the AS-level
links that share this router-level link become congested at the same time"
(Section 3.2).

This module performs that derivation: given router-level routes (sequences of
routers annotated with ASes), it segments each route into AS-level links,
deduplicates links across routes, records each AS-level link's underlying
router-level edge set, and assembles the :class:`~repro.topology.graph.Network`
that the tomography algorithms observe.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import TopologyError
from repro.topology.graph import Link, Network, Path
from repro.topology.routing import RouterRoute, SparseRouteTable


class IdentityAsnMap(MappingABC):
    """The identity router->AS mapping, in O(1) memory.

    AS-level graphs (CAIDA as-rel, the synthetic power-law generator) make
    every node its own AS; materialising ``{n: n}`` for a 10k-node snapshot
    wastes megabytes on a tautology. Combined with
    ``AsLevelBuilder(..., copy_mapping=False)`` the builder never holds a
    per-node dict at all.
    """

    def __init__(self, num_nodes: int) -> None:
        self._num_nodes = int(num_nodes)

    def __getitem__(self, node: int) -> int:
        if 0 <= node < self._num_nodes:
            return node
        raise KeyError(node)

    def __len__(self) -> int:
        return self._num_nodes

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_nodes))


@dataclass(frozen=True)
class _SegmentKey:
    """Identity of an AS-level link.

    ``kind`` is ``"inter"`` (a single router-level edge crossing an AS
    boundary) or ``"intra"`` (a maximal same-AS run between border routers).
    """

    kind: str
    asn: int
    entry: int
    exit: int


class AsLevelBuilder:
    """Incrementally derive an AS-level :class:`Network` from router routes.

    Parameters
    ----------
    asn_of_router:
        Mapping from router identifier to its AS number.
    source_asn:
        AS of the monitoring ISP. Links inside the source AS can optionally
        be dropped (the operator can observe its own network directly, and
        the paper's scenario monitors the *peers*).
    include_source_as:
        Keep links belonging to ``source_asn`` when true (default), so tests
        can exercise full paths; experiment topologies set this to False.
    copy_mapping:
        Defensive-copy ``asn_of_router`` (default, the historical
        behaviour). Pass ``False`` with a shared or virtual mapping (e.g.
        :class:`IdentityAsnMap`) to avoid materialising a per-router dict.
    """

    def __init__(
        self,
        asn_of_router: Mapping[int, int],
        source_asn: Optional[int] = None,
        include_source_as: bool = True,
        copy_mapping: bool = True,
    ) -> None:
        self._asn_of = dict(asn_of_router) if copy_mapping else asn_of_router
        self._source_asn = source_asn
        self._include_source_as = include_source_as
        self._link_index: Dict[_SegmentKey, int] = {}
        self._links: List[Link] = []
        # Accepted link sequences, in a CSR table rather than per-route
        # Python tuples: memory-bounded at internet scale.
        self._paths = SparseRouteTable()
        self._edge_ids: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _router_edge_id(self, edge: Tuple[int, int]) -> int:
        if edge not in self._edge_ids:
            self._edge_ids[edge] = len(self._edge_ids)
        return self._edge_ids[edge]

    def _asn(self, router: int) -> int:
        try:
            return self._asn_of[router]
        except KeyError as exc:
            raise TopologyError(f"router {router} has no AS mapping") from exc

    def _segments(self, route: RouterRoute) -> List[Tuple[_SegmentKey, Tuple[int, ...]]]:
        """Split ``route`` into AS-level segments with their router-edge ids."""
        segments: List[Tuple[_SegmentKey, Tuple[int, ...]]] = []
        run_start = 0
        for i in range(len(route) - 1):
            u, v = route[i], route[i + 1]
            asn_u, asn_v = self._asn(u), self._asn(v)
            if asn_u == asn_v:
                continue
            # Close the intra-AS run [run_start .. i] if it spans >= 1 edge.
            if i > run_start:
                edge_ids = tuple(
                    self._router_edge_id((route[j], route[j + 1]))
                    for j in range(run_start, i)
                )
                segments.append(
                    (
                        _SegmentKey("intra", asn_u, route[run_start], route[i]),
                        edge_ids,
                    )
                )
            # The inter-domain edge itself. Attribute it to the AS being
            # *entered*: the downstream peer owns the ingress capacity.
            segments.append(
                (
                    _SegmentKey("inter", asn_v, u, v),
                    (self._router_edge_id((u, v)),),
                )
            )
            run_start = i + 1
        last = len(route) - 1
        if last > run_start:
            asn_last = self._asn(route[run_start])
            edge_ids = tuple(
                self._router_edge_id((route[j], route[j + 1]))
                for j in range(run_start, last)
            )
            segments.append(
                (
                    _SegmentKey("intra", asn_last, route[run_start], route[last]),
                    edge_ids,
                )
            )
        return segments

    # ------------------------------------------------------------------
    def add_route(self, route: RouterRoute) -> bool:
        """Register one router-level route as a monitored AS-level path.

        Returns ``True`` if the route produced a valid AS-level path.
        Routes that collapse to zero AS-level links (single-AS routes when
        the source AS is excluded), or that would traverse the same AS-level
        link twice (a loop at the AS level), are rejected.
        """
        if len(route) < 2:
            return False
        link_sequence: List[int] = []
        for key, edge_ids in self._segments(route):
            if (
                not self._include_source_as
                and self._source_asn is not None
                and key.asn == self._source_asn
                and key.kind == "intra"
            ):
                continue
            index = self._link_index.get(key)
            if index is None:
                index = len(self._links)
                self._link_index[key] = index
                self._links.append(
                    Link(
                        index=index,
                        src=key.entry,
                        dst=key.exit,
                        asn=key.asn,
                        router_links=frozenset(edge_ids),
                    )
                )
            link_sequence.append(index)
        if not link_sequence or len(set(link_sequence)) != len(link_sequence):
            return False
        self._paths.append(link_sequence)
        return True

    def build(self, name: str = "as-level") -> Network:
        """Assemble the AS-level :class:`Network` from all accepted routes."""
        if not len(self._paths):
            raise TopologyError("AsLevelBuilder: no valid routes were added")
        paths = [
            Path(index=i, links=tuple(links.tolist()))
            for i, links in enumerate(self._paths)
        ]
        return Network(self._links, paths, name=name)

    @property
    def num_routes(self) -> int:
        """Number of routes accepted so far."""
        return len(self._paths)
