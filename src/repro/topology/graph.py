"""Core network model: links, paths, correlation sets, coverage functions.

This module implements the model of Section 2 of the paper:

* the network is a directed graph of logical links (``Link``);
* a path (``Path``) is a loop-free sequence of links between end-hosts;
* links are partitioned into *correlation sets* — in the paper's scenario,
  one correlation set per Autonomous System (Assumption 5);
* each AS-level link maps to a set of underlying *router-level* links; two
  AS-level links that share a router-level link become congested together
  (this is how the paper's simulator derives correlations, Section 3.2).

It also implements the coverage functions of Section 5.2:

* ``Paths(E)`` — the set of paths traversing at least one link of ``E``
  (:meth:`Network.paths_covering`);
* ``Links(P)`` — the set of links traversed by at least one path of ``P``
  (:meth:`Network.links_covered`).

Both functions, and every other reader of the routing structure, work on
one compressed sparse row (CSR) *path-link incidence*
(:class:`PathIncidence`): per path, the links it traverses; per link, the
paths traversing it. A path crosses a handful of links, so the structure
costs memory and time in proportion to the (path, link) pairs rather than
to paths x links. It is the sparse form of the "routing matrix" every
tomography algorithm consumes; callers that need a dense operand (a BLAS
product, a rank) build one locally with :meth:`PathIncidence.dense`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TopologyError


@dataclass(frozen=True)
class Link:
    """A logical (AS-level) link.

    Attributes
    ----------
    index:
        Position of the link in the network's arbitrary ordering (``e_i``).
    src, dst:
        Vertex identifiers (border routers or end-hosts).
    asn:
        The Autonomous System this link belongs to. Links sharing an ``asn``
        form one correlation set (Assumption 5 instantiated per the paper:
        "all links that belong to one AS are assigned to a separate
        correlation set").
    router_links:
        Identifiers of the underlying router-level links this logical link
        traverses. Two logical links sharing a router-level link are
        *correlated*: congestion of the shared router-level link congests
        both simultaneously.
    """

    index: int
    src: int
    dst: int
    asn: int = 0
    router_links: FrozenSet[int] = frozenset()

    def shares_router_link(self, other: "Link") -> bool:
        """Return whether this link and ``other`` share a router-level link."""
        return bool(self.router_links & other.router_links)


@dataclass(frozen=True)
class Path:
    """An end-to-end path: a loop-free sequence of link indices (``p_i``)."""

    index: int
    links: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise TopologyError(f"path {self.index} is empty")
        if len(set(self.links)) != len(self.links):
            raise TopologyError(
                f"path {self.index} traverses a link twice; the model forbids loops"
            )

    def __len__(self) -> int:
        return len(self.links)

    def traverses(self, link_index: int) -> bool:
        """Return whether this path traverses link ``link_index``."""
        return link_index in self.links


class PathIncidence:
    """The path-link incidence in compressed sparse row (CSR) form.

    Path ``p`` traverses the links ``indices[indptr[p]:indptr[p + 1]]``,
    in traversal order. The per-link index is the transpose: link ``e`` is
    traversed by the paths ``link_paths[link_indptr[e]:link_indptr[e + 1]]``,
    in ascending path order. Both are built once from ``Path.links``.

    Parameters
    ----------
    paths:
        The monitored paths, in index order.
    num_links:
        Number of links (columns).
    """

    def __init__(self, paths: Sequence[Path], num_links: int) -> None:
        lengths = np.fromiter(
            (len(path.links) for path in paths), dtype=np.int64, count=len(paths)
        )
        self.shape = (len(paths), num_links)
        self.indptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.indptr[1:])
        self.indices = np.fromiter(
            chain.from_iterable(path.links for path in paths),
            dtype=np.intp,
            count=int(self.indptr[-1]),
        )
        self.link_indptr = np.zeros(num_links + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.indices, minlength=num_links), out=self.link_indptr[1:]
        )
        # A stable sort by link keeps each link's paths in ascending order.
        owners = np.repeat(np.arange(len(paths), dtype=np.intp), lengths)
        self.link_paths = owners[np.argsort(self.indices, kind="stable")]

    @property
    def nbytes(self) -> int:
        """Bytes held by the four index arrays."""
        return int(
            self.indptr.nbytes
            + self.indices.nbytes
            + self.link_indptr.nbytes
            + self.link_paths.nbytes
        )

    def links_of(self, paths) -> np.ndarray:
        """Links traversed by each of ``paths``, concatenated (repeats kept)."""
        rows = np.asarray(paths, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        positions = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            starts - (ends - lengths), lengths
        )
        return self.indices[positions]

    def sharing_mask(self, path: int) -> np.ndarray:
        """Boolean mask over the paths sharing a link with ``path``.

        ``path`` itself is included. Scattered from the per-link index,
        so ``np.flatnonzero`` of it lists the paths in ascending order.
        """
        mask = np.zeros(self.shape[0], dtype=bool)
        bounds = self.link_indptr
        # A path crosses a handful of links: one slice per link is cheaper
        # than a vectorised gather at this size.
        for link in self.indices[self.indptr[path] : self.indptr[path + 1]].tolist():
            mask[self.link_paths[bounds[link] : bounds[link + 1]]] = True
        return mask

    def path_status(self, link_states: np.ndarray) -> np.ndarray:
        """Boolean (T, paths): whether each path traverses a true link.

        ``link_states`` is a boolean (T, links) matrix. This is
        Separability (Assumption 1): a path is congested in an interval
        iff it traverses a congested link. One gather and one exact
        OR-reduction per path row; no counts, so nothing can overflow.
        """
        return np.logical_or.reduceat(
            link_states[:, self.indices], self.indptr[:-1], axis=1
        )

    def dense(self, dtype=bool) -> np.ndarray:
        """The C-ordered (paths, links) matrix as a new array of ``dtype``.

        For local dense operands only (BLAS products, rank); nothing
        keeps the result.
        """
        matrix = np.zeros(self.shape, dtype=dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        matrix[rows, self.indices] = 1
        return matrix


class Network:
    """An observed network: links, monitored paths, and correlation sets.

    Parameters
    ----------
    links:
        The set of all links ``E*`` in arbitrary (index) order.
    paths:
        The set of all monitored paths ``P*`` in arbitrary (index) order.
    name:
        Optional human-readable label (used in experiment reports).

    Raises
    ------
    TopologyError
        If link/path indices are inconsistent or a path references an
        unknown link.
    """

    def __init__(
        self,
        links: Sequence[Link],
        paths: Sequence[Path],
        name: str = "network",
    ) -> None:
        self.name = name
        self.links: List[Link] = list(links)
        self.paths: List[Path] = list(paths)
        self._validate()
        self._incidence = PathIncidence(self.paths, self.num_links)
        self._correlation_sets = self._build_correlation_sets()
        self._set_of_link = np.empty(self.num_links, dtype=np.int64)
        for set_index, members in enumerate(self._correlation_sets):
            self._set_of_link[list(members)] = set_index
        bounds = self._incidence.link_indptr.tolist()
        link_paths = self._incidence.link_paths
        self._paths_by_link: List[FrozenSet[int]] = [
            frozenset(link_paths[start:stop].tolist())
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self._path_link_masks: Optional[List[int]] = None
        self._path_set_masks: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for position, link in enumerate(self.links):
            if link.index != position:
                raise TopologyError(
                    f"link at position {position} has index {link.index}; "
                    "links must be supplied in index order"
                )
        for position, path in enumerate(self.paths):
            if path.index != position:
                raise TopologyError(
                    f"path at position {position} has index {path.index}; "
                    "paths must be supplied in index order"
                )
            for link_index in path.links:
                if not 0 <= link_index < len(self.links):
                    raise TopologyError(
                        f"path {path.index} references unknown link {link_index}"
                    )

    def _build_correlation_sets(self) -> List[FrozenSet[int]]:
        by_asn: Dict[int, List[int]] = {}
        for link in self.links:
            by_asn.setdefault(link.asn, []).append(link.index)
        return [frozenset(members) for _, members in sorted(by_asn.items())]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Number of links ``|E*|``."""
        return len(self.links)

    @property
    def num_paths(self) -> int:
        """Number of monitored paths ``|P*|``."""
        return len(self.paths)

    @property
    def incidence(self) -> PathIncidence:
        """The CSR path-link incidence of shape (num_paths, num_links).

        Path ``p`` traverses link ``e`` iff ``e`` is in
        ``incidence.links_of([p])``; the per-link index answers the
        transpose. No dense paths x links matrix is stored. The returned
        object is the internal one; treat it as read-only.
        """
        return self._incidence

    @property
    def correlation_sets(self) -> List[FrozenSet[int]]:
        """The correlation sets ``C*`` (one per AS), as frozensets of link indices."""
        return list(self._correlation_sets)

    def correlation_set_of(self, link_index: int) -> FrozenSet[int]:
        """Return the correlation set containing link ``link_index``."""
        return self._correlation_sets[self.correlation_set_index(link_index)]

    def correlation_set_index(self, link_index: int) -> int:
        """Position in :attr:`correlation_sets` of the set holding ``link_index``."""
        if not 0 <= link_index < self.num_links:
            raise TopologyError(f"link {link_index} is not in the network")
        return int(self._set_of_link[link_index])

    def path_lengths(self) -> np.ndarray:
        """Return the number of links ``d`` of each path, shape (num_paths,)."""
        return np.diff(self._incidence.indptr)

    # ------------------------------------------------------------------
    # Coverage functions of Section 5.2
    # ------------------------------------------------------------------
    def paths_covering(self, link_set: Iterable[int]) -> FrozenSet[int]:
        """``Paths(E)``: paths traversing at least one link of ``link_set``."""
        result: FrozenSet[int] = frozenset()
        for link_index in link_set:
            result = result | self._paths_by_link[link_index]
        return result

    def links_covered(self, path_set: Iterable[int]) -> FrozenSet[int]:
        """``Links(P)``: links traversed by at least one path of ``path_set``."""
        mask = np.zeros(self.num_links, dtype=bool)
        mask[self._incidence.links_of(list(path_set))] = True
        return frozenset(np.flatnonzero(mask).tolist())

    def path_link_masks(self) -> List[int]:
        """Per-path link coverage as integer bitmasks (bit ``e`` = link ``e``).

        Coverage unions over a path set reduce to bitwise ORs of these
        masks, which is how the estimation stack builds equation rows
        without materialising frozensets per query. Computed once per
        network and cached.
        """
        if self._path_link_masks is None:
            masks = []
            for path in self.paths:
                mask = 0
                for link_index in path.links:
                    mask |= 1 << link_index
                masks.append(mask)
            self._path_link_masks = masks
        return self._path_link_masks

    def path_correlation_set_masks(self) -> List[int]:
        """Per-path correlation-set coverage as integer bitmasks.

        Bit ``j`` of path ``p``'s mask is set when ``p`` traverses a link
        of ``correlation_sets[j]``. ORing these over a path set names the
        only correlation sets ``Links(P)`` can intersect, so row
        construction visits those instead of every set. Computed once per
        network and cached.
        """
        if self._path_set_masks is None:
            set_ids = self._set_of_link[self._incidence.indices].tolist()
            bounds = self._incidence.indptr.tolist()
            masks = []
            for start, stop in zip(bounds[:-1], bounds[1:]):
                mask = 0
                for set_index in set_ids[start:stop]:
                    mask |= 1 << set_index
                masks.append(mask)
            self._path_set_masks = masks
        return self._path_set_masks

    def paths_through_all(self, link_set: Iterable[int]) -> FrozenSet[int]:
        """Paths traversing *every* link of ``link_set`` (used by Condition 1)."""
        covers = [self._paths_by_link[link_index] for link_index in link_set]
        if not covers:
            return frozenset(range(self.num_paths))
        return covers[0].intersection(*covers[1:])

    # ------------------------------------------------------------------
    # Correlation structure
    # ------------------------------------------------------------------
    def shared_router_links(self) -> Dict[int, FrozenSet[int]]:
        """Map each router-level link shared by >= 2 logical links to those links.

        This is the correlation structure the paper derives from the
        router-level graph: "if a router-level link becomes congested, then
        all the AS-level links that share this router-level link become
        congested at the same time".
        """
        owners: Dict[int, List[int]] = {}
        for link in self.links:
            for router_link in link.router_links:
                owners.setdefault(router_link, []).append(link.index)
        return {
            router_link: frozenset(members)
            for router_link, members in owners.items()
            if len(members) >= 2
        }

    def correlated_link_pairs(self) -> List[Tuple[int, int]]:
        """All pairs of distinct logical links sharing a router-level link."""
        pairs = set()
        for members in self.shared_router_links().values():
            ordered = sorted(members)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    pairs.add((a, b))
        return sorted(pairs)

    # ------------------------------------------------------------------
    # Structural statistics (used by scenario builders and reports)
    # ------------------------------------------------------------------
    def link_degrees(self) -> np.ndarray:
        """Number of monitored paths traversing each link, shape (num_links,)."""
        return np.diff(self._incidence.link_indptr)

    def edge_links(self) -> List[int]:
        """Links at the destination edge of the network (last hops).

        The Concentrated-Congestion scenario places congestion "toward the
        edge of the network, i.e., there is no congestion at the core": we
        take edge links to be the final hops of monitored paths — the links
        adjacent to destination end-hosts, which few paths share. (First
        hops sit next to the monitoring ISP's vantage points and are shared
        by many paths, i.e. they behave like core links.)
        """
        edge: set = set()
        for path in self.paths:
            edge.add(path.links[-1])
        return sorted(edge)

    def core_links(self) -> List[int]:
        """Links that are never the last hop of a monitored path."""
        edge = set(self.edge_links())
        return [link.index for link in self.links if link.index not in edge]

    def routing_rank(self) -> int:
        """Rank of the real-valued incidence matrix (densified locally).

        Sparse topologies produce low-rank systems (Section 3.2: "the sparser
        the topology, the lower the rank of the resulting system of
        equations").
        """
        if self.num_paths == 0 or self.num_links == 0:
            return 0
        return int(np.linalg.matrix_rank(self._incidence.dense(float)))

    def describe(self) -> Mapping[str, float]:
        """Summary statistics used by experiment reports."""
        degrees = self.link_degrees()
        return {
            "num_links": float(self.num_links),
            "num_paths": float(self.num_paths),
            "num_correlation_sets": float(len(self._correlation_sets)),
            "mean_path_length": float(self.path_lengths().mean()) if self.paths else 0.0,
            "mean_link_degree": float(degrees.mean()) if self.num_links else 0.0,
            "routing_rank": float(self.routing_rank()),
            "num_correlated_pairs": float(len(self.correlated_link_pairs())),
        }

    def __repr__(self) -> str:
        return (
            f"Network(name={self.name!r}, links={self.num_links}, "
            f"paths={self.num_paths}, correlation_sets={len(self._correlation_sets)})"
        )
