"""Generator-backed and saved-network dataset loaders.

The repository predates this subsystem with two synthetic topology paths
(the BRITE-like dense generator and the traceroute-campaign simulator)
plus a JSON persistence format for operator-collected networks. These
loaders put all three behind the same :class:`~repro.datasets.base.DatasetLoader`
protocol, so registry-driven campaigns can sweep real files and synthetic
substrates through one interface.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.datasets.base import DatasetSpec, PathLike, derive_network_compact
from repro.exceptions import DatasetError, TopologyError
from repro.topology.brite import BriteConfig, generate_brite_network
from repro.topology.graph import Network
from repro.topology.serialization import load_network
from repro.topology.traceroute import TracerouteConfig, generate_sparse_network


class BriteLoader:
    """Synthetic dense topology: the BRITE-like generator as a dataset.

    ``path`` is ignored; the generator seed is the spec's seed, so the
    dataset is a pure function of (config, spec) like every other loader.
    """

    format_name = "brite"
    description = "BRITE-like dense synthetic topology (generated)"

    def __init__(self, config: Optional[BriteConfig] = None) -> None:
        self.config = config or BriteConfig()

    def load(self, path: Optional[PathLike], spec: DatasetSpec) -> Network:
        return generate_brite_network(self.config, spec.seed)

    def cache_token(self, path: Optional[PathLike]) -> bytes:
        return repr(self.config).encode()


class TracerouteLoader:
    """Synthetic sparse topology: the traceroute-campaign simulator."""

    format_name = "traceroute"
    description = "Sparse traceroute-campaign topology (simulated)"

    def __init__(self, config: Optional[TracerouteConfig] = None) -> None:
        self.config = config or TracerouteConfig()

    def load(self, path: Optional[PathLike], spec: DatasetSpec) -> Network:
        return generate_sparse_network(self.config, spec.seed)

    def cache_token(self, path: Optional[PathLike]) -> bytes:
        return repr(self.config).encode()


def generate_powerlaw_edges(
    num_nodes: int, attachment: int = 2, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Barabási–Albert power-law AS graph as flat edge arrays.

    Preferential attachment without networkx and without per-edge Python
    objects: every edge endpoint is appended to a flat uint32 pool, and a
    uniform draw from the pool *is* a degree-proportional draw — the
    repeated-endpoint-array trick. Edge count is known up front
    (``attachment`` per new node plus the seed clique), so both endpoint
    arrays are preallocated; a 10k-node graph costs a few hundred KB.

    Returns ``(src, dst)`` uint32 arrays over dense node ids
    ``0..num_nodes-1``, suitable for
    :class:`~repro.topology.routing.CompactGraph` /
    :func:`~repro.datasets.base.derive_network_compact`. Deterministic in
    ``seed``.
    """
    if attachment < 1:
        raise DatasetError("generate_powerlaw_edges: attachment must be >= 1")
    if num_nodes < attachment + 1:
        raise DatasetError(
            f"generate_powerlaw_edges: need > {attachment} nodes "
            f"for attachment {attachment}, got {num_nodes}"
        )
    rng = np.random.default_rng(seed)
    clique = attachment + 1
    num_edges = clique * (clique - 1) // 2 + attachment * (num_nodes - clique)
    src = np.empty(num_edges, dtype=np.uint32)
    dst = np.empty(num_edges, dtype=np.uint32)
    pool = np.empty(2 * num_edges, dtype=np.uint32)
    edge_count = 0
    pool_count = 0
    for u in range(clique):
        for v in range(u + 1, clique):
            src[edge_count] = u
            dst[edge_count] = v
            edge_count += 1
            pool[pool_count] = u
            pool[pool_count + 1] = v
            pool_count += 2
    for node in range(clique, num_nodes):
        targets: set = set()
        # Rejection-sample distinct targets; the pool is much larger than
        # ``attachment``, so repeats are rare. Over-drawing in one batch
        # keeps the common case at a single rng call.
        while len(targets) < attachment:
            draws = rng.integers(pool_count, size=attachment + 2)
            for position in draws:
                targets.add(int(pool[position]))
                if len(targets) == attachment:
                    break
        for target in sorted(targets):
            src[edge_count] = target
            dst[edge_count] = node
            edge_count += 1
            pool[pool_count] = target
            pool[pool_count + 1] = node
            pool_count += 2
    return src, dst


class PowerLawAsLoader:
    """Synthetic internet-scale AS topology: power-law preferential attachment.

    Each AS is one vertex and its own correlation set (like the CAIDA
    loader), but the graph is generated, so 10k-node sweeps need no
    committed fixture. Derivation runs through
    :func:`~repro.datasets.base.derive_network_compact` — CSR adjacency,
    lazy endpoint pairs, shared BFS parent trees — so loading stays
    memory-bounded at internet scale.

    Deliberately *not* registered in the dataset registry: registry-driven
    campaigns sweep every registered dataset through the full realworld
    grid, which is not a sensible default for a 10k-node graph. The
    ``scaling-topology`` campaign constructs it directly.
    """

    format_name = "powerlaw-as"
    description = "Power-law synthetic AS graph (preferential attachment)"

    def __init__(self, num_nodes: int = 10_000, attachment: int = 2) -> None:
        self.num_nodes = num_nodes
        self.attachment = attachment

    def load(self, path: Optional[PathLike], spec: DatasetSpec) -> Network:
        src, dst = generate_powerlaw_edges(
            self.num_nodes, self.attachment, spec.seed
        )
        name = f"powerlaw-as-{self.num_nodes}"
        return derive_network_compact(self.num_nodes, src, dst, spec, name)

    def cache_token(self, path: Optional[PathLike]) -> bytes:
        return f"powerlaw-as:{self.num_nodes}:{self.attachment}".encode()


class JsonNetworkLoader:
    """Loader for networks saved by :mod:`repro.topology.serialization`.

    Saved networks already embed their monitored paths (they are operator
    snapshots, not raw maps), so the spec's derivation parameters are
    ignored.
    """

    format_name = "repro-json"
    description = "Saved repro network snapshot (JSON)"

    def load(self, path: Optional[PathLike], spec: DatasetSpec) -> Network:
        if path is None:
            raise DatasetError("repro-json loader requires a file path")
        try:
            return load_network(Path(path))
        except TopologyError as exc:
            raise DatasetError(f"cannot load network snapshot {path}: {exc}") from exc

    def cache_token(self, path: Optional[PathLike]) -> bytes:
        if path is None:
            raise DatasetError("repro-json loader requires a file path")
        try:
            return Path(path).read_bytes()
        except OSError as exc:
            raise DatasetError(f"cannot read network snapshot {path}: {exc}") from exc
