"""Internet-scale topology study: construction and estimation per size.

ROADMAP item 3 asks for 10k+-node AS graphs, where eager structures
(networkx router graphs, per-path Python tuples, dense equation rows)
would dominate memory. This driver builds one monitored network per size
through the compact path — CSR :class:`~repro.topology.routing.CompactGraph`
adjacency, :class:`~repro.topology.routing.SparseRouteTable` routes,
observed-only unknown admission, entry-run equation storage — fits it with
Correlation-complete, and records wall time, structure bytes, peak traced
allocation, and content digests of the derived routes and the estimates.

Two memory columns, two roles. ``structure_bytes`` is the retained
construction structures (graph, router->AS map, route storage — measured
as a traced-allocation delta inside
:func:`~repro.datasets.base.derive_network_compact`) plus the assembled
equation system's logical storage
(:attr:`~repro.linalg.system.EquationSystem.storage_nbytes`).
``peak_traced_bytes`` is the whole-trial allocation peak, dominated by the
solve transients (the densified unique rows of the QR/NNLS solve).
"""

from __future__ import annotations

import hashlib
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.experiments.config import ExperimentScale, SMALL
from repro.metrics.reporting import format_table
from repro.obs.serve import read_rss_bytes
from repro.obs.timer import Timer
from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.graph import Network
from repro.util.rng import spawn_seeds

#: Node counts per experiment scale. ``paper`` reaches the ROADMAP's
#: 10k-node goal; ``small`` is the CI smoke size.
SIZES_BY_SCALE: Dict[str, List[int]] = {
    "tiny": [200, 500],
    "small": [1000, 2000],
    "paper": [1000, 5000, 10000],
}

#: Simulation horizon of the per-size fit (kept modest: the subject under
#: measurement is topology construction + estimation structure, not T).
NUM_INTERVALS = 100
NUM_PACKETS = 120

#: Only one trial traces allocations at a time: tracemalloc is
#: process-global, so concurrent thread-sharded trials would otherwise
#: pollute each other's peaks.
_TRACE_LOCK = threading.Lock()


@dataclass
class ScalingTopologyRow:
    """One size cell of the scaling study."""

    num_nodes: int
    num_links: int
    num_paths: int
    num_unknowns: int
    num_equations: int
    build_seconds: float
    fit_seconds: float
    construction_bytes: int
    equation_storage_bytes: int
    peak_traced_bytes: int
    rss_bytes: float
    route_digest: str
    estimate_digest: str

    @property
    def structure_bytes(self) -> int:
        """Construction structures + equation storage."""
        return self.construction_bytes + self.equation_storage_bytes


@dataclass
class ScalingTopologyResult:
    """All cells, one per size."""

    rows: List[ScalingTopologyRow] = field(default_factory=list)

    def cell(self, num_nodes: int) -> Optional[ScalingTopologyRow]:
        for row in self.rows:
            if row.num_nodes == num_nodes:
                return row
        return None

    def sizes(self) -> List[int]:
        return sorted({row.num_nodes for row in self.rows})

    def to_table(self) -> str:
        body = [
            [
                row.num_nodes,
                row.num_links,
                row.num_paths,
                row.num_unknowns,
                row.num_equations,
                f"{row.build_seconds:.3f}",
                f"{row.fit_seconds:.3f}",
                f"{row.structure_bytes / 1e6:.2f}",
                f"{row.peak_traced_bytes / 1e6:.2f}",
                f"{row.rss_bytes / 1e6:.1f}",
                row.estimate_digest[:12],
            ]
            for row in sorted(self.rows, key=lambda r: r.num_nodes)
        ]
        return format_table(
            [
                "nodes",
                "links",
                "paths",
                "unknowns",
                "equations",
                "build s",
                "fit s",
                "struct MB",
                "peak MB",
                "rss MB",
                "estimate digest",
            ],
            body,
        )


def _dataset_spec(num_nodes: int, seed: int) -> DatasetSpec:
    """Monitoring deployment per size: bounded probing over a huge graph."""
    return DatasetSpec(
        num_vantage_points=8,
        num_destinations=max(10, min(200, num_nodes // 5)),
        num_paths=250,
        seed=seed,
    )


def _digest_routes(network: Network) -> str:
    """Content digest of the derived links and monitored paths."""
    digest = hashlib.sha256()
    for link in network.links:
        digest.update(
            f"L{link.index}:{link.src}:{link.dst}:{link.asn}:"
            f"{sorted(link.router_links)}\n".encode()
        )
    for path in network.paths:
        digest.update(f"P{path.index}:{path.links}\n".encode())
    return digest.hexdigest()


def _digest_estimates(model: Any) -> str:
    """Content digest of the fitted estimates (exact float bits)."""
    digest = hashlib.sha256()
    estimates = model._good
    identifiable = model._identifiable
    for subset in sorted(estimates, key=sorted):
        key = ",".join(str(link) for link in sorted(subset))
        digest.update(
            f"{key}={float(estimates[subset]).hex()}"
            f":{bool(identifiable[subset])}\n".encode()
        )
    return digest.hexdigest()


def scaling_topology_specs(
    scale: ExperimentScale,
    seed: int,
    sizes: Optional[List[int]] = None,
) -> List[TrialSpec]:
    """One trial per size."""
    sizes = sizes or SIZES_BY_SCALE.get(scale.name, SIZES_BY_SCALE["small"])
    return [
        TrialSpec(
            campaign="scaling-topology",
            topology=f"powerlaw-{size}",
            scenario="Random",
            estimator="Correlation-complete",
            seeds=(seed,),
            index=index,
            group=(seed, size),
            cost=float(size),
            params={"num_nodes": size},
        )
        for index, size in enumerate(sizes)
    ]


def scaling_topology_trial(
    spec: TrialSpec, cache: Dict[Any, Any]
) -> ScalingTopologyRow:
    """Build + fit one size cell under allocation tracing."""
    del cache  # every cell is self-contained; nothing to share
    num_nodes = int(spec.params["num_nodes"])
    seed = spec.seeds[0]
    seeds = spawn_seeds(seed, 3)
    build_stats: Dict[str, int] = {}
    with _TRACE_LOCK:
        tracemalloc.start()
        try:
            with Timer() as build_timer:
                src, dst = generate_powerlaw_edges(
                    num_nodes, attachment=2, seed=seeds[0]
                )
                network = derive_network_compact(
                    num_nodes,
                    src,
                    dst,
                    _dataset_spec(num_nodes, seeds[0]),
                    f"powerlaw-{num_nodes}",
                    stats=build_stats,
                )
            with Timer() as fit_timer:
                # RANDOM placement: a pure AS-level graph has no shared
                # router-level edges (every vertex is one AS), so the
                # No-Independence scenario cannot place correlated groups.
                scenario = build_scenario(
                    network,
                    ScenarioConfig(kind=ScenarioKind.RANDOM),
                    seeds[1],
                )
                experiment = run_experiment(
                    scenario,
                    NUM_INTERVALS,
                    prober=PathProber(num_packets=NUM_PACKETS),
                    random_state=seeds[2],
                )
                estimator = make_estimator(
                    "Correlation-complete",
                    EstimatorConfig(
                        # Observed-only admission (the lazily-discovered
                        # unknown policy).
                        requested_subset_size=1,
                        seed=seed,
                    ),
                )
                model = estimator.fit(network, experiment.observations)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    report = model.report  # type: ignore[attr-defined]
    return ScalingTopologyRow(
        num_nodes=num_nodes,
        num_links=network.num_links,
        num_paths=network.num_paths,
        num_unknowns=report.num_unknowns,
        num_equations=report.num_equations,
        build_seconds=build_timer.elapsed,
        fit_seconds=fit_timer.elapsed,
        construction_bytes=int(build_stats.get("construction_bytes", 0)),
        equation_storage_bytes=int(report.equation_storage_bytes),
        peak_traced_bytes=int(peak),
        rss_bytes=read_rss_bytes(),
        route_digest=_digest_routes(network),
        estimate_digest=_digest_estimates(model),
    )


def merge_scaling_topology(
    results: Sequence[TrialResult],
) -> ScalingTopologyResult:
    """Collect cells in size order."""
    result = ScalingTopologyResult()
    for trial in results:
        result.rows.append(trial.payload)
    result.rows.sort(key=lambda row: row.num_nodes)
    return result


def run_scaling_topology(
    scale: ExperimentScale = SMALL,
    seed: int = 17,
    sizes: Optional[List[int]] = None,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
) -> ScalingTopologyResult:
    """Sweep construction and estimation across sizes."""
    results = run_trials(
        scaling_topology_trial,
        scaling_topology_specs(scale, seed, sizes),
        workers=workers,
        progress=progress,
    )
    return merge_scaling_topology(results)
