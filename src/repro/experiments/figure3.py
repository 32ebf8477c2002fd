"""Figure 3: Boolean-inference performance across the five scenarios.

For each scenario (Random / Concentrated / No-Independence /
No-Stationarity congestion on the Brite topology, plus Random congestion on
the Sparse topology) run the three inference algorithms and report
interval-averaged detection and false-positive rates — the bars of
Fig. 3(a) and Fig. 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentScale, SMALL
from repro.inference.base import BooleanInferenceAlgorithm
from repro.inference.bayesian_correlation import BayesianCorrelationInference
from repro.inference.bayesian_independence import BayesianIndependenceInference
from repro.inference.sparsity import SparsityInference
from repro.metrics.boolean import BooleanMetrics, evaluate_inference
from repro.metrics.reporting import format_table
from repro.probability.base import EstimatorConfig
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import ExperimentResult, run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network
from repro.topology.graph import Network
from repro.topology.traceroute import generate_sparse_network
from repro.util.rng import derive_rng, spawn_seeds, stable_hash

#: Scenario labels in the paper's x-axis order.
SCENARIO_ORDER: Tuple[str, ...] = (
    "Random Congestion",
    "Concentrated Congestion",
    "No Independence",
    "No Stationarity",
    "Sparse Topology",
)


def _algorithms(seed: int) -> List[BooleanInferenceAlgorithm]:
    config = EstimatorConfig(seed=seed)
    return [
        SparsityInference(),
        BayesianIndependenceInference(config),
        BayesianCorrelationInference(config, random_state=seed),
    ]


@dataclass
class Figure3Result:
    """Rows of Fig. 3: (scenario, algorithm) -> detection / false positives."""

    rows: Dict[Tuple[str, str], BooleanMetrics] = field(default_factory=dict)
    topology_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def detection(self, scenario: str, algorithm: str) -> float:
        """Detection rate for one bar of Fig. 3(a)."""
        return self.rows[(scenario, algorithm)].detection_rate

    def false_positives(self, scenario: str, algorithm: str) -> float:
        """False-positive rate for one bar of Fig. 3(b)."""
        return self.rows[(scenario, algorithm)].false_positive_rate

    def algorithms(self) -> List[str]:
        """Algorithm names present in the result."""
        return sorted({algorithm for _, algorithm in self.rows})

    def to_table(self, metric: str = "detection") -> str:
        """Render Fig. 3(a) (``detection``) or Fig. 3(b) (``fp``) as text."""
        algorithms = list(ALGORITHM_ORDER)
        rows = []
        for scenario in SCENARIO_ORDER:
            cells: List[object] = [scenario]
            for algorithm in algorithms:
                metrics = self.rows.get((scenario, algorithm))
                if metrics is None:
                    cells.append("-")
                elif metric == "detection":
                    cells.append(metrics.detection_rate)
                else:
                    cells.append(metrics.false_positive_rate)
            rows.append(cells)
        return format_table(["Scenario", *algorithms], rows)


def _scenario_configs() -> List[Tuple[str, str, ScenarioConfig]]:
    """(label, topology, scenario config) in the paper's order."""
    return [
        ("Random Congestion", "brite", ScenarioConfig(kind=ScenarioKind.RANDOM)),
        (
            "Concentrated Congestion",
            "brite",
            ScenarioConfig(kind=ScenarioKind.CONCENTRATED),
        ),
        (
            "No Independence",
            "brite",
            ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE),
        ),
        (
            "No Stationarity",
            "brite",
            ScenarioConfig(kind=ScenarioKind.NO_STATIONARITY),
        ),
        ("Sparse Topology", "sparse", ScenarioConfig(kind=ScenarioKind.RANDOM)),
    ]


#: Algorithm labels in the paper's legend order.
ALGORITHM_ORDER: Tuple[str, ...] = (
    "Sparsity",
    "Bayesian-Independence",
    "Bayesian-Correlation",
)


def figure3_specs(
    scale: ExperimentScale, seed: int, oracle: bool = False
) -> List[TrialSpec]:
    """Decompose the Fig. 3 sweep into independent trial specs.

    One trial per (scenario, algorithm) bar; each trial derives its random
    streams from the spawned master seeds plus the scenario label, never
    from generators shared across cells. The topologies are pure functions
    of the seeds and are built once here and shipped with the specs; the
    workers simulate scenarios and observations themselves.
    """
    seeds = tuple(spawn_seeds(seed, 4))
    topologies: Dict[str, Network] = {
        "brite": generate_brite_network(scale.brite, seeds[0]),
        "sparse": generate_sparse_network(scale.traceroute, seeds[1]),
    }
    stats = {name: dict(net.describe()) for name, net in topologies.items()}
    specs: List[TrialSpec] = []
    for label, topology_name, config in _scenario_configs():
        for algorithm_name in ALGORITHM_ORDER:
            specs.append(
                TrialSpec(
                    campaign="figure3",
                    topology=topology_name,
                    scenario=label,
                    estimator=algorithm_name,
                    seeds=seeds,
                    index=len(specs),
                    group=(seed, label),
                    # The Bayesian algorithms do per-interval inference and
                    # dominate; sparse instances run longer paths.
                    cost=(2.0 if topology_name == "sparse" else 1.0)
                    * (1.0 if algorithm_name == "Sparsity" else 2.0),
                    params={
                        "scale": scale,
                        "seed": seed,
                        "oracle": oracle,
                        "kind": config.kind.value,
                        "network": topologies[topology_name],
                        "topology_stats": stats[topology_name],
                    },
                )
            )
    return specs


def _shared_experiment(
    spec: TrialSpec, cache: Dict[Any, Any], network: Network
) -> ExperimentResult:
    """Simulate (or fetch) the trial's scenario + observation run."""
    key = ("experiment", spec.scenario, spec.seeds, spec.params["oracle"])
    if key not in cache:
        scale: ExperimentScale = spec.params["scale"]
        scenario = build_scenario(
            network,
            ScenarioConfig(kind=ScenarioKind(spec.params["kind"])),
            derive_rng(spec.seeds[2], stable_hash(spec.scenario)),
            name=spec.scenario,
        )
        cache[key] = run_experiment(
            scenario,
            scale.inference_intervals,
            prober=PathProber(num_packets=scale.num_packets),
            random_state=derive_rng(spec.seeds[3], stable_hash(spec.scenario)),
            oracle=spec.params["oracle"],
        )
    return cache[key]


def figure3_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> Dict[str, Any]:
    """Run one Fig. 3 bar: simulate (shared per scenario) and infer."""
    network: Network = spec.params["network"]
    experiment = _shared_experiment(spec, cache, network)
    (algorithm,) = [
        candidate
        for candidate in _algorithms(spec.params["seed"])
        if candidate.name == spec.estimator
    ]
    return evaluate_inference(algorithm, experiment)


def merge_figure3(results: Sequence[TrialResult]) -> Figure3Result:
    """Fold trial payloads into a :class:`Figure3Result` (order-stable)."""
    result = Figure3Result()
    for trial in results:
        spec = trial.spec
        result.rows[(spec.scenario, spec.estimator)] = trial.payload
        result.topology_stats.setdefault(spec.topology, spec.params["topology_stats"])
    return result


def run_figure3(
    scale: ExperimentScale = SMALL,
    seed: int = 1,
    oracle: bool = False,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
) -> Figure3Result:
    """Regenerate Fig. 3.

    Parameters
    ----------
    scale:
        Sizing preset (topology sizes, horizon, probe counts).
    seed:
        Master seed; topologies, scenarios, sampling, and probing all derive
        from it.
    oracle:
        Use noise-free path observations (isolates algorithmic error from
        E2E-monitoring error).
    workers:
        Shard the sweep across this many workers (``1`` = serial in this
        process, ``None`` = all local CPUs); results are bit-identical for
        any value.
    progress:
        Optional per-shard progress callback.
    """
    results = run_trials(
        figure3_trial,
        figure3_specs(scale, seed, oracle),
        workers=workers,
        progress=progress,
    )
    return merge_figure3(results)
