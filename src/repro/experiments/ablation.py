"""Ablation study of the Correlation-complete solve refinements.

The README's "Deviations from the paper" lists four finite-sample
refinements over the paper's Algorithm 1 listing: precision weighting,
the redundancy pass, the bounded (log g <= 0) solve, and the weak
within-set independence prior. This driver measures each one's
contribution by toggling it off and re-running the No-Independence
scenario on both topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentScale, SMALL
from repro.metrics.probability import evaluate_estimator
from repro.metrics.reporting import format_table
from repro.probability.base import EstimatorConfig, ProbabilityEstimator
from repro.probability.registry import make_estimator
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network
from repro.topology.traceroute import generate_sparse_network
from repro.util.rng import derive_rng, spawn_seeds, stable_hash


def _complete(cfg: EstimatorConfig) -> ProbabilityEstimator:
    return make_estimator("Correlation-complete", cfg)


#: Ablation variants: label -> estimator factory from a base config. The
#: "no redundancy" stage variant is a registered estimator in its own
#: right (:mod:`repro.probability.registry`); the others are config
#: toggles on the paper's algorithm.
VARIANTS: List[Tuple[str, Callable[[EstimatorConfig], ProbabilityEstimator]]] = [
    ("full", _complete),
    ("unweighted", lambda cfg: _complete(replace(cfg, weighted=False))),
    ("no prior", lambda cfg: _complete(replace(cfg, prior_weight=0.0))),
    (
        "no pruning tolerance",
        lambda cfg: _complete(replace(cfg, pruning_tolerance=0.0)),
    ),
    (
        "no redundancy",
        lambda cfg: make_estimator("Correlation-complete (no redundancy)", cfg),
    ),
    (
        "singletons only",
        lambda cfg: _complete(replace(cfg, requested_subset_size=1)),
    ),
]


@dataclass
class AblationResult:
    """Mean absolute per-link error per (variant, topology)."""

    errors: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def to_table(self) -> str:
        """Render the ablation as text (rows = variants)."""
        rows = []
        variants = [label for label, _ in VARIANTS]
        for label in variants:
            rows.append(
                [
                    label,
                    self.errors.get((label, "brite"), float("nan")),
                    self.errors.get((label, "sparse"), float("nan")),
                ]
            )
        return format_table(["Variant", "brite", "sparse"], rows)


def ablation_specs(scale: ExperimentScale, seed: int) -> List[TrialSpec]:
    """Decompose the ablation into (topology, variant) trials.

    The two No-Independence experiments are simulated once *here* in the
    parent (exactly as the serial driver always did) and shipped to the
    workers inside the specs — the observation matrices travel in their
    packed uint64 word form — so every variant fits against the same run.
    """
    seeds = spawn_seeds(seed, 4)
    topologies = {
        "brite": generate_brite_network(scale.brite, seeds[0]),
        "sparse": generate_sparse_network(scale.traceroute, seeds[1]),
    }
    specs: List[TrialSpec] = []
    for topology_name, network in topologies.items():
        scenario = build_scenario(
            network,
            ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE),
            derive_rng(seeds[2], stable_hash(topology_name)),
        )
        experiment = run_experiment(
            scenario,
            scale.num_intervals,
            prober=PathProber(num_packets=scale.num_packets),
            random_state=seeds[3],
        )
        for label, _ in VARIANTS:
            specs.append(
                TrialSpec(
                    campaign="ablation",
                    topology=topology_name,
                    scenario="No Independence",
                    estimator=label,
                    seeds=(seed,),
                    index=len(specs),
                    # Every variant is its own group: the experiment ships
                    # with the spec, so there is no intermediate to share
                    # and each fit can land on any shard.
                    group=(seed, topology_name, label),
                    cost=2.0 if topology_name == "sparse" else 1.0,
                    params={"experiment": experiment},
                )
            )
    return specs


def ablation_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> float:
    """Fit one ablation variant against its pre-simulated experiment."""
    del cache  # the experiment arrives with the spec; nothing to share
    (factory,) = [f for label, f in VARIANTS if label == spec.estimator]
    base = EstimatorConfig(seed=spec.seeds[0])
    metrics = evaluate_estimator(factory(base), spec.params["experiment"])
    return metrics.mean_absolute_error


def merge_ablation(results: Sequence[TrialResult]) -> AblationResult:
    """Fold per-variant errors into an :class:`AblationResult`."""
    result = AblationResult()
    for trial in results:
        result.errors[(trial.spec.estimator, trial.spec.topology)] = (trial.payload)
    return result


def run_ablation(
    scale: ExperimentScale = SMALL,
    seed: int = 5,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = "process",
) -> AblationResult:
    """Toggle each refinement off on the No-Independence scenario.

    ``workers`` shards the variant fits with bit-identical results
    (``1`` = serial, ``None`` = all local CPUs) across the requested
    ``executor`` (``"process"`` / ``"thread"`` / ``"auto"``).
    """
    results = run_trials(
        ablation_trial,
        ablation_specs(scale, seed),
        workers=workers,
        progress=progress,
        executor=executor,
    )
    return merge_ablation(results)
