"""Algorithm 1 scaling study (README, "Deviations from the paper").

Section 5.1 argues that naive Probability Computation would need
``2^|P*|`` equations, which "is practically infeasible for any topology with
more than a few tens of paths", while Algorithm 1 "forms the minimum number
of equations needed". Section 4 adds the configurable-resources knob
(subsets of one, two, or three links). This driver measures both claims:
equations formed vs. the naive bound, runtime, and rank/identifiability as
the requested subset size grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentScale, SMALL
from repro.metrics.reporting import format_table
from repro.probability.base import EstimatorConfig
from repro.probability.registry import make_estimator
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network
from repro.util.rng import spawn_seeds
from repro.obs.timer import Timer


@dataclass
class ScalingRow:
    """One sweep point of the Algorithm 1 scaling study."""

    requested_subset_size: int
    num_unknowns: int
    num_equations: int
    rank: int
    num_identifiable: int
    seconds: float
    naive_equations: float


@dataclass
class ScalingResult:
    """All sweep points plus the topology's naive equation bound."""

    rows: List[ScalingRow] = field(default_factory=list)
    num_paths: int = 0

    def to_table(self) -> str:
        """Render the sweep as text."""
        body = [
            [
                row.requested_subset_size,
                row.num_unknowns,
                row.num_equations,
                row.rank,
                row.num_identifiable,
                row.seconds,
                f"2^{self.num_paths}",
            ]
            for row in self.rows
        ]
        return format_table(
            [
                "subset size",
                "unknowns",
                "equations",
                "rank",
                "identifiable",
                "seconds",
                "naive bound",
            ],
            body,
        )


def scaling_specs(
    scale: ExperimentScale,
    seed: int,
    subset_sizes: Optional[List[int]] = None,
) -> List[TrialSpec]:
    """Decompose the sweep into one trial per requested subset size.

    The Brite instance and its No-Independence experiment are simulated
    once here in the parent and shipped to the workers with the specs (the
    observations in their packed uint64 word form), so every sweep point
    fits against the same run — exactly as the serial driver did.
    """
    subset_sizes = subset_sizes or [1, 2, 3]
    seeds = spawn_seeds(seed, 3)
    network = generate_brite_network(scale.brite, seeds[0])
    scenario = build_scenario(
        network,
        ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE),
        seeds[1],
    )
    experiment = run_experiment(
        scenario,
        scale.num_intervals,
        prober=PathProber(num_packets=scale.num_packets),
        random_state=seeds[2],
    )
    return [
        TrialSpec(
            campaign="scaling",
            topology="brite",
            scenario="No Independence",
            estimator=f"subset-size-{size}",
            seeds=(seed,),
            index=index,
            group=(seed, size),
            # Larger requested subsets form more equations.
            cost=float(size),
            params={"experiment": experiment, "subset_size": size},
        )
        for index, size in enumerate(subset_sizes)
    ]


def scaling_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> ScalingRow:
    """Fit one sweep point and report its equation-system statistics."""
    del cache  # the experiment arrives with the spec; nothing to share
    experiment = spec.params["experiment"]
    size = spec.params["subset_size"]
    estimator = make_estimator(
        "Correlation-complete",
        EstimatorConfig(requested_subset_size=size, seed=spec.seeds[0]),
    )
    with Timer() as timer:
        model = estimator.fit(experiment.network, experiment.observations)
    report = model.report  # type: ignore[attr-defined]
    num_paths = experiment.network.num_paths
    return ScalingRow(
        requested_subset_size=size,
        num_unknowns=report.num_unknowns,
        num_equations=report.num_equations,
        rank=report.rank,
        num_identifiable=report.num_identifiable,
        seconds=timer.elapsed,
        naive_equations=float(2) ** min(num_paths, 1023),
    )


def merge_scaling(results: Sequence[TrialResult]) -> ScalingResult:
    """Reassemble sweep rows in subset-size order."""
    result = ScalingResult()
    for trial in results:
        result.rows.append(trial.payload)
    if results:
        result.num_paths = results[0].spec.params["experiment"].network.num_paths
    return result


def run_algorithm1_scaling(
    scale: ExperimentScale = SMALL,
    seed: int = 3,
    subset_sizes: Optional[List[int]] = None,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = "process",
) -> ScalingResult:
    """Sweep Algorithm 1's requested subset size on a Brite instance.

    ``workers`` shards the sweep points across the requested ``executor``
    (``"process"`` / ``"thread"`` / ``"auto"``); the sweep's
    equation-system statistics are bit-identical for any value (the
    per-point ``seconds`` column reports each worker's own wall clock).
    """
    results = run_trials(
        scaling_trial,
        scaling_specs(scale, seed, subset_sizes),
        workers=workers,
        progress=progress,
        executor=executor,
    )
    return merge_scaling(results)
