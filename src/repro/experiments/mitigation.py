"""Closed-loop mitigation sweep: (topology x scenario x policy x estimator).

The mitigation analogue of the real-topology sweep: every cell runs the
full estimate → mitigate → re-simulate → re-estimate loop of
:mod:`repro.mitigation.evaluate` and reports the
:class:`~repro.mitigation.evaluate.ClosedLoopReport` scorecard. The
``noop`` policy rides along in every sweep by default, so each cell's
residual congestion has its control arm in the same table.

Decomposition follows the house runner rules: one
:class:`~repro.runner.spec.TrialSpec` per grid cell, the *pre* experiment
and fitted model shared through the shard-local cache across the policies
(and, for the experiment, estimators) of one (topology, scenario) group,
and a pure spec-index merge — so process-sharded runs are bit-identical
to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets.registry import get_dataset, load_dataset
from repro.exceptions import EstimationError, MitigationError
from repro.experiments.config import SMALL, ExperimentScale
from repro.metrics.reporting import format_table
from repro.mitigation.apply import routing_diversity
from repro.mitigation.evaluate import run_closed_loop
from repro.mitigation.policies import get_policy, policy_names
from repro.probability.base import EstimatorConfig
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import (
    get_estimator,
    make_estimator,
    paper_estimator_names,
)
from repro.runner import ProgressFn, TrialResult, TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.library import get_scenario
from repro.simulation.probing import PathProber
from repro.topology.brite import generate_brite_network
from repro.topology.graph import Network
from repro.util.rng import derive_rng, spawn_seeds, stable_hash

#: Scenario families the closed loop sweeps by default: three stationary
#: placement regimes plus the cascade correlated-failure family.
DEFAULT_SCENARIOS: Tuple[str, ...] = ("random", "concentrated", "gravity", "cascade")

#: Estimator labels in the paper's legend order (from the registry).
ESTIMATOR_ORDER: Tuple[str, ...] = paper_estimator_names()

#: Minimum fraction of monitored paths with an alternate route for a
#: generated substrate to be accepted (see :func:`_diverse_brite_network`).
DIVERSITY_FLOOR = 0.3

#: Substrate candidates examined before settling for the most diverse.
DIVERSITY_ATTEMPTS = 8


def _diverse_brite_network(scale: ExperimentScale, seed: int) -> Network:
    """Generate a Brite substrate with routing diversity, deterministically.

    The AS-level link graph contains exactly the links monitored paths
    traverse, so some generated instances are trees — no path has an
    alternate route and no mitigation policy can act. Candidates are
    drawn from sub-streams of ``seed`` until one clears
    :data:`DIVERSITY_FLOOR` (or the most diverse of
    :data:`DIVERSITY_ATTEMPTS` wins), so the sweep always has mitigation
    headroom and the choice replays identically everywhere.
    """
    best: Optional[Tuple[float, Network]] = None
    for attempt in range(DIVERSITY_ATTEMPTS):
        network = generate_brite_network(scale.brite, derive_rng(seed, attempt))
        score = routing_diversity(network)
        if best is None or score > best[0]:
            best = (score, network)
        if score >= DIVERSITY_FLOOR:
            break
    assert best is not None
    return best[1]


@dataclass
class MitigationResult:
    """The merged sweep: one closed-loop scorecard per grid cell."""

    #: (topology, scenario, policy, estimator) -> ClosedLoopReport JSON dict.
    rows: Dict[Tuple[str, str, str, str], Dict[str, Any]] = field(default_factory=dict)

    def topologies(self) -> List[str]:
        """Topologies contributing at least one cell, sorted."""
        return sorted({topology for topology, _, _, _ in self.rows})

    def scenarios(self) -> List[str]:
        """Scenarios contributing at least one cell, sorted."""
        return sorted({scenario for _, scenario, _, _ in self.rows})

    def policies(self) -> List[str]:
        """Policies contributing at least one cell, registry order."""
        present = {policy for _, _, policy, _ in self.rows}
        ordered = [name for name in policy_names() if name in present]
        return ordered + sorted(present - set(ordered))

    def estimators(self) -> List[str]:
        """Estimators contributing at least one cell, paper legend order."""
        present = {estimator for _, _, _, estimator in self.rows}
        ordered = [name for name in ESTIMATOR_ORDER if name in present]
        return ordered + sorted(present - set(ordered))

    def residual(
        self, topology: str, scenario: str, policy: str, estimator: str
    ) -> float:
        """One cell's post-mitigation true path-congestion rate."""
        return self.rows[(topology, scenario, policy, estimator)][
            "post_congestion_rate"
        ]

    def to_table(self, topology: str, scenario: str) -> str:
        """Render one (topology, scenario) policy x estimator table.

        Cells show ``residual (reduction)`` — the post-mitigation path
        congestion rate and how far below the pre rate it landed.
        """
        rows = []
        for policy in self.policies():
            cells: List[object] = [policy]
            for estimator in self.estimators():
                report = self.rows.get((topology, scenario, policy, estimator))
                if report is None:
                    cells.append("-")
                else:
                    cells.append(
                        f"{report['post_congestion_rate']:.4f} "
                        f"({report['reduction']:+.4f})"
                    )
            rows.append(cells)
        return format_table(["Policy", *self.estimators()], rows)


def mitigation_specs(
    scale: ExperimentScale,
    seed: int,
    oracle: bool = False,
    datasets: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    estimators: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
) -> List[TrialSpec]:
    """Decompose the closed-loop sweep into independent trial specs.

    Without a ``datasets`` filter the sweep runs on the scale's Brite
    topology (generated here, shipped with the specs); with one, each
    named registered dataset becomes a topology. ``scenarios`` /
    ``estimators`` / ``policies`` restrict the other axes (defaults:
    :data:`DEFAULT_SCENARIOS`, the paper estimators, every registered
    policy).

    Raises
    ------
    ValueError
        On unknown names or when the restriction leaves an empty sweep.
    """
    scenario_list = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    estimator_list = list(estimators) if estimators else list(ESTIMATOR_ORDER)
    policy_list = list(policies) if policies else policy_names()
    try:
        estimator_list = [get_estimator(name).name for name in estimator_list]
        for name in policy_list:
            get_policy(name)
    except (EstimationError, MitigationError) as exc:
        raise ValueError(str(exc)) from None
    generators = {name: get_scenario(name) for name in scenario_list}

    seeds = tuple(spawn_seeds(seed, 4))
    networks: Dict[str, Network]
    if datasets:
        for name in datasets:
            get_dataset(name)  # raises on unknown names before any loading
        networks = {name: load_dataset(name) for name in datasets}
    else:
        networks = {"brite": _diverse_brite_network(scale, seeds[1])}

    specs: List[TrialSpec] = []
    for topology, network in networks.items():
        for scenario in scenario_list:
            if not generators[scenario].supports(network):
                continue
            for estimator in estimator_list:
                for policy in policy_list:
                    specs.append(
                        TrialSpec(
                            campaign="mitigation",
                            topology=topology,
                            scenario=scenario,
                            estimator=estimator,
                            seeds=seeds,
                            index=len(specs),
                            group=(seed, topology, scenario),
                            # A cell simulates twice (pre + post) but
                            # shares the pre pieces across its group, so
                            # cost still tracks links x estimator budget.
                            cost=(network.num_links / 32.0)
                            * get_estimator(estimator).cost_multiplier,
                            params={
                                "scale": scale,
                                "seed": seed,
                                "oracle": oracle,
                                "network": network,
                                "policy": policy,
                            },
                        )
                    )
    if not specs:
        raise ValueError(
            "mitigation sweep is empty: no supported (topology, scenario) "
            f"combination among datasets={list(datasets or ['brite'])} "
            f"scenarios={scenario_list}"
        )
    return specs


def _cell_seed(spec: TrialSpec) -> int:
    """The *integer* experiment seed of a sweep cell.

    The closed loop replays the congestion draw on the rewritten topology,
    which needs a seed it can reuse — an int, not a stateful generator —
    so the cell seed is derived as a process-stable integer.
    """
    stream = stable_hash((spec.topology, spec.scenario))
    return int(derive_rng(spec.seeds[3], stream).integers(0, 2**31 - 1))


def _cell_key(kind: str, spec: TrialSpec) -> Tuple[Any, ...]:
    """Shard-cache key of a cell's shared pre-mitigation intermediate."""
    return (kind, spec.topology, spec.scenario, spec.seeds, spec.params["oracle"])


def _shared_pre_experiment(spec: TrialSpec, cache: Dict[Any, Any], network: Network):
    """Simulate (or fetch) the group's shared *pre* experiment."""
    key = _cell_key("pre_experiment", spec)
    if key not in cache:
        scale: ExperimentScale = spec.params["scale"]
        stream = stable_hash((spec.topology, spec.scenario))
        scenario = get_scenario(spec.scenario).build(
            network, derive_rng(spec.seeds[2], stream)
        )
        experiment = run_experiment(
            scenario,
            scale.num_intervals,
            prober=PathProber(num_packets=scale.num_packets),
            random_state=_cell_seed(spec),
            oracle=spec.params["oracle"],
        )
        cache[key] = (scenario, experiment)
    return cache[key]


def _shared_pre_model(spec: TrialSpec, cache: Dict[Any, Any], experiment):
    """Fit (or fetch) the cell's shared pre-mitigation model."""
    key = (*_cell_key("pre_model", spec), spec.estimator)
    if key not in cache:
        workspace_key = _cell_key("workspace", spec)
        if workspace_key not in cache:
            cache[workspace_key] = SharedFitWorkspace(experiment.observations)
        estimator = make_estimator(
            spec.estimator, EstimatorConfig(seed=spec.params["seed"])
        )
        model = estimator.fit(
            experiment.network,
            experiment.observations,
            workspace=cache[workspace_key],
        )
        cache[key] = (estimator, model)
    return cache[key]


def mitigation_trial(spec: TrialSpec, cache: Dict[Any, Any]) -> Dict[str, Any]:
    """Run one closed-loop cell, sharing the pre pieces within the group."""
    network: Network = spec.params["network"]
    scale: ExperimentScale = spec.params["scale"]
    scenario, pre_experiment = _shared_pre_experiment(spec, cache, network)
    estimator, pre_model = _shared_pre_model(spec, cache, pre_experiment)
    report = run_closed_loop(
        scenario,
        estimator,
        get_policy(spec.params["policy"]),
        scale.num_intervals,
        seed=_cell_seed(spec),
        prober=PathProber(num_packets=scale.num_packets),
        oracle=spec.params["oracle"],
        pre_experiment=pre_experiment,
        pre_model=pre_model,
    )
    return {"report": report.to_json_dict()}


def merge_mitigation(results: Sequence[TrialResult]) -> MitigationResult:
    """Fold trial payloads into a :class:`MitigationResult`.

    Pure bookkeeping over spec-index-ordered results, so the merged sweep
    is bit-identical whatever sharding produced them.
    """
    merged = MitigationResult()
    for trial in results:
        spec = trial.spec
        merged.rows[
            (spec.topology, spec.scenario, spec.params["policy"], spec.estimator)
        ] = trial.payload["report"]
    return merged


def run_mitigation(
    scale: ExperimentScale = SMALL,
    seed: int = 13,
    oracle: bool = False,
    datasets: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    estimators: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    workers: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
) -> MitigationResult:
    """Run the closed-loop mitigation sweep end to end."""
    results = run_trials(
        mitigation_trial,
        mitigation_specs(
            scale,
            seed,
            oracle,
            datasets=datasets,
            scenarios=scenarios,
            estimators=estimators,
            policies=policies,
        ),
        workers=workers,
        progress=progress,
    )
    return merge_mitigation(results)
