"""The ledger's four workloads.

A workload measures a fixed *corpus* of input units, visited in order and
in repeated laps until the run's time is up. A unit's networks, congestion
scenarios and estimator seeds come from the corpus, so runs on different
seeds measure the same problems; the run seed draws what is observed of
them (link-state samples and probe noise), anew on every lap. Building a
unit is the workload's set-up; an operation is one call into the
program's public API, and only operations are timed as the workload's
latency and throughput.

Every visit builds its unit afresh, so module-level memos in the program,
keyed on the objects a unit owns (observation sets, networks), never hand
one visit's work to another. The corpus, rather than the seed, fixes the
problems because their cost differs by an order of magnitude from one
network to the next while observation noise moves it by a few percent.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.experiments.config import PAPER, SMALL, TINY
from repro.experiments.mitigation import DEFAULT_SCENARIOS, mitigation_specs
from repro.metrics.probability import absolute_errors
from repro.mitigation.evaluate import run_closed_loop
from repro.mitigation.policies import get_policy, policy_names
from repro.obs import span
from repro.probability.base import EstimatorConfig
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import make_estimator, paper_estimator_names
from repro.simulation.experiment import ExperimentResult, run_experiment
from repro.simulation.library import get_scenario
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.topology.brite import generate_brite_network
from repro.topology.traceroute import generate_sparse_network
from repro.util.rng import derive_rng, stable_hash

#: Root of every workload's corpus (the paper's year).
CORPUS_SEED = 2011

#: Values recorded per corpus position: (unit position, operation index).
PerPosition = Dict[Hashable, List[float]]


def per_position() -> PerPosition:
    """A dataclass field holding a :data:`PerPosition` mapping."""
    return field(default_factory=lambda: defaultdict(list))


def position_means(values: PerPosition) -> List[float]:
    """The mean of each position's values.

    Runs end part-way through a lap, so positions early in the corpus are
    visited once more than late ones; averaging per position first weighs
    every corpus position once, wherever the run stopped.
    """
    return [float(np.mean(v)) for v in values.values() if v]


def _seeds(key: Tuple[int, ...], count: int) -> List[int]:
    state = np.random.SeedSequence(key).generate_state(count)
    return [int(value) for value in state]


def corpus_seeds(workload: str, position: int, count: int) -> List[int]:
    """Seeds of corpus unit ``position``: the same in every run."""
    return _seeds((CORPUS_SEED, stable_hash(workload), position), count)


def run_seed(seed: int, lap: int, position: int) -> int:
    """The seed of one visit to a corpus unit: it changes with the run seed."""
    return _seeds((seed, lap, position), 1)[0]


def simulate(scenario, num_intervals: int, num_packets: int, seed) -> ExperimentResult:
    """``run_experiment`` under the span the ledger attributes it to."""
    with span("simulation.run_experiment"):
        return run_experiment(
            scenario,
            num_intervals,
            prober=PathProber(num_packets=num_packets),
            random_state=seed,
        )


@dataclass
class Step:
    """What one operation counted.

    ``work`` is in the workload's unit of work (fits, intervals,
    deployments or cells). ``ops`` is the number of latency samples the
    call contributes: a streaming ingest call that completes no window
    adds throughput but no sample.
    """

    work: float
    ops: int = 1
    failed: int = 0


@dataclass
class Op:
    """One operation: a timed call and its untimed accounting."""

    run: Callable[[], object]
    account: Callable[[object], Step]


@dataclass
class Tally:
    """Estimate quality and output checks accumulated over a run.

    ``position`` names the operation being accounted; the measuring loop
    sets it, and quality is kept per position (see :func:`position_means`).
    """

    errors: PerPosition = per_position()
    identifiable: PerPosition = per_position()
    unknowns: PerPosition = per_position()
    problems: List[str] = field(default_factory=list)
    position: Optional[Hashable] = None

    def score(self, model, ground_truth, where: str) -> float:
        """Check one fitted model and record its error and identifiability.

        The scored links are the model's potentially congested links (the
        complement of what pruning declared always good), as in the paper's
        Section 5.4 metric.
        """
        marginals = model.link_marginals()
        in_range = np.isfinite(marginals) & (marginals >= 0) & (marginals <= 1)
        self.check(bool(in_range.all()), f"{where}: estimate outside [0, 1]")
        active = sorted(set(range(model.network.num_links)) - model.always_good_links)
        errors = absolute_errors(model, ground_truth, active)
        error = float(errors.mean()) if errors.size else 0.0
        if errors.size:
            self.errors[self.position].append(error)
        self.identifiable[self.position].append(model.report.num_identifiable)
        self.unknowns[self.position].append(model.report.num_unknowns)
        return error

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def link_mae(self) -> float:
        return float(np.mean(position_means(self.errors)))

    def identifiable_fraction(self) -> float:
        identifiable = sum(position_means(self.identifiable))
        return identifiable / sum(position_means(self.unknowns))


class Workload:
    """Interface of a ledger workload (see the module docstring)."""

    name = "abstract"
    #: Units in one lap of the corpus.
    corpus_size = 1
    #: Spans of wrapped program calls that every traced run must open.
    expected_calls: Tuple[str, ...] = ()

    def setup(self, seed: int, position: int, lap: int):
        """Build corpus unit ``position`` for visit ``lap`` of a run."""
        raise NotImplementedError

    def ops(self, unit, tally: Tally) -> Iterator[Op]:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Run-level checks over everything the run completed."""


#: Spans every workload that fits Correlation-complete must open.
ALGORITHM1_CALLS = (
    "pipeline.fit",
    "linalg.null_space_update",
    "probability.sampled_path_combinations",
    "model.union_popcounts",
)

_FIG4_SCENARIOS = (
    ("Random Congestion", ScenarioKind.RANDOM),
    ("Concentrated Congestion", ScenarioKind.CONCENTRATED),
    ("No Independence", ScenarioKind.NO_INDEPENDENCE),
)


class Fig4Grid(Workload):
    """The paper's Fig. 4 grid, one instance per unit.

    A unit is a Brite and a Sparse topology (``small`` scale) with the
    three Fig. 4 scenarios each, No Stationarity layered on top, simulated
    in set-up. The three paper estimators fit every cell against one
    shared workspace, as ``figure4_trial`` does; an operation is one fit.
    """

    name = "fig4-grid"
    expected_calls = ALGORITHM1_CALLS

    def __init__(self, smoke: bool = False) -> None:
        self.scale = TINY if smoke else SMALL
        self.corpus_size = 2 if smoke else 10
        # (topology, estimator) -> errors per position under No Independence.
        self._no_independence: Dict[Tuple[str, str], PerPosition] = defaultdict(
            lambda: defaultdict(list)
        )

    def setup(self, seed: int, position: int, lap: int):
        brite_seed, sparse_seed, scenario_seed, estimator_seed = corpus_seeds(
            self.name, position, 4
        )
        observation_seed = run_seed(seed, lap, position)
        networks = {
            "brite": generate_brite_network(self.scale.brite, brite_seed),
            "sparse": generate_sparse_network(self.scale.traceroute, sparse_seed),
        }
        cells = []
        for topology, network in networks.items():
            for label, kind in _FIG4_SCENARIOS:
                stream = stable_hash((topology, label))
                scenario = build_scenario(
                    network,
                    ScenarioConfig(kind=kind, non_stationary=True),
                    derive_rng(scenario_seed, stream),
                    name=label,
                )
                experiment = simulate(
                    scenario,
                    self.scale.num_intervals,
                    self.scale.num_packets,
                    derive_rng(observation_seed, stream),
                )
                cells.append((topology, label, experiment))
        return position, estimator_seed, cells

    def ops(self, unit, tally: Tally) -> Iterator[Op]:
        position, seed, cells = unit
        for topology, label, experiment in cells:
            workspace = SharedFitWorkspace(experiment.observations)
            for name in paper_estimator_names():
                estimator = make_estimator(name, EstimatorConfig(seed=seed))
                fit = partial(
                    estimator.fit,
                    experiment.network,
                    experiment.observations,
                    workspace=workspace,
                )

                def account(model, name=name, cell=(topology, label, experiment)):
                    topology, label, experiment = cell
                    where = f"{topology}/{label}/{name}"
                    error = tally.score(model, experiment.ground_truth, where)
                    if label == "No Independence":
                        self._no_independence[(topology, name)][position].append(error)
                    return Step(work=1)

                yield Op(fit, account)

    def finish(self, tally: Tally) -> None:
        # Correlation-complete must not lose to Independence under No
        # Independence (the paper's Fig. 4 claim), compared over the corpus
        # positions where both estimators were fitted.
        for topology in ("brite", "sparse"):
            complete = self._no_independence[(topology, "Correlation-complete")]
            independence = self._no_independence[(topology, "Independence")]
            shared = set(complete) & set(independence)
            if not shared:
                continue
            complete_mean = np.mean([np.mean(complete[p]) for p in shared])
            independence_mean = np.mean([np.mean(independence[p]) for p in shared])
            tally.check(
                complete_mean <= independence_mean + 0.01,
                f"{topology}: Correlation-complete error {complete_mean:.4f} exceeds "
                f"Independence {independence_mean:.4f} + 0.01 under No Independence",
            )


class StreamMonitor(Workload):
    """``StreamingEstimator`` with alerting over a live probe stream.

    A unit is one monitored network (the ``paper`` Brite topology under
    No Independence with No Stationarity) and a probe stream simulated
    for it in set-up; a fresh engine ingests the stream a chunk per call.
    Every call is timed for throughput; the calls that complete a window
    are the latency samples.
    """

    name = "stream-monitor"
    expected_calls = ALGORITHM1_CALLS
    chunk = 16

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.scale, self.window, self.stride, self.intervals = TINY, 64, 16, 192
            self.corpus_size = 2
        else:
            self.scale, self.window, self.stride, self.intervals = PAPER, 256, 32, 768
            self.corpus_size = 12

    def setup(self, seed: int, position: int, lap: int):
        network_seed, scenario_seed, estimator_seed = corpus_seeds(
            self.name, position, 3
        )
        network = generate_brite_network(self.scale.brite, network_seed)
        scenario = build_scenario(
            network,
            ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE, non_stationary=True),
            scenario_seed,
        )
        experiment = simulate(
            scenario,
            self.intervals,
            self.scale.num_packets,
            run_seed(seed, lap, position),
        )
        return estimator_seed, experiment, experiment.observations.matrix

    def ops(self, unit, tally: Tally) -> Iterator[Op]:
        seed, experiment, rounds = unit
        network = experiment.network
        engine = StreamingEstimator(
            network,
            make_estimator("Correlation-complete", EstimatorConfig(seed=seed)),
            window=self.window,
            stride=self.stride,
            alert_manager=AlertManager(network, AlertPolicy()),
        )
        for start in range(0, rounds.shape[0], self.chunk):
            chunk = rounds[start : start + self.chunk]
            skipped_before = engine.skipped_windows

            def run(chunk=chunk):
                with span("streaming.ingest"):
                    return engine.ingest(chunk)

            def account(emitted, size=chunk.shape[0], skipped_before=skipped_before):
                for window in emitted:
                    tally.check(
                        window.stop - window.start == self.window,
                        f"window [{window.start}, {window.stop}) is not "
                        f"{self.window} long",
                    )
                    where = f"window {window.start}"
                    tally.score(window.model, experiment.ground_truth, where)
                ingested = engine.intervals_ingested
                due = max(0, (ingested - self.window) // self.stride + 1)
                tally.check(
                    engine.refits + engine.skipped_windows == due,
                    f"{engine.refits} refits + {engine.skipped_windows} skipped "
                    f"windows after {ingested} intervals, expected {due}",
                )
                skipped = engine.skipped_windows - skipped_before
                return Step(work=size, ops=len(emitted) + skipped, failed=skipped)

            yield Op(run, account)


def _estimator_config(**kwargs) -> EstimatorConfig:
    """``EstimatorConfig`` with the sparse storage switch where it still exists."""
    if "sparse" in {item.name for item in fields(EstimatorConfig)}:
        kwargs["sparse"] = True
    return EstimatorConfig(**kwargs)


class AsLevel10k(Workload):
    """A monitoring deployment over a 10k-node power-law AS graph.

    A unit is one graph, built in set-up, and one deployment on it, which
    is the operation: derive the monitored network, simulate, and fit
    Correlation-complete over individual links.
    """

    name = "aslevel-10k"
    expected_calls = ALGORITHM1_CALLS
    packets = 120

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.nodes, self.intervals, self.corpus_size = 1000, 60, 2
            self.spec = dict(num_vantage_points=4, num_destinations=40, num_paths=60)
        else:
            self.nodes, self.intervals, self.corpus_size = 10_000, 800, 8
            self.spec = dict(
                num_vantage_points=10, num_destinations=250, num_paths=300
            )

    def setup(self, seed: int, position: int, lap: int):
        graph_seed, *seeds = corpus_seeds(self.name, position, 4)
        src, dst = generate_powerlaw_edges(self.nodes, attachment=2, seed=graph_seed)
        return src, dst, (*seeds, run_seed(seed, lap, position))

    def ops(self, unit, tally: Tally) -> Iterator[Op]:
        src, dst, (derive_seed, scenario_seed, estimator_seed, observation_seed) = unit

        def run():
            with span("topology.derive_network"):
                network = derive_network_compact(
                    self.nodes,
                    src,
                    dst,
                    DatasetSpec(seed=derive_seed, **self.spec),
                    f"powerlaw-{self.nodes}",
                )
            # Random placement: every vertex is its own AS, so there are no
            # shared router-level links to correlate.
            scenario = build_scenario(
                network, ScenarioConfig(kind=ScenarioKind.RANDOM), scenario_seed
            )
            experiment = simulate(
                scenario, self.intervals, self.packets, observation_seed
            )
            estimator = make_estimator(
                "Correlation-complete",
                _estimator_config(requested_subset_size=1, seed=estimator_seed),
            )
            return experiment, estimator.fit(network, experiment.observations)

        def account(result):
            experiment, model = result
            tally.score(model, experiment.ground_truth, f"deployment {derive_seed}")
            return Step(work=1)

        yield Op(run, account)


class MitigationLoop(Workload):
    """Closed-loop mitigation cells: estimate, plan, reroute, re-simulate.

    A unit is one routing-diverse Brite substrate (``small`` scale) with
    one of the default mitigation scenarios, cycled by corpus position,
    and its pre-mitigation experiment. An operation is one cell,
    (estimator, policy), run through ``run_closed_loop``; as in the
    mitigation sweep, an estimator's pre-mitigation model is fitted in its
    first cell and shared by the other policies. Correlation-complete is
    left out, so this workload barely touches Algorithm 1.
    """

    name = "mitigation-loop"
    expected_calls = (
        "pipeline.fit",
        "probability.sampled_path_combinations",
        "model.union_popcounts",
        "simulation.run_experiment",
        "mitigation.score",
    )
    estimators = ("Independence", "Correlation-heuristic")

    def __init__(self, smoke: bool = False) -> None:
        self.scale = TINY if smoke else SMALL
        self.corpus_size = len(DEFAULT_SCENARIOS) * (1 if smoke else 2)

    def setup(self, seed: int, position: int, lap: int):
        substrate_seed, scenario_seed, estimator_seed = corpus_seeds(
            self.name, position, 3
        )
        name = DEFAULT_SCENARIOS[position % len(DEFAULT_SCENARIOS)]
        specs = mitigation_specs(
            self.scale, substrate_seed, scenarios=[name], estimators=self.estimators
        )
        scenario = get_scenario(name).build(specs[0].params["network"], scenario_seed)
        cell_seed = run_seed(seed, lap, position) % (2**31 - 1)
        pre = simulate(
            scenario, self.scale.num_intervals, self.scale.num_packets, cell_seed
        )
        return estimator_seed, scenario, cell_seed, pre

    def ops(self, unit, tally: Tally) -> Iterator[Op]:
        seed, scenario, cell_seed, pre = unit
        workspace = SharedFitWorkspace(pre.observations)
        prober = PathProber(num_packets=self.scale.num_packets)
        for name in self.estimators:
            estimator = make_estimator(name, EstimatorConfig(seed=seed))
            where = f"{scenario.name}/{name}"
            pre_model: list = []
            reports: dict = {}
            for policy in policy_names():

                def run(estimator=estimator, policy=policy, pre_model=pre_model):
                    if not pre_model:
                        model = estimator.fit(
                            pre.network, pre.observations, workspace=workspace
                        )
                        pre_model.append(model)
                    return run_closed_loop(
                        scenario,
                        estimator,
                        get_policy(policy),
                        self.scale.num_intervals,
                        seed=cell_seed,
                        prober=prober,
                        pre_experiment=pre,
                        pre_model=pre_model[0],
                    )

                def account(
                    report, policy=policy, where=where, fitted=pre_model, group=reports
                ):
                    if not group:
                        tally.score(fitted[0], pre.ground_truth, where)
                    group[policy] = report
                    if len(group) == len(policy_names()):
                        self._check_cells(tally, where, group)
                    return Step(work=1)

                yield Op(run, account)

    @staticmethod
    def _check_cells(tally: Tally, where: str, reports: dict) -> None:
        noop = reports["noop"]
        tally.check(
            noop.reduction == 0.0 and noop.paths_disturbed == 0,
            f"{where}: noop changed the network",
        )
        best = min(r.post_congestion_rate for p, r in reports.items() if p != "noop")
        tally.check(
            best <= noop.post_congestion_rate,
            f"{where}: every policy left more congestion than noop",
        )


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (Fig4Grid, StreamMonitor, AsLevel10k, MitigationLoop)
}
