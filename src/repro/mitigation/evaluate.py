"""Closed-loop evaluation: estimate → mitigate → re-simulate → re-estimate.

The loop the whole package exists for. One iteration:

1. simulate the scenario and fit an estimator on the observations;
2. let a policy propose a plan from the *fitted* model (never the truth);
3. apply the plan, re-run the very same congestion process (same seed,
   same ground truth — rerouting changes paths, not links) on the
   rewritten topology;
4. re-estimate on the post-action observations and score the outcome.

Because the link-state draw is seed-paired, the pre/post comparison is a
paired experiment: the no-op policy reproduces the pre state exactly, and
any residual-congestion drop under a real policy is attributable to the
routing decision, not sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.exceptions import EstimationError
from repro.metrics.probability import absolute_errors, evaluate_estimator
from repro.mitigation.apply import apply_plan
from repro.mitigation.plan import MitigationPlan
from repro.mitigation.policies import MitigationPolicy
from repro.obs import counter, span
from repro.probability.base import ProbabilityEstimator
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import potentially_congested_links
from repro.simulation.experiment import ExperimentResult, run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import Scenario
from repro.topology.graph import Network

#: A true marginal at or below this counts as "was never congestable":
#: targeting such a link is a false mitigation (the model cried wolf).
FALSE_MITIGATION_EPS = 1e-9

_LOOPS_TOTAL = counter(
    "repro_mitigation_closed_loops_total",
    "Closed-loop evaluations completed, by policy.",
    labels=("policy",),
)


def path_congestion_rate(network: Network, link_states: np.ndarray) -> float:
    """Fraction of (interval, path) cells where the path crossed a
    congested link — the paper's path-level congestion signal, used here
    as the residual-congestion measure a mitigation is judged by."""
    states = np.asarray(link_states, dtype=bool)
    return float(network.incidence.path_status(states).mean())


@dataclass(frozen=True)
class ClosedLoopReport:
    """Outcome of one closed-loop iteration.

    Attributes
    ----------
    scenario, policy, estimator:
        Labels of the three grid axes.
    pre_congestion_rate, post_congestion_rate:
        True path-congestion rate before and after acting (paired seeds).
    reduction:
        ``pre - post``; positive means the mitigation helped.
    paths_disturbed, num_paths:
        Routes rewritten vs. routes monitored.
    num_target_links:
        Links the plan steered traffic away from.
    false_mitigation_rate:
        Fraction of target links whose *true* congestion probability is
        (numerically) zero — actions taken on estimator hallucinations.
    pre_fit_error, post_fit_error:
        Mean absolute per-link error of the estimator before and after
        mitigation, over each run's potentially congested links.
    plan:
        The plan's JSON form, persisted next to campaign results.
    """

    scenario: str
    policy: str
    estimator: str
    pre_congestion_rate: float
    post_congestion_rate: float
    reduction: float
    paths_disturbed: int
    num_paths: int
    num_target_links: int
    false_mitigation_rate: float
    pre_fit_error: float
    post_fit_error: float
    plan: Mapping[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "estimator": self.estimator,
            "pre_congestion_rate": self.pre_congestion_rate,
            "post_congestion_rate": self.post_congestion_rate,
            "reduction": self.reduction,
            "paths_disturbed": self.paths_disturbed,
            "num_paths": self.num_paths,
            "num_target_links": self.num_target_links,
            "false_mitigation_rate": self.false_mitigation_rate,
            "pre_fit_error": self.pre_fit_error,
            "post_fit_error": self.post_fit_error,
            "plan": dict(self.plan),
        }


def _fit_error(
    model: CongestionProbabilityModel,
    experiment: ExperimentResult,
    tolerance: float,
) -> float:
    """Mean absolute error over the run's potentially congested links —
    the same scoring :func:`evaluate_estimator` applies, without refitting
    a model we already have."""
    active = sorted(
        potentially_congested_links(
            experiment.network, experiment.observations, tolerance
        )
    )
    errors = absolute_errors(model, experiment.ground_truth, active)
    return float(errors.mean()) if errors.size else 0.0


def run_closed_loop(
    scenario: Scenario,
    estimator: ProbabilityEstimator,
    policy: MitigationPolicy,
    num_intervals: int,
    seed: int,
    prober: Optional[PathProber] = None,
    oracle: bool = False,
    policy_params: Optional[Mapping[str, Any]] = None,
    pre_experiment: Optional[ExperimentResult] = None,
    pre_model: Optional[CongestionProbabilityModel] = None,
    workspace: Optional[SharedFitWorkspace] = None,
) -> ClosedLoopReport:
    """Run one estimate → mitigate → re-simulate → re-estimate iteration.

    ``seed`` must be the integer seed of the *pre* experiment: the post
    experiment re-runs with the same seed so the link-state draw is
    identical (rerouting changes paths, not links) and the comparison is
    paired. The ``pre_experiment`` / ``pre_model`` / ``workspace``
    injection points let campaign shards share the expensive pre pieces
    across the policies of one (scenario, estimator) cell.
    """
    with span(
        "mitigation.closed_loop",
        scenario=scenario.name,
        policy=policy.name,
        estimator=estimator.name,
    ):
        if pre_experiment is None:
            pre_experiment = run_experiment(
                scenario,
                num_intervals,
                prober=prober,
                random_state=seed,
                oracle=oracle,
            )
        if pre_model is None:
            pre_model = estimator.fit(
                pre_experiment.network,
                pre_experiment.observations,
                workspace=workspace,
            )
        plan = policy.propose(
            scenario.network, pre_model, **dict(policy_params or {})
        )
        post_network = apply_plan(scenario.network, plan)
        if plan.is_noop:
            post_experiment = pre_experiment
        else:
            post_scenario = Scenario(
                name=scenario.name,
                network=post_network,
                ground_truth=scenario.ground_truth,
                congestable=scenario.congestable,
            )
            post_experiment = run_experiment(
                post_scenario,
                num_intervals,
                prober=prober,
                random_state=seed,
                oracle=oracle,
            )
        report = score_closed_loop(
            scenario, plan, pre_experiment, pre_model, post_experiment, estimator
        )
    _LOOPS_TOTAL.inc(policy=policy.name)
    return report


def score_closed_loop(
    scenario: Scenario,
    plan: MitigationPlan,
    pre_experiment: ExperimentResult,
    pre_model: CongestionProbabilityModel,
    post_experiment: ExperimentResult,
    estimator: ProbabilityEstimator,
) -> ClosedLoopReport:
    """Score an already-run loop (separated out for tests and replay)."""
    pre_rate = path_congestion_rate(
        pre_experiment.network, pre_experiment.link_states
    )
    if post_experiment is pre_experiment:
        post_rate = pre_rate
    else:
        post_rate = path_congestion_rate(
            post_experiment.network, post_experiment.link_states
        )
    targets = plan.target_links
    if targets:
        false_hits = sum(
            1
            for e in targets
            if scenario.ground_truth.marginal(e) <= FALSE_MITIGATION_EPS
        )
        false_rate = false_hits / len(targets)
    else:
        false_rate = 0.0
    tolerance = estimator.config.pruning_tolerance
    pre_error = _fit_error(pre_model, pre_experiment, tolerance)
    if post_experiment is pre_experiment:
        post_error = pre_error
    else:
        try:
            post_metrics = evaluate_estimator(estimator, post_experiment)
            post_error = post_metrics.mean_absolute_error
        except EstimationError:
            # A successful mitigation drains the congested links, so the
            # post run may leave nothing the estimator can localise: the
            # remaining suspects sit on routes no path traverses any
            # more. Losing visibility of drained links is inherent to
            # acting on the estimate; score the silence as zero error.
            post_error = 0.0
    return ClosedLoopReport(
        scenario=scenario.name,
        policy=plan.policy,
        estimator=estimator.name,
        pre_congestion_rate=pre_rate,
        post_congestion_rate=post_rate,
        reduction=pre_rate - post_rate,
        paths_disturbed=plan.paths_disturbed,
        num_paths=pre_experiment.network.num_paths,
        num_target_links=len(targets),
        false_mitigation_rate=false_rate,
        pre_fit_error=pre_error,
        post_fit_error=post_error,
        plan=plan.to_json_dict(),
    )


@dataclass
class ClosedLoopEvaluator:
    """Reusable closed-loop harness bound to an estimator and a policy.

    The object the CLI's ``mitigate`` subcommand drives; campaigns use
    :func:`run_closed_loop` directly so they can inject shared pre pieces.
    """

    estimator: ProbabilityEstimator
    policy: MitigationPolicy
    num_intervals: int
    prober: Optional[PathProber] = None
    oracle: bool = False
    policy_params: Mapping[str, Any] = field(default_factory=dict)

    def evaluate(self, scenario: Scenario, seed: int) -> ClosedLoopReport:
        """Run the loop on one scenario with a paired seed."""
        return run_closed_loop(
            scenario,
            self.estimator,
            self.policy,
            self.num_intervals,
            seed,
            prober=self.prober,
            oracle=self.oracle,
            policy_params=self.policy_params,
        )
