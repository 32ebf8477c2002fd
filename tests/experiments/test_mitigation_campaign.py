"""Tests for the closed-loop mitigation sweep and its campaign wiring.

Includes the PR's acceptance gates: the sweep runs the closed loop over
multiple scenario families, reduces residual congestion versus the no-op
control arm, and is bit-identical across serial and process-sharded
runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import TINY
from repro.experiments.mitigation import (
    DEFAULT_SCENARIOS,
    ESTIMATOR_ORDER,
    merge_mitigation,
    mitigation_specs,
    mitigation_trial,
    run_mitigation,
)
from repro.mitigation.policies import policy_names
from repro.runner import run_trials
from repro.runner.campaign import CAMPAIGNS, CampaignSpec, run_campaign


def test_specs_cover_full_grid():
    specs = mitigation_specs(TINY, seed=13)
    cells = {
        (s.topology, s.scenario, s.params["policy"], s.estimator) for s in specs
    }
    assert len(cells) == len(specs)
    assert {s.topology for s in specs} == {"brite"}
    assert {s.scenario for s in specs} == set(DEFAULT_SCENARIOS)
    assert {s.estimator for s in specs} == set(ESTIMATOR_ORDER)
    assert {s.params["policy"] for s in specs} == set(policy_names())
    # Pre-experiment sharing needs every cell of a (topology, scenario)
    # block on the same shard: the group key pins that.
    for spec in specs:
        assert spec.group == (13, spec.topology, spec.scenario)
        assert spec.index == specs.index(spec)


def test_specs_reject_unknown_names():
    with pytest.raises(ValueError, match="[Uu]nknown estimator"):
        mitigation_specs(TINY, 13, estimators=["Magic"])
    with pytest.raises(ValueError, match="unknown mitigation policy"):
        mitigation_specs(TINY, 13, policies=["warp-drive"])
    with pytest.raises(Exception, match="unknown scenario"):
        mitigation_specs(TINY, 13, scenarios=["sharknado"])
    with pytest.raises(Exception, match="unknown dataset"):
        mitigation_specs(TINY, 13, datasets=["atlantis"])


def test_specs_reject_empty_sweep():
    # no_independence needs correlated groups; caida-asrel has none.
    with pytest.raises(ValueError, match="empty"):
        mitigation_specs(
            TINY, 13, datasets=["caida-asrel"], scenarios=["no_independence"]
        )


def test_trial_and_merge_single_cell_block():
    specs = mitigation_specs(
        TINY, seed=13, scenarios=["random"], estimators=["Independence"]
    )
    assert len(specs) == len(policy_names())
    merged = merge_mitigation(run_trials(mitigation_trial, specs, workers=1))
    assert merged.topologies() == ["brite"]
    assert merged.scenarios() == ["random"]
    assert merged.policies() == policy_names()
    noop = merged.rows[("brite", "random", "noop", "Independence")]
    assert noop["reduction"] == 0.0
    assert noop["paths_disturbed"] == 0
    table = merged.to_table("brite", "random")
    assert "noop" in table and "corropt-greedy" in table


def test_sweep_reduces_residual_congestion_vs_noop():
    """Acceptance: on every scenario family the closed loop beats no-op."""
    result = run_mitigation(
        TINY,
        seed=13,
        scenarios=["random", "gravity", "cascade"],
        estimators=["Independence"],
        workers=1,
    )
    assert result.scenarios() == ["cascade", "gravity", "random"]
    for scenario in result.scenarios():
        # The control arm reproduces the pre state exactly in every family.
        control = result.rows[("brite", scenario, "noop", "Independence")]
        assert control["reduction"] == 0.0
        assert control["paths_disturbed"] == 0
        noop = result.residual("brite", scenario, "noop", "Independence")
        best = min(
            result.residual("brite", scenario, policy, "Independence")
            for policy in result.policies()
            if policy != "noop"
        )
        assert best < noop


def test_sweep_bit_identical_across_executors():
    """Acceptance: serial and process shards merge identically."""
    kwargs = dict(
        scale=TINY,
        seed=13,
        scenarios=["random", "gravity"],
        estimators=["Independence"],
    )
    serial = run_mitigation(workers=1, **kwargs)
    sharded = run_mitigation(workers=3, **kwargs)
    assert serial.rows == sharded.rows


def test_campaign_registered():
    definition = CAMPAIGNS["mitigation"]
    assert definition.accepts_filters
    assert definition.accepts_policies
    assert definition.default_seed == 13
    # The only policy-accepting campaign so far.
    others = [d for name, d in CAMPAIGNS.items() if name != "mitigation"]
    assert not any(d.accepts_policies for d in others)


def test_campaign_spec_policy_validation():
    with pytest.raises(ValueError, match="does not accept a policy"):
        CampaignSpec(campaign="figure4", policy="noop")
    with pytest.raises(ValueError, match="unknown mitigation policy"):
        CampaignSpec(campaign="mitigation", policy="warp-drive")
    spec = CampaignSpec(campaign="mitigation", policy="noop,corropt-greedy")
    assert spec.policy == "noop,corropt-greedy"


def test_run_campaign_mitigation_restricted():
    outcome = run_campaign(
        CampaignSpec(
            campaign="mitigation",
            scale="tiny",
            seed=13,
            workers=2,
            scenario="random",
            estimator="Independence",
            policy="noop,corropt-greedy",
        )
    )
    result = outcome.replicates[0].result
    assert result.policies() == ["noop", "corropt-greedy"]
    assert result.estimators() == ["Independence"]
    noop = result.residual("brite", "random", "noop", "Independence")
    acted = result.residual("brite", "random", "corropt-greedy", "Independence")
    assert acted <= noop
    rendered = outcome.replicates[0].rendered
    assert "residual path-congestion rate" in rendered
    summary = outcome.replicates[0].summary
    assert any("corropt-greedy" in key for key in summary["cells"])
    assert outcome.to_json_dict()["policy"] == "noop,corropt-greedy"
