"""Tests for named campaigns, JSON sweep specs, and on-disk results."""

from __future__ import annotations

import json
import os

import pytest

from repro.runner.campaign import (
    CAMPAIGNS,
    CampaignSpec,
    load_campaign_spec,
    run_campaign,
    validate_output_dir,
    write_outcome,
)


def test_registry_contents():
    assert set(CAMPAIGNS) == {
        "figure3",
        "figure4",
        "scaling",
        "ablation",
        "realworld",
        "mitigation",
        "scaling-topology",
    }
    for definition in CAMPAIGNS.values():
        assert definition.description


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown campaign"):
        CampaignSpec(campaign="figure9")
    with pytest.raises(ValueError, match="replicates"):
        CampaignSpec(campaign="scaling", replicates=0)
    with pytest.raises(ValueError, match="serve_port"):
        CampaignSpec(campaign="scaling", serve_port=99999)
    with pytest.raises(ValueError, match="serve_port"):
        CampaignSpec(campaign="scaling", serve_port=0)
    assert CampaignSpec(campaign="scaling", serve_port=9109).serve_port == 9109


def test_load_spec(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"campaign": "scaling", "scale": "small", "seed": 9, "workers": 2})
    )
    spec = load_campaign_spec(path)
    assert spec.campaign == "scaling"
    assert spec.seed == 9
    assert spec.workers == 2
    assert spec.replicates == 1


def test_load_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"campaign": "scaling", "bogus": 1}))
    with pytest.raises(ValueError, match="unknown keys"):
        load_campaign_spec(path)


def test_load_spec_requires_campaign(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"scale": "small"}))
    with pytest.raises(ValueError, match="missing 'campaign'"):
        load_campaign_spec(path)


def test_load_spec_rejects_non_object(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(["scaling"]))
    with pytest.raises(ValueError, match="JSON object"):
        load_campaign_spec(path)


def test_load_spec_with_executor(tmp_path):
    """Specs written for the removed thread executor fail the key check."""
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"campaign": "scaling", "workers": 2, "executor": "thread"})
    )
    with pytest.raises(ValueError, match=r"unknown keys \['executor'\]"):
        load_campaign_spec(path)


@pytest.mark.parametrize(
    "content, key",
    [
        (b'{"campaign": "scal', None),
        (b'{"campaign": "scaling", "output": "\xff\xfe"}', None),
        (b'"scaling"', None),
        (b'{"campaign": "scaling", "replicates": "3"}', "replicates"),
        (b'{"campaign": "scaling", "workers": "2"}', "workers"),
        (b'{"campaign": "scaling", "serve_port": "80"}', "serve_port"),
        (b'{"campaign": "scaling", "replicates": true}', "replicates"),
        (b'{"campaign": 7}', "campaign"),
        (b'{"campaign": "scaling", "scale": "huge"}', "huge"),
    ],
    ids=[
        "truncated",
        "non-utf8",
        "non-object",
        "replicates-str",
        "workers-str",
        "serve_port-str",
        "replicates-bool",
        "campaign-int",
        "unknown-scale",
    ],
)
def test_hostile_spec_fails_with_a_message(tmp_path, capsys, content, key):
    """Malformed specs raise ValueError naming the file (and the key), and
    the CLI turns that into a one-line exit instead of a traceback."""
    from repro.cli import main

    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as excinfo:
        load_campaign_spec(path)
    message = str(excinfo.value)
    assert str(path) in message
    if key is not None:
        assert key in message
    with pytest.raises(SystemExit) as exited:
        main(["campaign", str(path)])
    assert str(exited.value) == f"invalid campaign spec: {message}"


@pytest.fixture(scope="module")
def scaling_outcome():
    """A replicated scaling campaign, sharded over two processes."""
    spec = CampaignSpec(campaign="scaling", seed=3, workers=2, replicates=2)
    return run_campaign(spec)


def test_run_campaign_replicates(scaling_outcome):
    outcome = scaling_outcome
    assert len(outcome.replicates) == 2
    assert len(set(outcome.seeds)) == 2
    assert outcome.num_trials == 6
    assert outcome.elapsed > 0.0
    for replicate in outcome.replicates:
        assert "naive bound" in replicate.rendered
        assert len(replicate.summary["rows"]) == 3
        assert replicate.result.num_paths > 0


def test_run_campaign_reports_shards(scaling_outcome):
    reported = [name for report in scaling_outcome.shards for name, _ in report.trials]
    assert len(reported) == 6
    assert all(name.startswith("scaling") for name in reported)


def test_replicates_match_direct_runs(scaling_outcome):
    """Replicate results equal a direct run at the replicate's seed."""
    from repro.experiments.config import SMALL
    from repro.experiments.scaling import run_algorithm1_scaling

    for replicate in scaling_outcome.replicates:
        direct = run_algorithm1_scaling(SMALL, seed=replicate.seed)
        assert [row.num_equations for row in direct.rows] == [
            row.num_equations for row in replicate.result.rows
        ]
        assert [row.rank for row in direct.rows] == [
            row.rank for row in replicate.result.rows
        ]


def test_write_outcome(scaling_outcome, tmp_path):
    path = write_outcome(scaling_outcome, tmp_path / "results")
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["campaign"] == "scaling"
    assert payload["num_trials"] == 6
    assert len(payload["replicates"]) == 2
    assert payload["shards"]
    for shard in payload["shards"]:
        assert shard["trials"]
        assert shard["elapsed_s"] >= 0.0


def test_validate_output_dir_creates_nested_path(tmp_path):
    target = tmp_path / "a" / "b" / "results"
    assert validate_output_dir(target) == target
    assert target.is_dir()
    # Idempotent on an existing directory.
    assert validate_output_dir(target) == target


def test_validate_output_dir_rejects_file(tmp_path):
    clobber = tmp_path / "occupied"
    clobber.write_text("{}")
    with pytest.raises(ValueError, match="not a directory"):
        validate_output_dir(clobber)
    # A parent that is a file blocks creation, too.
    with pytest.raises(ValueError, match="cannot create"):
        validate_output_dir(clobber / "nested")


def test_validate_output_dir_rejects_unwritable(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root bypasses permission bits")
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        with pytest.raises(ValueError, match="not writable"):
            validate_output_dir(locked)
    finally:
        locked.chmod(0o700)
