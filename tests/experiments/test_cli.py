"""CLI smoke tests: every subcommand through ``main(argv)`` at SMALL scale.

These guard the wiring (argument parsing, driver dispatch, table
rendering) so a CLI regression fails tier-1; the numbers themselves are
covered by the driver tests.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "repro-tomography" in capsys.readouterr().out


def test_no_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_figure3(capsys):
    assert main(["figure3", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3(a)" in out
    assert "Figure 3(b)" in out
    assert "Sparse Topology" in out


def test_figure4(capsys):
    assert main(["figure4", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    for panel in ("4(a)", "4(b)", "4(c)", "4(d)"):
        assert panel in out
    assert "Correlation-complete" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "Sparsity" in out


def test_scaling_parallel(capsys):
    assert main(["scaling", "--scale", "small", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "Algorithm 1 scaling" in out
    assert "naive bound" in out


def test_ablation(capsys):
    assert main(["ablation", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "ablation" in out
    assert "no redundancy" in out


def test_monitor(capsys, tmp_path):
    checkpoint = tmp_path / "engine.json"
    assert (
        main(
            [
                "monitor",
                "--scale",
                "small",
                "--intervals",
                "48",
                "--window",
                "32",
                "--chunk",
                "16",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "monitoring" in out
    assert "refits" in out
    assert checkpoint.exists()


def test_campaign_by_name(capsys, tmp_path):
    assert (
        main(
            [
                "campaign",
                "scaling",
                "--workers",
                "2",
                "--output",
                str(tmp_path / "results"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "campaign scaling" in out
    assert "shard" in out
    assert "results written to" in out
    written = list((tmp_path / "results").glob("*.json"))
    assert len(written) == 1
    assert json.loads(written[0].read_text())["campaign"] == "scaling"


def test_campaign_from_json_spec(capsys, tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(
        json.dumps({"campaign": "scaling", "scale": "small", "seed": 7, "workers": 2})
    )
    assert main(["campaign", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "== seed 7 ==" in out
    assert "naive bound" in out


def test_campaign_unknown_name():
    with pytest.raises(SystemExit, match="unknown campaign"):
        main(["campaign", "figure9"])


def test_campaign_list(capsys):
    assert main(["campaign", "--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "figure3",
        "figure4",
        "scaling",
        "ablation",
        "realworld",
        "mitigation",
    ):
        assert name in out


def test_campaign_without_target_or_list():
    with pytest.raises(SystemExit, match="--list"):
        main(["campaign"])


def test_campaign_realworld_with_filters(capsys):
    assert (
        main(
            [
                "campaign",
                "realworld",
                "--scale",
                "tiny",
                "--oracle",
                "--dataset",
                "saved-peering",
                "--scenario",
                "gravity",
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "saved-peering" in out
    assert "gravity" in out
    assert "Correlation-complete" in out


def test_campaign_realworld_with_estimator_filter(capsys):
    assert (
        main(
            [
                "campaign",
                "realworld",
                "--scale",
                "tiny",
                "--oracle",
                "--dataset",
                "saved-peering",
                "--scenario",
                "gravity",
                # Alias resolution: canonicalised through the registry.
                "--estimator",
                "independence",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Independence" in out
    # One dataset x one scenario x one estimator = a single trial.
    assert "1 trial(s)" in out


def test_campaign_filters_rejected_for_figure_sweeps():
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "figure4", "--dataset", "abilene"])
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "figure4", "--estimator", "independence"])
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "realworld", "--estimator", "bogus"])


def test_datasets_list(capsys):
    assert main(["datasets", "list"]) == 0
    out = capsys.readouterr().out
    assert "abilene" in out
    assert "caida-asrel" in out
    assert "(generated)" in out


def test_datasets_info(capsys):
    assert main(["datasets", "info", "abilene"]) == 0
    out = capsys.readouterr().out
    assert "gml" in out
    assert "num_links" in out


def test_datasets_info_unknown_name():
    with pytest.raises(SystemExit, match="unknown dataset"):
        main(["datasets", "info", "atlantis"])


def test_datasets_validate(capsys):
    assert main(["datasets", "validate"]) == 0
    out = capsys.readouterr().out
    assert "all datasets load" in out
    assert "FAIL" not in out


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("diurnal", "gravity", "cascade", "flash_crowd", "maintenance"):
        assert name in out


def test_scenarios_info(capsys):
    assert main(["scenarios", "info", "maintenance"]) == 0
    out = capsys.readouterr().out
    assert "maintenance_marginal" in out


def test_estimators_list(capsys):
    assert main(["estimators", "list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "Independence",
        "Correlation-heuristic",
        "Correlation-complete",
        "Correlation-complete (no redundancy)",
    ):
        assert name in out
    assert "paper legend order" in out


def test_estimators_info(capsys):
    assert main(["estimators", "info", "complete"]) == 0
    out = capsys.readouterr().out
    assert "Correlation-complete" in out
    assert "prune -> frequency -> discover -> assemble -> solve -> build_model" in out
    assert "cost multiplier" in out


def test_estimators_info_unknown_name():
    with pytest.raises(SystemExit, match="unknown estimator"):
        main(["estimators", "info", "wat"])
    with pytest.raises(SystemExit, match="provide an estimator name"):
        main(["estimators", "info"])


def test_monitor_estimator_flag(capsys):
    assert (
        main(
            [
                "monitor",
                "--scale",
                "tiny",
                "--dataset",
                "abilene",
                "--scenario",
                "diurnal",
                "--estimator",
                "independence",
                "--intervals",
                "48",
                "--window",
                "32",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "estimator Independence" in out


def test_monitor_unknown_estimator_errors():
    with pytest.raises(SystemExit, match="unknown estimator"):
        main(
            [
                "monitor",
                "--scale",
                "tiny",
                "--dataset",
                "abilene",
                "--estimator",
                "bogus",
            ]
        )


def test_monitor_dataset_scenario(capsys):
    assert (
        main(
            [
                "monitor",
                "--scale",
                "tiny",
                "--dataset",
                "abilene",
                "--scenario",
                "diurnal",
                "--intervals",
                "48",
                "--window",
                "32",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "abilene" in out
    assert "diurnal" in out
    assert "refits" in out


def test_monitor_unsupported_scenario_errors():
    # caida-asrel has no correlated link groups; no_stationarity needs them.
    with pytest.raises(SystemExit, match="correlated link groups"):
        main(
            [
                "monitor",
                "--scale",
                "tiny",
                "--dataset",
                "caida-asrel",
                "--scenario",
                "no_stationarity",
            ]
        )


def test_campaign_invalid_overrides_rejected():
    # CLI overrides are re-validated; a zero-replicate sweep must not
    # silently succeed as a no-op.
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "scaling", "--replicates", "0"])
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "scaling", "--workers", "-1"])


def test_policies_list(capsys):
    assert main(["policies", "list"]) == 0
    out = capsys.readouterr().out
    assert "Registered mitigation policies" in out
    for name in ("noop", "ecmp-split", "corropt-greedy"):
        assert name in out


def test_policies_info(capsys):
    assert main(["policies", "info", "corropt-greedy"]) == 0
    out = capsys.readouterr().out
    assert "corropt-greedy:" in out
    assert "min_active_fraction" in out


def test_policies_info_unknown_name():
    with pytest.raises(SystemExit, match="unknown mitigation policy"):
        main(["policies", "info", "warp-drive"])
    with pytest.raises(SystemExit, match="provide a policy name"):
        main(["policies", "info"])


def test_mitigate_smoke(capsys, tmp_path):
    out_dir = tmp_path / "loop"
    assert (
        main(
            [
                "mitigate",
                "--scale",
                "tiny",
                "--output",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "closed loop on" in out
    assert "path congestion:" in out
    assert "paths disturbed:" in out
    plan = json.loads((out_dir / "plan.json").read_text())
    report = json.loads((out_dir / "report.json").read_text())
    assert plan["policy"] == "corropt-greedy"
    assert report["policy"] == "corropt-greedy"
    assert report["estimator"] == "Independence"
    assert report["post_congestion_rate"] <= report["pre_congestion_rate"]


def test_mitigate_unknown_names_error():
    with pytest.raises(SystemExit, match="unknown mitigation policy"):
        main(["mitigate", "--scale", "tiny", "--policy", "warp-drive"])
    with pytest.raises(SystemExit, match="unknown estimator"):
        main(["mitigate", "--scale", "tiny", "--estimator", "bogus"])


def test_mitigate_bad_output_fails_fast(tmp_path):
    clobber = tmp_path / "file.json"
    clobber.write_text("{}")
    # Validation runs before any simulation, so this errors immediately.
    with pytest.raises(SystemExit, match="not a directory"):
        main(["mitigate", "--scale", "tiny", "--output", str(clobber)])


def test_campaign_mitigation_with_policy_filter(capsys):
    assert (
        main(
            [
                "campaign",
                "mitigation",
                "--scale",
                "tiny",
                "--scenario",
                "random",
                "--estimator",
                "Independence",
                "--policy",
                "noop,corropt-greedy",
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "campaign mitigation" in out
    assert "residual path-congestion rate" in out
    assert "corropt-greedy" in out


def test_campaign_policy_rejected_for_non_mitigation():
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "scaling", "--policy", "noop"])
    with pytest.raises(SystemExit, match="invalid campaign options"):
        main(["campaign", "mitigation", "--policy", "warp-drive"])


def test_campaign_bad_output_fails_fast(tmp_path):
    clobber = tmp_path / "occupied"
    clobber.write_text("not a directory")
    # The output dir is validated before the sweep starts, not after.
    with pytest.raises(SystemExit, match="not a directory"):
        main(["campaign", "scaling", "--output", str(clobber)])


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--window", "1", "window must cover at least 2 intervals"),
        ("--stride", "0", "stride must be >= 1"),
        ("--chunk", "0", "chunk_intervals must be >= 1"),
        ("--intervals", "0", "intervals must be >= 1"),
        ("--intervals", "-1", "intervals must be >= 1"),
    ],
)
def test_monitor_bad_geometry_errors(flag, value, message):
    with pytest.raises(SystemExit, match=message):
        main(
            [
                "monitor",
                "--scale",
                "tiny",
                "--dataset",
                "abilene",
                "--scenario",
                "diurnal",
                flag,
                value,
            ]
        )
