"""Integration tests: telemetry through pipeline, runner, and streaming.

The load-bearing contracts:

* metric totals are identical whether the shards ran serially or in
  worker processes — shard workers capture into local registries that
  merge deterministically;
* span parent links survive the process boundary, so a campaign's
  trace renders as one tree;
* ``FitReport`` frequency-cache counters are per-fit even when
  concurrent fits share one ``SharedFitWorkspace`` in threads
  (context-local scopes, not global snapshot deltas);
* ``FitReport.stage_seconds`` and the trace's stage spans are the same
  measurement (reconcile within 1ms).
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import obs
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.pipeline import SharedFitWorkspace
from repro.runner import TrialSpec, run_trials
from repro.simulation.experiment import run_experiment
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario

_TRIAL_OPS = obs.counter(
    "test_instr_trial_ops_total", "Deterministic per-trial bumps.", ["kind"]
)
_TRIAL_SIZES = obs.histogram(
    "test_instr_trial_size", "Trial index distribution.", buckets=[1.0, 2.0, 4.0, 8.0]
)


@pytest.fixture(scope="module")
def experiment(small_brite):
    scenario = build_scenario(small_brite, ScenarioConfig(kind=ScenarioKind.RANDOM), 1)
    return run_experiment(scenario, 300, random_state=2, oracle=True)


def _spec(index):
    return TrialSpec(
        campaign="obs",
        topology="t",
        scenario=f"s{index}",
        estimator="e",
        seeds=(42,),
        index=index,
        group=(),
        cost=1.0,
        params={},
    )


def metric_trial(spec, cache):
    """Top-level (picklable) trial emitting deterministic metrics."""
    _TRIAL_OPS.inc(spec.index + 1, kind="even" if spec.index % 2 == 0 else "odd")
    _TRIAL_SIZES.observe(float(spec.index))
    return spec.index


def _own_series(snapshot):
    """Only this module's families (timing metrics are nondeterministic)."""
    return {
        "counters": [
            row for row in snapshot["counters"] if row[0].startswith("test_instr_")
        ],
        "histograms": [
            row for row in snapshot["histograms"] if row[0].startswith("test_instr_")
        ],
    }


# ----------------------------------------------------------------------
# Runner: deterministic merge and cross-process span parenting
# ----------------------------------------------------------------------
def test_metric_totals_identical_across_executors():
    specs = [_spec(i) for i in range(6)]
    merged = {}
    for label, kwargs in {
        "serial": {"workers": 1},
        "process": {"workers": 2},
    }.items():
        with obs.use_mode("metrics"), obs.capture_metrics() as captured:
            results = run_trials(metric_trial, specs, **kwargs)
        assert [r.payload for r in results] == list(range(6))
        merged[label] = _own_series(captured.snapshot())
    assert merged["serial"] == merged["process"]
    counters = dict(
        ((name, tuple(lv)), value) for name, lv, value in merged["serial"]["counters"]
    )
    # 1+3+5 even-indexed bumps, 2+4+6 odd-indexed bumps.
    assert counters[("test_instr_trial_ops_total", ("even",))] == 9
    assert counters[("test_instr_trial_ops_total", ("odd",))] == 12
    ((_, _, payload),) = merged["serial"]["histograms"]
    assert sum(payload["counts"]) == 6


def test_runner_metrics_cover_trials_and_shards():
    specs = [_spec(i) for i in range(4)]
    reports = []
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        run_trials(metric_trial, specs, workers=2, progress=reports.append)
    snapshot = captured.snapshot()
    counters = {name: value for name, _lv, value in snapshot["counters"]}
    assert counters["repro_runner_trials_total"] == 4
    hists = {name for name, _lv, _payload in snapshot["histograms"]}
    assert {"repro_runner_shard_seconds", "repro_runner_merge_seconds"} <= hists
    gauges = {name for name, _lv, _value in snapshot["gauges"]}
    assert "repro_runner_shard_utilization" in gauges
    assert all(report.queue_wait >= 0.0 for report in reports)


def test_span_parents_cross_the_process_boundary(tmp_path):
    path = tmp_path / "t.jsonl"
    specs = [_spec(i) for i in range(4)]
    with obs.use_mode("trace", path):
        with obs.span("driver") as driver:
            run_trials(metric_trial, specs, workers=2)
        obs.flush()
    events = obs.load_events(path)
    assert obs.validate_events(events) == []
    shards = [e for e in events if e["name"] == "runner.shard"]
    trials = [e for e in events if e["name"] == "runner.trial"]
    assert shards and len(trials) == 4
    # Every shard span hangs off the driver span, from a different pid.
    assert {e["parent"] for e in shards} == {driver.span_id}
    assert any(e["pid"] != os.getpid() for e in shards)
    shard_ids = {e["id"] for e in shards}
    assert {e["parent"] for e in trials} <= shard_ids
    # The whole campaign renders as one tree under the driver root.
    roots = obs.build_tree(events)
    assert [root.name for root in roots] == ["driver"]


# ----------------------------------------------------------------------
# Pipeline: per-fit accounting and trace reconciliation
# ----------------------------------------------------------------------
def test_fit_metrics_agree_with_fit_report(small_brite, experiment):
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        model = CorrelationCompleteEstimator(EstimatorConfig(seed=3)).fit(
            small_brite, experiment.observations
        )
    snapshot = captured.snapshot()
    counters = {
        (name, tuple(lv)): value for name, lv, value in snapshot["counters"]
    }
    report = model.report
    assert counters[
        ("repro_pipeline_fits_total", ("Correlation-complete",))
    ] == 1
    assert counters[("repro_frequency_cache_hits_total", ())] == (
        report.frequency_cache_hits
    )
    assert counters[("repro_frequency_cache_misses_total", ())] == (
        report.frequency_cache_misses
    )
    assert any(name == "repro_kernel_calls_total" for name, _ in counters)
    stage_hist = [
        (tuple(lv), payload)
        for name, lv, payload in snapshot["histograms"]
        if name == "repro_pipeline_stage_seconds"
    ]
    observed_stages = {lv[0] for lv, _ in stage_hist}
    assert observed_stages == set(report.stage_seconds)


def test_fit_report_counters_survive_concurrent_shared_cache(
    small_brite, experiment
):
    """Satellite fix: thread-concurrent fits must not cross-count traffic."""
    workspace = SharedFitWorkspace(experiment.observations)
    config = EstimatorConfig(seed=3)
    CorrelationCompleteEstimator(config).fit(
        small_brite, experiment.observations, workspace=workspace
    )
    warm = CorrelationCompleteEstimator(config).fit(
        small_brite, experiment.observations, workspace=workspace
    )
    expected_hits = warm.report.frequency_cache_hits
    assert warm.report.frequency_cache_misses == 0

    reports = {}
    errors = []
    together = threading.Barrier(2)

    def fit_one(tag):
        try:
            together.wait(timeout=60)
            model = CorrelationCompleteEstimator(config).fit(
                small_brite, experiment.observations, workspace=workspace
            )
            reports[tag] = model.report
        except Exception as error:  # surfaced below, not lost in the thread
            errors.append(error)

    threads = [
        threading.Thread(target=fit_one, args=(tag,)) for tag in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    # Both fits must finish: each holds its own equation arena, so neither
    # recycles the other's equations mid-fit.
    assert errors == []
    assert set(reports) == {"a", "b"}
    # Each concurrent fit sees exactly its own (fully warm) traffic; the
    # old global-snapshot deltas would attribute both fits' lookups to
    # whichever report closed last.
    for report in reports.values():
        assert report.frequency_cache_misses == 0
        assert report.frequency_cache_hits == expected_hits


def test_stage_seconds_reconcile_with_trace(small_brite, experiment, tmp_path):
    path = tmp_path / "t.jsonl"
    with obs.use_mode("trace", path):
        model = CorrelationCompleteEstimator(EstimatorConfig(seed=3)).fit(
            small_brite, experiment.observations
        )
        obs.flush()
    events = obs.load_events(path)
    (fit_event,) = [e for e in events if e["name"] == "pipeline.fit"]
    durations = obs.stage_durations(events)
    report = model.report
    for stage, seconds in report.stage_seconds.items():
        assert durations[(fit_event["id"], stage)] == pytest.approx(
            seconds, abs=1e-3
        )
    # Every traced stage under this fit is in the report, and vice versa.
    traced = {
        stage for (parent, stage) in durations if parent == fit_event["id"]
    }
    assert traced == set(report.stage_seconds)
