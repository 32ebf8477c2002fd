"""Unit tests for :mod:`repro.obs.analyze` and tolerant trace loading."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    aggregate_spans,
    critical_paths,
    diff_aggregates,
    diff_traces,
    load_trace,
    read_events,
    render_critical_paths,
    render_diff,
    render_shard_report,
    shard_report,
    top_regressions,
)


def _span(name, sid, dur, parent=None, t0=0.0, **attrs):
    return {
        "type": "span",
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": 1,
        "t_start": t0,
        "t_end": t0 + dur,
        "dur": dur,
        "status": "ok",
        "attrs": attrs,
    }


def _write_trace(tmp_path, events, name="t.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


# ---------------------------------------------------------------------------
# Tolerant loading (satellite: killed worker truncates the last record)
# ---------------------------------------------------------------------------
def test_read_events_skips_truncated_trailing_record(tmp_path):
    path = tmp_path / "t.jsonl"
    good = json.dumps(_span("a", "1:1", 1.0))
    path.write_text(good + "\n" + '{"type": "span", "name": "cut')
    events, warnings = read_events(path)
    assert [e["name"] for e in events] == ["a"]
    assert len(warnings) == 1
    assert "truncated trailing record" in warnings[0]


def test_read_events_rejects_interior_corruption(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        "NOT JSON\n" + json.dumps(_span("a", "1:1", 1.0)) + "\n"
    )
    with pytest.raises(ValueError, match="invalid JSON"):
        read_events(path)


def test_load_trace_returns_events_and_warnings(tmp_path):
    path = _write_trace(tmp_path, [_span("a", "1:1", 1.0)])
    events, warnings = load_trace(path)
    assert [e["name"] for e in events] == ["a"]
    assert warnings == []


# ---------------------------------------------------------------------------
# Critical paths
# ---------------------------------------------------------------------------
def test_critical_paths_follows_dominant_chain(tmp_path):
    events = [
        _span("root", "1:1", 1.0),
        _span("big", "1:2", 0.6, parent="1:1", t0=0.1),
        _span("small", "1:3", 0.2, parent="1:1", t0=0.7),
        _span("leaf", "1:4", 0.5, parent="1:2", t0=0.15),
    ]
    (report,) = critical_paths(events)
    assert report.root == "root"
    assert report.total_s == pytest.approx(1.0)
    assert report.self_s == pytest.approx(0.2)  # 1.0 - 0.6 - 0.2
    assert report.child_s == pytest.approx(0.8)
    assert [step.name for step in report.steps] == ["root", "big", "leaf"]
    assert report.steps[1].fraction == pytest.approx(0.6)
    # Contributors: leaf 0.5 self, root 0.2, small 0.2, big 0.1.
    assert report.contributors[0][0] == "leaf"
    names = {name for name, _s, _c in report.contributors}
    assert names == {"leaf", "root", "small", "big"}


def test_critical_paths_skips_point_events_and_orders_roots():
    events = [
        _span("short", "1:1", 0.2),
        _span("long", "1:2", 2.0, t0=1.0),
        {"type": "event", "name": "marker", "id": "1:9", "pid": 1,
         "t_start": 0.0, "t_end": 0.0, "dur": 0.0, "status": "ok",
         "attrs": {}},
    ]
    reports = critical_paths(events)
    assert [r.root for r in reports] == ["long", "short"]


def test_render_critical_paths_mentions_chain_and_contributors():
    events = [
        _span("root", "1:1", 1.0),
        _span("child", "1:2", 0.6, parent="1:1", t0=0.1),
    ]
    text = render_critical_paths(critical_paths(events))
    assert "critical path:" in text
    assert "child: 600.00ms (60% of root" in text
    assert "top self-time contributors:" in text
    assert render_critical_paths([]) == "(no root spans in trace)\n"


# ---------------------------------------------------------------------------
# Shard utilization
# ---------------------------------------------------------------------------
def _shard_trace():
    return [
        _span("campaign", "1:1", 3.0, t0=0.0),
        _span("runner.shard", "1:2", 2.0, parent="1:1", t0=0.5, shard=0, trials=2),
        _span("runner.trial", "1:3", 0.8, parent="1:2", t0=0.5, index=0),
        _span("runner.trial", "1:4", 1.0, parent="1:2", t0=1.3, index=1),
        _span("runner.shard", "1:5", 2.4, parent="1:1", t0=0.6, shard=1, trials=1),
        _span("runner.trial", "1:6", 2.3, parent="1:5", t0=0.6, index=2),
    ]


def test_shard_report_utilization_and_straggler():
    report = shard_report(_shard_trace())
    assert [s.shard for s in report.shards] == [0, 1]
    first, second = report.shards
    assert first.trials == 2
    assert first.busy_s == pytest.approx(1.8)
    assert first.utilization == pytest.approx(0.9)
    assert first.start_delay_s == pytest.approx(0.5)
    assert first.slowest_trial_index == 1
    assert report.straggler == 1  # ends at 3.0 vs 2.5
    assert report.spread_s == pytest.approx(0.5)


def test_shard_report_empty_without_runner_spans():
    report = shard_report([_span("pipeline.fit", "1:1", 1.0)])
    assert report.shards == []
    assert report.straggler is None
    assert "no runner.shard spans" in render_shard_report(report)


def test_render_shard_report_marks_straggler():
    text = render_shard_report(shard_report(_shard_trace()))
    assert "<-- straggler" in text
    assert "shard end spread:" in text


# ---------------------------------------------------------------------------
# Cross-run diffing
# ---------------------------------------------------------------------------
def test_diff_aggregates_covers_both_sides():
    base = {"a": {"count": 1, "total_s": 1.0, "self_s": 1.0}}
    cur = {"b": {"count": 2, "total_s": 0.5, "self_s": 0.5}}
    deltas = diff_aggregates(base, cur)
    by_name = {d.name: d for d in deltas}
    assert by_name["a"].cur_count == 0
    assert by_name["a"].delta_self_s == pytest.approx(-1.0)
    assert by_name["b"].base_count == 0
    assert by_name["b"].ratio is None  # base self time is zero
    # Ordered by absolute delta: the 1.0s drop before the 0.5s add.
    assert [d.name for d in deltas] == ["a", "b"]


def test_top_regressions_known_only_drops_new_spans():
    one = {"count": 1, "total_s": 1.0, "self_s": 1.0}
    base = {name: dict(one) for name in "abc"}
    cur = {
        "a": {"count": 1, "total_s": 2.0, "self_s": 1.4},
        "b": {"count": 1, "total_s": 2.0, "self_s": 3.0},
        "c": {"count": 1, "total_s": 0.5, "self_s": 0.5},  # improved
        "new": {"count": 1, "total_s": 9.0, "self_s": 9.0},
    }
    deltas = diff_aggregates(base, cur)
    ranked = top_regressions(deltas)
    assert [d.name for d in ranked] == ["b", "a"]
    assert ranked[0].delta_self_s == 2.0
    assert [d.name for d in top_regressions(deltas, limit=1)] == ["b"]
    ranked = top_regressions(deltas, known_only=False)
    assert [d.name for d in ranked] == ["new", "b", "a"]


def test_diff_traces_and_render(tmp_path):
    base = _write_trace(
        tmp_path, [_span("fit", "1:1", 1.0)], name="base.jsonl"
    )
    cur = _write_trace(
        tmp_path,
        [_span("fit", "2:1", 1.5), _span("fit", "2:2", 1.5, t0=2.0)],
        name="cur.jsonl",
    )
    deltas, warnings = diff_traces(base, cur)
    assert warnings == []
    (delta,) = deltas
    assert delta.name == "fit"
    assert delta.base_count == 1 and delta.cur_count == 2
    assert delta.delta_self_s == pytest.approx(2.0)
    text = render_diff(deltas)
    assert "top regressions (self-time growth):" in text
    assert "fit: 1.000s -> 3.000s (+2.000s)" in text
    assert "1 -> 2" in text.replace("   ", " ").replace("  ", " ")


def test_render_diff_handles_no_growth():
    base = {"a": {"count": 1, "total_s": 1.0, "self_s": 1.0}}
    cur = {"a": {"count": 1, "total_s": 0.5, "self_s": 0.5}}
    text = render_diff(diff_aggregates(base, cur))
    assert "no span self-time grew" in text
    assert render_diff([]) == "(no spans on either side)\n"


def test_aggregate_then_diff_round_trip(tmp_path):
    # The aggregation the ledger reports and the diff consume the same
    # shapes end to end.
    events = [
        _span("root", "1:1", 1.0),
        _span("child", "1:2", 0.4, parent="1:1", t0=0.1),
    ]
    agg = aggregate_spans(events)
    deltas = diff_aggregates(agg, agg)
    assert all(d.delta_self_s == 0.0 for d in deltas)
