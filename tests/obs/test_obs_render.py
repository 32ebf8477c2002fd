"""Unit tests for trace rendering/validation and metrics exposition."""

from __future__ import annotations

import json

import pytest

from repro import obs


def _span(name, sid, dur, parent=None, t0=0.0, status="ok", attrs=None):
    return {
        "type": "span",
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": 1,
        "t_start": t0,
        "t_end": t0 + dur,
        "dur": dur,
        "status": status,
        "attrs": attrs or {},
    }


# ----------------------------------------------------------------------
# Trace loading and validation
# ----------------------------------------------------------------------
def test_load_events_skips_blanks_and_names_bad_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(_span("a", "1:1", 0.5)) + "\n\n")
    assert len(obs.load_events(path)) == 1
    # The final record is where a killed worker truncates mid-append:
    # report-and-skip instead of failing the whole load.
    path.write_text(json.dumps(_span("a", "1:1", 0.5)) + "\n" + '{"type": "span"\n')
    events, warnings = obs.read_events(path)
    assert len(events) == 1
    assert ":2: skipped truncated trailing record" in warnings[0]
    # Corruption anywhere before the tail still names the line and raises.
    path.write_text('{"bad\n' + json.dumps(_span("a", "1:1", 0.5)) + "\n")
    with pytest.raises(ValueError, match=r":1: invalid JSON"):
        obs.load_events(path)


def test_validate_events_flags_schema_violations():
    good = _span("ok", "1:1", 0.5)
    assert obs.validate_events([good]) == []

    missing = {k: v for k, v in good.items() if k != "dur"}
    (error,) = obs.validate_events([missing])
    assert "missing keys" in error

    errors = obs.validate_events(
        [
            dict(good, type="mystery", id="1:2"),
            dict(good, dur=-1.0, id="1:3"),
            dict(good, status="meh", id="1:4"),
            dict(good, id="1:1"),  # duplicate of the first
            good,
        ]
    )
    assert any("unknown type" in e for e in errors)
    assert any("negative duration" in e for e in errors)
    assert any("status" in e for e in errors)
    assert any("duplicate span id" in e for e in errors)


def test_unknown_parent_is_legal():
    # The parent may live in another process's trace file.
    assert obs.validate_events([_span("w", "2:1", 0.1, parent="1:99")]) == []


# ----------------------------------------------------------------------
# Tree building and aggregation
# ----------------------------------------------------------------------
def _forest():
    return [
        _span("child_b", "1:3", 0.2, parent="1:1", t0=0.6),
        _span("child_a", "1:2", 0.3, parent="1:1", t0=0.1),
        _span("root", "1:1", 1.0, t0=0.0),
        _span("orphan", "2:9", 0.4, parent="9:9", t0=2.0),
    ]


def test_build_tree_orders_children_and_computes_self_time():
    roots = obs.build_tree(_forest())
    assert [r.name for r in roots] == ["root", "orphan"]
    root = roots[0]
    assert [c.name for c in root.children] == ["child_a", "child_b"]
    assert root.self_time == pytest.approx(0.5)
    assert root.total == pytest.approx(1.0)


def test_render_tree_shows_hierarchy_and_error_marker():
    events = _forest() + [
        _span("failed", "1:4", 0.1, parent="1:1", t0=0.9, status="error")
    ]
    text = obs.render_tree(events)
    assert "└─ failed!" in text
    assert text.index("root") < text.index("child_a") < text.index("child_b")
    assert obs.render_tree([]) == "(empty trace)\n"


def test_aggregate_spans_sums_by_name():
    totals = obs.aggregate_spans(_forest())
    assert totals["root"] == {"count": 1, "total_s": 1.0, "self_s": 0.5}
    assert totals["orphan"]["total_s"] == pytest.approx(0.4)
    # Concurrent children can sum past their parent; self time stays >= 0.
    overlapping = obs.aggregate_spans(
        [
            _span("root", "1:1", 1.0),
            _span("child", "1:2", 0.8, parent="1:1"),
            _span("child", "1:3", 0.9, parent="1:1"),
        ]
    )
    assert overlapping["root"]["self_s"] == 0.0


def test_stage_durations_keyed_by_fit_parent():
    events = [
        _span("pipeline.fit", "1:1", 1.0),
        _span("pipeline.solve", "1:2", 0.4, parent="1:1"),
        _span("pipeline.fit", "1:3", 2.0),
        _span("pipeline.solve", "1:4", 0.7, parent="1:3"),
        _span("runner.trial", "1:5", 3.0),
    ]
    durations = obs.stage_durations(events)
    assert durations[("1:1", "solve")] == pytest.approx(0.4)
    assert durations[("1:3", "solve")] == pytest.approx(0.7)
    assert ("1:5", "trial") not in durations


# ----------------------------------------------------------------------
# Prometheus / summary exposition
# ----------------------------------------------------------------------
_EXPO_COUNTER = obs.counter(
    "test_expo_requests_total", "Requests seen.", ["route"]
)
_EXPO_HIST = obs.histogram(
    "test_expo_latency_seconds", "Latency.", buckets=[0.1, 1.0]
)


def _sample_snapshot():
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        _EXPO_COUNTER.inc(3, route='a"b\\c')
        for value in (0.05, 0.5, 0.5, 5.0):
            _EXPO_HIST.observe(value)
    return captured.snapshot()


def test_prometheus_exposition_format():
    text = obs.render_prometheus(_sample_snapshot())
    assert "# HELP test_expo_requests_total Requests seen." in text
    assert "# TYPE test_expo_requests_total counter" in text
    # Label values are escaped.
    assert 'test_expo_requests_total{route="a\\"b\\\\c"} 3' in text
    # Histogram buckets are cumulative, with +Inf covering everything.
    assert 'test_expo_latency_seconds_bucket{le="0.1"} 1' in text
    assert 'test_expo_latency_seconds_bucket{le="1"} 3' in text
    assert 'test_expo_latency_seconds_bucket{le="+Inf"} 4' in text
    assert "test_expo_latency_seconds_count 4" in text
    assert "test_expo_latency_seconds_sum 6.05" in text


def test_prometheus_escapes_hostile_label_values():
    # Quotes, backslashes, and newlines must all be escaped per the text
    # exposition format — an unescaped newline splits the sample line and
    # breaks any scraper parsing the page.
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        _EXPO_COUNTER.inc(route='multi\nline "quoted" back\\slash')
    text = obs.render_prometheus(captured.snapshot())
    assert (
        'route="multi\\nline \\"quoted\\" back\\\\slash"' in text
    )
    sample_lines = [
        line for line in text.splitlines() if "test_expo_requests_total{" in line
    ]
    assert len(sample_lines) == 1  # the newline never split the sample


def test_prometheus_single_bucket_histogram_renders_cumulative():
    hist = obs.histogram(
        "test_expo_single_bucket_seconds", "One bucket.", buckets=[1.0]
    )
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        hist.observe(0.5)
        hist.observe(2.0)  # overflow
    text = obs.render_prometheus(captured.snapshot())
    assert 'test_expo_single_bucket_seconds_bucket{le="1"} 1' in text
    assert 'test_expo_single_bucket_seconds_bucket{le="+Inf"} 2' in text
    assert "test_expo_single_bucket_seconds_count 2" in text


def test_prometheus_lists_every_declared_family_even_at_zero():
    empty = obs.MetricsRegistry().snapshot()
    text = obs.render_prometheus(empty)
    # Families declared by instrumented modules appear with no samples.
    assert "# TYPE test_expo_requests_total counter" in text
    assert "# TYPE repro_pipeline_fits_total counter" in text


def test_summary_renders_quantiles_and_empty_hint():
    summary = obs.render_summary(_sample_snapshot())
    assert "test_expo_requests_total" in summary
    assert "count=4" in summary
    assert "p50=" in summary and "p99=" in summary
    assert "REPRO_OBS" in obs.render_summary(obs.MetricsRegistry().snapshot())


def test_render_json_round_trips():
    snapshot = _sample_snapshot()
    assert json.loads(obs.render_json(snapshot)) == snapshot
