"""Post-hoc trace analytics: critical paths, shard reports, cross-run diffs.

The analysis layer over the ``telemetry.jsonl`` span traces written by
:mod:`repro.obs.span`. Everything here is offline — it loads a recorded
trace into the span forest of :func:`repro.obs.render.build_tree` and
answers the three operational questions a slow or regressed run raises:

* **Where did the time go?** :func:`critical_paths` decomposes each root
  span into self time vs child time, follows the dominant child chain
  to the bottom of the tree, and names the top self-time contributors
  of the whole subtree.
* **Which shard straggled?** :func:`shard_report` reads the existing
  ``runner.shard`` / ``runner.trial`` spans into per-shard utilization
  rows — wall vs busy time, start delay behind the campaign span, and
  the slowest trial — and names the straggler that bounded the sweep.
* **What regressed vs the last run?** :func:`diff_aggregates` aligns two
  per-span aggregates by name and reports self-time deltas with counts;
  :func:`top_regressions` ranks the growth; ``obs diff`` renders both.

Analysis is post-hoc by design: nothing in this module runs on a hot
path or touches the live registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.render import (
    SpanNode,
    aggregate_spans,
    build_tree,
    read_events,
)

#: Per-span aggregate rows: ``{name: {"count", "total_s", "self_s"}}``.
SpanAggregate = Dict[str, Dict[str, float]]


def load_trace(path: Union[str, Path]) -> Tuple[List[dict], List[str]]:
    """Load a trace tolerantly; returns ``(events, warnings)``.

    Alias of :func:`repro.obs.render.read_events` re-exported here so
    analysis callers get the report-and-skip handling of a truncated
    trailing record without reaching into the render module.
    """
    return read_events(path)


# ---------------------------------------------------------------------------
# Critical-path decomposition
# ---------------------------------------------------------------------------
@dataclass
class CriticalStep:
    """One hop of a root's dominant-child chain."""

    name: str
    total_s: float
    self_s: float
    #: This span's share of the chain root's total duration.
    fraction: float


@dataclass
class CriticalPath:
    """Critical-path decomposition of one root span."""

    root: str
    total_s: float
    self_s: float
    child_s: float
    #: Dominant chain, root first: at every level the child with the
    #: largest total duration.
    steps: List[CriticalStep] = field(default_factory=list)
    #: Largest self-time sinks across the whole subtree, aggregated by
    #: span name: ``(name, self_s, count)``, heaviest first.
    contributors: List[Tuple[str, float, int]] = field(default_factory=list)


def _subtree_self_times(root: SpanNode) -> Dict[str, Tuple[float, int]]:
    totals: Dict[str, Tuple[float, int]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        self_s, count = totals.get(node.name, (0.0, 0))
        totals[node.name] = (self_s + node.self_time, count + 1)
        stack.extend(node.children)
    return totals


def critical_paths(events: Sequence[dict], top: int = 5) -> List[CriticalPath]:
    """Decompose every root span of a trace, longest root first.

    Zero-duration point events are roots too when orphaned; they carry
    no time, so they are skipped. ``top`` bounds both the dominant chain
    length reported and the contributor list.
    """
    reports: List[CriticalPath] = []
    for root in build_tree(events):
        if root.event.get("type") != "span":
            continue
        child_s = sum(child.total for child in root.children)
        contributors = sorted(
            (
                (name, self_s, count)
                for name, (self_s, count) in _subtree_self_times(root).items()
                if self_s > 0.0
            ),
            key=lambda row: (-row[1], row[0]),
        )[:top]
        steps: List[CriticalStep] = []
        node = root
        denominator = root.total or 1.0
        while node is not None and len(steps) < top:
            steps.append(
                CriticalStep(
                    name=node.name,
                    total_s=node.total,
                    self_s=node.self_time,
                    fraction=node.total / denominator,
                )
            )
            node = max(
                node.children, key=lambda child: child.total, default=None
            )
        reports.append(
            CriticalPath(
                root=root.name,
                total_s=root.total,
                self_s=root.self_time,
                child_s=child_s,
                steps=steps,
                contributors=contributors,
            )
        )
    reports.sort(key=lambda report: -report.total_s)
    return reports


def render_critical_paths(reports: Sequence[CriticalPath]) -> str:
    """Human rendering of :func:`critical_paths` output."""
    if not reports:
        return "(no root spans in trace)\n"
    lines: List[str] = []
    for report in reports:
        lines.append(
            f"{report.root}: {report.total_s * 1e3:.2f}ms total "
            f"({report.self_s * 1e3:.2f}ms self, "
            f"{report.child_s * 1e3:.2f}ms in children)"
        )
        lines.append("  critical path:")
        for step in report.steps:
            lines.append(
                f"    {step.name}: {step.total_s * 1e3:.2f}ms "
                f"({step.fraction:.0%} of root, "
                f"{step.self_s * 1e3:.2f}ms self)"
            )
        if report.contributors:
            lines.append("  top self-time contributors:")
            for name, self_s, count in report.contributors:
                lines.append(
                    f"    {name}: {self_s * 1e3:.2f}ms self "
                    f"across {count} span(s)"
                )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Runner shard utilization / straggler attribution
# ---------------------------------------------------------------------------
@dataclass
class ShardStats:
    """Utilization of one ``runner.shard`` span."""

    shard: int
    wall_s: float
    busy_s: float
    utilization: float
    trials: int
    #: Seconds between the owning campaign span opening and this shard
    #: starting — queue wait plus executor spin-up.
    start_delay_s: float
    slowest_trial_index: Optional[int]
    slowest_trial_s: float


@dataclass
class ShardUtilizationReport:
    """Every shard of a trace plus the straggler that bounded the run."""

    shards: List[ShardStats] = field(default_factory=list)
    #: Shard finishing last (wall-clock end), i.e. the sweep's bound.
    straggler: Optional[int] = None
    #: Wall-clock spread between first and last shard end.
    spread_s: float = 0.0


def shard_report(events: Sequence[dict]) -> ShardUtilizationReport:
    """Shard utilization from the existing ``runner.*`` spans.

    Works on any trace that contains ``runner.shard`` spans (campaign
    and sweep runs); returns an empty report otherwise. Start delay is
    measured against the earliest enclosing ``campaign`` span when one
    exists, else against the earliest shard start.
    """
    spans = [e for e in events if e.get("type") == "span"]
    shard_spans = [e for e in spans if e.get("name") == "runner.shard"]
    report = ShardUtilizationReport()
    if not shard_spans:
        return report
    campaign_starts = [
        e["t_start"] for e in spans if e.get("name") == "campaign"
    ]
    epoch = (
        min(campaign_starts)
        if campaign_starts
        else min(e["t_start"] for e in shard_spans)
    )
    trials_by_parent: Dict[str, List[dict]] = {}
    for e in spans:
        if e.get("name") == "runner.trial" and e.get("parent"):
            trials_by_parent.setdefault(e["parent"], []).append(e)
    ends = []
    for shard_span in sorted(
        shard_spans, key=lambda e: int(e.get("attrs", {}).get("shard", 0))
    ):
        trials = trials_by_parent.get(shard_span["id"], [])
        busy = sum(t["dur"] for t in trials)
        wall = float(shard_span["dur"])
        slowest = max(trials, key=lambda t: t["dur"], default=None)
        report.shards.append(
            ShardStats(
                shard=int(shard_span.get("attrs", {}).get("shard", -1)),
                wall_s=wall,
                busy_s=busy,
                utilization=busy / wall if wall > 0 else 0.0,
                trials=len(trials),
                start_delay_s=max(0.0, shard_span["t_start"] - epoch),
                slowest_trial_index=(
                    slowest.get("attrs", {}).get("index")
                    if slowest is not None
                    else None
                ),
                slowest_trial_s=slowest["dur"] if slowest is not None else 0.0,
            )
        )
        ends.append(shard_span["t_end"])
    last_end = max(ends)
    report.spread_s = last_end - min(ends)
    report.straggler = report.shards[ends.index(last_end)].shard
    return report


def render_shard_report(report: ShardUtilizationReport) -> str:
    """Human rendering of :func:`shard_report` output."""
    if not report.shards:
        return "(no runner.shard spans in trace)\n"
    lines = [
        f"{'shard':>5}  {'wall':>9}  {'busy':>9}  {'util':>5}  "
        f"{'delay':>8}  {'trials':>6}  slowest trial"
    ]
    for stats in report.shards:
        slowest = (
            f"#{stats.slowest_trial_index} ({stats.slowest_trial_s * 1e3:.1f}ms)"
            if stats.slowest_trial_index is not None
            else "-"
        )
        marker = "  <-- straggler" if stats.shard == report.straggler else ""
        lines.append(
            f"{stats.shard:>5}  {stats.wall_s * 1e3:>8.1f}m  "
            f"{stats.busy_s * 1e3:>8.1f}m  {stats.utilization:>4.0%}  "
            f"{stats.start_delay_s * 1e3:>7.1f}m  {stats.trials:>6}  "
            f"{slowest}{marker}"
        )
    lines.append(
        f"shard end spread: {report.spread_s * 1e3:.1f}ms "
        f"(straggler: shard {report.straggler})"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cross-run diffing
# ---------------------------------------------------------------------------
@dataclass
class SpanDelta:
    """One span name's change between two per-span aggregates."""

    name: str
    base_count: int
    cur_count: int
    base_self_s: float
    cur_self_s: float

    @property
    def delta_self_s(self) -> float:
        return self.cur_self_s - self.base_self_s

    @property
    def ratio(self) -> Optional[float]:
        """Current/base self time; ``None`` when the base is zero."""
        if self.base_self_s > 0.0:
            return self.cur_self_s / self.base_self_s
        return None


def diff_aggregates(base: SpanAggregate, current: SpanAggregate) -> List[SpanDelta]:
    """Align two per-span aggregates by name; one row per span name.

    Spans present on only one side appear with zero count/time on the
    other, so additions and removals are visible alongside regressions.
    Rows are ordered by absolute self-time delta, largest first.
    """
    deltas = [
        SpanDelta(
            name=name,
            base_count=int(base.get(name, {}).get("count", 0)),
            cur_count=int(current.get(name, {}).get("count", 0)),
            base_self_s=float(base.get(name, {}).get("self_s", 0.0)),
            cur_self_s=float(current.get(name, {}).get("self_s", 0.0)),
        )
        for name in sorted(set(base) | set(current))
    ]
    deltas.sort(key=lambda delta: (-abs(delta.delta_self_s), delta.name))
    return deltas


def top_regressions(
    deltas: Sequence[SpanDelta], limit: int = 3, known_only: bool = True
) -> List[SpanDelta]:
    """Spans whose self time grew, largest absolute growth first.

    ``known_only`` drops spans absent from the baseline side (there is
    nothing to regress against); ``obs diff`` passes ``False`` so
    brand-new spans still rank.
    """
    rows = [
        delta
        for delta in deltas
        if delta.delta_self_s > 0.0
        and (not known_only or delta.base_count > 0)
    ]
    rows.sort(key=lambda delta: (-delta.delta_self_s, delta.name))
    return rows[:limit]


def diff_traces(
    base_path: Union[str, Path], current_path: Union[str, Path]
) -> Tuple[List[SpanDelta], List[str]]:
    """Diff two recorded traces; returns ``(deltas, load warnings)``."""
    base_events, base_warnings = load_trace(base_path)
    cur_events, cur_warnings = load_trace(current_path)
    deltas = diff_aggregates(
        aggregate_spans(base_events), aggregate_spans(cur_events)
    )
    return deltas, base_warnings + cur_warnings


def render_diff(
    deltas: Sequence[SpanDelta], limit: int = 10, regressions: int = 3
) -> str:
    """Human rendering of a cross-run diff: table plus top regressions."""
    if not deltas:
        return "(no spans on either side)\n"
    shown = list(deltas)[:limit]
    width = max(len(delta.name) for delta in shown)
    lines = [
        f"{'span':<{width}}  {'base self':>10}  {'cur self':>10}  "
        f"{'delta':>9}  {'count':>11}"
    ]
    for delta in shown:
        ratio = delta.ratio
        ratio_text = f" ({ratio:.2f}x)" if ratio is not None else ""
        lines.append(
            f"{delta.name:<{width}}  {delta.base_self_s:>9.3f}s  "
            f"{delta.cur_self_s:>9.3f}s  {delta.delta_self_s:>+8.3f}s  "
            f"{delta.base_count:>4} -> {delta.cur_count:<4}{ratio_text}"
        )
    if len(deltas) > limit:
        lines.append(f"... {len(deltas) - limit} more span name(s)")
    regressed = top_regressions(deltas, limit=regressions, known_only=False)
    if regressed:
        lines.append("")
        lines.append("top regressions (self-time growth):")
        for delta in regressed:
            lines.append(
                f"  {delta.name}: {delta.base_self_s:.3f}s -> "
                f"{delta.cur_self_s:.3f}s (+{delta.delta_self_s:.3f}s)"
            )
    else:
        lines.append("")
        lines.append("no span self-time grew")
    return "\n".join(lines) + "\n"


__all__ = [
    "CriticalPath",
    "CriticalStep",
    "ShardStats",
    "ShardUtilizationReport",
    "SpanDelta",
    "critical_paths",
    "diff_aggregates",
    "diff_traces",
    "load_trace",
    "render_critical_paths",
    "render_diff",
    "render_shard_report",
    "shard_report",
    "top_regressions",
]
