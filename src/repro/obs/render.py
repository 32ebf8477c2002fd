"""Load, validate, aggregate, and render span-event JSONL traces.

Consumes the ``telemetry.jsonl`` files written by :mod:`repro.obs.span`
and powers ``repro-tomography obs spans`` (``--tree`` flame-style view,
``--validate`` schema check) plus the per-span aggregates that
``obs diff`` aligns to name regressed stages.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

_REQUIRED_KEYS = ("type", "name", "id", "pid", "t_start", "t_end", "dur", "attrs")
_TYPES = ("span", "event")
_STATUSES = ("ok", "error")


def read_events(path: Union[str, Path]) -> Tuple[List[dict], List[str]]:
    """Parse a JSONL trace file; returns ``(events, warnings)``.

    Blank lines are skipped. A malformed *final* line is tolerated — a
    worker killed mid-``O_APPEND`` write leaves exactly one truncated
    trailing record, which is reported (a warning string naming the
    line) and skipped rather than failing the whole trace. Malformed
    JSON anywhere *else* still raises ``ValueError`` naming the line:
    traces are machine-written, so an interior parse failure means real
    corruption the caller should know about.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(raw_lines, start=1)
        if line.strip()
    ]
    events: List[dict] = []
    warnings: List[str] = []
    last_index = len(numbered) - 1
    for position, (lineno, line) in enumerate(numbered):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == last_index:
                warnings.append(
                    f"{path}:{lineno}: skipped truncated trailing record "
                    f"({exc})"
                )
                continue
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        events.append(event)
    return events, warnings


def load_events(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL trace file, skipping blank lines.

    Thin wrapper over :func:`read_events` that discards the truncation
    warnings — callers that should surface them (the ``obs`` CLI, the
    analyzer) use :func:`read_events` directly.
    """
    events, _warnings = read_events(path)
    return events


def validate_events(events: Sequence[dict]) -> List[str]:
    """Schema-check parsed events; an empty list means a valid trace.

    A parent id pointing outside the file is legal (the parent may live
    in another process's trace or before a rotation), but duplicate
    ids, negative durations, and unknown types/statuses are not.
    """
    errors: List[str] = []
    seen_ids: Dict[str, int] = {}
    for index, event in enumerate(events, start=1):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in event]
        if missing:
            errors.append(f"{where}: missing keys {missing}")
            continue
        if event["type"] not in _TYPES:
            errors.append(f"{where}: unknown type {event['type']!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            errors.append(f"{where}: name must be a non-empty string")
        span_id = event["id"]
        if not isinstance(span_id, str) or not span_id:
            errors.append(f"{where}: id must be a non-empty string")
        elif span_id in seen_ids:
            errors.append(
                f"{where}: duplicate span id {span_id!r} "
                f"(first seen at event {seen_ids[span_id]})"
            )
        else:
            seen_ids[span_id] = index
        parent = event.get("parent")
        if parent is not None and not isinstance(parent, str):
            errors.append(f"{where}: parent must be a span id string or null")
        for key in ("t_start", "t_end", "dur"):
            if not isinstance(event[key], (int, float)):
                errors.append(f"{where}: {key} must be a number")
        if (
            isinstance(event["dur"], (int, float))
            and event["dur"] < 0
        ):
            errors.append(f"{where}: negative duration {event['dur']}")
        if event.get("status") not in _STATUSES:
            errors.append(f"{where}: status must be one of {list(_STATUSES)}")
        if not isinstance(event["attrs"], dict):
            errors.append(f"{where}: attrs must be an object")
    return errors


class SpanNode:
    """One span plus its in-file children and derived self time."""

    __slots__ = ("event", "children", "self_time")

    def __init__(self, event: dict) -> None:
        self.event = event
        self.children: List["SpanNode"] = []
        self.self_time = float(event.get("dur", 0.0))

    @property
    def name(self) -> str:
        return self.event["name"]

    @property
    def total(self) -> float:
        return float(self.event.get("dur", 0.0))


def build_tree(events: Sequence[dict]) -> List[SpanNode]:
    """Link events into forests by parent id; orphans become roots.

    Self time is total duration minus the durations of direct children
    found in the file; children emitted by concurrent workers overlap,
    so self time clamps at zero rather than going negative.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    for event in events:
        node = SpanNode(event)
        nodes[event["id"]] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        parent_id = node.event.get("parent")
        parent = nodes.get(parent_id) if parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
            parent.self_time = max(0.0, parent.self_time - node.total)
        else:
            roots.append(node)
    for node in ordered:
        node.children.sort(key=lambda child: child.event.get("t_start", 0.0))
    roots.sort(key=lambda node: node.event.get("t_start", 0.0))
    return roots


def _format_attrs(attrs: dict, limit: int = 4) -> str:
    if not attrs:
        return ""
    items = list(attrs.items())[:limit]
    body = " ".join(f"{key}={value}" for key, value in items)
    if len(attrs) > limit:
        body += " …"
    return f"  [{body}]"


def render_tree(events: Sequence[dict]) -> str:
    """Flame-style ASCII tree with total and self milliseconds."""
    roots = build_tree(events)
    if not roots:
        return "(empty trace)\n"
    lines: List[str] = []
    lines.append(f"{'total':>10}  {'self':>10}  span")

    def walk(node: SpanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            branch, child_prefix = "", ""
        else:
            branch = prefix + ("└─ " if is_last else "├─ ")
            child_prefix = prefix + ("   " if is_last else "│  ")
        marker = "!" if node.event.get("status") == "error" else ""
        label = f"{branch}{node.name}{marker}{_format_attrs(node.event.get('attrs', {}))}"
        lines.append(
            f"{node.total * 1e3:>9.2f}m {node.self_time * 1e3:>9.2f}m  {label}"
        )
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines) + "\n"


def aggregate_spans(events: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per-name totals: ``{name: {count, total_s, self_s}}``.

    The compact form ``obs diff`` aligns to name the spans behind a
    regression, and the performance ledger reports per layer.
    """
    build_order = build_tree(events)

    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: SpanNode) -> None:
        entry = totals.setdefault(
            node.name, {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += node.total
        entry["self_s"] += node.self_time
        for child in node.children:
            visit(child)

    for root in build_order:
        visit(root)
    return totals


def stage_durations(
    events: Sequence[dict], prefix: str = "pipeline."
) -> Dict[Tuple[Optional[str], str], float]:
    """Map ``(parent id, stage name)`` to duration for pipeline spans.

    Used by tests to reconcile the trace against
    ``FitReport.stage_seconds`` fit by fit.
    """
    out: Dict[Tuple[Optional[str], str], float] = {}
    for event in events:
        name = event.get("name", "")
        if event.get("type") == "span" and name.startswith(prefix):
            out[(event.get("parent"), name[len(prefix):])] = float(event["dur"])
    return out


__all__ = [
    "SpanNode",
    "aggregate_spans",
    "build_tree",
    "load_events",
    "read_events",
    "render_tree",
    "stage_durations",
    "validate_events",
]
