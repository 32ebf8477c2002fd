"""Command-line interface: regenerate the paper's tables and figures,
sweep the dataset/scenario libraries, or run the live monitoring engine.

Usage::

    repro-tomography figure3 [--scale SCALE] [--seed N] [--oracle]
                             [--workers W]
    repro-tomography figure4 [--scale SCALE] [--seed N] [--oracle]
                             [--workers W]
    repro-tomography table2
    repro-tomography scaling [--scale SCALE] [--seed N] [--workers W]
    repro-tomography ablation [--scale SCALE] [--seed N] [--workers W]
    repro-tomography campaign NAME_OR_SPEC.json [--scale SCALE]
                             [--seed N] [--oracle] [--workers W]
                             [--replicates R] [--output DIR]
                             [--dataset NAMES]
                             [--scenario NAMES] [--estimator NAMES]
                             [--policy NAMES]
    repro-tomography campaign --list
    repro-tomography mitigate [--scale SCALE] [--seed N] [--oracle]
                             [--dataset NAME] [--scenario NAME]
                             [--estimator NAME] [--policy NAME]
                             [--output DIR]
    repro-tomography datasets list|info NAME|validate
    repro-tomography scenarios list|info NAME
    repro-tomography estimators list|info NAME
    repro-tomography policies list|info NAME
    repro-tomography obs summary [--snapshot FILE]
    repro-tomography obs export [--format prom|json] [--snapshot FILE]
    repro-tomography obs spans TRACE.jsonl [--tree] [--validate]
    repro-tomography obs critical-path TRACE.jsonl [--top K]
    repro-tomography obs diff BASE.jsonl CURRENT.jsonl [--limit N]
    repro-tomography obs serve [--port P] [--host H]
                             [--sample-interval S]
    repro-tomography monitor [--scale SCALE] [--seed N] [--oracle]
                             [--dataset NAME] [--scenario NAME]
                             [--estimator NAME]
                             [--intervals T] [--window W] [--stride S]
                             [--chunk C] [--checkpoint PATH]
    repro-tomography --version

``SCALE`` is one of the registered presets
(``tiny``/``small``/``paper``). ``--workers`` shards a sweep across
worker processes (0 = all local CPUs) with results bit-identical to the
serial run. ``campaign`` runs a named sweep (or a JSON sweep spec) with
per-shard progress and optional JSON results on disk — the ``realworld``
campaign sweeps every registered dataset, scenario, and estimator,
restrictable with ``--dataset``/``--scenario``/``--estimator``
(comma-separated names from ``datasets list`` / ``scenarios list`` /
``estimators list``); the ``mitigation`` campaign additionally accepts
``--policy`` (names from ``policies list``). ``mitigate`` runs one
closed mitigation loop — estimate, act on the fitted model, re-simulate,
re-estimate — and can persist the plan and scorecard as JSON. ``obs``
inspects the telemetry layer (``REPRO_OBS=off|metrics|trace``): a human
metrics summary, Prometheus/JSON export, span-trace rendering or
validation, trace analytics (``critical-path`` decomposes each root span
and reports shard utilization; ``diff`` aligns two traces by span name
and names the top self-time regressions), and a live HTTP exporter
(``serve``: ``/metrics`` Prometheus text, ``/metrics.json``,
``/healthz``, ``/spans/recent``, with a background RSS/CPU/GC resource
sampler). ``campaign``/``monitor``/``mitigate`` accept ``--obs MODE`` to
set the telemetry mode per run (overriding ``REPRO_OBS``), and
``campaign``/``monitor`` accept ``--serve-port`` to expose the same
endpoints for the duration of the run; campaign runs under
``REPRO_OBS=trace`` drop a ``telemetry.jsonl`` (and a metrics snapshot)
next to their ``--output`` results.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.config import SCALES, scale_by_name
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.scaling import run_algorithm1_scaling
from repro.metrics.reporting import format_table
from repro.model.assumptions import TABLE2_MATRIX, table2_rows


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-tomography")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tomography",
        description=(
            "Reproduce the experiments of 'Shifting Network Tomography "
            "Toward A Practical Goal' (CoNEXT 2011)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    workers_help = "worker shards for the sweep (0 = all local CPUs)"
    obs_help = (
        "telemetry mode for this run (overrides the REPRO_OBS env var)"
    )
    serve_port_help = (
        "expose live telemetry over HTTP on this port for the run "
        "(/metrics, /metrics.json, /healthz, /spans/recent); promotes "
        "telemetry to metrics mode when it is off"
    )
    from repro.obs import MODES as OBS_MODES

    subparsers = parser.add_subparsers(dest="command", required=True)
    for figure in ("figure3", "figure4"):
        sub = subparsers.add_parser(figure, help=f"regenerate {figure}")
        sub.add_argument("--scale", choices=sorted(SCALES), default="small")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument(
            "--oracle",
            action="store_true",
            help="use noise-free path observations",
        )
        sub.add_argument("--workers", type=int, default=1, help=workers_help)
    sub = subparsers.add_parser("table2", help="print the assumption matrix")
    sub = subparsers.add_parser("scaling", help="Algorithm 1 scaling sweep")
    sub.add_argument("--scale", choices=sorted(SCALES), default="small")
    sub.add_argument("--seed", type=int, default=3)
    sub.add_argument("--workers", type=int, default=1, help=workers_help)
    sub = subparsers.add_parser(
        "ablation", help="ablate the Correlation-complete solve refinements"
    )
    sub.add_argument("--scale", choices=sorted(SCALES), default="small")
    sub.add_argument("--seed", type=int, default=5)
    sub.add_argument("--workers", type=int, default=1, help=workers_help)
    sub = subparsers.add_parser(
        "campaign",
        help="run a named sweep "
        "(figure3|figure4|scaling|scaling-topology|ablation|realworld|"
        "mitigation) or a JSON sweep spec, sharded across processes",
    )
    sub.add_argument(
        "target",
        nargs="?",
        default=None,
        help="campaign name or path to a JSON campaign spec",
    )
    sub.add_argument(
        "--list",
        action="store_true",
        dest="list_campaigns",
        help="enumerate the registered sweeps and exit",
    )
    sub.add_argument("--scale", choices=sorted(SCALES), default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument(
        "--oracle",
        action="store_true",
        help="use noise-free path observations",
    )
    sub.add_argument("--workers", type=int, default=None, help=workers_help)
    sub.add_argument(
        "--replicates",
        type=int,
        default=None,
        help="rerun the sweep at this many seeds spawned from --seed",
    )
    sub.add_argument(
        "--output",
        type=str,
        default=None,
        help="directory for the campaign's JSON results",
    )
    sub.add_argument(
        "--dataset",
        type=str,
        default=None,
        help="comma-separated registered datasets (realworld campaign only)",
    )
    sub.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="comma-separated registered scenarios (realworld campaign only)",
    )
    sub.add_argument(
        "--estimator",
        type=str,
        default=None,
        help="comma-separated registered estimators (realworld campaign only)",
    )
    sub.add_argument(
        "--policy",
        type=str,
        default=None,
        help="comma-separated mitigation policies (mitigation campaign only)",
    )
    sub.add_argument(
        "--obs", choices=OBS_MODES, default=None, dest="obs_mode", help=obs_help
    )
    sub.add_argument(
        "--serve-port", type=int, default=None, help=serve_port_help
    )
    sub = subparsers.add_parser(
        "mitigate",
        help="run one closed mitigation loop: estimate, act, re-measure",
    )
    sub.add_argument("--scale", choices=sorted(SCALES), default="small")
    sub.add_argument("--seed", type=int, default=13)
    sub.add_argument(
        "--oracle",
        action="store_true",
        help="use noise-free path observations",
    )
    sub.add_argument(
        "--dataset",
        type=str,
        default=None,
        help="mitigate on a registered dataset instead of a generated topology",
    )
    sub.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="registered scenario generator (default: random)",
    )
    sub.add_argument(
        "--estimator",
        type=str,
        default=None,
        help="registered estimator to fit with (default: Independence)",
    )
    sub.add_argument(
        "--policy",
        type=str,
        default=None,
        help="mitigation policy to act with (default: corropt-greedy; "
        "see 'policies list')",
    )
    sub.add_argument(
        "--output",
        type=str,
        default=None,
        help="directory for the plan and scorecard JSON",
    )
    sub.add_argument(
        "--obs", choices=OBS_MODES, default=None, dest="obs_mode", help=obs_help
    )
    sub = subparsers.add_parser(
        "policies",
        help="inspect the registered mitigation policies",
    )
    sub.add_argument(
        "action",
        choices=("list", "info"),
        help="list the registry or describe one policy",
    )
    sub.add_argument("name", nargs="?", default=None, help="policy name (info)")
    sub = subparsers.add_parser(
        "datasets",
        help="inspect the registered real-topology datasets",
    )
    sub.add_argument(
        "action",
        choices=("list", "info", "validate"),
        help="list the registry, describe one dataset, or load every "
        "bundled dataset through its loader",
    )
    sub.add_argument("name", nargs="?", default=None, help="dataset name (info)")
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk parse cache",
    )
    sub.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="validate only: fail fast (before parsing) when a dataset "
        "file declares more than this many nodes",
    )
    sub = subparsers.add_parser(
        "scenarios",
        help="inspect the registered congestion-scenario generators",
    )
    sub.add_argument(
        "action",
        choices=("list", "info"),
        help="list the library or describe one generator",
    )
    sub.add_argument("name", nargs="?", default=None, help="scenario name (info)")
    sub = subparsers.add_parser(
        "estimators",
        help="inspect the registered probability estimators",
    )
    sub.add_argument(
        "action",
        choices=("list", "info"),
        help="list the registry or describe one estimator",
    )
    sub.add_argument(
        "name", nargs="?", default=None, help="estimator name or alias (info)"
    )
    sub = subparsers.add_parser(
        "obs",
        help="inspect telemetry: metrics summary/export, span traces, "
        "trace analytics, and live HTTP serving",
    )
    sub.add_argument(
        "action",
        choices=("summary", "export", "spans", "critical-path", "diff", "serve"),
        help="summarise the metrics registry, export it, read a span "
        "trace, decompose a trace's critical paths, diff two traces by "
        "per-span self time, or serve live telemetry over HTTP",
    )
    sub.add_argument(
        "trace",
        nargs="*",
        default=[],
        help="span-event JSONL file(s): one for spans/critical-path, "
        "two (base, current) for diff",
    )
    sub.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        dest="obs_format",
        help="export format: Prometheus text exposition or JSON snapshot",
    )
    sub.add_argument(
        "--snapshot",
        type=str,
        default=None,
        help="read metrics from this snapshot JSON file instead of the "
        "live registry",
    )
    sub.add_argument(
        "--tree",
        action="store_true",
        help="render the trace as a flame-style tree (spans action)",
    )
    sub.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the trace and exit non-zero on errors "
        "(spans action)",
    )
    sub.add_argument(
        "--top",
        type=int,
        default=5,
        help="chain depth and contributors shown (critical-path action)",
    )
    sub.add_argument(
        "--limit",
        type=int,
        default=10,
        help="span rows shown in the diff table (diff action)",
    )
    sub.add_argument(
        "--port",
        type=int,
        default=9109,
        help="HTTP port to bind (serve action)",
    )
    sub.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="address to bind (serve action)",
    )
    sub.add_argument(
        "--sample-interval",
        type=float,
        default=5.0,
        dest="sample_interval",
        help="resource-sampler cadence in seconds; 0 disables sampling "
        "(serve action)",
    )
    sub = subparsers.add_parser(
        "monitor",
        help="stream a live scenario through the incremental estimator",
    )
    sub.add_argument("--scale", choices=sorted(SCALES), default="small")
    sub.add_argument("--seed", type=int, default=11)
    sub.add_argument(
        "--oracle",
        action="store_true",
        help="use noise-free path observations",
    )
    sub.add_argument(
        "--dataset",
        type=str,
        default=None,
        help="monitor a registered dataset instead of a generated topology",
    )
    sub.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="registered scenario generator (default: no_stationarity)",
    )
    sub.add_argument(
        "--estimator",
        type=str,
        default=None,
        help="registered estimator to refit with (default: Correlation-complete)",
    )
    sub.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="rounds to stream (default: the scale's horizon)",
    )
    sub.add_argument("--window", type=int, default=128)
    sub.add_argument("--stride", type=int, default=None)
    sub.add_argument(
        "--chunk",
        type=int,
        default=16,
        help="probe rounds ingested per batch (1 = strictly round-by-round)",
    )
    sub.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="write engine state to this path when the stream ends",
    )
    sub.add_argument(
        "--top",
        type=int,
        default=5,
        help="peers shown per refit line",
    )
    sub.add_argument(
        "--obs", choices=OBS_MODES, default=None, dest="obs_mode", help=obs_help
    )
    sub.add_argument(
        "--serve-port", type=int, default=None, help=serve_port_help
    )
    return parser


def _apply_obs_mode(args: argparse.Namespace) -> None:
    """Honour ``--obs MODE`` (mirrors/overrides the ``REPRO_OBS`` env var)."""
    mode = getattr(args, "obs_mode", None)
    if mode is not None:
        from repro import obs

        obs.configure(mode=mode)


def _workers(args: argparse.Namespace):
    """Map the CLI convention (0 = all local CPUs) onto the runner's."""
    return None if args.workers == 0 else args.workers


def _print_figure3(args: argparse.Namespace) -> None:
    result = run_figure3(
        scale_by_name(args.scale),
        seed=args.seed,
        oracle=args.oracle,
        workers=_workers(args),
    )
    print("Figure 3(a) — detection rate")
    print(result.to_table("detection"))
    print()
    print("Figure 3(b) — false-positive rate")
    print(result.to_table("fp"))


def _print_figure4(args: argparse.Namespace) -> None:
    result = run_figure4(
        scale_by_name(args.scale),
        seed=args.seed,
        oracle=args.oracle,
        workers=_workers(args),
    )
    print("Figure 4(a) — mean absolute error, Brite")
    print(result.to_table("brite"))
    print()
    print("Figure 4(b) — mean absolute error, Sparse")
    print(result.to_table("sparse"))
    print()
    print("Figure 4(c) — error CDF, No Independence, Sparse")
    for estimator in ("Independence", "Correlation-heuristic", "Correlation-complete"):
        grid, cdf = result.cdf("sparse", "No Independence", estimator, points=11)
        series = "  ".join(f"{x:.1f}:{y:.2f}" for x, y in zip(grid, cdf))
        print(f"  {estimator:<22} {series}")
    print()
    print("Figure 4(d) — Correlation-complete, links vs correlation subsets")
    print(result.to_subset_table())


def _print_table2() -> None:
    columns = list(TABLE2_MATRIX)
    rows = []
    for label, checked in table2_rows():
        rows.append([label, *("X" if checked[column] else "" for column in columns)])
    print("Table 2 — sources of inaccuracy per algorithm")
    print(format_table(["Source", *columns], rows))


def _print_scaling(args: argparse.Namespace) -> None:
    result = run_algorithm1_scaling(
        scale_by_name(args.scale),
        seed=args.seed,
        workers=_workers(args),
    )
    print("Algorithm 1 scaling (equations formed vs naive 2^|P*| bound)")
    print(result.to_table())


def _run_campaign(args: argparse.Namespace) -> None:
    import os

    _apply_obs_mode(args)
    from repro.runner.campaign import (
        CAMPAIGNS,
        CampaignSpec,
        load_campaign_spec,
        run_campaign,
        validate_output_dir,
        write_outcome,
    )

    from dataclasses import replace

    if args.list_campaigns:
        rows = [
            [definition.name, definition.description]
            for _, definition in sorted(CAMPAIGNS.items())
        ]
        print("Registered campaigns")
        print(format_table(["Campaign", "Description"], rows))
        return
    if args.target is None:
        raise SystemExit("campaign: provide a campaign name/spec or --list")
    if args.target in CAMPAIGNS:
        spec = CampaignSpec(campaign=args.target)
    elif os.path.exists(args.target):
        try:
            spec = load_campaign_spec(args.target)
        except ValueError as exc:
            raise SystemExit(f"invalid campaign spec: {exc}") from None
    else:
        raise SystemExit(
            f"unknown campaign {args.target!r} (known: {sorted(CAMPAIGNS)}) "
            "and no such spec file"
        )
    # CLI flags override the spec file; replace() re-runs the spec's
    # validation over the merged values.
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.oracle:
        overrides["oracle"] = True
    if args.workers is not None:
        overrides["workers"] = None if args.workers == 0 else args.workers
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.output is not None:
        overrides["output"] = args.output
    if args.dataset is not None:
        overrides["dataset"] = args.dataset
    if args.scenario is not None:
        overrides["scenario"] = args.scenario
    if args.estimator is not None:
        overrides["estimator"] = args.estimator
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.serve_port is not None:
        overrides["serve_port"] = args.serve_port
    try:
        spec = replace(spec, **overrides)
    except ValueError as exc:
        raise SystemExit(f"invalid campaign options: {exc}") from None
    if spec.output:
        # Fail fast on an unusable --output: minutes of sweep compute
        # must not end in a write-time traceback.
        try:
            validate_output_dir(spec.output)
        except ValueError as exc:
            raise SystemExit(f"campaign: {exc}") from None

    print(
        f"campaign {spec.campaign} at scale {spec.scale}: "
        f"{spec.replicates} replicate(s), "
        f"workers={'auto' if spec.workers is None else spec.workers}"
    )
    if spec.serve_port is not None:
        print(
            f"serving telemetry at http://127.0.0.1:{spec.serve_port}/metrics "
            "for the duration of the run"
        )
    # Route span events next to the campaign's results (REPRO_OBS_TRACE
    # still wins); write_outcome drops the metrics snapshot there too.
    from repro import obs

    if obs.trace_enabled() and spec.output:
        from pathlib import Path

        obs.set_default_trace_path(Path(spec.output) / "telemetry.jsonl")
    outcome = run_campaign(spec, progress=lambda report: print(report.describe()))
    print(
        f"{outcome.num_trials} trial(s) across {len(outcome.shards)} shard(s) "
        f"in {outcome.elapsed:.2f}s"
    )
    for replicate in outcome.replicates:
        print()
        print(f"== seed {replicate.seed} ==")
        print(replicate.rendered)
    if spec.output:
        path = write_outcome(outcome, spec.output)
        print(f"\nresults written to {path}")
        if obs.metrics_enabled():
            print(f"metrics snapshot: {path.with_name(path.stem + '_metrics.json')}")
        if obs.trace_enabled():
            print(f"span trace: {obs.trace_path()}")


def _print_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import (
        DATASETS,
        dataset_info,
        dataset_names,
        load_dataset,
    )
    from repro.exceptions import DatasetError

    use_cache = not args.no_cache
    if args.action == "list":
        rows = []
        for name in dataset_names():
            entry = DATASETS[name]
            rows.append(
                [
                    name,
                    entry.format_name,
                    entry.filename or "(generated)",
                    entry.description,
                ]
            )
        print("Registered datasets")
        print(format_table(["Dataset", "Format", "Source", "Description"], rows))
        return 0
    if args.action == "info":
        if not args.name:
            raise SystemExit("datasets info: provide a dataset name")
        try:
            info = dataset_info(args.name, use_cache=use_cache)
        except DatasetError as exc:
            raise SystemExit(str(exc)) from None
        width = max(len(key) for key in info)
        for key, value in info.items():
            print(f"{key:<{width}}  {value}")
        return 0
    # validate: every registered dataset must load through its loader.
    # Each row carries its wall time (--no-cache makes this a parse
    # benchmark); --max-nodes runs the streaming node census first, so an
    # oversized file fails fast instead of after a long parse.
    from repro.datasets import resolve_dataset_path, scan_nodes
    from repro.obs.timer import Timer

    failures = 0
    for name in dataset_names():
        entry = DATASETS[name]
        try:
            with Timer() as timer:
                if args.max_nodes is not None:
                    path = resolve_dataset_path(entry)
                    if path is not None:
                        scan_nodes(path, entry.format_name, max_nodes=args.max_nodes)
                network = load_dataset(name, use_cache=use_cache)
        except DatasetError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(
                f"ok   {name}: {network.num_links} links, "
                f"{network.num_paths} paths, "
                f"{len(network.correlation_sets)} correlation sets "
                f"({timer.elapsed:.3f}s)"
            )
    if failures:
        print(f"{failures} dataset(s) failed to load")
        return 1
    print("all datasets load")
    return 0


def _print_scenarios(args: argparse.Namespace) -> None:
    from repro.exceptions import ScenarioError
    from repro.simulation.library import SCENARIOS, get_scenario, scenario_names

    if args.action == "list":
        rows = []
        for name in scenario_names():
            generator = SCENARIOS[name]
            rows.append(
                [
                    name,
                    "yes" if generator.non_stationary else "no",
                    "yes" if generator.needs_correlated_groups else "no",
                    generator.description,
                ]
            )
        print("Registered scenarios")
        print(
            format_table(
                ["Scenario", "Non-stationary", "Needs correlation", "Description"],
                rows,
            )
        )
        return
    if not args.name:
        raise SystemExit("scenarios info: provide a scenario name")
    try:
        generator = get_scenario(args.name)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    print(f"{generator.name}: {generator.description}")
    print(f"  non-stationary: {generator.non_stationary}")
    print(f"  needs correlated groups: {generator.needs_correlated_groups}")
    print("  parameters:")
    for key, value in sorted(generator.defaults.items()):
        print(f"    {key} = {value}")


def _print_estimators(args: argparse.Namespace) -> None:
    from repro.exceptions import EstimationError
    from repro.probability.registry import (
        ESTIMATORS,
        estimator_names,
        get_estimator,
        paper_estimator_names,
    )

    if args.action == "list":
        rows = []
        for name in estimator_names():
            entry = ESTIMATORS[name]
            rows.append(
                [
                    name,
                    entry.cost_multiplier,
                    ", ".join(entry.aliases) or "-",
                    entry.description,
                ]
            )
        print("Registered estimators")
        print(
            format_table(["Estimator", "Cost x", "Aliases", "Description"], rows)
        )
        print(f"paper legend order: {', '.join(paper_estimator_names())}")
        return
    if not args.name:
        raise SystemExit("estimators info: provide an estimator name")
    try:
        entry = get_estimator(args.name)
    except EstimationError as exc:
        raise SystemExit(str(exc)) from None
    estimator = entry.factory(None)
    print(f"{entry.name}: {entry.description}")
    print(f"  class: {type(estimator).__module__}.{type(estimator).__qualname__}")
    print(f"  cost multiplier: {entry.cost_multiplier}")
    print(f"  aliases: {', '.join(entry.aliases) or '-'}")
    print(
        "  paper legend position: "
        f"{entry.paper_rank if entry.paper_rank is not None else '- (variant)'}"
    )
    print(f"  pipeline stages: {' -> '.join(estimator.stage_names())}")


def _load_trace_or_exit(trace: str):
    """Tolerantly load a trace, printing truncation warnings; exits on
    a missing file or interior corruption."""
    from repro import obs

    try:
        events, warnings = obs.read_events(trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    for warning in warnings:
        print(f"WARNING {warning}")
    return events


def _print_obs(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs

    if args.action == "spans":
        if not args.trace:
            raise SystemExit("obs spans: provide a span-trace JSONL file")
        trace = args.trace[0]
        events = _load_trace_or_exit(trace)
        status = 0
        if args.validate:
            errors = obs.validate_events(events)
            if errors:
                for error in errors:
                    print(f"INVALID {trace}: {error}")
                status = 1
            else:
                print(f"{trace}: {len(events)} event(s), schema valid")
        if args.tree or not args.validate:
            print(obs.render_tree(events), end="")
        return status

    if args.action == "critical-path":
        if not args.trace:
            raise SystemExit(
                "obs critical-path: provide a span-trace JSONL file"
            )
        events = _load_trace_or_exit(args.trace[0])
        reports = obs.critical_paths(events, top=args.top)
        print(obs.render_critical_paths(reports), end="")
        shard_report = obs.shard_report(events)
        if shard_report.shards:
            print()
            print("runner shard utilization:")
            print(obs.render_shard_report(shard_report), end="")
        return 0

    if args.action == "diff":
        if len(args.trace) != 2:
            raise SystemExit(
                "obs diff: provide two span-trace JSONL files (base, current)"
            )
        base, current = args.trace
        try:
            deltas, warnings = obs.diff_traces(base, current)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        for warning in warnings:
            print(f"WARNING {warning}")
        print(f"span self-time diff: {base} -> {current}")
        print(obs.render_diff(deltas, limit=args.limit), end="")
        return 0

    if args.action == "serve":
        import time as _time

        from repro.obs.serve import TelemetryServer, ensure_metrics_mode

        if ensure_metrics_mode():
            print("telemetry was off; promoted to metrics mode for serving")
        interval = args.sample_interval if args.sample_interval > 0 else None
        server = TelemetryServer(
            host=args.host, port=args.port, sample_interval=interval
        )
        try:
            server.start()
        except OSError as exc:
            raise SystemExit(f"obs serve: cannot bind {args.host}:{args.port}: {exc}") from None
        print(
            f"serving telemetry at {server.url} "
            "(/metrics /metrics.json /healthz /spans/recent); Ctrl-C to stop"
        )
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return 0

    if args.snapshot:
        try:
            snapshot = _json.loads(open(args.snapshot).read())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"obs: cannot read snapshot: {exc}") from None
    else:
        snapshot = obs.global_registry().snapshot()
    if args.action == "summary":
        print(f"telemetry mode: {obs.mode()} (env {obs.MODE_ENV})")
        print(f"declared metric families: {len(obs.FAMILIES)}")
        print(obs.render_summary(snapshot), end="")
        return 0
    if args.obs_format == "json":
        print(obs.render_json(snapshot))
    else:
        print(obs.render_prometheus(snapshot), end="")
    return 0


def _run_monitor(args: argparse.Namespace) -> None:
    _apply_obs_mode(args)
    from repro.probability.base import EstimatorConfig
    from repro.probability.windowed import peer_link_members
    from repro.simulation.probing import PathProber, StreamingProber
    from repro.simulation.library import get_scenario
    from repro.streaming import (
        AlertManager,
        AlertPolicy,
        StreamingEstimator,
        peer_congestion_levels,
    )
    from repro.streaming.checkpoint import save_checkpoint
    from repro.topology.brite import generate_brite_network
    from repro.util.rng import derive_rng

    scale = scale_by_name(args.scale)
    intervals = args.intervals if args.intervals is not None else scale.num_intervals
    if intervals < 1:
        raise SystemExit(f"intervals must be >= 1, got {intervals}")
    if args.dataset is not None:
        from repro.datasets import load_dataset
        from repro.exceptions import DatasetError

        try:
            network = load_dataset(args.dataset)
        except DatasetError as exc:
            raise SystemExit(str(exc)) from None
    else:
        network = generate_brite_network(scale.brite, random_state=args.seed)
    from repro.exceptions import EstimationError, ReproError, ScenarioError
    from repro.probability.registry import make_estimator

    try:
        generator = get_scenario(args.scenario or "no_stationarity")
        scenario = generator.build(network, random_state=derive_rng(args.seed, 1))
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    try:
        estimator = make_estimator(
            args.estimator or "Correlation-complete",
            EstimatorConfig(seed=args.seed),
        )
    except EstimationError as exc:
        raise SystemExit(str(exc)) from None
    prober = None if args.oracle else PathProber(num_packets=scale.num_packets)
    try:
        source = StreamingProber(
            network,
            scenario.ground_truth,
            prober=prober,
            chunk_intervals=args.chunk,
        )
        engine = StreamingEstimator(
            network,
            estimator,
            window=args.window,
            stride=args.stride,
            alert_manager=AlertManager(network, AlertPolicy()),
        )
    except ReproError as exc:  # bad --chunk / --window / --stride
        raise SystemExit(str(exc)) from None
    members = peer_link_members(network)
    print(
        f"monitoring {network.num_paths} paths over {network.num_links} links "
        f"in {len(members)} ASes ({network.name}, scenario {scenario.name}, "
        f"estimator {engine.estimator.name}); "
        f"window={engine.window} stride={engine.stride}"
    )
    server = None
    if args.serve_port is not None:
        from repro.obs.serve import TelemetryServer, ensure_metrics_mode

        if ensure_metrics_mode():
            print("telemetry was off; promoted to metrics mode for serving")
        server = TelemetryServer(
            port=args.serve_port, status_fn=engine.telemetry_status
        )
        try:
            server.start()
        except OSError as exc:
            raise SystemExit(
                f"monitor: cannot bind telemetry port {args.serve_port}: {exc}"
            ) from None
        print(
            f"serving telemetry at {server.url} "
            "(/metrics /metrics.json /healthz /spans/recent)"
        )
    reported = 0
    try:
        for chunk in source.rounds(
            intervals, random_state=derive_rng(args.seed, 2)
        ):
            for estimate in engine.ingest(chunk):
                levels = sorted(
                    (
                        (level, asn)
                        for asn, level in peer_congestion_levels(
                            estimate.model, members
                        ).items()
                    ),
                    reverse=True,
                )
                series = "  ".join(
                    f"AS{asn}:{level:.2f}" for level, asn in levels[: args.top]
                )
                print(f"[{estimate.start:5d},{estimate.stop:5d})  {series}")
            for alert in engine.alerts[reported:]:
                print(f"  ALERT {alert.message}")
            reported = len(engine.alerts)
    finally:
        if server is not None:
            server.stop()
    print(
        f"\n{engine.refits} refits over {engine.intervals_ingested} rounds; "
        f"frequency cache {engine.cache_hits} hits / "
        f"{engine.cache_misses} misses; {len(engine.alerts)} alerts"
    )
    if args.checkpoint:
        path = save_checkpoint(engine, args.checkpoint)
        print(f"engine state checkpointed to {path}")
    from repro import obs

    if obs.metrics_enabled():
        snapshot_path = obs.trace_path().with_suffix(".metrics.json")
        snapshot_path.write_text(
            obs.render_json(obs.global_registry().snapshot()) + "\n"
        )
        print(f"metrics snapshot: {snapshot_path}")
    if obs.trace_enabled():
        obs.flush()
        print(f"span trace: {obs.trace_path()}")


def _print_policies(args: argparse.Namespace) -> None:
    from repro.exceptions import MitigationError
    from repro.mitigation.policies import POLICIES, get_policy, policy_names

    if args.action == "list":
        rows = []
        for name in policy_names():
            policy = POLICIES[name]
            rows.append(
                [
                    name,
                    ", ".join(sorted(policy.defaults)) or "-",
                    policy.description,
                ]
            )
        print("Registered mitigation policies")
        print(format_table(["Policy", "Parameters", "Description"], rows))
        return
    if not args.name:
        raise SystemExit("policies info: provide a policy name")
    try:
        policy = get_policy(args.name)
    except MitigationError as exc:
        raise SystemExit(str(exc)) from None
    print(f"{policy.name}: {policy.description}")
    print("  parameters:")
    if policy.defaults:
        for key, value in sorted(policy.defaults.items()):
            print(f"    {key} = {value}")
    else:
        print("    (none)")


def _run_mitigate(args: argparse.Namespace) -> None:
    import json as _json
    from pathlib import Path

    _apply_obs_mode(args)

    from repro.exceptions import (
        DatasetError,
        EstimationError,
        MitigationError,
        ScenarioError,
    )
    from repro.mitigation import ClosedLoopEvaluator, get_policy
    from repro.probability.base import EstimatorConfig
    from repro.probability.registry import make_estimator
    from repro.runner.campaign import validate_output_dir
    from repro.simulation.library import get_scenario
    from repro.simulation.probing import PathProber
    from repro.topology.brite import generate_brite_network
    from repro.util.rng import derive_rng

    output = None
    if args.output:
        try:
            output = validate_output_dir(args.output)
        except ValueError as exc:
            raise SystemExit(f"mitigate: {exc}") from None
    scale = scale_by_name(args.scale)
    if args.dataset is not None:
        from repro.datasets import load_dataset

        try:
            network = load_dataset(args.dataset)
        except DatasetError as exc:
            raise SystemExit(str(exc)) from None
    else:
        network = generate_brite_network(scale.brite, random_state=args.seed)
    try:
        generator = get_scenario(args.scenario or "random")
        scenario = generator.build(network, random_state=derive_rng(args.seed, 1))
        estimator = make_estimator(
            args.estimator or "Independence", EstimatorConfig(seed=args.seed)
        )
        policy = get_policy(args.policy or "corropt-greedy")
    except (ScenarioError, EstimationError, MitigationError) as exc:
        raise SystemExit(str(exc)) from None
    evaluator = ClosedLoopEvaluator(
        estimator=estimator,
        policy=policy,
        num_intervals=scale.num_intervals,
        prober=None if args.oracle else PathProber(num_packets=scale.num_packets),
        oracle=args.oracle,
    )
    # The loop replays the congestion draw on the rewritten topology, so
    # the experiment seed must be a reusable integer.
    experiment_seed = int(derive_rng(args.seed, 2).integers(0, 2**31 - 1))
    report = evaluator.evaluate(scenario, seed=experiment_seed)
    print(
        f"closed loop on {network.name} ({network.num_links} links, "
        f"{network.num_paths} paths), scenario {scenario.name}, "
        f"estimator {estimator.name}, policy {policy.name}"
    )
    print(
        f"  path congestion: {report.pre_congestion_rate:.4f} -> "
        f"{report.post_congestion_rate:.4f} "
        f"(reduction {report.reduction:+.4f})"
    )
    print(
        f"  paths disturbed: {report.paths_disturbed}/{report.num_paths}  "
        f"target links: {report.num_target_links}  "
        f"false-mitigation rate: {report.false_mitigation_rate:.2f}"
    )
    print(
        f"  estimator error: {report.pre_fit_error:.4f} pre -> "
        f"{report.post_fit_error:.4f} post"
    )
    if output is not None:
        plan_path = Path(output) / "plan.json"
        report_path = Path(output) / "report.json"
        plan_path.write_text(_json.dumps(dict(report.plan), indent=2) + "\n")
        report_path.write_text(
            _json.dumps(report.to_json_dict(), indent=2) + "\n"
        )
        print(f"  plan written to {plan_path}")
        print(f"  scorecard written to {report_path}")


def _print_ablation(args: argparse.Namespace) -> None:
    from repro.experiments.ablation import run_ablation

    result = run_ablation(
        scale_by_name(args.scale),
        seed=args.seed,
        workers=_workers(args),
    )
    print("Correlation-complete solve ablation (mean abs link error, "
          "No-Independence scenario)")
    print(result.to_table())


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-tomography`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "figure3":
        _print_figure3(args)
    elif args.command == "figure4":
        _print_figure4(args)
    elif args.command == "table2":
        _print_table2()
    elif args.command == "scaling":
        _print_scaling(args)
    elif args.command == "ablation":
        _print_ablation(args)
    elif args.command == "campaign":
        _run_campaign(args)
    elif args.command == "datasets":
        return _print_datasets(args)
    elif args.command == "scenarios":
        _print_scenarios(args)
    elif args.command == "estimators":
        _print_estimators(args)
    elif args.command == "policies":
        _print_policies(args)
    elif args.command == "mitigate":
        _run_mitigate(args)
    elif args.command == "obs":
        return _print_obs(args)
    elif args.command == "monitor":
        _run_monitor(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
