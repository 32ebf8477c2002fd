#!/usr/bin/env python3
"""Performance ledger for the estimation stack.

One run of one workload, measured in this process::

    python3 perfledger/ledger.py --workload fig4-grid --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``. A set of runs, each in a fresh subprocess, and the
comparison of two such sets::

    python3 perfledger/ledger.py run [--trace] [--repeat N] [--out runs.json]
    python3 perfledger/ledger.py compare parent.json change.json

``perfledger/README.md`` describes the workloads, the metrics and the
bounds ``compare`` applies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Environment of every measured process: one BLAS thread (one thread per
#: process keeps runs comparable on a small host), the canonical numpy
#: kernel, telemetry off (traced runs switch it on per operation), and a
#: fixed string-hash seed, because set and dict layouts that change from
#: one process to the next move the same run's timings by several percent.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL": "numpy",
    "REPRO_OBS": "off",
    "PYTHONHASHSEED": "0",
}

#: Verdicts of :func:`classify`.
BETTER, WORSE, UNCHANGED, UNRESOLVED = "better", "worse", "unchanged", "unresolved"

_ROW = "  {:<44} {:<8} {:>12} {:>12} {:>12} {:>7}"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Measure one workload here and return its result object."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"ledger: no program source under {source}")
    sys.path[:0] = [str(source), str(HERE)]
    from measure import measure, measure_traced
    from workloads import WORKLOADS

    specs = load_benchmark()["per_layer" if trace else "end_to_end"]
    run = measure_traced if trace else measure
    result = run(WORKLOADS[workload](smoke), seed, seconds)
    for problem in result.pop("problems"):
        print(f"ledger: {workload}: {problem}", file=sys.stderr)
    values = result["metrics"]
    result["metrics"] = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    return result


# ----------------------------------------------------------------------
# A set of runs, one subprocess each
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def host_facts() -> dict:
    """The facts a run set is only comparable under."""
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "kernel_release": platform.release(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": RUN_ENV["OPENBLAS_NUM_THREADS"],
        "frequency_kernel": RUN_ENV["REPRO_KERNEL"],
        "commit": _git_commit(),
    }


def run_subprocess(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """One run in a fresh interpreter, so no memo or peak RSS carries over."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={int(trace)}",
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command,
        capture_output=True,
        text=True,
        env={**os.environ, **RUN_ENV},
        timeout=seconds + 160,
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs: Sequence[dict]) -> Dict[str, dict]:
    """Median, quartiles and relative spread of each metric over ``runs``."""
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        q1, median, q3 = quartiles([run["metrics"][name]["value"] for run in runs])
        summary[name] = {
            "unit": entry["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
        }
    return summary


def command_run(args: argparse.Namespace) -> int:
    names = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    run_set = {
        "host": host_facts(),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "runs": {},
    }
    ok = True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            try:
                runs.append(
                    run_subprocess(name, seed, args.seconds, args.trace, args.smoke)
                )
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"ledger: {exc}", file=sys.stderr)
                ok = False
        run_set["runs"][name] = runs
        if not runs:
            continue
        correct = all(run["correct"] for run in runs)
        ok = ok and correct
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        checks = "passed" if correct else "FAILED"
        print(f"\n{name}: {len(runs)} run(s), {attempted} ops, {failed} failed")
        print(f"  output checks {checks}")
        print(_ROW.format("metric", "unit", "median", "q1", "q3", "spread"))
        for metric, row in summarize(runs).items():
            numbers = [f"{row[key]:.6g}" for key in ("median", "q1", "q3")]
            print(_ROW.format(metric, row["unit"], *numbers, f"{row['spread']:.1%}"))
    if args.out:
        Path(args.out).write_text(json.dumps(run_set, indent=1) + "\n")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Comparing two run sets
# ----------------------------------------------------------------------
def _beats(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def classify(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """Verdict on one (metric, workload) pair of a change against its parent.

    * ``better``: the change wins at least nine tenths of the seed-paired
      runs (ties count for neither) and its median differs from the
      parent's by more than the parent's own interquartile range;
    * ``unresolved``: the run-to-run spread (interquartile range over
      median, the wider of the two sides) exceeds ``bound``, unless every
      run of the change beats every run of the parent;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound``, a share of the parent's median;
    * ``unchanged`` otherwise.
    """
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    scale = abs(p_median) or 1.0
    pairs = list(zip(parent, change))
    wins = sum(_beats(c, p, better) for p, c in pairs)
    gain = wins >= 0.9 * len(pairs) and abs(c_median - p_median) > p_q3 - p_q1
    all_beat = all(_beats(c, p, better) for c in change for p in parent)
    if all_beat and gain:
        return BETTER
    if max(p_q3 - p_q1, c_q3 - c_q1) / scale > bound and not all_beat:
        return UNRESOLVED
    direction = 1.0 if better == "lower" else -1.0
    if direction * (c_median - p_median) / scale > bound:
        return WORSE
    return BETTER if gain else UNCHANGED


def _fail_rate(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare_sets(parent: dict, change: dict, end_to_end: Sequence[dict]) -> List[dict]:
    """One row per (workload, metric) present in both run sets.

    Each workload also gets a ``fail_rate`` row: any increase in the share
    of failed operations is ``worse``, whatever the timings say.
    """
    rows = []
    for workload, parent_runs in parent["runs"].items():
        change_runs = change["runs"].get(workload)
        if not parent_runs or not change_runs:
            continue
        for spec in end_to_end:
            name = spec["name"]
            before = [run["metrics"][name]["value"] for run in parent_runs]
            after = [run["metrics"][name]["value"] for run in change_runs]
            verdict = classify(before, after, spec["bound"], spec["better"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "parent": statistics.median(before),
                    "change": statistics.median(after),
                    "verdict": verdict,
                }
            )
        before, after = _fail_rate(parent_runs), _fail_rate(change_runs)
        rows.append(
            {
                "workload": workload,
                "metric": "fail_rate",
                "parent": before,
                "change": after,
                "verdict": WORSE if after > before else UNCHANGED,
            }
        )
    return rows


def command_compare(args: argparse.Namespace) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare_sets(parent, change, load_benchmark()["end_to_end"])
    line = "{:<16} {:<24} {:>12} {:>12}  {}"
    print(line.format("workload", "metric", "parent", "change", "verdict"))
    for row in rows:
        before, after = f"{row['parent']:.6g}", f"{row['change']:.6g}"
        cells = (row["workload"], row["metric"], before, after, row["verdict"])
        print(line.format(*cells))
    return 1 if any(row["verdict"] == WORSE for row in rows) else 0


# ----------------------------------------------------------------------
def _parse_run(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="ledger.py run")
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--seconds", type=float, default=load_benchmark()["run_seconds"]
    )
    parser.add_argument("--trace", action="store_true", help="per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--out", help="write the run set as JSON, for compare")
    return parser.parse_args(argv)


def _parse_compare(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="ledger.py compare")
    parser.add_argument("parent", help="run set of the parent (ledger.py run --out)")
    parser.add_argument("change", help="run set of the change")
    return parser.parse_args(argv)


def _parse_one(argv: Sequence[str]) -> argparse.Namespace:
    workloads = [w["name"] for w in load_benchmark()["workloads"]]
    parser = argparse.ArgumentParser(prog="ledger.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return command_compare(_parse_compare(argv[1:]))
    if argv[:1] == ["run"]:
        return command_run(_parse_run(argv[1:]))
    args = _parse_one(argv)
    if any(os.environ.get(name) != value for name, value in RUN_ENV.items()):
        # The hash seed and BLAS threads are read at interpreter and numpy
        # start-up, so the measured process is this one, restarted in place.
        script = str(Path(__file__).resolve())
        environment = {**os.environ, **RUN_ENV}
        os.execve(sys.executable, [sys.executable, script, *argv], environment)
    trace = bool(args.trace)
    result = run_one(args.workload, args.seed, args.seconds, trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
