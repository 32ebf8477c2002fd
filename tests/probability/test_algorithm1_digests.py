"""Frozen digests of the estimators' output.

Each fit digest is a sha256 over what a fit selects and solves: the
chosen path sets in selection order, every estimate's exact float bits,
the rank, the residual and the equation count. The cases are

* the tiny-scale Fig. 4 cells (Brite and Sparse topologies under the
  three Fig. 4 scenarios; the keys keep the ``packed`` segment they had
  when a dense observation store was digested next to it) fitted by
  Correlation-complete with and without the redundancy pass, and by the
  Independence and Correlation-heuristic baselines;
* one 1k-node power-law deployment derived through
  :func:`~repro.datasets.base.derive_network_compact`;
* the ``scaling-topology`` study's route and estimate digests at its
  tiny sizes (200 and 500 nodes);
* the tiny-scale closed-loop mitigation grid (every default scenario,
  the Independence and Correlation-heuristic estimators, every policy),
  one ``ClosedLoopReport`` JSON per cell;
* the observation paths on one tiny network: :func:`oracle_path_status`,
  the oracle blocks of a :class:`StreamingProber` and one packet-level
  :meth:`PathProber.observe` matrix;
* streaming-engine timelines (window spans and link marginals) under
  three chunkings: the Fig. 1 shifting horizon under Correlation-complete
  at three (window, stride) geometries and under Independence, and a tiny
  Brite horizon per paper estimator at stride 97 (off the word grid),
  frozen from the offline loop that fitted each window's slice in turn.

Any change to the path-set selection, the null-space updates, the
equation storage, the route derivation, the solve, the observation
simulation or the mitigation scoring that moves a single bit shows up
here.

Digests are computed in a subprocess with one BLAS thread (the
performance ledger's setting): unidentifiable coordinates are whichever
minimiser NNLS lands on, and that choice can follow the BLAS thread
count. Regenerate the fixture only for a change that is meant to move
results::

    PYTHONPATH=src python tests/probability/test_algorithm1_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.exceptions import EstimationError
from repro.experiments.config import TINY
from repro.experiments.mitigation import DEFAULT_SCENARIOS, run_mitigation
from repro.experiments.scaling_topology import run_scaling_topology
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import (
    CorrelationCompleteEstimator,
    CorrelationCompleteNoRedundancy,
)
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.independence import IndependenceEstimator
from repro.simulation.experiment import run_experiment
from repro.mitigation.policies import policy_names
from repro.simulation.congestion import CongestionModel, Driver, NonStationaryModel
from repro.simulation.probing import PathProber, StreamingProber, oracle_path_status
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.streaming import StreamingEstimator
from repro.topology.brite import generate_brite_network
from repro.topology.builders import fig1_topology
from repro.topology.traceroute import generate_sparse_network

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "golden" / "algorithm1_digests.json"
)

ESTIMATORS = (CorrelationCompleteEstimator, CorrelationCompleteNoRedundancy)

BASELINES = (IndependenceEstimator, CorrelationHeuristicEstimator)

#: Sizes of the ``scaling-topology`` study's tiny scale.
SCALING_SIZES = (200, 500)

#: One BLAS thread, as the performance ledger pins it.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SCENARIOS = (
    ("random", ScenarioKind.RANDOM),
    ("concentrated", ScenarioKind.CONCENTRATED),
    ("no-independence", ScenarioKind.NO_INDEPENDENCE),
)


def fit_digest(estimator, network, observations) -> str:
    """sha256 over path sets, estimates, rank, residual and equation count."""
    digest = hashlib.sha256()
    try:
        model = estimator.fit(network, observations)
    except EstimationError as exc:
        digest.update(f"error:{exc}".encode())
        return digest.hexdigest()
    report = model.report
    for path_set in report.path_sets:
        digest.update(f"P{sorted(path_set)}\n".encode())
    for subset in sorted(model._good, key=sorted):
        digest.update(f"E{sorted(subset)}:{model._good[subset].hex()}\n".encode())
    digest.update(
        f"rank={report.rank} residual={float(report.residual).hex()} "
        f"equations={report.num_equations}\n".encode()
    )
    return digest.hexdigest()


def fig4_digests() -> Dict[str, str]:
    """Digests of the tiny-scale Fig. 4 cells, per estimator.

    Correlation-complete cells are keyed ``fig4/...``, the baselines'
    ``fig4-baselines/...``.
    """
    networks = {
        "brite": generate_brite_network(TINY.brite, 5),
        "sparse": generate_sparse_network(TINY.traceroute, 6),
    }
    digests = {}
    for topology, network in networks.items():
        for offset, (label, kind) in enumerate(SCENARIOS):
            scenario = build_scenario(network, ScenarioConfig(kind=kind), 20 + offset)
            experiment = run_experiment(
                scenario,
                TINY.num_intervals,
                prober=PathProber(num_packets=TINY.num_packets),
                random_state=30 + offset,
            )
            observations = experiment.observations
            cell = f"{topology}/{label}/packed"
            for estimator in ESTIMATORS:
                digests[f"fig4/{cell}/{estimator.name}"] = fit_digest(
                    estimator(EstimatorConfig(seed=3)), network, observations
                )
            for estimator in BASELINES:
                digests[f"fig4-baselines/{cell}/{estimator.name}"] = fit_digest(
                    estimator(EstimatorConfig(seed=3)), network, observations
                )
    return digests


def powerlaw_digest() -> Dict[str, str]:
    """Digest of one 1k-node power-law deployment (the ledger smoke size)."""
    src, dst = generate_powerlaw_edges(1000, attachment=2, seed=41)
    spec = DatasetSpec(
        seed=42, num_vantage_points=4, num_destinations=40, num_paths=60
    )
    network = derive_network_compact(1000, src, dst, spec, "powerlaw-1000")
    scenario = build_scenario(network, ScenarioConfig(kind=ScenarioKind.RANDOM), 43)
    experiment = run_experiment(
        scenario, 60, prober=PathProber(num_packets=120), random_state=44
    )
    config = EstimatorConfig(requested_subset_size=1, seed=45)
    estimator = CorrelationCompleteEstimator(config)
    return {
        "powerlaw-1000/Correlation-complete": fit_digest(
            estimator, network, experiment.observations
        )
    }


def scaling_topology_digests() -> Dict[str, str]:
    """Route and estimate digests of the ``scaling-topology`` tiny sizes."""
    result = run_scaling_topology(TINY, seed=17, sizes=list(SCALING_SIZES), workers=1)
    digests = {}
    for size in SCALING_SIZES:
        row = result.cell(size)
        digests[f"scaling-topology/{size}/routes"] = row.route_digest
        digests[f"scaling-topology/{size}/estimates"] = row.estimate_digest
    return digests


#: Estimators of the mitigation grid (the ledger's mitigation-loop pair).
MITIGATION_ESTIMATORS = ("Independence", "Correlation-heuristic")


def mitigation_digests() -> Dict[str, str]:
    """One digest per tiny-scale closed-loop cell, over its report JSON."""
    result = run_mitigation(
        TINY,
        seed=13,
        estimators=list(MITIGATION_ESTIMATORS),
        workers=1,
    )
    return {
        "mitigation/" + "/".join(key): hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
        for key, report in result.rows.items()
    }


def _matrix_digest(matrix) -> str:
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    digest = hashlib.sha256(f"{matrix.shape}\n".encode())
    digest.update(matrix.tobytes())
    return digest.hexdigest()


def observation_digests() -> Dict[str, str]:
    """Oracle, streaming-oracle and packet-level observations of one
    tiny Brite network under the random scenario."""
    network = generate_brite_network(TINY.brite, 5)
    scenario = build_scenario(network, ScenarioConfig(kind=ScenarioKind.RANDOM), 50)
    link_states = scenario.ground_truth.sample(TINY.num_intervals, 51)
    prober = PathProber(num_packets=TINY.num_packets)
    stream = StreamingProber(network, scenario.ground_truth, chunk_intervals=37)
    blocks = list(stream.rounds(TINY.num_intervals, random_state=52))
    return {
        "observations/oracle": _matrix_digest(
            oracle_path_status(network, link_states).matrix
        ),
        "observations/streaming-oracle": _matrix_digest(np.concatenate(blocks)),
        "observations/prober": _matrix_digest(
            prober.observe(network, link_states, random_state=53).matrix
        ),
    }


def timeline_digest(timeline) -> str:
    """sha256 over every window's span and its link marginals' float bits."""
    digest = hashlib.sha256()
    for window in timeline.windows:
        digest.update(f"W{window.start}:{window.stop}\n".encode())
        digest.update(np.asarray(window.model.link_marginals(), np.float64).tobytes())
    return digest.hexdigest()


def timeline_digests() -> Dict[str, str]:
    """One digest per windowed timeline, keyed ``timeline/...``.

    Each horizon is streamed round by round, in ragged blocks of 1 to 96
    rounds and in one bulk block; a cell whose chunkings disagree records
    every digest, so it cannot match its frozen value.
    """
    fig1 = fig1_topology(case=1)
    drivers = ([Driver(p, frozenset({0}))] for p in (0.1, 0.7))
    shifting = NonStationaryModel([(CongestionModel(4, d), 400) for d in drivers])
    states = shifting.sample(800, np.random.default_rng(4))
    fig1_horizon = oracle_path_status(fig1, states)
    brite = generate_brite_network(TINY.brite, 5)
    scenario = build_scenario(brite, ScenarioConfig(kind=ScenarioKind.RANDOM), 60)
    brite_horizon = oracle_path_status(brite, scenario.ground_truth.sample(420, 61))
    complete = CorrelationCompleteEstimator(EstimatorConfig(pruning_tolerance=0.0))
    cells = {
        f"fig1/Correlation-complete/{w}-{s}": (complete, fig1, fig1_horizon, w, s)
        for w, s in ((200, 200), (200, 100), (150, 70))
    }
    independence = IndependenceEstimator()
    cells["fig1/Independence/200-200"] = (independence, fig1, fig1_horizon, 200, 200)
    for estimator in (*BASELINES, CorrelationCompleteEstimator):
        fit = estimator(EstimatorConfig(seed=62))
        cells[f"brite/{fit.name}/120-97"] = (fit, brite, brite_horizon, 120, 97)
    digests = {}
    for key, (estimator, network, observations, window, stride) in cells.items():
        total = observations.num_intervals
        sizes = np.random.default_rng(total).integers(1, 97, size=total)
        cut = int(np.searchsorted(np.cumsum(sizes), total))
        ragged = [*sizes[:cut], total - sizes[:cut].sum()]
        found = set()
        for blocks in ([1] * total, ragged, [total]):
            bounds = np.cumsum([0, *blocks]).tolist()
            engine = StreamingEstimator(
                network, estimator, window=window, stride=stride
            )
            engine.run(
                observations.slice_intervals(a, b).matrix
                for a, b in zip(bounds, bounds[1:])
            )
            found.add(timeline_digest(engine.timeline))
        digests[f"timeline/{key}"] = found.pop() if len(found) == 1 else str(found)
    return digests


def compute_digests() -> Dict[str, str]:
    return {
        **fig4_digests(),
        **powerlaw_digest(),
        **scaling_topology_digests(),
        **mitigation_digests(),
        **observation_digests(),
        **timeline_digests(),
    }


def pinned_digests() -> Dict[str, str]:
    """:func:`compute_digests` in a fresh interpreter with one BLAS thread."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__, "--print"],
        env={**os.environ, **PINNED_ENV, "PYTHONPATH": python_path},
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def frozen() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def computed() -> Dict[str, str]:
    return pinned_digests()


def _assert_prefix_matches(frozen, computed, prefix: str, count: int) -> None:
    expected = {key: value for key, value in frozen.items() if key.startswith(prefix)}
    assert len(expected) == count
    mismatched = sorted(key for key in expected if computed.get(key) != expected[key])
    assert not mismatched
    assert {key for key in computed if key.startswith(prefix)} == set(expected)


def test_fig4_cells_match_frozen_digests(frozen, computed):
    count = 2 * len(SCENARIOS) * len(ESTIMATORS)
    _assert_prefix_matches(frozen, computed, "fig4/", count)


def test_fig4_baselines_match_frozen_digests(frozen, computed):
    count = 2 * len(SCENARIOS) * len(BASELINES)
    _assert_prefix_matches(frozen, computed, "fig4-baselines/", count)


def test_powerlaw_deployment_matches_frozen_digest(frozen, computed):
    _assert_prefix_matches(frozen, computed, "powerlaw-1000/", 1)


def test_scaling_topology_matches_frozen_digests(frozen, computed):
    count = 2 * len(SCALING_SIZES)
    _assert_prefix_matches(frozen, computed, "scaling-topology/", count)


def test_mitigation_grid_matches_frozen_digests(frozen, computed):
    count = len(DEFAULT_SCENARIOS) * len(MITIGATION_ESTIMATORS) * len(policy_names())
    _assert_prefix_matches(frozen, computed, "mitigation/", count)


def test_observations_match_frozen_digests(frozen, computed):
    _assert_prefix_matches(frozen, computed, "observations/", 3)


def test_timelines_match_frozen_digests(frozen, computed):
    _assert_prefix_matches(frozen, computed, "timeline/", 7)


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(json.dumps(compute_digests()))
    else:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(
            json.dumps(pinned_digests(), indent=1, sort_keys=True) + "\n"
        )
        sys.stdout.write(f"wrote {FIXTURE}\n")
