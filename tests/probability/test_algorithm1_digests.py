"""Frozen digests of Algorithm 1's output.

Each digest is a sha256 over what a Correlation-complete fit selects and
solves: the chosen path sets in selection order, every estimate's exact
float bits, the rank, the residual and the equation count. The cases are
the tiny-scale Fig. 4 cells (Brite and Sparse topologies under the three
Fig. 4 scenarios, fitted by Correlation-complete with and without the
redundancy pass, on the packed and the dense observation backends) and
one 1k-node power-law deployment derived through
:func:`~repro.datasets.base.derive_network_compact`.

Any change to the path-set selection, the null-space updates or the solve
that moves a single bit shows up here. Regenerate the fixture only for a
change that is meant to move results::

    PYTHONPATH=src python tests/probability/test_algorithm1_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.datasets.base import DatasetSpec, derive_network_compact
from repro.datasets.synthetic import generate_powerlaw_edges
from repro.exceptions import EstimationError
from repro.experiments.config import TINY
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import (
    CorrelationCompleteEstimator,
    CorrelationCompleteNoRedundancy,
)
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network
from repro.topology.traceroute import generate_sparse_network

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "golden" / "algorithm1_digests.json"
)

ESTIMATORS = (CorrelationCompleteEstimator, CorrelationCompleteNoRedundancy)

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
    """Digests of the tiny-scale Fig. 4 cells, per backend and estimator."""
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
            backends = {
                "packed": experiment.observations,
                "dense": ObservationMatrix(
                    experiment.observations.matrix, backend="dense"
                ),
            }
            for backend, observations in backends.items():
                for estimator in ESTIMATORS:
                    key = f"fig4/{topology}/{label}/{backend}/{estimator.name}"
                    digests[key] = fit_digest(
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
    config = EstimatorConfig(requested_subset_size=1, seed=45, sparse=True)
    estimator = CorrelationCompleteEstimator(config)
    return {
        "powerlaw-1000/Correlation-complete": fit_digest(
            estimator, network, experiment.observations
        )
    }


def compute_digests() -> Dict[str, str]:
    return {**fig4_digests(), **powerlaw_digest()}


@pytest.fixture(scope="module")
def frozen() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fig4_cells_match_frozen_digests(frozen):
    fig4 = fig4_digests()
    expected = {key: value for key, value in frozen.items() if key.startswith("fig4/")}
    assert len(expected) == 2 * len(SCENARIOS) * 2 * len(ESTIMATORS)
    mismatched = sorted(key for key in expected if fig4.get(key) != expected[key])
    assert not mismatched
    assert set(fig4) == set(expected)


def test_powerlaw_deployment_matches_frozen_digest(frozen):
    for key, value in powerlaw_digest().items():
        assert frozen[key] == value


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
