"""Estimator fits through entry-run storage against the frozen dense solve.

The estimators store their equations as (column, value) entry runs. Each
fit must produce the *same* model — exact estimate floats,
identifiability flags, rank, residual, selected path sets — as the fit
whose solve is the frozen dense-storage solve of
``tests/linalg/test_sparse_system.py``, on cold fits and through a shared
workspace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.system import EquationSystem
from repro.probability.base import EstimatorConfig
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.registry import make_estimator
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from tests.linalg.test_sparse_system import dense_solve_of

ESTIMATORS = [
    "Independence",
    "Correlation-heuristic",
    "Correlation-complete",
    "Correlation-complete (no redundancy)",
]


@pytest.fixture(scope="module")
def experiment(small_brite):
    scenario = build_scenario(
        small_brite, ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE), 11
    )
    return run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    )


def _dense_fit(name, config, network, observations):
    """A fit whose every solve is the frozen dense-storage solve."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EquationSystem, "solve", dense_solve_of)
        return make_estimator(name, config).fit(network, observations)


def _assert_fits_identical(dense, sparse):
    assert dense._good == sparse._good  # exact float equality
    assert dense._identifiable == sparse._identifiable
    assert dense.always_good_links == sparse.always_good_links
    dense_report, sparse_report = dense.report, sparse.report
    assert dense_report.num_unknowns == sparse_report.num_unknowns
    assert dense_report.num_equations == sparse_report.num_equations
    assert dense_report.rank == sparse_report.rank
    assert dense_report.num_identifiable == sparse_report.num_identifiable
    assert dense_report.residual == sparse_report.residual
    assert dense_report.path_sets == sparse_report.path_sets
    assert np.array_equal(dense.link_marginals(), sparse.link_marginals())


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("subset_size", [1, 2])
def test_sparse_flag_is_bit_identical(name, subset_size, small_brite, experiment):
    """Entry-run fits equal dense-solve fits, eagerly and with lazy admission."""
    observations = experiment.observations
    config = EstimatorConfig(requested_subset_size=subset_size, seed=3)
    dense = _dense_fit(name, config, small_brite, observations)
    sparse = make_estimator(name, config).fit(small_brite, observations)
    _assert_fits_identical(dense, sparse)
    # Entry runs are strictly lighter than the equations x unknowns
    # float64 matrix dense rows would fill.
    report = sparse.report
    if report.num_equations:
        dense_bytes = report.num_equations * report.num_unknowns * 8
        assert report.equation_storage_bytes < dense_bytes


@pytest.mark.parametrize("name", ESTIMATORS)
def test_sparse_through_shared_workspace(name, small_brite, experiment):
    """Successive fits through one workspace never cross-talk."""
    observations = experiment.observations
    config = EstimatorConfig(seed=3)
    dense = _dense_fit(name, config, small_brite, observations)
    workspace = SharedFitWorkspace(observations)
    for _ in range(2):
        sparse = make_estimator(name, config).fit(
            small_brite, observations, workspace=workspace
        )
        _assert_fits_identical(dense, sparse)
