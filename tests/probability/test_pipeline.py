"""Unit tests of the staged pipeline, workspaces, and stage accounting."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.experiments.config import TINY
from repro.linalg.system import EquationSystem, SystemWorkspace
from repro.model.status import ObservationMatrix
from repro.probability.base import EstimatorConfig
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.independence import IndependenceEstimator
from repro.probability.pipeline import (
    STAGE_ORDER,
    EstimationPipeline,
    SharedFitWorkspace,
)
from repro.probability.registry import make_estimator, paper_estimator_names
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.topology.brite import generate_brite_network


@pytest.fixture(scope="module")
def experiment(small_brite):
    scenario = build_scenario(small_brite, ScenarioConfig(kind=ScenarioKind.RANDOM), 1)
    return run_experiment(scenario, 300, random_state=2, oracle=True)


# ----------------------------------------------------------------------
# Stage accounting
# ----------------------------------------------------------------------
def test_every_stage_timed_on_a_full_fit(small_brite, experiment):
    model = CorrelationCompleteEstimator(EstimatorConfig(seed=3)).fit(
        small_brite, experiment.observations
    )
    assert tuple(model.report.stage_seconds) == STAGE_ORDER
    assert all(seconds >= 0.0 for seconds in model.report.stage_seconds.values())
    assert model.report.total_seconds == pytest.approx(
        sum(model.report.stage_seconds.values())
    )


def test_stage_names_exposed_per_estimator(small_brite):
    estimator = IndependenceEstimator()
    assert tuple(estimator.stage_names()) == STAGE_ORDER
    assert tuple(estimator.pipeline().stage_names) == STAGE_ORDER


def test_prune_short_circuits_on_all_good(small_brite):
    observations = ObservationMatrix(
        np.zeros((64, small_brite.num_paths), dtype=bool)
    )
    model = CorrelationCompleteEstimator().fit(small_brite, observations)
    # Only the prune stage ran; the fit never built a cache or a system.
    assert list(model.report.stage_seconds) == ["prune"]
    assert model.always_good_links == frozenset(range(small_brite.num_links))


def test_pipeline_rejects_degenerate_stage_lists():
    with pytest.raises(EstimationError):
        EstimationPipeline([])
    noop = lambda context: None  # noqa: E731
    with pytest.raises(EstimationError, match="duplicate"):
        EstimationPipeline([("prune", noop), ("prune", noop)])


# ----------------------------------------------------------------------
# SharedFitWorkspace
# ----------------------------------------------------------------------
def test_workspace_checkout_rejects_other_observations(experiment):
    workspace = SharedFitWorkspace(experiment.observations)
    other = ObservationMatrix(experiment.observations.matrix)
    with pytest.raises(EstimationError, match="different observation set"):
        workspace.checkout(other)


def test_workspace_arena_per_fit_in_flight(experiment):
    """Overlapping fits hold distinct arenas; serial fits reuse one."""
    carried = SystemWorkspace()
    workspace = SharedFitWorkspace(experiment.observations, system=carried)
    with workspace.system_arena() as first:
        assert first is carried
        with workspace.system_arena() as second:
            assert second is not first
            # A system growing in one arena survives the other's next system.
            live = EquationSystem(2, workspace=first)
            EquationSystem(2, workspace=second)
            assert len(live) == 0
    with workspace.system_arena() as one:
        pass
    with workspace.system_arena() as next_one:
        assert next_one is one


def test_workspace_arenas_never_shared_under_thread_stress(experiment):
    """More threads than cores, switching often: no arena is ever lent twice."""
    workspace = SharedFitWorkspace(experiment.observations)
    errors = []

    def borrow_repeatedly():
        try:
            for _ in range(200):
                with workspace.system_arena() as arena:
                    system = EquationSystem(1, workspace=arena)
                    system.add(np.ones(1), -0.5)
                    for _ in range(3):
                        # Raises if another thread began a system here.
                        assert len(system) == 1
        except Exception as error:  # surfaced below, not lost in the thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=borrow_repeatedly) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_workspace_counters_are_per_fit(small_brite, experiment):
    """Reports carry per-fit deltas, not the shared cache's totals."""
    workspace = SharedFitWorkspace(experiment.observations)
    config = EstimatorConfig(seed=3)
    first = CorrelationCompleteEstimator(config).fit(
        small_brite, experiment.observations, workspace=workspace
    )
    second = CorrelationCompleteEstimator(config).fit(
        small_brite, experiment.observations, workspace=workspace
    )
    # The identical rerun answers everything from the warm cache...
    assert second.report.frequency_cache_misses == 0
    # ...and its hit count reflects its own queries, not both fits'
    # (batches count duplicate missing keys per occurrence but duplicate
    # hits once, so the warm rerun can undercount by the few in-batch
    # duplicates — never overcount).
    total_queries = (
        first.report.frequency_cache_hits + first.report.frequency_cache_misses
    )
    assert 0 < second.report.frequency_cache_hits <= total_queries
    assert np.array_equal(first.link_marginals(), second.link_marginals())


def test_workspace_not_required_for_plain_fits(small_brite, experiment):
    cold = CorrelationCompleteEstimator(EstimatorConfig(seed=3)).fit(
        small_brite, experiment.observations
    )
    assert cold.report.frequency_cache_hits >= 0  # cold cache, own counters


# ----------------------------------------------------------------------
# SystemWorkspace (linalg arena)
# ----------------------------------------------------------------------
def _filled_system(workspace, num_unknowns=3, rows=5, offset=0.0):
    system = EquationSystem(num_unknowns, workspace=workspace)
    matrix = np.arange(rows * num_unknowns, dtype=float).reshape(rows, num_unknowns)
    system.add_batch(matrix + offset, np.arange(rows, dtype=float))
    return system, matrix + offset


def test_system_workspace_matches_block_storage():
    workspace = SystemWorkspace()
    arena_system, matrix = _filled_system(workspace)
    plain = EquationSystem(3)
    plain.add_batch(matrix, np.arange(5, dtype=float))
    assert np.array_equal(arena_system.matrix, plain.matrix)
    assert np.array_equal(arena_system.rhs, plain.rhs)
    assert np.array_equal(arena_system.weights, plain.weights)
    assert np.array_equal(arena_system.prior_mask, plain.prior_mask)
    a = arena_system.solve()
    b = plain.solve()
    assert np.array_equal(a.values, b.values)
    assert a.rank == b.rank


def test_system_workspace_grows_and_recycles():
    workspace = SystemWorkspace()
    big = EquationSystem(4, workspace=workspace)
    big.add_batch(np.ones((workspace.INITIAL_CAPACITY + 10, 4)), np.ones(266))
    assert big.matrix.shape == (266, 4)
    # Recycling: a new system resets the count but keeps the capacity.
    small = EquationSystem(4, workspace=workspace)
    small.add_batch(np.eye(4), np.zeros(4))
    assert small.matrix.shape == (4, 4)
    assert len(small) == 4


def test_stale_system_detects_recycled_workspace():
    workspace = SystemWorkspace()
    stale, _ = _filled_system(workspace)
    EquationSystem(3, workspace=workspace)  # recycles the arena
    with pytest.raises(EstimationError, match="recycled"):
        stale.matrix


@pytest.fixture(scope="module")
def sweep_cell_fits():
    """A Fig. 4 sweep cell's three paper fits: cold, then through one workspace.

    The cell is the tiny Brite network under non-stationary No
    Independence congestion, measured by the packet prober — the trial
    every sweep driver runs per (topology, scenario, seed).
    """
    network = generate_brite_network(TINY.brite, random_state=2)
    scenario = build_scenario(
        network,
        ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE, non_stationary=True),
        random_state=2,
    )
    observations = run_experiment(
        scenario,
        TINY.num_intervals,
        prober=PathProber(num_packets=TINY.num_packets),
        random_state=3,
    ).observations
    workspace = SharedFitWorkspace(observations)
    cold, warm = {}, {}
    for name in paper_estimator_names():
        estimator = make_estimator(name, EstimatorConfig(seed=2))
        cold[name] = estimator.fit(network, observations)
    for name in paper_estimator_names():
        estimator = make_estimator(name, EstimatorConfig(seed=2))
        warm[name] = estimator.fit(network, observations, workspace=workspace)
    return cold, warm


def test_workspace_solves_match_blockwise_solves(sweep_cell_fits):
    """Every paper estimator fitted through a shared workspace equals its
    cold block-list fit bitwise."""
    cold, warm = sweep_cell_fits
    for name in paper_estimator_names():
        assert np.array_equal(
            cold[name].link_marginals(), warm[name].link_marginals()
        ), name
        assert cold[name]._good == warm[name]._good, name
        assert cold[name].report.rank == warm[name].report.rank, name
        assert cold[name].report.residual == warm[name].report.residual, name


def test_shared_workspace_trial_saves_frequency_evaluations(sweep_cell_fits):
    """One warm cache serves the whole trial: fewer kernel evaluations."""
    cold, warm = sweep_cell_fits
    cold_misses = sum(m.report.frequency_cache_misses for m in cold.values())
    warm_misses = sum(m.report.frequency_cache_misses for m in warm.values())
    assert warm_misses < cold_misses
