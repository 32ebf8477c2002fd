"""Golden suite: pipeline-based fits are bit-identical to the pre-refactor
monolithic estimators.

The three frozen reference implementations below are verbatim copies of the
estimators' ``fit()`` bodies as they existed before the staged-pipeline
refactor (one monolithic method per algorithm, cold cache per fit). Every
pipeline fit must reproduce their models *and* reports exactly — same
estimate floats, same identifiability, same path-set selection, same cache
counters — on both the packed and the dense observation backends; and a fit
through a shared :class:`~repro.probability.pipeline.SharedFitWorkspace`
must equal the cold-cache fit bit for bit. Correlation-complete's cache
counters are the one exception: its candidate frontier skips the repeat
frequency queries of the legacy rescan, so they may only drop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, null_space, null_space_update
from repro.linalg.system import EquationSystem
from repro.model.status import ObservationMatrix
from repro.probability.base import (
    EstimatorConfig,
    FitReport,
    FrequencyCache,
    log_frequency_weights,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.correlation_complete import (
    CandidateFrontier,
    CorrelationCompleteEstimator,
    CorrelationCompleteNoRedundancy,
    visit_order,
)
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.independence import IndependenceEstimator
from repro.probability.pipeline import SharedFitWorkspace
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import SubsetIndex, potentially_congested_links
from repro.simulation.experiment import run_experiment
from repro.simulation.probing import PathProber
from repro.simulation.scenarios import ScenarioConfig, ScenarioKind, build_scenario
from repro.util.subsets import bounded_subsets
from tests.dense_incidence import dense_incidence


# ----------------------------------------------------------------------
# Frozen pre-refactor reference implementations
# ----------------------------------------------------------------------
def _rows_matrix(index, path_sets):
    """The pre-refactor ``SubsetIndex.rows_matrix``: dense usable rows."""
    flat_positions, row_lengths, usable = index.decompose_batch(path_sets)
    matrix = np.zeros((row_lengths.size, len(index.subsets)))
    if row_lengths.size:
        row_ids = np.repeat(np.arange(row_lengths.size), row_lengths)
        matrix[row_ids, flat_positions] = 1.0
    return matrix, usable


def _attach(model, report):
    model.report = report
    return model


def legacy_independence_fit(config, network, observations, weighted=False):
    """The pre-refactor ``IndependenceEstimator.fit`` body."""
    config = EstimatorConfig(**{**config.__dict__})
    config.weighted = weighted
    active = sorted(
        potentially_congested_links(network, observations, config.pruning_tolerance)
    )
    always_good = frozenset(range(network.num_links)) - frozenset(active)
    frequency = FrequencyCache(observations)
    if not active:
        model = CongestionProbabilityModel(
            network, {}, {}, always_good_links=always_good, independent=True
        )
        return _attach(model, FitReport())

    path_sets = list(singleton_path_sets(observations))
    path_sets.extend(
        shared_sampled_pool(
            network,
            observations,
            count=config.pair_sample,
            max_size=config.path_set_max_size,
            seed=config.seed,
        )
    )
    frequencies = frequency.query_many(path_sets)
    incidence = dense_incidence(network)[:, active]
    coverage = np.zeros((len(path_sets), len(active)), dtype=bool)
    for i, path_set in enumerate(path_sets):
        coverage[i] = incidence[list(path_set)].any(axis=0)
    usable = (frequencies > config.min_frequency) & coverage.any(axis=1)
    if not usable.any():
        raise EstimationError("Independence: no usable path-set equations")
    rows = coverage[usable].astype(float)
    freqs = frequencies[usable]
    weights = (
        log_frequency_weights(freqs, frequency.num_intervals)
        if config.weighted
        else np.ones(len(freqs))
    )
    system = EquationSystem(len(active))
    system.add_batch(rows, np.log(freqs), weights)
    used = [frozenset(ps) for ps, keep in zip(path_sets, usable) if keep]
    solution = system.solve(upper_bound=0.0)
    good = np.exp(np.minimum(solution.values, 0.0))
    estimates, identifiable = {}, {}
    for i, link in enumerate(active):
        estimates[frozenset({link})] = float(good[i])
        identifiable[frozenset({link})] = bool(solution.identifiable[i])
    model = CongestionProbabilityModel(
        network, estimates, identifiable,
        always_good_links=always_good, independent=True,
    )
    report = FitReport(
        num_unknowns=len(active),
        num_equations=len(system),
        rank=solution.rank,
        num_identifiable=int(solution.identifiable.sum()),
        residual=solution.residual,
        path_sets=used,
        frequency_cache_hits=frequency.hits,
        frequency_cache_misses=frequency.misses,
    )
    return _attach(model, report)


def legacy_heuristic_fit(config, network, observations):
    """The pre-refactor ``CorrelationHeuristicEstimator.fit`` body."""
    config = EstimatorConfig(**{**config.__dict__})
    config.weighted = False
    active = potentially_congested_links(
        network, observations, config.pruning_tolerance
    )
    always_good = frozenset(range(network.num_links)) - active
    frequency = FrequencyCache(observations)
    if not active:
        model = CongestionProbabilityModel(
            network, {}, {}, always_good_links=always_good
        )
        return _attach(model, FitReport())

    pool = list(singleton_path_sets(observations))
    pool.extend(
        shared_sampled_pool(
            network,
            observations,
            count=config.pair_sample * 3,
            max_size=config.path_set_max_size + 2,
            seed=config.seed,
        )
    )
    active_sets = [
        frozenset(c & active) for c in network.correlation_sets if c & active
    ]
    for members in active_sets:
        for link in sorted(members):
            selector = network.paths_covering([link]) - network.paths_covering(
                members - {link}
            )
            if selector:
                pool.append(frozenset(selector))
    index = SubsetIndex.build(
        network, active, pool,
        requested_subset_size=1,
        hard_subset_cap=config.hard_subset_cap + 2,
    )
    deduped = list(dict.fromkeys(pool))
    frequencies = frequency.query_many(deduped)
    frequent = frequencies > config.min_frequency
    candidates = [s for s, keep in zip(deduped, frequent) if keep]
    rows, usable = _rows_matrix(index, candidates)
    if rows.shape[0] == 0:
        raise EstimationError("Correlation-heuristic: no usable path-set equations")
    used = [s for s, keep in zip(candidates, usable) if keep]
    system = EquationSystem(len(index))
    system.add_batch(rows, np.log(frequencies[frequent][usable]))
    solution = system.solve(upper_bound=0.0)
    good = np.exp(np.minimum(solution.values, 0.0))
    estimates, identifiable = {}, {}
    for i, subset in enumerate(index.subsets):
        estimates[subset] = float(good[i])
        identifiable[subset] = bool(solution.identifiable[i]) and len(subset) == 1
    model = CongestionProbabilityModel(
        network, estimates, identifiable, always_good_links=always_good
    )
    report = FitReport(
        num_unknowns=len(index),
        num_equations=len(system),
        rank=solution.rank,
        num_identifiable=int(solution.identifiable.sum()),
        residual=solution.residual,
        path_sets=used,
        frequency_cache_hits=frequency.hits,
        frequency_cache_misses=frequency.misses,
    )
    return _attach(model, report)


class LegacyCorrelationComplete:
    """The pre-refactor ``CorrelationCompleteEstimator`` (monolithic fit)."""

    def __init__(self, config, redundancy=True):
        self.config = EstimatorConfig(**{**config.__dict__})
        self.redundancy = redundancy

    def fit(self, network, observations):
        active = potentially_congested_links(
            network, observations, self.config.pruning_tolerance
        )
        frequency = FrequencyCache(observations)
        always_good = frozenset(range(network.num_links)) - active
        if not active:
            model = CongestionProbabilityModel(
                network, {}, {}, always_good_links=always_good
            )
            return _attach(model, FitReport())
        index, pool = self._build_index(network, observations, active)
        path_sets = self._select_path_sets(index, frequency)
        if not path_sets:
            raise EstimationError("no usable path-set equations")
        extra = (
            self._redundant_path_sets(index, frequency, pool, path_sets)
            if self.redundancy
            else []
        )
        return self._solve(network, index, path_sets, extra, frequency, always_good)

    def _build_index(self, network, observations, active):
        candidates = list(singleton_path_sets(observations))
        candidates.extend(
            shared_sampled_pool(
                network,
                observations,
                count=self.config.pair_sample,
                max_size=self.config.path_set_max_size,
                seed=self.config.seed,
            )
        )
        active_sets = [
            frozenset(c & active) for c in network.correlation_sets if c & active
        ]
        for members in active_sets:
            for link in sorted(members):
                selector = network.paths_covering([link]) - network.paths_covering(
                    members - {link}
                )
                if selector:
                    candidates.append(frozenset(selector))
        index = SubsetIndex.build(
            network, active, candidates,
            requested_subset_size=self.config.requested_subset_size,
            hard_subset_cap=self.config.hard_subset_cap,
        )
        return index, candidates

    def _usable_row(self, index, frequency, path_set):
        if not path_set:
            return None
        row = index.row(path_set)
        if row is None or not row.any():
            return None
        if frequency(path_set) <= self.config.min_frequency:
            return None
        return row

    def _select_path_sets(self, index, frequency):
        chosen, rows, seen = [], [], set()
        selectors = [
            frozenset(index.paths_selector(subset)) for subset in index.subsets
        ]
        frequency.prefetch([s for s in selectors if s])
        for path_set in selectors:
            if path_set in seen:
                continue
            row = self._usable_row(index, frequency, path_set)
            if row is None:
                continue
            seen.add(path_set)
            chosen.append(path_set)
            rows.append(row)
        matrix = (np.vstack(rows) if rows else np.zeros((0, len(index))))
        basis = null_space(matrix)
        while basis.shape[1] > 0:
            added = self._add_rank_increasing_row(index, frequency, basis, seen, chosen)
            if added is None:
                break
            basis = null_space_update(basis, added)
        return chosen

    def _add_rank_increasing_row(self, index, frequency, basis, seen, chosen):
        # The estimator's visit order, so frontier and rescan compare alike.
        for position in visit_order(basis):
            subset = index.subsets[int(position)]
            base = sorted(index.paths_selector(subset))
            if not base:
                continue
            combos = [
                frozenset(combo)
                for combo in bounded_subsets(
                    base,
                    max_size=self.config.path_set_max_size,
                    max_count=self.config.path_set_max_count,
                )
            ]
            fresh = [c for c in combos if c not in seen]
            chunk = 16
            for start in range(0, len(fresh), chunk):
                block = fresh[start : start + chunk]
                frequencies = frequency.query_many(block)
                rows, usable = _rows_matrix(index, block)
                if rows.shape[0] == 0:
                    continue
                gains = np.linalg.norm(rows @ basis, axis=1)
                candidate_ok = frequencies[usable] > self.config.min_frequency
                candidates = [c for c, keep in zip(block, usable) if keep]
                for candidate, ok, gain, row in zip(
                    candidates, candidate_ok, gains, rows
                ):
                    if not ok or gain <= DEFAULT_TOL:
                        continue
                    seen.add(candidate)
                    chosen.append(candidate)
                    return row
        return None

    def _redundant_path_sets(self, index, frequency, pool, selected):
        seen = set(selected)
        fresh = [
            path_set
            for path_set in dict.fromkeys(pool)
            if path_set and path_set not in seen
        ]
        if not fresh:
            return []
        frequencies = frequency.query_many(fresh)
        _, usable = _rows_matrix(index, fresh)
        keep = usable & (frequencies > self.config.min_frequency)
        return [path_set for path_set, ok in zip(fresh, keep) if ok]

    def _add_prior_equations(self, system, index):
        if self.config.prior_weight <= 0.0:
            return
        for subset in index.subsets:
            if len(subset) < 2:
                continue
            singleton_positions = []
            for link in subset:
                singleton = frozenset({link})
                if singleton not in index:
                    break
                singleton_positions.append(index.position(singleton))
            else:
                if self.config.prior_mode == "independence":
                    row = np.zeros(len(index))
                    row[index.position(subset)] = 1.0
                    row[singleton_positions] -= 1.0
                    system.add(row, 0.0, self.config.prior_weight, prior=True)
                else:
                    for position in singleton_positions:
                        row = np.zeros(len(index))
                        row[index.position(subset)] = 1.0
                        row[position] -= 1.0
                        system.add(row, 0.0, self.config.prior_weight, prior=True)

    def _solve(self, network, index, path_sets, extra, frequency, always_good):
        all_sets = list(path_sets) + list(extra)
        rows, usable = _rows_matrix(index, all_sets)
        if not usable.all():
            raise EstimationError("selected path set became unusable")
        freqs = frequency.query_many(all_sets)
        weights = (
            log_frequency_weights(freqs, frequency.num_intervals)
            if self.config.weighted
            else np.ones(len(all_sets))
        )
        system = EquationSystem(len(index))
        system.add_batch(rows, np.log(freqs), weights)
        self._add_prior_equations(system, index)
        solution = system.solve(upper_bound=0.0)
        good = np.exp(np.minimum(solution.values, 0.0))
        estimates, identifiable = {}, {}
        for position, subset in enumerate(index.subsets):
            estimates[subset] = float(good[position])
            identifiable[subset] = bool(solution.identifiable[position])
        model = CongestionProbabilityModel(
            network, estimates, identifiable, always_good_links=always_good
        )
        report = FitReport(
            num_unknowns=len(index),
            num_equations=len(system),
            rank=solution.rank,
            num_identifiable=int(solution.identifiable.sum()),
            residual=solution.residual,
            path_sets=list(path_sets),
            frequency_cache_hits=frequency.hits,
            frequency_cache_misses=frequency.misses,
        )
        return _attach(model, report)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def assert_models_identical(actual, expected):
    """Bitwise model equality: estimates, flags, always-good set."""
    assert actual._good == expected._good  # exact float equality
    assert actual._identifiable == expected._identifiable
    assert actual.always_good_links == expected.always_good_links
    assert actual.independent == expected.independent
    assert np.array_equal(actual.link_marginals(), expected.link_marginals())


def assert_reports_identical(actual, expected, fewer_queries=False):
    """Bitwise report equality on every pre-refactor field.

    ``stage_seconds`` is the pipeline's extension (wall-clock, never
    comparable) and is excluded. With ``fewer_queries`` the cache counters
    may only drop: Algorithm 1's candidate frontier never re-tests a
    settled candidate, so it skips frequency queries the legacy rescan
    repeated, while selecting the same path sets.
    """
    assert actual.num_unknowns == expected.num_unknowns
    assert actual.num_equations == expected.num_equations
    assert actual.rank == expected.rank
    assert actual.num_identifiable == expected.num_identifiable
    assert actual.residual == expected.residual
    assert actual.path_sets == expected.path_sets
    if fewer_queries:
        assert actual.frequency_cache_hits <= expected.frequency_cache_hits
        assert actual.frequency_cache_misses <= expected.frequency_cache_misses
    else:
        assert actual.frequency_cache_hits == expected.frequency_cache_hits
        assert actual.frequency_cache_misses == expected.frequency_cache_misses


@pytest.fixture(scope="module")
def experiment(small_brite):
    """A noisy (non-oracle) run: realistic frequency-cache traffic."""
    scenario = build_scenario(
        small_brite, ScenarioConfig(kind=ScenarioKind.NO_INDEPENDENCE), 11
    )
    return run_experiment(
        scenario, 400, prober=PathProber(num_packets=40), random_state=12
    )


@pytest.fixture(scope="module", params=["packed", "dense"])
def observations(request, experiment):
    if request.param == "packed":
        return experiment.observations
    return ObservationMatrix(experiment.observations.matrix, backend="dense")


# (name, factory, legacy fit, cache counters may drop below the legacy's)
CASES = [
    (
        "Independence",
        lambda cfg: IndependenceEstimator(cfg),
        lambda cfg, net, obs: legacy_independence_fit(cfg, net, obs),
        False,
    ),
    (
        "Correlation-heuristic",
        lambda cfg: CorrelationHeuristicEstimator(cfg),
        lambda cfg, net, obs: legacy_heuristic_fit(cfg, net, obs),
        False,
    ),
    (
        "Correlation-complete",
        lambda cfg: CorrelationCompleteEstimator(cfg),
        lambda cfg, net, obs: LegacyCorrelationComplete(cfg).fit(net, obs),
        True,
    ),
    (
        "Correlation-complete (no redundancy)",
        lambda cfg: CorrelationCompleteNoRedundancy(cfg),
        lambda cfg, net, obs: LegacyCorrelationComplete(
            cfg, redundancy=False
        ).fit(net, obs),
        True,
    ),
]


@pytest.mark.parametrize(
    "factory,legacy,fewer_queries",
    [case[1:] for case in CASES],
    ids=[c[0] for c in CASES],
)
def test_pipeline_fit_matches_legacy(
    factory, legacy, fewer_queries, small_brite, observations
):
    config = EstimatorConfig(seed=3)
    expected = legacy(config, small_brite, observations)
    actual = factory(config).fit(small_brite, observations)
    assert_models_identical(actual, expected)
    assert_reports_identical(actual.report, expected.report, fewer_queries)


@pytest.mark.parametrize(
    "factory,legacy", [case[1:3] for case in CASES], ids=[c[0] for c in CASES]
)
def test_shared_workspace_fit_matches_legacy(
    factory, legacy, small_brite, observations
):
    """Warm shared-cache fits equal cold legacy fits on the model level.

    Cache hit/miss counters legitimately differ (that is the point of the
    workspace); everything that feeds the estimates must not.
    """
    config = EstimatorConfig(seed=3)
    expected = legacy(config, small_brite, observations)
    workspace = SharedFitWorkspace(observations)
    # Pre-warm with another estimator so the cache is genuinely shared.
    IndependenceEstimator(config).fit(small_brite, observations, workspace=workspace)
    actual = factory(config).fit(small_brite, observations, workspace=workspace)
    assert_models_identical(actual, expected)
    report, golden = actual.report, expected.report
    assert report.num_equations == golden.num_equations
    assert report.rank == golden.rank
    assert report.residual == golden.residual
    assert report.path_sets == golden.path_sets
    # The warm cache answered some queries the cold fit had to compute.
    assert report.frequency_cache_misses <= golden.frequency_cache_misses


def test_empty_active_short_circuit_matches_legacy(small_brite):
    """All-good observations: pruning leaves nothing and both paths agree."""
    matrix = np.zeros((64, small_brite.num_paths), dtype=bool)
    observations = ObservationMatrix(matrix)
    config = EstimatorConfig(seed=3)
    for factory, legacy in [case[1:3] for case in CASES]:
        expected = legacy(config, small_brite, observations)
        actual = factory(config).fit(small_brite, observations)
        assert_models_identical(actual, expected)
        assert_reports_identical(actual.report, expected.report)
        assert actual.report.num_unknowns == 0


@pytest.mark.parametrize(
    "estimator", [CorrelationCompleteEstimator, CorrelationCompleteNoRedundancy]
)
def test_failed_candidate_is_never_tested_again(
    estimator, small_brite, observations, monkeypatch
):
    """Within one fit, a path set is tested again only after passing.

    A test is a rank test (a gain computed for the candidate) or a single
    frequency query. Every path set's tests but its last must be passing
    rank tests: a failed test, or a frequency query (made only for the
    winner or a candidate that then fails), settles the path set.
    """
    config = EstimatorConfig(seed=3)
    events = {}
    gains = CandidateFrontier.gains
    query = FrequencyCache.__call__

    def spy_gains(basis, block):
        values = gains(basis, block)
        for (path_set, _), gain in zip(block, values):
            events.setdefault(path_set, []).append(bool(gain > DEFAULT_TOL))
        return values

    def spy_query(cache, path_set):
        value = query(cache, path_set)
        events.setdefault(frozenset(path_set), []).append("frequency")
        return value

    monkeypatch.setattr(CandidateFrontier, "gains", staticmethod(spy_gains))
    monkeypatch.setattr(FrequencyCache, "__call__", spy_query)
    model = estimator(config).fit(small_brite, observations)
    assert sum(len(tests) for tests in events.values()) > len(events)
    for path_set, tests in events.items():
        assert all(test is True for test in tests[:-1]), sorted(path_set)
    for path_set in model.report.path_sets:
        assert events[path_set][-1] == "frequency"


@pytest.mark.parametrize("min_frequency", [0.3, 0.6])
def test_frontier_matches_legacy_with_frequency_floor(
    min_frequency, small_brite, observations
):
    """Candidates settled by the frequency test change no selection.

    With the default floor of 0 almost every candidate passes the
    frequency test; a floor makes many fail it and stay settled.
    """
    config = EstimatorConfig(seed=3, min_frequency=min_frequency)
    expected = LegacyCorrelationComplete(config).fit(small_brite, observations)
    actual = CorrelationCompleteEstimator(config).fit(small_brite, observations)
    assert_models_identical(actual, expected)
    assert_reports_identical(actual.report, expected.report, fewer_queries=True)
