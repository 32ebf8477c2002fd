"""Tests for the driver-based congestion ground truth."""

from __future__ import annotations

import pytest

from repro.exceptions import ScenarioError
from repro.simulation.congestion import (
    CongestionModel,
    Driver,
    NonStationaryModel,
    build_congestion_model,
)
from repro.topology.builders import network_from_paths


def test_driver_validation():
    with pytest.raises(ScenarioError):
        Driver(probability=1.5, links=frozenset({0}))
    with pytest.raises(ScenarioError):
        Driver(probability=0.5, links=frozenset())


def test_marginal_single_driver():
    model = CongestionModel(2, [Driver(0.3, frozenset({0}))])
    assert model.marginal(0) == pytest.approx(0.3)
    assert model.marginal(1) == 0.0


def test_marginal_stacked_drivers():
    model = CongestionModel(
        1, [Driver(0.2, frozenset({0})), Driver(0.5, frozenset({0}))]
    )
    assert model.marginal(0) == pytest.approx(1 - 0.8 * 0.5)


def test_prob_all_good_shared_driver():
    model = CongestionModel(2, [Driver(0.3, frozenset({0, 1}))])
    # Perfectly correlated: both good iff the driver does not fire.
    assert model.prob_all_good([0, 1]) == pytest.approx(0.7)
    assert model.prob_all_good([0]) == pytest.approx(0.7)


def test_prob_all_good_independent_links():
    model = CongestionModel(
        2, [Driver(0.3, frozenset({0})), Driver(0.4, frozenset({1}))]
    )
    assert model.prob_all_good([0, 1]) == pytest.approx(0.7 * 0.6)


def test_prob_all_good_empty():
    model = CongestionModel(2, [Driver(0.3, frozenset({0}))])
    assert model.prob_all_good([]) == 1.0


def test_prob_all_congested_inclusion_exclusion():
    model = CongestionModel(
        2, [Driver(0.3, frozenset({0})), Driver(0.4, frozenset({1}))]
    )
    assert model.prob_all_congested([0, 1]) == pytest.approx(0.3 * 0.4)


def test_prob_all_congested_correlated():
    model = CongestionModel(2, [Driver(0.3, frozenset({0, 1}))])
    # Perfectly correlated pair congested together with driver probability.
    assert model.prob_all_congested([0, 1]) == pytest.approx(0.3)


def test_congestable_links():
    model = CongestionModel(
        3, [Driver(0.3, frozenset({0})), Driver(0.2, frozenset({2}))]
    )
    assert model.congestable_links() == frozenset({0, 2})


def test_zero_probability_drivers_dropped():
    model = CongestionModel(2, [Driver(0.0, frozenset({0}))])
    assert model.congestable_links() == frozenset()


def test_sample_shape_and_support():
    model = CongestionModel(3, [Driver(0.5, frozenset({1}))])
    states = model.sample(100, 0)
    assert states.shape == (100, 3)
    assert not states[:, 0].any()
    assert not states[:, 2].any()


def test_sample_frequency_matches_marginal():
    model = CongestionModel(1, [Driver(0.3, frozenset({0}))])
    states = model.sample(20000, 1)
    assert states[:, 0].mean() == pytest.approx(0.3, abs=0.02)


def test_sample_correlation_is_perfect_for_shared_driver():
    model = CongestionModel(2, [Driver(0.4, frozenset({0, 1}))])
    states = model.sample(1000, 2)
    assert (states[:, 0] == states[:, 1]).all()


def test_sample_does_not_wrap_at_256_firing_drivers():
    # Regression: a uint8 firing-driver count wrapped to 0 at 256 drivers,
    # so a link with marginal 1.0 sampled as never congested.
    drivers = [Driver(1.0, frozenset({0})) for _ in range(256)]
    model = CongestionModel(2, drivers + [Driver(0.5, frozenset({1}))])
    assert model.marginal(0) == 1.0
    states = model.sample(50, random_state=7)
    assert states[:, 0].all()
    assert states[:, 1].any() and not states[:, 1].all()


def test_driver_unknown_link_rejected():
    with pytest.raises(ScenarioError):
        CongestionModel(1, [Driver(0.3, frozenset({5}))])


def test_correlated_groups():
    model = CongestionModel(
        3,
        [
            Driver(0.2, frozenset({0, 1})),
            Driver(0.3, frozenset({2})),
        ],
    )
    assert model.correlated_groups() == [frozenset({0, 1})]


# ----------------------------------------------------------------------
# build_congestion_model calibration
# ----------------------------------------------------------------------
def _correlated_network():
    return network_from_paths(
        [["a", "b"], ["c", "b"]],
        asn_of={"a": 1, "b": 1, "c": 2},
        router_links_of={"a": [7, 8], "c": [7, 9], "b": [10]},
    )


def test_build_model_exact_marginals():
    network = _correlated_network()
    targets = {0: 0.4, 1: 0.2, 2: 0.5}
    model = build_congestion_model(network, targets, correlation_strength=0.8)
    for link, expected in targets.items():
        assert model.marginal(link) == pytest.approx(expected)


def test_build_model_creates_shared_driver():
    network = _correlated_network()
    # Links a (0) and c (2) share router link 7.
    model = build_congestion_model(network, {0: 0.4, 2: 0.5}, correlation_strength=0.8)
    assert frozenset({0, 2}) in model.correlated_groups()
    # Correlation exists: joint good probability exceeds the product.
    assert model.prob_all_good([0, 2]) > model.prob_all_good([0]) * model.prob_all_good([2]) + 1e-9


def test_build_model_zero_strength_independent():
    network = _correlated_network()
    model = build_congestion_model(network, {0: 0.4, 2: 0.5}, correlation_strength=0.0)
    assert model.correlated_groups() == []
    assert model.prob_all_good([0, 2]) == pytest.approx(
        model.prob_all_good([0]) * model.prob_all_good([2])
    )


def test_build_model_rejects_bad_marginal():
    network = _correlated_network()
    with pytest.raises(ScenarioError):
        build_congestion_model(network, {0: 1.0})


def test_build_model_rejects_bad_strength():
    network = _correlated_network()
    with pytest.raises(ScenarioError):
        build_congestion_model(network, {0: 0.4}, correlation_strength=1.5)


# ----------------------------------------------------------------------
# NonStationaryModel
# ----------------------------------------------------------------------
def test_non_stationary_weighted_averages():
    a = CongestionModel(1, [Driver(0.2, frozenset({0}))])
    b = CongestionModel(1, [Driver(0.6, frozenset({0}))])
    model = NonStationaryModel([(a, 10), (b, 30)])
    assert model.marginal(0) == pytest.approx(0.25 * 0.2 + 0.75 * 0.6)
    assert model.prob_all_good([0]) == pytest.approx(0.25 * 0.8 + 0.75 * 0.4)


def test_non_stationary_sampling_cycles_epochs():
    a = CongestionModel(1, [Driver(1.0, frozenset({0}))])
    b = CongestionModel(1, [])
    model = NonStationaryModel([(a, 5), (b, 5)])
    states = model.sample(20, 0)
    assert states[:5, 0].all()
    assert not states[5:10, 0].any()
    assert states[10:15, 0].all()


def test_non_stationary_empirical_matches_average():
    a = CongestionModel(1, [Driver(0.2, frozenset({0}))])
    b = CongestionModel(1, [Driver(0.8, frozenset({0}))])
    model = NonStationaryModel([(a, 25), (b, 25)])
    states = model.sample(20000, 3)
    assert states[:, 0].mean() == pytest.approx(model.marginal(0), abs=0.02)


def test_non_stationary_validation():
    a = CongestionModel(1, [])
    with pytest.raises(ScenarioError):
        NonStationaryModel([])
    with pytest.raises(ScenarioError):
        NonStationaryModel([(a, 0)])
    b = CongestionModel(2, [])
    with pytest.raises(ScenarioError):
        NonStationaryModel([(a, 5), (b, 5)])
