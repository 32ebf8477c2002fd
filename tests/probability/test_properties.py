"""Hypothesis property tests on the estimation core.

Invariants checked:

* Eq. 1 consistency: for any driver model and path set, the analytic
  all-good probability of the covered links factorises across correlation
  sets exactly (the identity the whole method rests on);
* inclusion–exclusion round-trips between all-good and all-congested set
  probabilities;
* the Correlation-complete estimator recovers identifiable quantities from
  analytic (infinite-sample) inputs exactly;
* Algorithm 1's visit order depends only on the span of the null-space
  basis, not on which orthonormal basis spans it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.probability.correlation_complete import visit_order
from repro.simulation.congestion import CongestionModel, Driver
from repro.simulation.probing import oracle_path_status
from repro.topology.builders import fig1_topology

NETWORK = fig1_topology(1)


@st.composite
def driver_models(draw):
    """Random driver models over the Fig. 1 links."""
    num_drivers = draw(st.integers(1, 4))
    drivers = []
    for _ in range(num_drivers):
        probability = draw(st.floats(0.05, 0.9, allow_nan=False, allow_infinity=False))
        links = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3).map(frozenset))
        drivers.append(Driver(probability=probability, links=links))
    return CongestionModel(4, drivers)


@settings(max_examples=60, deadline=None)
@given(model=driver_models(), path_set=st.sets(st.integers(0, 2), min_size=1))
def test_eq1_factorises_across_correlation_sets(model, path_set):
    """P(all links of Links(P) good) = prod over correlation sets of the
    per-set joint — exact for driver models only when no driver crosses a
    correlation-set boundary, and a (<=) bound otherwise."""
    links = NETWORK.links_covered(path_set)
    joint = model.prob_all_good(links)
    product = 1.0
    for members in NETWORK.correlation_sets:
        part = frozenset(members) & links
        if part:
            product *= model.prob_all_good(part)
    crosses = any(
        len({tuple(sorted(frozenset(c) & d.links)) for c in NETWORK.correlation_sets if frozenset(c) & d.links}) > 1
        for d in model.drivers
    )
    if crosses:
        # Cross-set drivers induce positive dependence: joint >= product.
        assert joint >= product - 1e-12
    else:
        assert joint == pytest.approx(product)


@settings(max_examples=60, deadline=None)
@given(model=driver_models(), links=st.sets(st.integers(0, 3), min_size=1, max_size=3))
def test_inclusion_exclusion_bounds(model, links):
    congested = model.prob_all_congested(links)
    good = model.prob_all_good(links)
    assert 0.0 <= congested <= 1.0
    assert 0.0 <= good <= 1.0
    if len(links) == 1:
        assert congested == pytest.approx(1.0 - good)


@settings(max_examples=60, deadline=None)
@given(model=driver_models())
def test_monotonicity_of_all_good(model):
    """P(all of S good) is non-increasing in S."""
    for subset, superset in [([0], [0, 1]), ([1], [1, 2]), ([0, 2], [0, 2, 3])]:
        assert (model.prob_all_good(superset) <= model.prob_all_good(subset) + 1e-12)


@settings(max_examples=25, deadline=None)
@given(model=driver_models())
def test_sampled_frequencies_match_analytic(model):
    states = model.sample(6000, np.random.default_rng(0))
    for links in ([0], [1, 2], [0, 1, 2, 3]):
        analytic = model.prob_all_good(links)
        empirical = float((~states[:, links]).all(axis=1).mean())
        assert empirical == pytest.approx(analytic, abs=0.05)


@settings(max_examples=25, deadline=None)
@given(model=driver_models())
def test_oracle_path_frequencies_match_analytic(model):
    states = model.sample(6000, np.random.default_rng(1))
    observations = oracle_path_status(NETWORK, states)
    for path_set in ([0], [0, 1], [0, 1, 2]):
        links = NETWORK.links_covered(path_set)
        analytic = model.prob_all_good(links)
        empirical = observations.all_good_frequency(path_set)
        assert empirical == pytest.approx(analytic, abs=0.05)


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(st.integers(-1, 3), min_size=2, max_size=12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_visit_order_depends_only_on_the_span(blocks, data, seed):
    """``visit_order(N) == visit_order(N @ Q)`` for every orthogonal ``Q``.

    ``N`` is block diagonal: rows of block ``b`` carry a random
    orthonormal basis of some dimension, so rows differ in their count of
    nonzero entries, which a rotation evens out. Block ``-1`` rows, and
    those of blocks of dimension 0, are outside the span: they get noise
    at rounding level before the rotation, and neither basis visits them.
    """
    rng = np.random.default_rng(seed)
    size = len(blocks)
    columns = []
    for block in range(4):
        rows = [i for i, b in enumerate(blocks) if b == block]
        dimension = data.draw(st.integers(0, len(rows)))
        column = np.zeros((size, dimension))
        column[rows] = np.linalg.qr(rng.standard_normal((len(rows), dimension)))[0]
        columns.append(column)
    basis = np.hstack(columns)
    nullity = basis.shape[1]
    assume(nullity > 0)
    live = np.flatnonzero(np.abs(basis).sum(axis=1))
    noisy = basis.copy()
    noisy[np.setdiff1d(np.arange(size), live)] = 1e-17 * rng.standard_normal(nullity)
    rotation, _ = np.linalg.qr(rng.standard_normal((nullity, nullity)))
    assert np.array_equal(visit_order(basis), live)
    assert np.array_equal(visit_order(noisy @ rotation), live)
