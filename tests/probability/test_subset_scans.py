"""``SubsetIndex``'s touched-set scans against the all-sets reference.

``decompose`` and ``build`` visit only the correlation sets a path set
touches; :mod:`tests.reference_subsets` intersects ``Links(P)`` with every
correlation set. The ``E^`` ordering, every position list and every
unusable (``None``) result must be identical, including for path sets that
touch only inactive links and path sets that need a subset the index does
not hold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError
from repro.probability.subsets import SubsetIndex
from repro.topology.graph import Link, Network, Path
from tests import reference_subsets as reference


def _network(asns, path_links) -> Network:
    links = [Link(index=i, src=i, dst=i + 1, asn=asn) for i, asn in enumerate(asns)]
    paths = [Path(index=i, links=tuple(route)) for i, route in enumerate(path_links)]
    return Network(links, paths)


@st.composite
def subset_cases(draw):
    """A random network with multi-link correlation sets, plus path sets."""
    num_links = draw(st.integers(1, 10))
    # Few ASes for many links: most correlation sets hold several links,
    # and set order (by ASN) differs from link order.
    asns = draw(st.lists(st.integers(0, 4), min_size=num_links, max_size=num_links))
    link = st.integers(0, num_links - 1)
    path_links = draw(
        st.lists(
            st.lists(link, min_size=1, max_size=4, unique=True), min_size=1, max_size=6
        )
    )
    network = _network(asns, path_links)
    active = frozenset(draw(st.sets(link)))
    path_set = st.frozensets(st.integers(0, network.num_paths - 1))
    candidates = draw(st.lists(path_set, max_size=6))
    queries = draw(st.lists(path_set, min_size=1, max_size=8))
    options = dict(
        requested_subset_size=draw(st.integers(1, 3)),
        hard_subset_cap=draw(st.integers(1, 4)),
        max_requested_per_set=draw(st.one_of(st.none(), st.integers(1, 3))),
    )
    return network, active, candidates, queries, options


@settings(max_examples=150, deadline=None)
@given(case=subset_cases())
def test_build_and_decompose_match_all_sets_scan(case):
    network, active, candidates, queries, options = case
    index = SubsetIndex.build(network, active, candidates, **options)
    assert index.subsets == reference.build(network, active, candidates, **options)
    for path_set in candidates + queries:
        assert index.decompose(path_set) == reference.decompose(index, path_set)


@settings(max_examples=150, deadline=None)
@given(case=subset_cases())
def test_singleton_index_rejects_what_the_all_sets_scan_rejects(case):
    """An index of active singletons only: multi-link parts are unusable."""
    network, active, _candidates, queries, _options = case
    index = SubsetIndex(network, active, [frozenset({e}) for e in sorted(active)])
    for path_set in queries:
        assert index.decompose(path_set) == reference.decompose(index, path_set)


def test_inactive_links_and_unindexed_subsets():
    """The two edge cases of the scan, spelled out.

    Links 0, 1, 2 form correlation set 0 (ASN 5); links 3, 4 form set 1
    (ASN 7). Link 4 is inactive.
    """
    network = _network([5, 5, 5, 7, 7], [(0, 3), (4,), (1, 4), (2,)])
    active = frozenset({0, 1, 2, 3})
    index = SubsetIndex(network, active, [frozenset({e}) for e in range(4)])
    # Path 1 touches set 1 only through its inactive link 4: no unknowns.
    assert index.decompose([1]) == reference.decompose(index, [1]) == []
    # Path 2 touches set 1 through link 4 alone, and set 0 through link 1.
    assert index.decompose([2]) == reference.decompose(index, [2]) == [1]
    # Paths 0 and 3 together need {0, 2}, which the index does not hold.
    assert index.decompose([0, 3]) is None
    assert reference.decompose(index, [0, 3]) is None
    assert index.decompose([0, 1]) == reference.decompose(index, [0, 1]) == [0, 3]


@pytest.mark.parametrize(
    "subset",
    [frozenset(), frozenset({4}), frozenset({9}), frozenset({-1, 0})],
    ids=["empty", "inactive-link", "unknown-link", "negative-link"],
)
def test_owner_lookup_rejects_subsets_outside_every_active_set(subset):
    network = _network([5, 5, 5, 7, 7], [(0, 3), (4,)])
    with pytest.raises(EstimationError, match="crosses correlation-set"):
        SubsetIndex(network, frozenset({0, 1, 2, 3}), [subset])
