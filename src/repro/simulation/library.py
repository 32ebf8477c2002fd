"""Scenario library: a registry of named congestion-scenario generators.

The paper evaluates on a handful of congestion regimes (Section 3.2); the
ROADMAP's north star asks for "as many scenarios as you can imagine". This
module turns scenario construction into a registry the experiment drivers
sweep: every generator is a named recipe that binds a
:class:`~repro.topology.graph.Network` to a
:class:`~repro.simulation.congestion.GroundTruth`, producing a
:class:`~repro.simulation.scenarios.Scenario` the estimators, the
streaming engine, and the parallel runner all consume unchanged.

Registered generators:

* the four **classic** regimes of Section 3.2 (``random``,
  ``concentrated``, ``no_independence``, ``no_stationarity``), delegating
  to :func:`~repro.simulation.scenarios.build_scenario`;
* ``diurnal`` — time-of-day marginals: congestion probabilities follow a
  day-shaped cycle (piecewise-stationary epochs on a raised-cosine curve);
* ``gravity`` — load-induced congestion: a gravity traffic model routed
  over the monitored paths determines which links congest, and how much;
* ``cascade`` — cascading correlated failures: chained link groups fail
  together, each group overlapping the previous one;
* ``flash_crowd`` — a destination hotspot: quiet background congestion
  punctuated by spikes on every link feeding one popular destination;
* ``maintenance`` — maintenance-window non-stationarity: one peer AS's
  links degrade heavily during scheduled windows, and recover.

Generators declare what topology structure they need (``supports``), so
registry-driven sweeps can skip impossible (dataset, scenario) combos —
e.g. ``no_independence`` on an AS-relationship graph with no shared
router-level links — instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.exceptions import ScenarioError
from repro.simulation.congestion import (
    CongestionModel,
    Driver,
    GroundTruth,
    NonStationaryModel,
    build_congestion_model,
)
from repro.simulation.scenarios import (
    Scenario,
    ScenarioConfig,
    ScenarioKind,
    build_scenario,
    select_random_links,
    target_count,
)
from repro.topology.graph import Network
from repro.util.rng import RandomState, as_generator

#: A generator body: (network, rng, params) -> (ground truth, congestable).
BuilderFn = Callable[
    [Network, np.random.Generator, Dict[str, Any]],
    Tuple[GroundTruth, frozenset],
]


@dataclass(frozen=True)
class ScenarioGenerator:
    """One named scenario recipe.

    Attributes
    ----------
    name:
        Registry key (also the default scenario label).
    description:
        One-line summary shown by ``repro-tomography scenarios list``.
    builder:
        The generator body; receives the merged parameters.
    defaults:
        Parameter defaults; overrides outside this set are rejected, so
        sweep specs fail fast on typos.
    needs_correlated_groups:
        Whether the placement requires AS-level links sharing router-level
        links (the No-Independence family).
    non_stationary:
        Whether the ground truth varies over time (informational).
    """

    name: str
    description: str
    builder: BuilderFn
    defaults: Mapping[str, Any] = field(default_factory=dict)
    needs_correlated_groups: bool = False
    non_stationary: bool = False

    def supports(self, network: Network) -> bool:
        """Whether this generator can run on ``network``."""
        if self.needs_correlated_groups and not network.shared_router_links():
            return False
        return True

    def build(
        self,
        network: Network,
        random_state: RandomState = None,
        name: str = "",
        **overrides: Any,
    ) -> Scenario:
        """Instantiate the scenario on ``network``.

        Raises
        ------
        ScenarioError
            On unknown parameter overrides or when the topology lacks the
            required structure (see :meth:`supports`).
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"known parameters: {sorted(self.defaults)}"
            )
        if not self.supports(network):
            raise ScenarioError(
                f"scenario {self.name!r} requires correlated link groups, "
                f"and topology {network.name!r} has none"
            )
        params = {**self.defaults, **overrides}
        rng = as_generator(random_state)
        ground_truth, congestable = self.builder(network, rng, params)
        return Scenario(
            name=name or self.name,
            network=network,
            ground_truth=ground_truth,
            congestable=congestable,
        )


#: All registered scenario generators by name.
SCENARIOS: Dict[str, ScenarioGenerator] = {}


def register_scenario(
    generator: ScenarioGenerator, replace_existing: bool = False
) -> None:
    """Register a generator; re-registration requires ``replace_existing``."""
    if generator.name in SCENARIOS and not replace_existing:
        raise ScenarioError(f"scenario {generator.name!r} is already registered")
    SCENARIOS[generator.name] = generator


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioGenerator:
    """Look up a registered generator; raises with the known names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; known scenarios: {scenario_names()}"
        ) from None


def build_named_scenario(
    name: str,
    network: Network,
    random_state: RandomState = None,
    **overrides: Any,
) -> Scenario:
    """Build a registered scenario by name (see :class:`ScenarioGenerator`)."""
    return get_scenario(name).build(network, random_state, **overrides)


# ----------------------------------------------------------------------
# Classic regimes (Section 3.2), delegated to build_scenario
# ----------------------------------------------------------------------
_CLASSIC_DEFAULTS: Dict[str, Any] = {
    "congestable_fraction": 0.1,
    "correlation_strength": 0.95,
    "min_marginal": 0.05,
    "max_marginal": 0.95,
    "epoch_length": 25,
    "num_epochs": 8,
    "non_stationary": None,
}


def _classic_builder(kind: ScenarioKind) -> BuilderFn:
    def build(
        network: Network, rng: np.random.Generator, params: Dict[str, Any]
    ) -> Tuple[GroundTruth, frozenset]:
        scenario = build_scenario(network, ScenarioConfig(kind=kind, **params), rng)
        return scenario.ground_truth, scenario.congestable

    return build


def _uniform_marginals(
    links: List[int],
    low: float,
    high: float,
    rng: np.random.Generator,
) -> Dict[int, float]:
    values = rng.uniform(low, high, size=len(links))
    return {int(e): float(p) for e, p in zip(links, values)}


# ----------------------------------------------------------------------
# Diurnal: time-of-day marginals
# ----------------------------------------------------------------------
def _build_diurnal(
    network: Network, rng: np.random.Generator, params: Dict[str, Any]
) -> Tuple[GroundTruth, frozenset]:
    """Day-shaped congestion: marginals follow a raised-cosine daily curve.

    Base marginals are drawn once (the "busy-hour" level); epoch ``i`` of
    ``num_epochs`` scales them by ``trough + (1 - trough) *
    (1 - cos(2 pi i / num_epochs)) / 2`` — the off-peak factor bottoms out
    at ``trough`` and returns to 1.0 at the daily peak.
    """
    count = target_count(network, params["congestable_fraction"])
    links = select_random_links(network, count, rng)
    base = _uniform_marginals(
        links, params["min_marginal"], params["max_marginal"], rng
    )
    epochs = []
    num_epochs = int(params["num_epochs"])
    for epoch in range(num_epochs):
        factor = params["trough"] + (1.0 - params["trough"]) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * epoch / num_epochs)
        )
        marginals = {e: p * factor for e, p in base.items()}
        epochs.append(
            (
                build_congestion_model(
                    network, marginals, params["correlation_strength"]
                ),
                int(params["epoch_length"]),
            )
        )
    return NonStationaryModel(epochs), frozenset(links)


# ----------------------------------------------------------------------
# Gravity: load-induced congestion
# ----------------------------------------------------------------------
def _build_gravity(
    network: Network, rng: np.random.Generator, params: Dict[str, Any]
) -> Tuple[GroundTruth, frozenset]:
    """Congestion where gravity-model traffic concentrates.

    Endpoint masses are vertex degrees (links incident to the vertex);
    each monitored path carries gravity demand ``mass(src) * mass(dst)``,
    and per-link load is the demand routed over it. The top
    ``congestable_fraction`` most-loaded links congest, with marginals
    interpolated between ``min_marginal`` and ``max_marginal`` by
    normalised load raised to ``gamma``.
    """
    mass: Dict[int, float] = {}
    for link in network.links:
        mass[link.src] = mass.get(link.src, 0.0) + 1.0
        mass[link.dst] = mass.get(link.dst, 0.0) + 1.0
    demands = np.array(
        [
            mass[network.links[path.links[0]].src]
            * mass[network.links[path.links[-1]].dst]
            for path in network.paths
        ],
        dtype=float,
    )
    load = network.incidence.dense(float).T @ demands
    count = target_count(network, params["congestable_fraction"])
    # Random permutation breaks load ties so different seeds can pick
    # different links among equally-loaded candidates.
    jitter = rng.permutation(network.num_links)
    order = sorted(range(network.num_links), key=lambda e: (-load[e], jitter[e]))
    links = sorted(order[:count])
    peak = float(load[links].max()) if links else 1.0
    if peak <= 0.0:
        raise ScenarioError("gravity scenario: monitored paths carry no load")
    span = params["max_marginal"] - params["min_marginal"]
    marginals = {
        int(e): params["min_marginal"]
        + span * (float(load[e]) / peak) ** params["gamma"]
        for e in links
    }
    model = build_congestion_model(network, marginals, params["correlation_strength"])
    return model, frozenset(links)


# ----------------------------------------------------------------------
# Cascade: chained correlated-failure groups
# ----------------------------------------------------------------------
def _link_adjacency(network: Network) -> Dict[int, List[int]]:
    """Links sharing a vertex, in deterministic order."""
    by_vertex: Dict[int, List[int]] = {}
    for link in network.links:
        by_vertex.setdefault(link.src, []).append(link.index)
        by_vertex.setdefault(link.dst, []).append(link.index)
    adjacency: Dict[int, List[int]] = {e: [] for e in range(network.num_links)}
    for members in by_vertex.values():
        for e in members:
            for other in members:
                if other != e and other not in adjacency[e]:
                    adjacency[e].append(other)
    return adjacency


def _build_cascade(
    network: Network, rng: np.random.Generator, params: Dict[str, Any]
) -> Tuple[GroundTruth, frozenset]:
    """Cascading correlated failures: chained groups congest together.

    ``num_groups`` failure groups of ``group_size`` topologically-adjacent
    links are grown by BFS over the link-adjacency graph; each group after
    the first is seeded from a member of the previous one, so failures
    cascade along the topology and neighbouring groups stay correlated.
    Every group gets one shared Bernoulli driver; members also get a small
    private driver (``base_marginal``) so no link is perfectly predictable
    from its group.
    """
    adjacency = _link_adjacency(network)
    num_groups = int(params["num_groups"])
    group_size = int(params["group_size"])
    groups: List[List[int]] = []
    claimed: set = set()
    seed_pool = list(range(network.num_links))
    previous: List[int] = []
    for _ in range(num_groups):
        if previous:
            frontier = [
                e
                for member in previous
                for e in adjacency[member]
                if e not in claimed
            ]
            candidates = frontier or [e for e in seed_pool if e not in claimed]
        else:
            candidates = [e for e in seed_pool if e not in claimed]
        if not candidates:
            break
        seed_link = int(candidates[int(rng.integers(0, len(candidates)))])
        group = [seed_link]
        claimed.add(seed_link)
        queue = list(adjacency[seed_link])
        while queue and len(group) < group_size:
            candidate = queue.pop(0)
            if candidate in claimed:
                continue
            claimed.add(candidate)
            group.append(candidate)
            queue.extend(adjacency[candidate])
        groups.append(sorted(group))
        previous = group
    if not groups:
        raise ScenarioError("cascade scenario: no failure groups could be formed")

    drivers: List[Driver] = []
    for group in groups:
        probability = float(
            rng.uniform(
                0.5 * params["group_probability"],
                min(1.5 * params["group_probability"], 0.9),
            )
        )
        drivers.append(Driver(probability=probability, links=frozenset(group)))
    congestable = sorted(claimed)
    if params["base_marginal"] > 0.0:
        for e in congestable:
            drivers.append(
                Driver(
                    probability=params["base_marginal"],
                    links=frozenset({e}),
                )
            )
    return (
        CongestionModel(network.num_links, drivers),
        frozenset(congestable),
    )


# ----------------------------------------------------------------------
# Flash crowd: destination hotspot spikes
# ----------------------------------------------------------------------
def _build_flash_crowd(
    network: Network, rng: np.random.Generator, params: Dict[str, Any]
) -> Tuple[GroundTruth, frozenset]:
    """Flash crowd toward one destination: quiet background, hot spikes.

    A hotspot destination vertex is drawn weighted by how many monitored
    paths terminate there; the links of those paths are the hot set.
    Quiet epochs carry only light random background congestion; spike
    epochs add ``spike_marginal`` congestion on every hot link (the flash
    crowd overloading the whole path bundle into the destination).
    """
    terminal_counts: Dict[int, int] = {}
    for path in network.paths:
        vertex = network.links[path.links[-1]].dst
        terminal_counts[vertex] = terminal_counts.get(vertex, 0) + 1
    vertices = sorted(terminal_counts)
    weights = np.array([terminal_counts[v] for v in vertices], dtype=float)
    hotspot = int(vertices[int(rng.choice(len(vertices), p=weights / weights.sum()))])
    hot_links = sorted(
        {
            e
            for path in network.paths
            if network.links[path.links[-1]].dst == hotspot
            for e in path.links
        }
    )
    count = target_count(network, params["background_fraction"])
    background = select_random_links(network, count, rng)
    quiet = _uniform_marginals(
        background, params["min_marginal"], params["background_max"], rng
    )
    spiky = dict(quiet)
    for e in hot_links:
        spiky[e] = max(spiky.get(e, 0.0), params["spike_marginal"])
    strength = params["correlation_strength"]
    epochs = [
        (
            build_congestion_model(network, quiet, strength),
            int(params["quiet_length"]),
        ),
        (
            build_congestion_model(network, spiky, strength),
            int(params["spike_length"]),
        ),
    ]
    return (
        NonStationaryModel(epochs),
        frozenset(background) | frozenset(hot_links),
    )


# ----------------------------------------------------------------------
# Maintenance window: one peer AS degrades on schedule
# ----------------------------------------------------------------------
def _build_maintenance(
    network: Network, rng: np.random.Generator, params: Dict[str, Any]
) -> Tuple[GroundTruth, frozenset]:
    """Scheduled maintenance: one AS's links degrade during the window.

    A peer AS (correlation set) is drawn at random; normal epochs carry
    light random background congestion, and during the maintenance window
    every link of the chosen AS congests with ``maintenance_marginal``
    probability (rerouting load while capacity is withdrawn).
    """
    sets = network.correlation_sets
    maintained = sorted(sets[int(rng.integers(0, len(sets)))])
    count = target_count(network, params["background_fraction"])
    background = select_random_links(network, count, rng)
    normal = _uniform_marginals(
        background, params["min_marginal"], params["background_max"], rng
    )
    window = dict(normal)
    for e in maintained:
        window[e] = max(window.get(e, 0.0), params["maintenance_marginal"])
    strength = params["correlation_strength"]
    epochs = [
        (
            build_congestion_model(network, normal, strength),
            int(params["normal_length"]),
        ),
        (
            build_congestion_model(network, window, strength),
            int(params["window_length"]),
        ),
    ]
    return (
        NonStationaryModel(epochs),
        frozenset(background) | frozenset(maintained),
    )


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
register_scenario(
    ScenarioGenerator(
        name="random",
        description="Random Congestion: congestable links chosen uniformly",
        builder=_classic_builder(ScenarioKind.RANDOM),
        defaults=dict(_CLASSIC_DEFAULTS),
    )
)
register_scenario(
    ScenarioGenerator(
        name="concentrated",
        description="Concentrated Congestion: congestion at the network edge",
        builder=_classic_builder(ScenarioKind.CONCENTRATED),
        defaults=dict(_CLASSIC_DEFAULTS),
    )
)
register_scenario(
    ScenarioGenerator(
        name="no_independence",
        description="No Independence: every congestable link is correlated",
        builder=_classic_builder(ScenarioKind.NO_INDEPENDENCE),
        defaults=dict(_CLASSIC_DEFAULTS),
        needs_correlated_groups=True,
    )
)
register_scenario(
    ScenarioGenerator(
        name="no_stationarity",
        description="No Stationarity: correlated links, probabilities re-drawn",
        builder=_classic_builder(ScenarioKind.NO_STATIONARITY),
        defaults=dict(_CLASSIC_DEFAULTS),
        needs_correlated_groups=True,
        non_stationary=True,
    )
)
register_scenario(
    ScenarioGenerator(
        name="diurnal",
        description="Diurnal cycle: marginals follow a time-of-day curve",
        builder=_build_diurnal,
        defaults={
            "congestable_fraction": 0.1,
            "correlation_strength": 0.95,
            "min_marginal": 0.1,
            "max_marginal": 0.9,
            "trough": 0.25,
            "num_epochs": 8,
            "epoch_length": 25,
        },
        non_stationary=True,
    )
)
register_scenario(
    ScenarioGenerator(
        name="gravity",
        description="Gravity model: congestion where routed load concentrates",
        builder=_build_gravity,
        defaults={
            "congestable_fraction": 0.15,
            "correlation_strength": 0.95,
            "min_marginal": 0.05,
            "max_marginal": 0.9,
            "gamma": 1.0,
        },
    )
)
register_scenario(
    ScenarioGenerator(
        name="cascade",
        description="Cascading failures: chained correlated link groups",
        builder=_build_cascade,
        defaults={
            "num_groups": 3,
            "group_size": 4,
            "group_probability": 0.25,
            "base_marginal": 0.05,
        },
    )
)
register_scenario(
    ScenarioGenerator(
        name="flash_crowd",
        description="Flash crowd: spikes on all links feeding a hot destination",
        builder=_build_flash_crowd,
        defaults={
            "background_fraction": 0.1,
            "background_max": 0.3,
            "min_marginal": 0.02,
            "spike_marginal": 0.85,
            "quiet_length": 30,
            "spike_length": 10,
            "correlation_strength": 0.95,
        },
        non_stationary=True,
    )
)
register_scenario(
    ScenarioGenerator(
        name="maintenance",
        description="Maintenance window: one peer AS degrades on schedule",
        builder=_build_maintenance,
        defaults={
            "background_fraction": 0.1,
            "background_max": 0.4,
            "min_marginal": 0.02,
            "maintenance_marginal": 0.8,
            "normal_length": 40,
            "window_length": 12,
            "correlation_strength": 0.95,
        },
        non_stationary=True,
    )
)
