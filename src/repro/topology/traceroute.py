"""Traceroute-collection simulator producing *Sparse* topologies.

The paper's Sparse topologies are real: the source ISP's operator ran
traceroutes from a few end-hosts inside her network toward a large number of
external end-hosts and discarded all incomplete traceroutes; "most
traceroutes returned incomplete/inconclusive results and had to be discarded,
which resulted in a 'sparse' view, where few paths intersect one another"
(Section 3.2).

We cannot obtain that proprietary dataset, so we simulate the *collection
process* itself (README, "Deviations from the paper"):

* an Internet-like two-level underlay (reusing the BRITE-style generator,
  scaled to many stub ASes so destinations rarely share infrastructure);
* per-traceroute router behaviour: every router on the route fails to
  respond with some probability (``response_prob``), and equal-cost
  multi-path load balancing perturbs routes (``load_balance_prob``);
* any traceroute with a non-responding router is *incomplete* and discarded,
  exactly like the operator's campaign.

What survives is a sparse path set: long routes are disproportionately
discarded, and the destinations that remain are scattered across many stub
ASes, so few paths intersect and the tomographic equation system has low
rank — the regime in which the paper shows all Boolean-inference algorithms
break down.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.exceptions import TopologyError
from repro.topology.aslevel import AsLevelBuilder
from repro.topology.brite import BriteConfig, build_router_internet, _dedupe_paths
from repro.topology.routing import RouteOracle
from repro.util.rng import RandomState, as_generator, derive_rng


@dataclass
class TracerouteConfig:
    """Parameters of the traceroute measurement campaign.

    Defaults give a laptop-scale sparse topology; the paper's instance is
    ~2000 links / 1500 paths (scale ``num_probes`` and the underlay up).
    """

    underlay: BriteConfig = field(
        default_factory=lambda: BriteConfig(
            num_ases=40,
            as_attachment=1,
            routers_per_as=5,
            inter_as_links=1,
            num_vantage_points=2,
        )
    )
    num_probes: int = 600
    response_prob: float = 0.93
    load_balance_prob: float = 0.3
    max_kept_paths: int = 400

    def validate(self) -> None:
        """Raise :class:`TopologyError` on inconsistent parameters."""
        if not 0.0 < self.response_prob <= 1.0:
            raise TopologyError("TracerouteConfig: response_prob must be in (0, 1]")
        if not 0.0 <= self.load_balance_prob <= 1.0:
            raise TopologyError("TracerouteConfig: load_balance_prob in [0, 1]")
        if self.num_probes < 1:
            raise TopologyError("TracerouteConfig: need at least one probe")


@dataclass
class TracerouteCampaign:
    """Outcome statistics of a simulated measurement campaign."""

    probes_sent: int = 0
    incomplete_discarded: int = 0
    unroutable: int = 0
    kept: int = 0

    @property
    def discard_rate(self) -> float:
        """Fraction of routable probes discarded as incomplete."""
        routable = self.probes_sent - self.unroutable
        if routable <= 0:
            return 0.0
        return self.incomplete_discarded / routable


def generate_sparse_network(
    config: TracerouteConfig | None = None,
    random_state: RandomState = None,
    return_campaign: bool = False,
):
    """Simulate the traceroute campaign and return the Sparse network.

    Parameters
    ----------
    config:
        Campaign parameters (defaults documented on :class:`TracerouteConfig`).
    random_state:
        Seed or generator for the underlay, probe targets, and router
        response behaviour.
    return_campaign:
        When true, return ``(network, campaign)`` where ``campaign`` records
        how many traceroutes were discarded — mirroring the paper's remark
        that most had to be thrown away.
    """
    config = config or TracerouteConfig()
    config.validate()
    rng = as_generator(random_state)
    graph, asn_of = build_router_internet(config.underlay, derive_rng(rng, 0))
    probe_rng = derive_rng(rng, 1)

    routers = sorted(asn_of)
    source_asn = config.underlay.source_asn
    source_routers = [r for r in routers if asn_of[r] == source_asn]
    other_routers = [r for r in routers if asn_of[r] != source_asn]
    vantage = [
        int(i)
        for i in probe_rng.choice(
            source_routers,
            size=min(config.underlay.num_vantage_points, len(source_routers)),
            replace=False,
        )
    ]

    builder = AsLevelBuilder(asn_of, source_asn=source_asn, include_source_as=False)
    campaign = TracerouteCampaign()
    # Routes repeat across probes (few vantage points, reused targets);
    # the oracle memoises BFS work while leaving the RNG stream untouched.
    oracle = RouteOracle(graph)
    for _ in range(config.num_probes):
        if builder.num_routes >= config.max_kept_paths:
            break
        campaign.probes_sent += 1
        source = int(probe_rng.choice(vantage))
        destination = int(probe_rng.choice(other_routers))
        if probe_rng.random() < config.load_balance_prob:
            route = oracle.load_balanced(source, destination, probe_rng)
        else:
            route = oracle.shortest(source, destination)
        if route is None:
            campaign.unroutable += 1
            continue
        # Each intermediate router answers independently; one silent router
        # makes the traceroute incomplete, and incomplete traceroutes are
        # discarded (Section 3.2).
        hops = len(route) - 2  # endpoints always respond
        responded = probe_rng.random(max(hops, 0)) < config.response_prob
        if hops > 0 and not bool(responded.all()):
            campaign.incomplete_discarded += 1
            continue
        if builder.add_route(route):
            campaign.kept += 1
    if builder.num_routes == 0:
        raise TopologyError(
            "traceroute campaign kept no complete traceroutes; "
            "raise response_prob or num_probes"
        )
    network = _dedupe_paths(builder.build(name="sparse"), "sparse")
    if return_campaign:
        return network, campaign
    return network
