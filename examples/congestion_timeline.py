"""Tracking a peer's congestion level over the course of a day.

Section 1: the source ISP wants to know "how frequently the peer is
congested and how its congestion level changes over the course of day or
week; how well the peer reacts to exceptional situations like BGP failures,
flash crowds, or distributed denial-of-service attacks".

This example simulates a day in which one peer's links shift from quiet to
heavily congested mid-day (a flash crowd), slides a windowed
Correlation-complete estimator over the observations, and prints the
per-window congestion series with the detected change point — the
monitoring dashboard the paper's scenario calls for, built purely from
end-to-end measurements.

This is the *after-the-fact* view: the recorded day is replayed through the
streaming engine (``repro.streaming``) from memory with
:class:`~repro.streaming.ingest.MatrixSource`, the same engine that refits
a live stream. See ``examples/live_monitoring.py`` for the day driven round
by round, with the flash-crowd alert raised within one window of its
onset.

Run:  python examples/congestion_timeline.py
"""

from __future__ import annotations

from repro import EstimatorConfig, generate_brite_network
from repro.analysis.peers import build_peer_report
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.simulation.congestion import NonStationaryModel, build_congestion_model
from repro.simulation.probing import PathProber
from repro.streaming import MatrixSource, StreamingEstimator
from repro.topology.brite import BriteConfig


def main() -> None:
    network = generate_brite_network(
        BriteConfig(
            num_ases=14,
            as_attachment=2,
            routers_per_as=4,
            inter_as_links=2,
            num_vantage_points=4,
            num_destinations=60,
            num_paths=200,
        ),
        random_state=41,
    )
    # Pick a peer with several monitored links as the flash-crowd victim.
    links_per_asn = {}
    for link in network.links:
        links_per_asn.setdefault(link.asn, []).append(link.index)
    victim_asn, victim_links = max(links_per_asn.items(), key=lambda kv: len(kv[1]))
    background = [e for e in range(network.num_links) if e not in victim_links][:6]

    quiet = build_congestion_model(
        network,
        {**{e: 0.05 for e in victim_links}, **{e: 0.2 for e in background}},
    )
    flash_crowd = build_congestion_model(
        network,
        {**{e: 0.7 for e in victim_links}, **{e: 0.2 for e in background}},
    )
    # A "day": 6 epochs of 100 intervals; the flash crowd hits epochs 3-4.
    truth = NonStationaryModel(
        [
            (quiet, 100),
            (quiet, 100),
            (flash_crowd, 100),
            (flash_crowd, 100),
            (quiet, 100),
            (quiet, 100),
        ]
    )
    states = truth.sample(600, random_state=42)
    observations = PathProber(num_packets=2000).observe(
        network, states, random_state=43
    )

    engine = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(seed=44)),
        window=100,
    )
    timeline = engine.run(MatrixSource(observations).chunks())

    print(f"Monitoring {network.num_paths} paths over {network.num_links} links;")
    print(f"victim peer AS{victim_asn} with {len(victim_links)} monitored links\n")
    print("Per-window congestion level of the victim peer (worst link):")
    series = timeline.peer_series(victim_asn)
    for (start, stop), level in zip(timeline.window_spans(), series):
        bar = "#" * int(round(level * 40))
        print(f"  intervals [{start:3d},{stop:3d})  {level:.2f}  {bar}")

    worst_link = max(
        victim_links,
        key=lambda e: timeline.link_series(e).max(),
    )
    changes = timeline.change_points(worst_link, threshold=0.25)
    print(
        f"\nChange points on the victim's worst link e{worst_link}: "
        f"windows {changes} (truth: flash crowd enters at window 2, "
        "leaves at window 4)"
    )

    print("\nPeer ranking during the flash crowd (window 2):")
    report = build_peer_report(network, timeline.windows[2].model)
    print(report.to_table(top=5))


if __name__ == "__main__":
    main()
