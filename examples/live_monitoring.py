"""Live peer monitoring: the flash-crowd day, streamed.

The live counterpart of ``examples/congestion_timeline.py``: instead of
recording a full day of probe rounds and replaying it through the engine
after the fact, this example runs the monitoring loop the paper's source-ISP
scenario actually describes — a long-lived engine ingesting probe rounds
as they happen, refitting on stride boundaries over its packed ring
buffer, and raising alerts the moment a peer's congestion level shifts.

The same flash crowd hits the same victim peer mid-day; the difference is
*when* you find out: the replay reports after the day ends, the live
engine pages within one window of the onset. At the end the
engine state is checkpointed, the way a real monitor would persist across
restarts.

Run:  python examples/live_monitoring.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import EstimatorConfig, generate_brite_network
from repro.probability.correlation_complete import CorrelationCompleteEstimator
from repro.probability.windowed import peer_link_members
from repro.simulation.congestion import NonStationaryModel, build_congestion_model
from repro.simulation.probing import PathProber, StreamingProber
from repro.streaming import AlertManager, AlertPolicy, StreamingEstimator
from repro.streaming.checkpoint import save_checkpoint
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
    members = peer_link_members(network)
    victim_asn, victim_links = max(members.items(), key=lambda kv: len(kv[1]))
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

    # The live monitoring loop: prober -> ring buffer -> incremental refits.
    source = StreamingProber(
        network,
        truth,
        prober=PathProber(num_packets=2000),
        chunk_intervals=10,  # a batch of 10 probe rounds per ingest
    )
    engine = StreamingEstimator(
        network,
        CorrelationCompleteEstimator(EstimatorConfig(seed=44)),
        window=100,
        alert_manager=AlertManager(
            network,
            AlertPolicy(
                peer_high=0.5,
                peer_low=0.35,
                peer_shift=0.25,
                link_shift=0.25,
            ),
        ),
    )

    print(f"Monitoring {network.num_paths} paths over {network.num_links} links;")
    print(f"victim peer AS{victim_asn} with {len(victim_links)} monitored links\n")
    print("Rolling congestion level of the victim peer (worst link):")

    reported = 0
    for chunk in source.rounds(600, random_state=43):
        for estimate in engine.ingest(chunk):
            level = max(
                estimate.model.link_congestion_probability(e)
                for e in victim_links
            )
            bar = "#" * int(round(level * 40))
            print(
                f"  intervals [{estimate.start:3d},{estimate.stop:3d})"
                f"  {level:.2f}  {bar}"
            )
            for alert in engine.alerts[reported:]:
                if alert.scope == "peer" and alert.target == victim_asn:
                    print(f"    ALERT {alert.message}")
            reported = len(engine.alerts)

    print(
        f"\n{engine.refits} refits over {engine.intervals_ingested} rounds; "
        f"frequency cache {engine.cache_hits} hits / "
        f"{engine.cache_misses} misses; {len(engine.alerts)} alerts total"
    )

    shifts = [
        a.window_index
        for a in engine.alerts
        if a.kind == "level_shift" and a.scope == "peer" and a.target == victim_asn
    ]
    print(
        f"Victim peer level shifts at windows {shifts} "
        "(truth: flash crowd enters at window 2, leaves at window 4)"
    )

    checkpoint = Path(tempfile.gettempdir()) / "live_monitoring_checkpoint.json"
    save_checkpoint(engine, checkpoint)
    print(f"\nEngine state checkpointed to {checkpoint}")
    print("(restore_engine(...) resumes the stream after a restart)")


if __name__ == "__main__":
    main()
