"""Experiment sizing presets.

The paper's instances (Brite ~1000 links, Sparse ~2000 links, 1500 paths,
1000 intervals) take a while in pure Python; the ``small`` preset keeps every
structural property (dense vs sparse, correlated substrate) at a size where
the full reproduction runs in minutes, and ``paper`` approaches the paper's
sizes. Both are reachable from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.topology.brite import BriteConfig
from repro.topology.traceroute import TracerouteConfig


@dataclass
class ExperimentScale:
    """One sizing preset for the reproduction experiments.

    Attributes
    ----------
    name:
        Preset label.
    brite:
        Generator parameters for the dense Brite-style topology.
    traceroute:
        Campaign parameters for the Sparse topology.
    num_intervals:
        Experiment horizon ``T``.
    num_packets:
        Probe packets per path per interval.
    inference_intervals:
        Horizon used when scoring Boolean inference (step 2 runs per
        interval, so it dominates run time and may use fewer intervals than
        probability estimation).
    """

    name: str
    brite: BriteConfig
    traceroute: TracerouteConfig
    num_intervals: int = 400
    num_packets: int = 600
    inference_intervals: int = 150


SMALL = ExperimentScale(
    name="small",
    brite=BriteConfig(
        num_ases=40,
        as_attachment=2,
        routers_per_as=5,
        inter_as_links=2,
        num_vantage_points=6,
        num_destinations=250,
        num_paths=900,
    ),
    traceroute=TracerouteConfig(
        underlay=BriteConfig(
            num_ases=100,
            as_attachment=1,
            routers_per_as=5,
            inter_as_links=1,
            num_vantage_points=2,
            num_destinations=200,
            num_paths=400,
        ),
        num_probes=2500,
        response_prob=0.95,
        load_balance_prob=0.3,
        max_kept_paths=400,
    ),
    num_intervals=400,
    num_packets=2500,
    inference_intervals=60,
)

PAPER = ExperimentScale(
    name="paper",
    brite=BriteConfig(
        num_ases=40,
        as_attachment=2,
        routers_per_as=8,
        inter_as_links=2,
        num_vantage_points=8,
        num_destinations=400,
        num_paths=1500,
    ),
    traceroute=TracerouteConfig(
        underlay=BriteConfig(
            num_ases=120,
            as_attachment=1,
            routers_per_as=8,
            inter_as_links=1,
            num_vantage_points=4,
            num_destinations=800,
            num_paths=1500,
        ),
        num_probes=8000,
        response_prob=0.93,
        load_balance_prob=0.3,
        max_kept_paths=1500,
    ),
    num_intervals=1000,
    num_packets=2500,
    inference_intervals=1000,
)

#: Tiny instances for plumbing tests, equivalence checks, and campaign
#: smoke runs: every structural property of ``small`` (dense vs sparse
#: substrate, correlated drivers) at a size where a full driver run takes
#: seconds. Registered in :data:`SCALES` so sweeps can be exercised from
#: the CLI quickly, but too small for meaningful reproduction numbers.
TINY = ExperimentScale(
    name="tiny",
    brite=BriteConfig(
        num_ases=10,
        as_attachment=2,
        routers_per_as=4,
        inter_as_links=2,
        num_vantage_points=3,
        num_destinations=30,
        num_paths=80,
    ),
    traceroute=TracerouteConfig(
        underlay=BriteConfig(
            num_ases=24,
            as_attachment=1,
            routers_per_as=4,
            inter_as_links=1,
            num_vantage_points=2,
            num_destinations=40,
            num_paths=80,
        ),
        num_probes=400,
        response_prob=0.95,
        load_balance_prob=0.3,
        max_kept_paths=80,
    ),
    num_intervals=120,
    num_packets=1500,
    inference_intervals=15,
)

#: All registered presets by name.
SCALES: Dict[str, ExperimentScale] = {"tiny": TINY, "small": SMALL, "paper": PAPER}


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a preset; raises ``KeyError`` with the known names."""
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; known scales: {sorted(SCALES)}"
        ) from None
