"""Windowed Probability Computation: congestion probabilities over time.

The paper's source ISP wants to know "how frequently the peer is congested
and how its congestion level changes over the course of day or week"
(Section 1), and Section 4 interprets a computed probability as the fraction
of the T observed intervals a link was congested. A windowed fit slides a
window over a long observation horizon and re-runs a probability estimator
per window, yielding per-link congestion-probability *time series* — the
monitoring dashboard the paper's scenario calls for. This module holds the
result types (:class:`CongestionTimeline` of :class:`WindowEstimate`\\ s);
the fitting is :class:`~repro.streaming.engine.StreamingEstimator`, live or
over a recorded horizon via :class:`~repro.streaming.ingest.MatrixSource`.

Non-stationarity is handled exactly the way Section 4 argues it should be:
each window's estimate is the link's average behaviour over that window,
so level shifts appear as steps in the series instead of corrupting a
per-interval diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.probability.query import CongestionProbabilityModel
from repro.topology.graph import Network


@dataclass
class WindowEstimate:
    """One window's fitted model and its interval span [start, stop)."""

    start: int
    stop: int
    model: CongestionProbabilityModel


def peer_link_members(network: Network) -> Dict[int, List[int]]:
    """Monitored link indices grouped by owning AS, in index order.

    The per-peer view every monitoring surface needs (timeline series,
    streaming alert routing, peer reports); computed with one sweep over
    the link table.
    """
    members: Dict[int, List[int]] = {}
    for link in network.links:
        members.setdefault(link.asn, []).append(link.index)
    return members


@dataclass
class CongestionTimeline:
    """Per-window congestion-probability estimates over a horizon.

    Attributes
    ----------
    network:
        The monitored topology.
    windows:
        Fitted windows in chronological order.
    """

    network: Network
    windows: List[WindowEstimate] = field(default_factory=list)
    #: Lazily-built link-members-per-AS map (one link-table sweep, reused
    #: by every ``peer_series`` call instead of rescanning per peer).
    _peer_members: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False
    )

    def link_series(self, link: int) -> np.ndarray:
        """Congestion probability of ``link`` per window, shape (windows,)."""
        return np.array(
            [w.model.link_congestion_probability(link) for w in self.windows]
        )

    def set_series(self, links: Iterable[int]) -> np.ndarray:
        """Congestion probability of a link set per window."""
        members = sorted(links)
        return np.array([w.model.prob_all_congested(members) for w in self.windows])

    def peer_series(self, asn: int) -> np.ndarray:
        """Worst-link congestion probability of peer ``asn`` per window.

        The source ISP's per-peer health signal: the most congested
        monitored link inside the peer, per window.
        """
        if self._peer_members is None:
            self._peer_members = peer_link_members(self.network)
        members = self._peer_members.get(asn, [])
        if not members:
            raise EstimationError(f"no monitored links in AS {asn}")
        series = np.array(
            [
                max(w.model.link_congestion_probability(e) for e in members)
                for w in self.windows
            ]
        )
        return series

    def change_points(self, link: int, threshold: float = 0.2) -> List[int]:
        """Window indices where a link's probability jumps by > ``threshold``.

        A cheap level-shift detector over the window series — enough to
        flag the paper's "exceptional situations" (BGP failures, flash
        crowds, DDoS) as discontinuities in a peer's congestion level.
        """
        series = self.link_series(link)
        return [
            i + 1
            for i in range(len(series) - 1)
            if abs(series[i + 1] - series[i]) > threshold
        ]

    def window_spans(self) -> List[Tuple[int, int]]:
        """The [start, stop) interval span of each window."""
        return [(w.start, w.stop) for w in self.windows]
