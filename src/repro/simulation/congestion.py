"""Ground-truth congestion model with exact joint probabilities.

The paper's simulator (Section 3.2) assigns each link a congestion
probability and correlates links that share underlying router-level links.
We realise both with independent Bernoulli *drivers*:

* one **shared driver** per router-level link that underlies two or more
  logical links — when it fires, every logical link on top of it is
  congested simultaneously ("if a router-level link becomes congested, then
  all the AS-level links that share this router-level link become congested
  at the same time");
* one **private driver** per congestable logical link, calibrated so the
  link's marginal congestion probability matches its assigned target.

Because drivers are mutually independent and a link is congested iff any of
its drivers fires, the probability that *all* links of a set ``S`` are good
is a closed-form product over the drivers touching ``S``:

    P(all of S good) = prod_{d : links(d) intersects S} (1 - q_d)

which gives exact ground truth for every quantity the estimators compute —
including the congestion probability of any link set via inclusion-exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import ScenarioError
from repro.topology.graph import Network
from repro.util.rng import RandomState, as_generator


@dataclass(frozen=True)
class Driver:
    """An independent Bernoulli congestion cause.

    Attributes
    ----------
    probability:
        Per-interval firing probability ``q_d``.
    links:
        Logical links congested when the driver fires.
    """

    probability: float
    links: FrozenSet[int]

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ScenarioError(f"driver probability {self.probability} out of [0, 1]")
        if not self.links:
            raise ScenarioError("driver must affect at least one link")


class GroundTruth:
    """Interface shared by stationary and non-stationary ground truths."""

    num_links: int

    def marginal(self, link: int) -> float:
        """True congestion probability ``P(X_e = 1)`` of ``link``."""
        raise NotImplementedError

    def prob_all_good(self, links: Iterable[int]) -> float:
        """True ``P(all links in the set are good)``."""
        raise NotImplementedError

    def prob_all_congested(self, links: Iterable[int]) -> float:
        """True ``P(all links in the set are congested)`` (the paper's
        *congestion probability* of a link set), via inclusion-exclusion:

            P(all S congested) = sum_{A subset S} (-1)^|A| P(all A good)
        """
        members = sorted(set(links))
        total = 0.0
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                total += (-1.0) ** size * self.prob_all_good(subset)
        # Clamp tiny negative values from floating-point cancellation.
        return max(total, 0.0)

    def congestable_links(self) -> FrozenSet[int]:
        """Links with a non-zero congestion probability."""
        raise NotImplementedError

    def sample(self, num_intervals: int, random_state: RandomState = None) -> np.ndarray:
        """Draw link states; boolean matrix of shape (T, num_links)."""
        raise NotImplementedError

    def sample_stream(
        self,
        chunk_intervals: int,
        random_state: RandomState = None,
    ) -> "Iterator[np.ndarray]":
        """Endless stream of link-state blocks of ``chunk_intervals`` rows.

        The streaming monitor's ground-truth source: unlike repeated
        :meth:`sample` calls, the stream carries sampling state across
        chunks (epoch phase for non-stationary truths), so concatenating
        the yielded blocks reproduces one long :meth:`sample` draw from the
        same generator regardless of how the horizon is chunked.
        """
        if chunk_intervals < 1:
            raise ScenarioError("chunk_intervals must be >= 1")
        rng = as_generator(random_state)
        while True:
            yield self.sample(chunk_intervals, rng)


class CongestionModel(GroundTruth):
    """Stationary driver-based ground truth.

    Parameters
    ----------
    num_links:
        Total number of logical links in the network.
    drivers:
        The independent Bernoulli drivers. Drivers with probability 0 are
        dropped.
    """

    def __init__(self, num_links: int, drivers: Sequence[Driver]) -> None:
        self.num_links = num_links
        self.drivers: List[Driver] = [d for d in drivers if d.probability > 0.0]
        for driver in self.drivers:
            for link in driver.links:
                if not 0 <= link < num_links:
                    raise ScenarioError(f"driver references unknown link {link}")
        self._incidence = np.zeros((len(self.drivers), num_links), dtype=bool)
        for row, driver in enumerate(self.drivers):
            self._incidence[row, sorted(driver.links)] = True
        self._survival = np.array(
            [1.0 - d.probability for d in self.drivers], dtype=float
        )

    # ------------------------------------------------------------------
    def marginal(self, link: int) -> float:
        touching = self._incidence[:, link]
        if not touching.any():
            return 0.0
        return 1.0 - float(np.prod(self._survival[touching]))

    def marginals(self) -> np.ndarray:
        """All per-link congestion probabilities, shape (num_links,)."""
        return np.array([self.marginal(e) for e in range(self.num_links)])

    def prob_all_good(self, links: Iterable[int]) -> float:
        members = sorted(set(links))
        if not members:
            return 1.0
        touching = self._incidence[:, members].any(axis=1)
        if not touching.any():
            return 1.0
        return float(np.prod(self._survival[touching]))

    def congestable_links(self) -> FrozenSet[int]:
        if not self.drivers:
            return frozenset()
        return frozenset(np.flatnonzero(self._incidence.any(axis=0)).tolist())

    def sample(self, num_intervals: int, random_state: RandomState = None) -> np.ndarray:
        rng = as_generator(random_state)
        if not self.drivers:
            return np.zeros((num_intervals, self.num_links), dtype=bool)
        fires = rng.random((num_intervals, len(self.drivers))) < (1.0 - self._survival)
        # Count firing drivers per link in float64: the counts stay exact
        # integers far beyond any driver count, so the sum cannot wrap
        # (a uint8 count would at 256), and the product runs in BLAS.
        return fires.astype(float) @ self._incidence.astype(float) > 0

    def correlated_groups(self) -> List[FrozenSet[int]]:
        """Link groups congested together by a shared driver (size >= 2)."""
        return [d.links for d in self.drivers if len(d.links) >= 2]


class NonStationaryModel(GroundTruth):
    """Piecewise-stationary ground truth: one stationary model per epoch.

    The paper's "No Stationarity" scenario re-draws link congestion
    probabilities "every few time intervals". The quantity a Probability
    Computation algorithm should recover over ``T`` intervals is the
    *time-averaged* probability (Section 4: the result "concerns the average
    behavior of the link over the T time intervals"), which this class
    exposes through the :class:`GroundTruth` interface as epoch-weighted
    averages.
    """

    def __init__(self, epochs: Sequence[Tuple[CongestionModel, int]]) -> None:
        if not epochs:
            raise ScenarioError("NonStationaryModel requires at least one epoch")
        lengths = [length for _, length in epochs]
        if any(length <= 0 for length in lengths):
            raise ScenarioError("epoch lengths must be positive")
        num_links = {model.num_links for model, _ in epochs}
        if len(num_links) != 1:
            raise ScenarioError("all epochs must cover the same link set")
        self.num_links = num_links.pop()
        self.epochs: List[Tuple[CongestionModel, int]] = list(epochs)
        self._total = sum(lengths)

    def _weighted(self, value_of) -> float:
        return (
            sum(value_of(model) * length for model, length in self.epochs)
            / self._total
        )

    def marginal(self, link: int) -> float:
        return self._weighted(lambda m: m.marginal(link))

    def prob_all_good(self, links: Iterable[int]) -> float:
        members = sorted(set(links))
        return self._weighted(lambda m: m.prob_all_good(members))

    def congestable_links(self) -> FrozenSet[int]:
        result: FrozenSet[int] = frozenset()
        for model, _ in self.epochs:
            result = result | model.congestable_links()
        return result

    def sample(self, num_intervals: int, random_state: RandomState = None) -> np.ndarray:
        rng = as_generator(random_state)
        blocks: List[np.ndarray] = []
        produced = 0
        epoch_index = 0
        while produced < num_intervals:
            model, length = self.epochs[epoch_index % len(self.epochs)]
            take = min(length, num_intervals - produced)
            blocks.append(model.sample(take, rng))
            produced += take
            epoch_index += 1
        return np.vstack(blocks)

    def sample_stream(
        self,
        chunk_intervals: int,
        random_state: RandomState = None,
    ) -> Iterator[np.ndarray]:
        """Epoch-stateful chunked sampling (see :meth:`GroundTruth.sample_stream`).

        The epoch cursor persists across yielded chunks, so the stream walks
        the epoch schedule exactly once end to end — chunk boundaries never
        reset the phase the way repeated :meth:`sample` calls would.
        """
        if chunk_intervals < 1:
            raise ScenarioError("chunk_intervals must be >= 1")
        rng = as_generator(random_state)
        epoch_index = 0
        remaining = self.epochs[0][1]
        while True:
            blocks: List[np.ndarray] = []
            produced = 0
            while produced < chunk_intervals:
                model, _ = self.epochs[epoch_index % len(self.epochs)]
                take = min(remaining, chunk_intervals - produced)
                blocks.append(model.sample(take, rng))
                produced += take
                remaining -= take
                if remaining == 0:
                    epoch_index += 1
                    remaining = self.epochs[epoch_index % len(self.epochs)][1]
            yield blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def correlated_groups(self) -> List[FrozenSet[int]]:
        """Union of per-epoch correlated groups."""
        groups = set()
        for model, _ in self.epochs:
            groups.update(model.correlated_groups())
        return sorted(groups, key=sorted)


def build_congestion_model(
    network: Network,
    target_marginals: Dict[int, float],
    correlation_strength: float = 0.8,
) -> CongestionModel:
    """Build a driver model matching per-link marginals and topology-induced
    correlations.

    For every router-level link shared by two or more *congestable* logical
    links, a shared driver is created with firing probability
    ``correlation_strength * min(target marginal among the sharers)``; each
    congestable link then receives a private driver calibrated so that its
    total marginal matches ``target_marginals[link]`` exactly:

        1 - p_e = (1 - q_private) * prod_{shared drivers d of e} (1 - q_d)

    Parameters
    ----------
    network:
        Supplies the shared-router-link structure.
    target_marginals:
        Map from congestable link index to its congestion probability; links
        absent from the map are never congested (probability 0), matching
        the paper's setup where only 10% of links are congestable.
    correlation_strength:
        Fraction of the weakest sharer's marginal carried by each shared
        driver; 0 disables correlations, values near 1 make sharers almost
        perfectly correlated.

    Raises
    ------
    ScenarioError
        If a target marginal is outside [0, 1) or calibration fails.
    """
    if not 0.0 <= correlation_strength <= 1.0:
        raise ScenarioError("correlation_strength must be in [0, 1]")
    for link, probability in target_marginals.items():
        if not 0.0 <= probability < 1.0:
            raise ScenarioError(
                f"target marginal {probability} for link {link} outside [0, 1)"
            )
    congestable = {e for e, p in target_marginals.items() if p > 0.0}
    drivers: List[Driver] = []
    shared_survival: Dict[int, float] = {e: 1.0 for e in congestable}
    if correlation_strength > 0.0:
        for members in network.shared_router_links().values():
            sharers = frozenset(members & congestable)
            if len(sharers) < 2:
                continue
            q_shared = correlation_strength * min(target_marginals[e] for e in sharers)
            # Cap so the private driver can still reach the exact marginal.
            limit = min(
                1.0 - (1.0 - target_marginals[e]) / shared_survival[e]
                for e in sharers
            )
            q_shared = min(q_shared, max(limit, 0.0))
            if q_shared <= 0.0:
                continue
            drivers.append(Driver(probability=q_shared, links=sharers))
            for e in sharers:
                shared_survival[e] *= 1.0 - q_shared
    for link in sorted(congestable):
        target = target_marginals[link]
        residual_survival = (1.0 - target) / shared_survival[link]
        q_private = 1.0 - residual_survival
        if q_private < -1e-12:
            raise ScenarioError(
                f"cannot calibrate link {link}: shared drivers exceed marginal"
            )
        q_private = min(max(q_private, 0.0), 1.0)
        if q_private > 0.0:
            drivers.append(Driver(probability=q_private, links=frozenset({link})))
    return CongestionModel(network.num_links, drivers)
