"""End-to-end path probing (Assumption 2: E2E Monitoring).

Section 3.2: "In each interval, packets are sent along each path; for each
packet that arrives at a given link, we flip a biased coin to determine
whether it will be dropped or not, such that we respect the packet-loss rate
assigned to the link".

A path delivers a packet iff every link forwards it; per-link drops are
independent coin flips, so the delivered count over ``num_packets`` probes is
Binomial(num_packets, prod(1 - loss_e)). We sample that binomial directly
(statistically identical to looping over packets and links, but vectorised).
The path is declared congested when its measured loss exceeds the good-path
bound ``1 - (1-f)^d`` for its hop count ``d`` — this is where E2E monitoring
false positives/negatives enter, exactly as the paper warns.

:func:`oracle_path_status` provides the noise-free alternative (a path is
congested iff it traverses a congested link), used by tests to isolate
algorithmic error from measurement error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ScenarioError
from repro.model.packed import pack_bool_matrix
from repro.model.status import ObservationMatrix
from repro.simulation.congestion import GroundTruth
from repro.simulation.loss import LossModel
from repro.topology.graph import Network
from repro.util.rng import RandomState, as_generator

#: Interval block size for chunked packed emission (a multiple of 64 so
#: chunk word boundaries align). Horizons at or below this are simulated in
#: one pass; longer horizons never materialise the full dense matrix.
EMIT_CHUNK_INTERVALS = 16384

# Word-concatenation in _packed_observation is only correct when every
# block except the last fills whole uint64 words; fail loudly if the chunk
# size is ever changed to break that.
assert EMIT_CHUNK_INTERVALS % 64 == 0


def _packed_observation(blocks, num_paths: int) -> ObservationMatrix:
    """Assemble per-chunk boolean blocks into a packed ObservationMatrix."""
    words = []
    total = 0
    for block in blocks:
        words.append(pack_bool_matrix(block))
        total += block.shape[0]
    if not words:
        return ObservationMatrix(np.zeros((0, num_paths), dtype=bool))
    return ObservationMatrix.from_words(np.concatenate(words, axis=1), total)


def oracle_path_status(network: Network, link_states: np.ndarray) -> ObservationMatrix:
    """Perfect observations: path congested iff some traversed link is.

    This is Separability (Assumption 1) applied with a perfect monitor; it
    bypasses packet sampling entirely. Observations are packed into words
    chunk by chunk, so a long horizon never holds the full dense
    (T, paths) matrix in memory.
    """
    link_states = np.asarray(link_states, dtype=bool)
    blocks = (
        network.incidence.path_status(link_states[start : start + EMIT_CHUNK_INTERVALS])
        for start in range(0, link_states.shape[0], EMIT_CHUNK_INTERVALS)
    )
    return _packed_observation(blocks, network.num_paths)


@dataclass
class PathProber:
    """Packet-level path monitor.

    Attributes
    ----------
    num_packets:
        Probe packets sent along each path in each interval.
    loss_model:
        Supplies per-link loss rates and the per-path good threshold.
    """

    num_packets: int = 1000
    loss_model: LossModel = field(default_factory=LossModel)

    def __post_init__(self) -> None:
        if self.num_packets < 1:
            raise ScenarioError("num_packets must be >= 1")

    def observe(
        self,
        network: Network,
        link_states: np.ndarray,
        random_state: RandomState = None,
    ) -> ObservationMatrix:
        """Probe every path in every interval and classify good/congested.

        Parameters
        ----------
        network:
            Supplies the incidence structure and path lengths.
        link_states:
            Boolean ground-truth matrix (T, num_links).
        random_state:
            Randomness for loss-rate draws and packet delivery.
        """
        link_states = np.asarray(link_states, dtype=bool)
        if link_states.shape[1] != network.num_links:
            raise ScenarioError(
                "link_states width does not match the network's link count"
            )
        session = self.session(network, random_state)
        # Horizons beyond the chunk size are probed block-by-block and
        # packed as they are produced, bounding peak memory at one chunk of
        # dense intermediates regardless of T. Chunking interleaves the
        # loss/delivery draws per block, so for T > EMIT_CHUNK_INTERVALS a
        # seed reproduces this chunked stream (not the single-pass one);
        # horizons at or below the chunk size draw identically to a
        # single pass.
        blocks = (
            session.observe_chunk(link_states[start : start + EMIT_CHUNK_INTERVALS])
            for start in range(0, link_states.shape[0], EMIT_CHUNK_INTERVALS)
        )
        return _packed_observation(blocks, network.num_paths)

    def session(
        self, network: Network, random_state: RandomState = None
    ) -> "ProbeSession":
        """A long-lived probing session bound to ``network``.

        Precomputes the incidence projection and per-path good thresholds
        once, so a streaming monitor probing round by round does not redo
        the per-fit setup on every chunk.
        """
        return ProbeSession(self, network, as_generator(random_state))


class ProbeSession:
    """Stateful per-network probing: one rng stream, precomputed structure.

    Created via :meth:`PathProber.session`; :meth:`observe_chunk` classifies
    one block of intervals and is safe to call indefinitely — this is the
    measurement half of the streaming monitor's ingest loop.
    """

    def __init__(
        self, prober: PathProber, network: Network, rng: np.random.Generator
    ) -> None:
        self.prober = prober
        self.network = network
        self.rng = rng
        # A local dense float operand: the transpose of a C-ordered
        # (paths, links) array. The BLAS product's summation order follows
        # this layout, so it is part of what fixes the observations.
        self._incidence_t = network.incidence.dense(float).T
        lengths = network.path_lengths()
        self._thresholds = np.array(
            [prober.loss_model.path_good_threshold(int(d)) for d in lengths]
        )

    def observe_chunk(self, link_states: np.ndarray) -> np.ndarray:
        """Probe one block of intervals; boolean (block, num_paths) statuses."""
        states = np.asarray(link_states, dtype=bool)
        if states.shape[1] != self.network.num_links:
            raise ScenarioError(
                "link_states width does not match the network's link count"
            )
        loss = self.prober.loss_model.assign(states, self.rng)
        # Per-path transmission rate: product of (1 - loss) over traversed
        # links, computed in log space against the dense incidence operand.
        log_forward = np.log1p(-np.clip(loss, 0.0, 1.0 - 1e-12))
        rates = np.exp(log_forward @ self._incidence_t)
        delivered = self.rng.binomial(self.prober.num_packets, rates)
        measured_loss = 1.0 - delivered / float(self.prober.num_packets)
        return measured_loss > self._thresholds[None, :]


@dataclass
class StreamingProber:
    """Live probe-round source: ground truth in, observation chunks out.

    The streaming analogue of sampling a full horizon and calling
    :meth:`PathProber.observe` on it: each yielded block draws the next
    link states from the (possibly non-stationary) ground truth via its
    stateful :meth:`~repro.simulation.congestion.GroundTruth.sample_stream`
    and classifies them — with packet-level probing when ``prober`` is set,
    or noise-free oracle statuses when it is ``None``.

    Attributes
    ----------
    network:
        The monitored topology.
    ground_truth:
        Supplies per-interval link states.
    prober:
        Packet-level monitor; ``None`` yields oracle path statuses.
    chunk_intervals:
        Intervals per yielded block (1 = strictly round-by-round).
    """

    network: Network
    ground_truth: GroundTruth
    prober: Optional[PathProber] = None
    chunk_intervals: int = 64

    def __post_init__(self) -> None:
        if self.chunk_intervals < 1:
            raise ScenarioError("chunk_intervals must be >= 1")

    def rounds(
        self,
        num_intervals: Optional[int] = None,
        random_state: RandomState = None,
    ) -> Iterator[np.ndarray]:
        """Yield boolean (chunk, num_paths) observation blocks.

        Runs forever when ``num_intervals`` is ``None``; otherwise stops
        after exactly that many intervals (the final block may be short).
        Link-state sampling and probing draw from independent substreams of
        ``random_state`` so the chunk size never perturbs the ground truth.
        """
        rng = as_generator(random_state)
        state_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        probe_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        session = (
            self.prober.session(self.network, probe_rng)
            if self.prober is not None
            else None
        )
        states_stream = self.ground_truth.sample_stream(self.chunk_intervals, state_rng)
        produced = 0
        while num_intervals is None or produced < num_intervals:
            states = next(states_stream)
            if num_intervals is not None:
                states = states[: num_intervals - produced]
            produced += states.shape[0]
            if session is not None:
                yield session.observe_chunk(states)
            else:
                yield self.network.incidence.path_status(states)
