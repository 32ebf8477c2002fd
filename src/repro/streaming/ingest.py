"""Observation sources feeding the streaming engine.

:meth:`StreamingEstimator.run` takes any iterable of boolean
``(rounds, num_paths)`` blocks, so live probing, recorded campaigns, and
in-memory replays are interchangeable:

* live measurement is
  :meth:`StreamingProber.rounds <repro.simulation.probing.StreamingProber.rounds>`
  (ground truth + optional packet-level prober, round block by block);
* :class:`MatrixSource` — replay of an in-memory horizon (an
  :class:`~repro.model.status.ObservationMatrix` or dense boolean matrix)
  in fixed-size chunks: an offline timeline is the engine run over it;
* :class:`NDJSONTraceSource` — replay of a recorded campaign from
  newline-delimited JSON, the on-disk interchange format written by
  :func:`write_ndjson_trace`.

The NDJSON schema is one header line followed by one line per probe round,
congested paths as sparse index lists (path statuses are overwhelmingly
good in the paper's scenarios, so sparse rounds are compact)::

    {"type": "header", "num_paths": 900}
    {"type": "round", "congested": [12, 407]}
    {"type": "round", "congested": []}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.exceptions import ScenarioError
from repro.model.status import ObservationMatrix

#: Widest trace header :class:`NDJSONTraceSource` accepts. Far above any
#: monitored network (the 10k-node AS path derives thousands of paths); a
#: wider header is corrupt, and its chunk buffer would not fit in memory.
MAX_TRACE_PATHS = 10_000_000


class MatrixSource:
    """Replay an in-memory horizon in fixed-size chunks.

    A packed :class:`ObservationMatrix` is replayed chunk by chunk through
    its own interval slicing — the dense boolean horizon is never
    materialised in one piece, so long packed campaigns replay in bounded
    memory.
    """

    def __init__(
        self,
        observations: Union[ObservationMatrix, np.ndarray],
        chunk_intervals: int = 64,
    ) -> None:
        if chunk_intervals < 1:
            raise ScenarioError("chunk_intervals must be >= 1")
        if not isinstance(observations, ObservationMatrix):
            matrix = np.asarray(observations, dtype=bool)
            if matrix.ndim != 2:
                raise ScenarioError("MatrixSource expects a (T, paths) matrix")
            observations = ObservationMatrix(matrix)
        self._observations = observations
        self.chunk_intervals = chunk_intervals

    def chunks(self) -> Iterator[np.ndarray]:
        total = self._observations.num_intervals
        for start in range(0, total, self.chunk_intervals):
            stop = min(start + self.chunk_intervals, total)
            yield self._observations.slice_intervals(start, stop).matrix


def write_ndjson_trace(
    path: Union[str, Path],
    observations: Union[ObservationMatrix, np.ndarray, Iterable[np.ndarray]],
    num_paths: Optional[int] = None,
) -> int:
    """Record a campaign as an NDJSON trace; returns rounds written.

    Accepts a finished horizon (``ObservationMatrix`` / dense matrix) or an
    iterable of ``(rounds, paths)`` chunks (e.g. a live
    :meth:`StreamingProber.rounds`), so campaigns can be recorded while
    they stream.
    """
    if isinstance(observations, ObservationMatrix):
        # Chunked replay through the words' own slicing: a long packed
        # campaign is written without materialising the dense horizon.
        num_paths = observations.num_paths
        blocks: Iterable[np.ndarray] = MatrixSource(
            observations, chunk_intervals=4096
        ).chunks()
    elif isinstance(observations, np.ndarray):
        matrix = np.asarray(observations, dtype=bool)
        if matrix.ndim != 2:
            raise ScenarioError("write_ndjson_trace expects a (T, paths) matrix")
        blocks = (matrix,)
        num_paths = matrix.shape[1]
    else:
        blocks = observations
        if num_paths is None:
            raise ScenarioError(
                "num_paths is required when writing from a chunk iterable"
            )
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"type": "header", "num_paths": int(num_paths)}) + "\n"
        )
        for block in blocks:
            block = np.asarray(block, dtype=bool)
            if block.ndim != 2 or block.shape[1] != num_paths:
                raise ScenarioError(
                    f"trace chunk must be (rounds, {num_paths}) boolean"
                )
            for row in block:
                congested = np.flatnonzero(row).tolist()
                handle.write(
                    json.dumps({"type": "round", "congested": congested}) + "\n"
                )
                written += 1
    return written


def _is_count(value) -> bool:
    """A JSON integer ``>= 0`` (``true``/``false`` are not integers here)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class NDJSONTraceSource:
    """Replay a recorded NDJSON campaign in fixed-size chunks.

    The file is read lazily line by line, so arbitrarily long recorded
    campaigns replay in bounded memory. A trace is untrusted input: any
    malformed line (bad JSON or UTF-8, a non-object record, a bad or
    oversized header, a congested entry that is not a path index) raises
    :class:`~repro.exceptions.ScenarioError` naming ``path:line``.
    """

    def __init__(self, path: Union[str, Path], chunk_intervals: int = 64) -> None:
        if chunk_intervals < 1:
            raise ScenarioError("chunk_intervals must be >= 1")
        self.path = Path(path)
        self.chunk_intervals = chunk_intervals
        with open(self.path, "rb") as handle:
            header = self._record(handle.readline(), 1)
        if header.get("type") != "header" or not _is_count(header.get("num_paths")):
            raise ScenarioError(
                f"{self.path}:1: first NDJSON line must be the trace header"
            )
        if header["num_paths"] > MAX_TRACE_PATHS:
            raise ScenarioError(
                f"{self.path}:1: num_paths {header['num_paths']} exceeds "
                f"{MAX_TRACE_PATHS}"
            )
        self._num_paths = header["num_paths"]

    def _record(self, line: bytes, line_number: int) -> dict:
        """Parse one line into a JSON object, or fail naming its place."""
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ScenarioError(f"{self.path}:{line_number}: {exc}") from None
        if not isinstance(record, dict):
            raise ScenarioError(f"{self.path}:{line_number}: expected a JSON object")
        return record

    @property
    def num_paths(self) -> int:
        return self._num_paths

    def chunks(self) -> Iterator[np.ndarray]:
        buffer = np.zeros((self.chunk_intervals, self._num_paths), dtype=bool)
        filled = 0
        with open(self.path, "rb") as handle:
            handle.readline()  # header, validated in __init__
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                record = self._record(line, line_number)
                if record.get("type") != "round":
                    raise ScenarioError(
                        f"{self.path}:{line_number}: expected a round record"
                    )
                congested = record.get("congested", [])
                if not isinstance(congested, list) or not all(
                    _is_count(index) and index < self._num_paths for index in congested
                ):
                    raise ScenarioError(
                        f"{self.path}:{line_number}: congested must list path "
                        f"indices in [0, {self._num_paths})"
                    )
                buffer[filled] = False
                buffer[filled, congested] = True
                filled += 1
                if filled == self.chunk_intervals:
                    yield buffer[:filled].copy()
                    filled = 0
        if filled:
            yield buffer[:filled].copy()
