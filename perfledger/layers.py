"""Per-layer tracing for the ledger's traced runs.

The program already opens spans at its stage boundaries
(``pipeline.<stage>``, ``streaming.refit``, ``mitigation.plan``,
``mitigation.apply``, ``mitigation.closed_loop``). The ledger adds spans
from outside, around public calls that have none:

* calls made from inside the program are wrapped where the caller looks
  them up (:data:`WRAPPED_CALLS`), for the length of one traced unit;
* the frequency kernel is timed through :class:`CountingKernel`, a proxy
  around the numpy kernel registered under a name the ledger owns;
* the workloads open spans around their own calls into the program
  (``topology.derive_network``, ``simulation.run_experiment``,
  ``streaming.ingest``).

Span events are kept in memory, not written to the trace file, so the
sink costs one list append; self times come from
:func:`repro.obs.render.aggregate_spans`.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.model import kernels
from repro.model.kernels import FrequencyKernel, NumpyKernel, use_kernel
from repro.obs import aggregate_spans, span
from repro.probability.pipeline import EstimationPipeline


class LedgerError(RuntimeError):
    """The ledger cannot measure what it promises (a wrapper target is gone)."""


#: (module, attribute, span) of the program-internal calls the ledger wraps.
#: The attribute is replaced in the module that *calls* it, because that is
#: where the caller looks the name up.
WRAPPED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro.probability.correlation_complete",
        "null_space_update",
        "linalg.null_space_update",
    ),
    (
        "repro.probability.base",
        "sampled_path_combinations",
        "probability.sampled_path_combinations",
    ),
    ("repro.mitigation.evaluate", "run_experiment", "simulation.run_experiment"),
    ("repro.mitigation.evaluate", "score_closed_loop", "mitigation.score"),
)

#: The span that encloses each traced operation; its self time is the part
#: of an operation no layer span accounts for.
OP_SPAN = "ledger.op"

#: Spans whose self time is reported as a share of traced operation time.
SHARE_SPANS: Tuple[str, ...] = (
    "pipeline.prune",
    "pipeline.discover",
    "pipeline.assemble",
    "pipeline.solve",
    "pipeline.build_model",
    "linalg.null_space_update",
    "probability.sampled_path_combinations",
    "model.union_popcounts",
    "simulation.run_experiment",
    "topology.derive_network",
    "streaming.refit",
    "streaming.ingest",
    "mitigation.plan",
    "mitigation.apply",
    "mitigation.score",
    "mitigation.closed_loop",
    OP_SPAN,
)

#: Spans whose call count per operation is reported.
CALL_SPANS: Tuple[str, ...] = (
    "pipeline.fit",
    "linalg.null_space_update",
    "probability.sampled_path_combinations",
    "model.union_popcounts",
    "simulation.run_experiment",
    "mitigation.score",
)


class Recorder:
    """Everything the traced units of one run record."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.reports: list = []
        self.incidence_bytes = 0
        self.kernel_sets = 0
        self.kernel_bytes = 0


class CountingKernel(FrequencyKernel):
    """The numpy kernel, timed under ``model.union_popcounts`` and counted."""

    name = "ledger-numpy"
    description = "numpy kernel timed and counted by the ledger"

    def __init__(self, recorder: Recorder) -> None:
        self._inner = NumpyKernel()
        self._recorder = recorder

    def is_available(self) -> bool:
        return True

    def congestion_counts(self, words):
        return self._inner.congestion_counts(words)

    def union_popcounts(self, words, indices, lengths, scratch):
        num_sets, widest = indices.shape
        self._recorder.kernel_sets += num_sets
        # Bytes the gather touches: the (sets, widest, words) uint64 cube.
        self._recorder.kernel_bytes += num_sets * widest * words.shape[1] * 8
        with span("model.union_popcounts"):
            return self._inner.union_popcounts(words, indices, lengths, scratch)


def _in_span(name: str) -> Callable[[Callable], Callable]:
    """``_in_span(name)(f)`` is ``f``, run inside a span called ``name``."""

    def wrap(function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return wrapper

    return wrap


@contextmanager
def _replaced(owner, attribute: str, make: Callable) -> Iterator[None]:
    """Replace ``owner.attribute`` by ``make(original)`` for the scope."""
    original = getattr(owner, attribute, None)
    if original is None:
        where = getattr(owner, "__name__", repr(owner))
        raise LedgerError(f"wrapper target {where}.{attribute} is missing")
    setattr(owner, attribute, make(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def instrument(
    recorder: Recorder, wrapped: Tuple[Tuple[str, str, str], ...] = WRAPPED_CALLS
) -> Iterator[None]:
    """Install every ledger wrapper for one traced unit; restore on exit.

    Raises :class:`LedgerError` when a wrapper target no longer exists, so
    a renamed call site fails the run instead of reporting zero.
    """

    def record_fit(run):
        def recording_run(pipeline, context):
            model = run(pipeline, context)
            recorder.reports.append(model.report)
            incidence = getattr(context.network, "incidence", None)
            if incidence is not None:
                largest = max(recorder.incidence_bytes, incidence.nbytes)
                recorder.incidence_bytes = largest
            return model

        return recording_run

    kernel = CountingKernel(recorder)
    with ExitStack() as stack:
        for module_name, attribute, span_name in wrapped:
            module = importlib.import_module(module_name)
            stack.enter_context(_replaced(module, attribute, _in_span(span_name)))
        sink = importlib.import_module("repro.obs.span")
        stack.enter_context(_replaced(sink, "_emit", lambda _: recorder.events.append))
        stack.enter_context(_replaced(EstimationPipeline, "run", record_fit))
        kernels.KERNELS[kernel.name] = kernel
        stack.callback(kernels.KERNELS.pop, kernel.name, None)
        stack.enter_context(use_kernel(kernel.name))
        yield


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of a traced run, normalised per traced operation.

    Self-time shares are fractions of the summed duration of the
    :data:`OP_SPAN` spans; counts are per operation or per fit, so runs that
    complete different numbers of operations compare directly.
    """
    spans = aggregate_spans([e for e in recorder.events if e["type"] == "span"])
    empty = {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
    op = spans.get(OP_SPAN, empty)
    ops, op_seconds = op["count"], op["total_s"]
    metrics = {"trace.op_ms": _ratio(op_seconds, ops) * 1e3}
    for name in SHARE_SPANS:
        self_seconds = spans.get(name, empty)["self_s"]
        metrics[f"{name}.share"] = _ratio(self_seconds, op_seconds)
    for name in CALL_SPANS:
        metrics[f"{name}.calls_per_op"] = _ratio(spans.get(name, empty)["count"], ops)
    metrics["model.union_popcounts.sets_per_op"] = _ratio(recorder.kernel_sets, ops)
    megabytes = _ratio(recorder.kernel_bytes, ops) / 1e6
    metrics["model.union_popcounts.mb_per_op"] = megabytes
    reports = recorder.reports
    equations = sum(r.num_equations for r in reports)
    rank = sum(r.rank for r in reports)
    hits = sum(r.frequency_cache_hits for r in reports)
    lookups = hits + sum(r.frequency_cache_misses for r in reports)
    storage = max((r.equation_storage_bytes for r in reports), default=0)
    metrics["pipeline.equations_per_fit"] = _ratio(equations, len(reports))
    metrics["pipeline.rank_per_fit"] = _ratio(rank, len(reports))
    metrics["pipeline.rank_per_equation"] = _ratio(rank, equations)
    metrics["pipeline.cache_hit_ratio"] = _ratio(hits, lookups)
    metrics["pipeline.equation_storage_mb"] = storage / 1e6
    metrics["topology.incidence_mb"] = recorder.incidence_bytes / 1e6
    return metrics
