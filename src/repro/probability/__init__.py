"""Congestion Probability Computation (Sections 4 and 5).

This package implements the paper's primary contribution — the
**Correlation-complete** estimator (Algorithm 1 with the incremental
null-space update of Algorithm 2) — together with the two baselines it is
compared against:

* **Independence** — the Probability Computation step of
  Bayesian-Independence / CLINK [11], which assumes all links independent;
* **Correlation-heuristic** — the earlier heuristic of [9], which handles
  correlation sets but throws a large, redundant (hence noisy) equation pool
  at the solver and reports only individual links.

Every estimator is a *stage configuration* of the shared
:class:`~repro.probability.pipeline.EstimationPipeline`
(``prune -> frequency -> discover -> assemble -> solve -> build_model``),
registered by name in :mod:`repro.probability.registry`. All estimators
consume only an :class:`~repro.model.status.ObservationMatrix` (path
observations over T intervals) plus the network graph, and produce a
:class:`~repro.probability.query.CongestionProbabilityModel` answering
probability queries over links and link sets.
"""

from repro.probability.subsets import SubsetIndex, potentially_congested_links
from repro.probability.rows import build_matrix, build_row
from repro.probability.query import CongestionProbabilityModel
from repro.probability.pipeline import (
    STAGE_ORDER,
    EstimationPipeline,
    FitContext,
    FitReport,
    FrequencyCache,
    SharedFitWorkspace,
)
from repro.probability.base import EstimatorConfig, ProbabilityEstimator
from repro.probability.correlation_complete import (
    CorrelationCompleteEstimator,
    CorrelationCompleteNoRedundancy,
)
from repro.probability.independence import IndependenceEstimator
from repro.probability.correlation_heuristic import CorrelationHeuristicEstimator
from repro.probability.registry import (
    ESTIMATORS,
    EstimatorEntry,
    estimator_names,
    get_estimator,
    make_estimator,
    paper_estimator_names,
    register_estimator,
    resolve_estimator,
)
from repro.probability.windowed import CongestionTimeline

__all__ = [
    "CongestionTimeline",
    "SubsetIndex",
    "potentially_congested_links",
    "build_matrix",
    "build_row",
    "CongestionProbabilityModel",
    "STAGE_ORDER",
    "EstimationPipeline",
    "FitContext",
    "FitReport",
    "FrequencyCache",
    "SharedFitWorkspace",
    "EstimatorConfig",
    "ProbabilityEstimator",
    "CorrelationCompleteEstimator",
    "CorrelationCompleteNoRedundancy",
    "IndependenceEstimator",
    "CorrelationHeuristicEstimator",
    "ESTIMATORS",
    "EstimatorEntry",
    "estimator_names",
    "get_estimator",
    "make_estimator",
    "paper_estimator_names",
    "register_estimator",
    "resolve_estimator",
]
