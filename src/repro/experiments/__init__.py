"""Experiment harness regenerating every table and figure of the paper.

Each driver returns plain dataclasses of rows/series (the same quantities
the paper plots) and is invoked by the command-line interface
(``repro-tomography``) and by the tests.
"""

from repro.experiments.config import ExperimentScale, SCALES, scale_by_name
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.scaling import ScalingResult, run_algorithm1_scaling

__all__ = [
    "ExperimentScale",
    "SCALES",
    "scale_by_name",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "ScalingResult",
    "run_algorithm1_scaling",
]
