"""Tests for the ablation driver and its CLI wiring."""

from __future__ import annotations

import math

import pytest

from repro.experiments.ablation import VARIANTS, run_ablation
from tests.experiments.test_experiments import TINY


def test_variant_labels_unique():
    labels = [label for label, _ in VARIANTS]
    assert len(labels) == len(set(labels))
    assert "full" in labels


@pytest.fixture(scope="module")
def ablation_result():
    return run_ablation(TINY, seed=5)


def test_all_cells_present(ablation_result):
    for label, _ in VARIANTS:
        for topology in ("brite", "sparse"):
            value = ablation_result.errors[(label, topology)]
            assert not math.isnan(value)
            assert 0.0 <= value <= 1.0


def test_full_config_no_worse_than_any_variant_on_sparse(ablation_result):
    """The refinements matter on Sparse: none of them may cost accuracy."""
    full = ablation_result.errors[("full", "sparse")]
    for (label, topology), value in ablation_result.errors.items():
        if topology == "sparse":
            assert full <= value + 0.05, f"full config worse than {label}"


def test_table_renders(ablation_result):
    table = ablation_result.to_table()
    assert "full" in table
    assert "sparse" in table


def test_cli_ablation_help():
    from repro.cli import _build_parser

    parser = _build_parser()
    args = parser.parse_args(["ablation", "--seed", "9"])
    assert args.command == "ablation"
    assert args.seed == 9
