"""Integration tests for the experiment drivers and the CLI.

The drivers run on tiny instances: the tests check the plumbing (rows
present, tables render, CLI wires up) and the paper's qualitative figure
shapes at fixed seeds.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SCALES, TINY, scale_by_name
from repro.experiments.figure3 import SCENARIO_ORDER, run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.scaling import run_algorithm1_scaling


def test_scale_lookup():
    assert scale_by_name("small").name == "small"
    assert scale_by_name("paper").name == "paper"
    with pytest.raises(KeyError):
        scale_by_name("bogus")
    assert scale_by_name("tiny").name == "tiny"
    assert set(SCALES) == {"tiny", "small", "paper"}


@pytest.fixture(scope="module")
def figure3_result():
    return run_figure3(TINY, seed=1)


@pytest.fixture(scope="module")
def figure4_result():
    return run_figure4(TINY, seed=2)


def test_figure3_all_rows_present(figure3_result):
    algorithms = {
        "Sparsity",
        "Bayesian-Independence",
        "Bayesian-Correlation",
    }
    for scenario in SCENARIO_ORDER:
        for algorithm in algorithms:
            metrics = figure3_result.rows[(scenario, algorithm)]
            assert 0.0 <= metrics.detection_rate <= 1.0
            assert 0.0 <= metrics.false_positive_rate <= 1.0


def test_figure3_tables_render(figure3_result):
    detection = figure3_result.to_table("detection")
    fp = figure3_result.to_table("fp")
    assert "Random Congestion" in detection
    assert "Sparse Topology" in fp


def test_figure3_sparse_topology_lowers_detection(figure3_result):
    """Fig. 3(a): cover-style inference suffers on the Sparse topology."""
    sparse = figure3_result.detection("Sparse Topology", "Sparsity")
    easy = figure3_result.detection("Random Congestion", "Bayesian-Independence")
    assert sparse <= easy


def test_figure3_sparse_topology_raises_false_positives(figure3_result):
    """Fig. 3(b): false positives rise sharply on the Sparse topology."""
    algorithms = ("Sparsity", "Bayesian-Independence", "Bayesian-Correlation")
    sparse_fp = max(
        figure3_result.false_positives("Sparse Topology", algorithm)
        for algorithm in algorithms
    )
    easy_fp = min(
        figure3_result.false_positives("No Independence", algorithm)
        for algorithm in algorithms
    )
    assert sparse_fp >= easy_fp


def test_figure3_topology_stats(figure3_result):
    assert "brite" in figure3_result.topology_stats
    assert "sparse" in figure3_result.topology_stats


def test_figure4_all_rows_present(figure4_result):
    for topology in ("brite", "sparse"):
        for scenario in (
            "Random Congestion",
            "Concentrated Congestion",
            "No Independence",
        ):
            for estimator in (
                "Independence",
                "Correlation-heuristic",
                "Correlation-complete",
            ):
                metrics = figure4_result.rows[(topology, scenario, estimator)]
                assert 0.0 <= metrics.mean_absolute_error <= 1.0


def test_figure4_cdf(figure4_result):
    grid, cdf = figure4_result.cdf(
        "sparse", "No Independence", "Correlation-complete", points=21
    )
    assert grid.shape == cdf.shape == (21,)
    assert cdf[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("topology", ["brite", "sparse"])
def test_figure4_complete_no_worse_than_independence(figure4_result, topology):
    """Fig. 4(a,b): under link correlation, Correlation-complete holds up."""
    complete = figure4_result.mean_error(
        topology, "No Independence", "Correlation-complete"
    )
    independence = figure4_result.mean_error(
        topology, "No Independence", "Independence"
    )
    assert complete <= independence + 0.01


def test_figure4_error_cdf_coverage(figure4_result):
    """Fig. 4(c): most links within 0.1 error under No Independence, Sparse."""
    coverage = {}
    for estimator in ("Independence", "Correlation-complete"):
        _, cdf = figure4_result.cdf("sparse", "No Independence", estimator, points=11)
        coverage[estimator] = cdf[1]  # fraction of links with error <= 0.1
    assert coverage["Correlation-complete"] >= 0.6
    assert coverage["Correlation-complete"] >= coverage["Independence"] - 0.05


def test_figure4_subset_rows(figure4_result):
    assert set(figure4_result.subset_rows) == {"brite", "sparse"}
    tables = figure4_result.to_subset_table()
    assert "brite" in tables
    # Fig. 4(d): correlation-subset probabilities are computed accurately.
    for link_error, subset_error in figure4_result.subset_rows.values():
        assert link_error <= 0.2
        if subset_error is not None:
            assert subset_error <= 0.12


def test_figure4_tables_render(figure4_result):
    assert "No Independence" in figure4_result.to_table("brite")
    assert "Correlation-complete" in figure4_result.to_table("sparse")


def test_scaling_driver():
    result = run_algorithm1_scaling(TINY, seed=3, subset_sizes=[1, 2])
    assert len(result.rows) == 2
    assert result.rows[0].num_unknowns <= result.rows[1].num_unknowns
    for row in result.rows:
        # Far fewer equations than the naive 2^|P*| enumeration.
        assert row.num_equations < 50_000
        assert row.rank <= row.num_equations
        assert row.num_identifiable <= row.num_unknowns
    assert "naive bound" in result.to_table()


def test_cli_table2(capsys):
    from repro.cli import main

    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Sparsity" in out
    assert "Identifiability++" in out
