"""The scaling-topology study: spec grid, trial cells, and the campaign.

Runs the real trial function at a deliberately small node count — the
full 1k/10k sweep lives in ``benchmarks/`` and CI's scale-smoke job —
and pins what the campaign reports: one cell per size with non-empty
structures and equations, and the outcome summary the CI job reads. The
cells' route and estimate digests are frozen in
``tests/probability/test_algorithm1_digests.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import scale_by_name
from repro.experiments.scaling_topology import (
    ScalingTopologyResult,
    merge_scaling_topology,
    run_scaling_topology,
    scaling_topology_specs,
)
from repro.runner.campaign import CAMPAIGNS


@pytest.fixture(scope="module")
def result() -> ScalingTopologyResult:
    return run_scaling_topology(scale_by_name("tiny"), seed=17, sizes=[200], workers=1)


def test_specs_cover_every_size():
    specs = scaling_topology_specs(scale_by_name("tiny"), seed=17)
    assert [spec.params["num_nodes"] for spec in specs] == [200, 500]
    assert all(spec.campaign == "scaling-topology" for spec in specs)
    # Explicit sizes override the scale's defaults.
    small = scaling_topology_specs(scale_by_name("paper"), seed=17, sizes=[64])
    assert [spec.params["num_nodes"] for spec in small] == [64]


def test_cells_record_structures_and_equations(result):
    (row,) = result.rows
    assert result.cell(200) is row
    assert result.cell(500) is None
    assert row.num_links > 0 and row.num_paths > 0
    assert row.num_equations > 0
    assert row.construction_bytes > 0
    assert row.equation_storage_bytes > 0
    assert row.structure_bytes == row.construction_bytes + row.equation_storage_bytes
    assert row.peak_traced_bytes > 0


def test_table_and_campaign_summary_expose_the_gate(result):
    table = result.to_table()
    assert "struct MB" in table and "estimate digest" in table
    definition = CAMPAIGNS["scaling-topology"]
    summary = definition.summarize(result)
    (row,) = summary["rows"]
    assert row["num_nodes"] == 200
    assert row["equation_storage_bytes"] > 0
    assert row["estimate_digest"] == result.cell(200).estimate_digest
    assert "estimate digest" in definition.render(result)


def test_merge_orders_rows(result):
    class _Trial:
        def __init__(self, payload):
            self.payload = payload

    (row,) = result.rows
    other = type(row)(**{**row.__dict__, "num_nodes": 100})
    merged = merge_scaling_topology([_Trial(row), _Trial(other)])
    assert [r.num_nodes for r in merged.rows] == [100, 200]
    assert merged.sizes() == [100, 200]
