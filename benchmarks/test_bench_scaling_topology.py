"""Internet-scale construction and estimation path benchmark.

Runs the ``scaling-topology`` study (ROADMAP item 3): a power-law AS
topology is built through the compact path (CSR adjacency, CSR route
table, entry-run equation storage) and fitted at each scale's node
counts. The table and a report-only peak-RSS row are recorded; the
cells' route and estimate digests are frozen in
``tests/probability/test_algorithm1_digests.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.scaling_topology import run_scaling_topology


@pytest.mark.benchmark(group="scaling-topology")
def test_scaling_topology_sparse_vs_dense(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: run_scaling_topology(bench_scale, seed=17, workers=1),
        rounds=1,
        iterations=1,
    )
    print()
    print("Internet-scale construction and estimation path")
    print(result.to_table())
    assert result.rows and all(row.num_equations > 0 for row in result.rows)

    # Report-only context for compare_baseline.py: the process peak RSS
    # after the largest cell, in MB.
    benchmark.extra_info["peak_rss_mb"] = round(
        max(row.rss_bytes for row in result.rows) / 1e6, 1
    )
