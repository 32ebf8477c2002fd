"""Ablation benchmark: what each solve refinement buys.

The README's "Deviations from the paper" lists the finite-sample
refinements applied to the paper's Algorithm 1; this benchmark quantifies
each by toggling it off on the No-Independence scenario (the hardest
stationary case) on both topologies.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.ablation import run_ablation


@pytest.mark.benchmark(group="ablation")
def test_correlation_complete_ablation(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: run_ablation(bench_scale, seed=5), rounds=1, iterations=1
    )
    print()
    print("Correlation-complete ablation - mean abs link error, No Independence")
    print(result.to_table())
    for key, value in result.errors.items():
        assert not math.isnan(value)
        assert 0.0 <= value <= 1.0
    # The full configuration should not be substantially worse than any
    # ablated variant on the sparse topology (where the refinements matter).
    full = result.errors[("full", "sparse")]
    for (label, topology), value in result.errors.items():
        if topology == "sparse":
            assert full <= value + 0.05, f"full config worse than {label}"
