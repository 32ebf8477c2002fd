"""Streaming parsers, node census, and internet-scale derivation.

The memory-bounded ingestion path: :func:`iter_caida_edges` /
:func:`load_caida_edge_arrays` stream as-rel files into flat arrays,
:func:`scan_nodes` counts declared nodes without building a graph, and
:func:`derive_network_compact` derives monitored networks through the CSR
construction — including an in-test 10k-node synthetic graph, so the
internet-scale claim is exercised on every tier-1 run without committing
a large fixture.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    PowerLawAsLoader,
    dataset_names,
    derive_network_compact,
    generate_powerlaw_edges,
    iter_caida_edges,
    load_caida_edge_arrays,
    parse_caida,
    parse_gml,
    scan_nodes,
)
from repro.datasets.registry import datasets_root
from repro.exceptions import DatasetError
from repro.topology.routing import CompactGraph


# ----------------------------------------------------------------------
# Streaming CAIDA ingestion
# ----------------------------------------------------------------------
def test_iter_caida_edges_streams_the_fixture():
    text = (datasets_root() / "caida-asrel.txt").read_text()
    triples = list(iter_caida_edges(text.splitlines()))
    parsed, relationships = parse_caida(text)
    assert len(triples) == len(relationships) == 33
    for a, b, relationship in triples:
        stored = relationships.get((a, b), relationships.get((b, a)))
        assert stored == relationship


@pytest.mark.parametrize(
    "line,match",
    [
        ("174|3356", "expected 'as1\\|as2\\|rel'"),
        ("174|x|0", "non-integer field"),
        ("174|3356|7", "unknown relationship 7"),
        ("174|3356|2", "unknown relationship 2"),
        ("174|174|0", "self-loop on AS 174"),
    ],
)
def test_iter_caida_edges_rejects_degenerate_lines(line, match):
    lines = ["# comment", "", "1|2|0", line]
    with pytest.raises(DatasetError, match=match) as excinfo:
        list(iter_caida_edges(lines))
    # The 1-based line number of the offending line is in the message.
    assert "line 4" in str(excinfo.value)


def test_load_caida_edge_arrays_compacts_node_ids():
    lines = ["3356|174|0", "174|65000|-1", "# c", "65000|3356|0"]
    arrays = load_caida_edge_arrays(lines)
    assert list(arrays.nodes) == [174, 3356, 65000]
    assert arrays.num_nodes == 3
    assert arrays.num_edges == 3
    # Endpoints index into the sorted AS list; file order is preserved.
    assert list(arrays.nodes[arrays.src]) == [3356, 174, 65000]
    assert list(arrays.nodes[arrays.dst]) == [174, 65000, 3356]
    assert list(arrays.relationships) == [0, -1, 0]
    assert arrays.nbytes < 10_000


def test_load_caida_edge_arrays_matches_eager_parse():
    text = (datasets_root() / "caida-asrel.txt").read_text()
    arrays = load_caida_edge_arrays(text.splitlines())
    parsed, _ = parse_caida(text)
    assert set(arrays.nodes) == set(parsed.graph.nodes)
    edges = {
        frozenset((int(arrays.nodes[s]), int(arrays.nodes[d])))
        for s, d in zip(arrays.src, arrays.dst)
    }
    assert edges == {frozenset(edge) for edge in parsed.graph.edges}


def test_load_caida_edge_arrays_rejects_empty_input():
    with pytest.raises(DatasetError, match="no relationships"):
        load_caida_edge_arrays(["# only", "# comments"])


def test_load_caida_edge_arrays_grows_past_initial_capacity():
    lines = [f"{a}|{a + 1}|0" for a in range(1, 3000)]
    arrays = load_caida_edge_arrays(lines)
    assert arrays.num_edges == 2999
    assert arrays.num_nodes == 3000


# ----------------------------------------------------------------------
# GML degenerate inputs
# ----------------------------------------------------------------------
def test_gml_duplicate_node_ids_collapse_deterministically():
    """Topology Zoo files repeat ids; the last block's label wins."""
    text = """
    graph [
      node [ id 0 label "A" ]
      node [ id 0 label "B" ]
      node [ id 1 ]
      edge [ source 0 target 1 ]
    ]
    """
    parsed = parse_gml(text)
    assert parsed.graph.number_of_nodes() == 2
    assert parsed.graph.number_of_edges() == 1
    assert parsed.labels[0] == "B"


def test_gml_duplicate_ids_with_only_self_loops_rejected():
    text = "graph [ node [ id 0 ] node [ id 0 ] edge [ source 0 target 0 ] ]"
    with pytest.raises(DatasetError, match="no edges"):
        parse_gml(text)


# ----------------------------------------------------------------------
# Streaming node census (scan_nodes)
# ----------------------------------------------------------------------
def test_scan_nodes_counts_caida_and_gml(tmp_path):
    assert scan_nodes(datasets_root() / "caida-asrel.txt", "caida") == 20
    gml_path = datasets_root() / "abilene.gml"
    assert scan_nodes(gml_path, "gml") == 11
    # Formats without a streaming census are skipped, not guessed.
    assert scan_nodes(gml_path, "rocketfuel") is None


def test_scan_nodes_max_nodes_guard(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"{a}|{a + 1}|0" for a in range(1, 100)))
    assert scan_nodes(path, "caida", max_nodes=200) == 100
    with pytest.raises(DatasetError, match="more than 10 nodes"):
        scan_nodes(path, "caida", max_nodes=10)


def test_scan_nodes_missing_file_is_a_dataset_error(tmp_path):
    with pytest.raises(DatasetError):
        scan_nodes(tmp_path / "absent.txt", "caida")


# ----------------------------------------------------------------------
# Compact derivation and the 10k-node graph
# ----------------------------------------------------------------------
def _spec(**overrides) -> DatasetSpec:
    base = dict(
        num_vantage_points=4, num_destinations=30, num_paths=60, seed=3
    )
    base.update(overrides)
    return DatasetSpec(**base)


def test_derive_network_compact_records_construction_stats():
    src, dst = generate_powerlaw_edges(400, attachment=2, seed=9)
    stats: dict = {}
    tracemalloc.start()
    try:
        derive_network_compact(400, src, dst, _spec(), "t", stats=stats)
    finally:
        tracemalloc.stop()
    assert stats["construction_bytes"] > 0
    # Without tracing the dict is left untouched, not poisoned with zeros.
    untraced: dict = {}
    derive_network_compact(400, src, dst, _spec(), "t", stats=untraced)
    assert "construction_bytes" not in untraced


def test_derive_network_compact_rejects_degenerate_graphs():
    with pytest.raises(DatasetError, match="at least two nodes"):
        derive_network_compact(
            1, np.zeros(0, np.uint32), np.zeros(0, np.uint32), _spec(), "t"
        )
    # A graph with no edges has no usable routes.
    with pytest.raises(DatasetError, match="no usable routes"):
        derive_network_compact(
            50, np.zeros(0, np.uint32), np.zeros(0, np.uint32), _spec(), "t"
        )


def test_ten_thousand_node_synthetic_graph():
    """The ROADMAP-scale graph, generated and derived in-test."""
    num_nodes = 10_000
    src, dst = generate_powerlaw_edges(num_nodes, attachment=2, seed=17)
    # Edge count is closed-form: seed clique + attachment per new node.
    assert src.shape == dst.shape == (3 + 2 * (num_nodes - 3),)
    assert src.dtype == dst.dtype == np.uint32
    # Preferential attachment reaches every node.
    graph = CompactGraph.from_edges(num_nodes, src, dst)
    assert graph.num_nodes == num_nodes
    assert graph.nbytes < 500_000
    network = derive_network_compact(
        num_nodes,
        src,
        dst,
        _spec(num_vantage_points=3, num_destinations=20, num_paths=30),
        "powerlaw-10k",
    )
    assert network.num_paths > 0
    assert all(path.links for path in network.paths)


def test_powerlaw_loader_is_not_registered():
    """Registry campaigns must not sweep the 10k-node generator."""
    loader = PowerLawAsLoader(num_nodes=300, attachment=2)
    assert "powerlaw-as" not in {name for name in dataset_names()}
    network = loader.load(None, _spec(num_paths=40))
    assert network.name == "powerlaw-as-300"
    assert network.num_paths > 0
    assert loader.cache_token(None) == b"powerlaw-as:300:2"
