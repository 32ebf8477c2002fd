"""Tests for the dataset registry and the on-disk parse cache."""

from __future__ import annotations

import json

import pytest

from repro.datasets import (
    DatasetSpec,
    GmlLoader,
    dataset_info,
    dataset_names,
    get_dataset,
    load_dataset,
    load_with_cache,
    register_dataset,
)
from repro.datasets.cache import cache_key
from repro.datasets.registry import DATASETS, resolve_dataset_path
from repro.exceptions import DatasetError
from tests.dense_incidence import dense_incidence

#: Every dataset this PR bundles; keep in sync with the registry.
BUNDLED = {
    "abilene",
    "sample-eu-isp",
    "rocketfuel-1221",
    "caida-asrel",
    "saved-peering",
    "brite-dense",
    "sparse-traceroute",
}


def test_bundled_datasets_registered():
    assert BUNDLED <= set(dataset_names())


def test_every_bundled_dataset_loads_offline():
    """The acceptance gate: all fixtures load without network access."""
    for name in dataset_names():
        network = load_dataset(name)
        assert network.name == name
        assert network.num_links >= 1
        assert network.num_paths >= 1
        assert len(network.correlation_sets) >= 1


def test_load_is_deterministic():
    a = load_dataset("abilene", use_cache=False)
    b = load_dataset("abilene", use_cache=False)
    assert [p.links for p in a.paths] == [p.links for p in b.paths]
    assert [(link.src, link.dst, link.asn) for link in a.links] == [
        (link.src, link.dst, link.asn) for link in b.links
    ]


def test_unknown_dataset_rejected():
    with pytest.raises(DatasetError, match="unknown dataset"):
        get_dataset("atlantis")
    with pytest.raises(DatasetError, match="unknown dataset"):
        load_dataset("atlantis")


def test_duplicate_registration_rejected():
    entry = DATASETS["abilene"]
    with pytest.raises(DatasetError, match="already registered"):
        register_dataset(entry)
    register_dataset(entry, replace_existing=True)  # no-op, allowed


def test_missing_file_mentions_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DATASETS_DIR", str(tmp_path))
    with pytest.raises(DatasetError, match="REPRO_DATASETS_DIR"):
        resolve_dataset_path(get_dataset("abilene"))


def test_dataset_info_includes_stats():
    info = dataset_info("saved-peering")
    assert info["format"] == "repro-json"
    assert info["num_links"] == 11.0
    assert info["description"]


def test_spec_validation():
    with pytest.raises(DatasetError):
        DatasetSpec(num_paths=0).validate()
    with pytest.raises(DatasetError):
        DatasetSpec(group_size=0).validate()
    with pytest.raises(DatasetError):
        DatasetSpec(num_vantage_points=0).validate()


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
def test_cache_writes_and_serves(tmp_path):
    entry = get_dataset("abilene")
    path = resolve_dataset_path(entry)
    first = load_with_cache(
        "abilene", entry.loader, path, entry.spec, cache_dir=tmp_path
    )
    cached_files = list(tmp_path.glob("abilene-*.json"))
    assert len(cached_files) == 1
    second = load_with_cache(
        "abilene", entry.loader, path, entry.spec, cache_dir=tmp_path
    )
    assert (dense_incidence(first) == dense_incidence(second)).all()
    assert [
        (link.src, link.dst, link.asn, link.router_links)
        for link in first.links
    ] == [(link.src, link.dst, link.asn, link.router_links) for link in second.links]


def test_cache_hit_skips_the_parser(tmp_path):
    entry = get_dataset("abilene")
    path = resolve_dataset_path(entry)
    load_with_cache("abilene", entry.loader, path, entry.spec, cache_dir=tmp_path)

    class ExplodingLoader:
        format_name = entry.loader.format_name
        description = "must not be called"

        def load(self, p, spec):
            raise AssertionError("cache miss: parser was invoked")

        def cache_token(self, p):
            return entry.loader.cache_token(p)

    network = load_with_cache(
        "abilene", ExplodingLoader(), path, entry.spec, cache_dir=tmp_path
    )
    assert network.num_links >= 1


def test_cache_key_tracks_content_and_spec(tmp_path):
    loader = GmlLoader()
    a = tmp_path / "a.gml"
    b = tmp_path / "b.gml"
    a.write_text("graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] ]")
    b.write_text("graph [ node [ id 0 ] node [ id 2 ] edge [ source 0 target 2 ] ]")
    spec = DatasetSpec()
    assert cache_key(loader, a, spec) != cache_key(loader, b, spec)
    assert cache_key(loader, a, spec) != cache_key(loader, a, DatasetSpec(seed=99))
    assert cache_key(loader, a, spec) == cache_key(loader, a, DatasetSpec())


def test_corrupt_cache_entry_falls_back_to_parse(tmp_path):
    entry = get_dataset("abilene")
    path = resolve_dataset_path(entry)
    load_with_cache("abilene", entry.loader, path, entry.spec, cache_dir=tmp_path)
    (cached,) = tmp_path.glob("abilene-*.json")
    cached.write_text(json.dumps({"format_version": 99}))
    network = load_with_cache(
        "abilene", entry.loader, path, entry.spec, cache_dir=tmp_path
    )
    assert network.num_links >= 1
    # The fresh parse repaired the entry.
    assert json.loads(cached.read_text())["format_version"] == 1


def test_synthetic_datasets_cache_too(tmp_path):
    entry = get_dataset("brite-dense")
    assert entry.synthetic
    load_with_cache("brite-dense", entry.loader, None, entry.spec, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("brite-dense-*.json"))) == 1
