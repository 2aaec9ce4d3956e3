"""KeyPartitioner: determinism, stability, balance, independence."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.hashing.family import make_family
from repro.runtime.partition import PARTITION_SEED_SALT, KeyPartitioner


def test_shard_assignment_is_stable():
    partitioner = KeyPartitioner(4, seed=9)
    items = [f"flow-{i}" for i in range(500)] + list(range(500))
    first = [partitioner.shard_of(item) for item in items]
    second = [partitioner.shard_of(item) for item in items]
    assert first == second
    rebuilt = KeyPartitioner(4, seed=9)
    assert [rebuilt.shard_of(item) for item in items] == first


def test_split_preserves_order_and_routes_consistently():
    partitioner = KeyPartitioner(3, seed=2)
    items = [f"k{i % 40}" for i in range(400)]
    parts = partitioner.split(items)
    assert len(parts) == 3
    assert sum(len(part) for part in parts) == len(items)
    for shard, part in enumerate(parts):
        assert all(partitioner.shard_of(item) == shard for item in part)
    # order preserved within a shard
    for part in parts:
        positions = [items.index(item) for item in part[:5]]
        assert positions == sorted(positions)


def test_every_arrival_of_a_key_routes_to_one_shard():
    partitioner = KeyPartitioner(5, seed=123)
    parts = partitioner.split(["dup", "a", "dup", "b", "dup"])
    shard = partitioner.shard_of("dup")
    assert parts[shard].count("dup") == 3
    assert sum(part.count("dup") for part in parts) == 3


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_partition_is_roughly_balanced(n_shards):
    partitioner = KeyPartitioner(n_shards, seed=0)
    parts = partitioner.split([f"item-{i}" for i in range(4000)])
    expected = 4000 / n_shards
    for part in parts:
        assert 0.7 * expected <= len(part) <= 1.3 * expected


def test_routing_hash_is_salted_away_from_sketch_hashes():
    # The sketch family at the same base seed must not reproduce the
    # routing hash, or routing would correlate with counter placement.
    partitioner = KeyPartitioner(4, seed=7, hash_family="crc")
    sketch_family = make_family("crc", 7)
    items = [f"flow-{i}" for i in range(200)]
    collisions = sum(
        partitioner.shard_of(item) == sketch_family.hash32(item, 0) % 4
        for item in items
    )
    assert collisions < len(items) * 0.5
    salted = make_family("crc", (7 ^ PARTITION_SEED_SALT) & 0xFFFFFFFF)
    assert all(
        partitioner.shard_of(item) == salted.hash32(item, 0) % 4 for item in items
    )


def test_spec_roundtrip():
    partitioner = KeyPartitioner(6, seed=42, hash_family="murmur")
    rebuilt = KeyPartitioner.from_spec(partitioner.spec())
    items = [f"x{i}" for i in range(100)]
    assert [rebuilt.shard_of(i) for i in items] == [partitioner.shard_of(i) for i in items]


def test_invalid_shard_count_rejected():
    with pytest.raises(ConfigurationError):
        KeyPartitioner(0)


@pytest.mark.parametrize("n_shards", [1, 3])
def test_split_counts_routes_like_split(n_shards):
    """Per-shard count maps equal ``Counter`` of the per-arrival split,
    keys in first-arrival order."""
    partitioner = KeyPartitioner(n_shards, seed=2)
    items = [f"k{(i * 7) % 53}" for i in range(600)]
    parts = partitioner.split_counts(Counter(items))
    assert len(parts) == n_shards
    for part, items_part in zip(parts, partitioner.split(items)):
        assert type(part) is dict
        assert list(part.items()) == list(Counter(items_part).items())
