"""Hash partitioning of the key space across shards.

The partitioner is the reason the sharded runtime needs no cross-shard
reconciliation on the hot path: every arrival of a key routes to the
same shard, so that shard's X-Sketch sees the key's *complete*
per-window frequency history and its counters are authoritative.
``merge()`` on the sketches exists as the fallback path (re-sharding,
checkpoint compaction), not as a per-window requirement.

The routing hash is drawn from the same deterministic seeded families
the sketches use (:mod:`repro.hashing.family`), salted so it is
independent of the sketch-internal hash functions — routing must not
correlate with counter placement, or each shard's sketch would see a
degenerate slice of its own hash range.  None of the families consults
``PYTHONHASHSEED`` or any per-process state, which is what makes the
assignment stable across worker processes and across restarts
(guarded by ``tests/test_hashing/test_cross_process.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.errors import ConfigurationError
from repro.hashing.family import ItemId, make_family

#: Salt XOR-ed into the family seed so routing hashes are independent of
#: the sketch hashes built from the same base seed.
PARTITION_SEED_SALT = 0x53484152  # "SHAR"


class KeyPartitioner:
    """Deterministic item -> shard assignment.

    Args:
        n_shards: number of shards (>= 1).
        seed: base seed shared with the sketches; the partitioner salts
            it so its hash is independent of theirs.
        hash_family: name of the hash family (``bob``, ``murmur``,
            ``crc``); all are process-independent.
    """

    def __init__(self, n_shards: int, seed: int = 0, hash_family: str = "crc"):
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.seed = int(seed)
        self.hash_family = hash_family
        self._family = make_family(hash_family, (self.seed ^ PARTITION_SEED_SALT) & 0xFFFFFFFF)

    def shard_of(self, item: ItemId) -> int:
        """The shard owning ``item`` (stable for the partitioner's lifetime)."""
        return self._family.hash32(item, 0) % self.n_shards

    def split(self, items: Iterable[ItemId]) -> List[List[ItemId]]:
        """Partition a batch into per-shard sub-batches (order-preserving)."""
        parts: List[List[ItemId]] = [[] for _ in range(self.n_shards)]
        n = self.n_shards
        hash32 = self._family.hash32
        for item in items:
            parts[hash32(item, 0) % n].append(item)
        return parts

    def split_counts(self, counts: Mapping[ItemId, int]) -> List[Dict[ItemId, int]]:
        """Partition a ``{item: count}`` map into per-shard maps.

        Hashes each distinct key once; every per-shard map keeps the
        input's key order.
        """
        n = self.n_shards
        if n == 1:
            return [dict(counts)]
        parts: List[Dict[ItemId, int]] = [{} for _ in range(n)]
        hash32 = self._family.hash32
        for item, count in counts.items():
            parts[hash32(item, 0) % n][item] = count
        return parts

    def spec(self) -> Dict:
        """JSON-able description, embedded in sharded checkpoints."""
        return {
            "n_shards": self.n_shards,
            "seed": self.seed,
            "hash_family": self.hash_family,
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "KeyPartitioner":
        """Rebuild a partitioner from :meth:`spec` output."""
        return cls(
            n_shards=spec["n_shards"],
            seed=spec["seed"],
            hash_family=spec["hash_family"],
        )

    def __repr__(self) -> str:
        return (
            f"KeyPartitioner(n_shards={self.n_shards}, seed={self.seed}, "
            f"hash_family={self.hash_family!r})"
        )
