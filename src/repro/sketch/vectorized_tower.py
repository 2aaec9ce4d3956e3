"""Numpy-backed windowed TowerSketch for the vectorized engine.

Semantically the CM-rule :class:`~repro.sketch.windowed.WindowedTower`
(same level widths, same saturation-as-overflow reads), but counters
live in numpy matrices of shape ``(n_logical, s)`` and every operation
takes a *batch* of items: bulk updates via ``np.add.at`` and batched
s-window queries as fancy-indexed gathers.  Saturating batch adds equal
sequential saturating adds (add-then-clip), so results match the scalar
structure exactly under the CM rule; the CU rule is approximated
order-independently (documented on :meth:`bulk_insert`).

Position hashing is batched too.  For the default ``crc`` family the
seed folds out of the CRC via its affine property --
``crc32(msg, seed) == crc32(msg, 0) ^ C(seed, len(msg))`` where
``C(seed, n) = crc32(0^n, seed) ^ crc32(0^n, 0)`` -- so a batch costs
one C-speed ``zlib.crc32`` call per item plus a vectorized xor /
finalization / modulo per level, bit-identical to the scalar
:meth:`~repro.hashing.family.CrcHashFamily.hash32`.  Other families
fall back to the per-item loop.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MergeError
from repro.hashing.family import CrcHashFamily, HashFamily, ItemId, encode_item, make_family
from repro.sketch.tower import tower_level_widths

#: Sentinel larger than any counter value, used to mask overflow reads.
_BIG = np.int64(1) << 40

_MASK32 = np.uint64(0xFFFFFFFF)
_MIX = np.uint64(0x85EBCA6B)


class VectorizedTower:
    """Batch-oriented windowed tower.

    Args:
        memory_bytes: budget, split equally over ``d`` levels of
            ``2**(i+1)``-bit counters with ``s`` sub-counters each.
        s: sub-counters (recent windows) per logical counter.
        d: number of levels / hash functions.
        update_rule: ``"cm"`` (exact) or ``"cu"`` (order-independent
            approximation).
    """

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        update_rule: str = "cm",
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
    ):
        if s <= 0:
            raise ConfigurationError(f"s must be positive, got {s}")
        if update_rule not in ("cm", "cu"):
            raise ConfigurationError(f"update_rule must be 'cm' or 'cu', got {update_rule!r}")
        self.s = s
        self.d = d
        self.update_rule = update_rule
        self.family = family if family is not None else make_family(hash_family, seed)
        per_level = memory_bytes / d
        self.levels: List[np.ndarray] = []
        self.max_values: List[int] = []
        self.level_counters: List[int] = []
        for bits in tower_level_widths(d):
            n_logical = int(per_level * 8 // (bits * s))
            if n_logical <= 0:
                raise ConfigurationError(
                    f"memory_bytes={memory_bytes} too small for a vectorized tower with s={s}"
                )
            self.levels.append(np.zeros((n_logical, s), dtype=np.int64))
            self.max_values.append((1 << bits) - 1)
            self.level_counters.append(n_logical)
        #: per-(level, byte-length) CRC seed constants for batched hashing
        self._crc_consts: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # position hashing

    def positions(self, items: Sequence[ItemId]) -> np.ndarray:
        """Hash positions per level for a batch of items: ``(n, d)``."""
        if len(items) == 0:
            return np.empty((0, self.d), dtype=np.int64)
        if isinstance(self.family, CrcHashFamily):
            return self._positions_crc(items)
        family = self.family
        counters = self.level_counters
        return np.array(
            [[family.hash32(item, i) % counters[i] for i in range(self.d)] for item in items],
            dtype=np.int64,
        )

    def _crc_const(self, index: int, length: int) -> int:
        """``crc32(0^length, derived_seed) ^ crc32(0^length, 0)``, memoized."""
        key = (index, length)
        const = self._crc_consts.get(key)
        if const is None:
            zeros = b"\x00" * length
            const = zlib.crc32(zeros, self.family._derive_seed(index)) ^ zlib.crc32(zeros)
            self._crc_consts[key] = const
        return const

    def _positions_crc(self, items: Sequence[ItemId]) -> np.ndarray:
        """Batched CRC positions, bit-identical to the scalar family."""
        encoded = [encode_item(item) for item in items]
        n = len(encoded)
        bases = np.fromiter(map(zlib.crc32, encoded), dtype=np.uint64, count=n)
        lengths, length_index = np.unique(
            np.fromiter(map(len, encoded), dtype=np.int64, count=n), return_inverse=True
        )
        rows = np.empty((n, self.d), dtype=np.int64)
        for index in range(self.d):
            consts = np.array(
                [self._crc_const(index, int(length)) for length in lengths], dtype=np.uint64
            )
            raw = bases ^ consts[length_index]
            raw ^= raw >> np.uint64(16)
            raw = (raw * _MIX) & _MASK32
            raw ^= raw >> np.uint64(13)
            rows[:, index] = (raw % np.uint64(self.level_counters[index])).astype(np.int64)
        return rows

    # ------------------------------------------------------------------
    # counter updates and queries

    def bulk_insert(self, positions: np.ndarray, counts: np.ndarray, slot: int) -> None:
        """Add ``counts[j]`` to item ``j``'s counters in ``slot``.

        CM: exact -- colliding contributions accumulate and then clip,
        identical to sequential saturating adds.  CU: each item raises
        its minimal unsaturated levels to ``min + count`` using
        ``np.maximum.at``; when distinct items share a counter within
        one batch this keeps the largest single target rather than
        compounding them, i.e. a slightly *more* conservative update
        than sequential CU (never below it for the items' own reads).
        """
        if positions.shape[0] == 0:
            return
        if self.update_rule == "cm":
            for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
                np.add.at(level[:, slot], positions[:, index], counts)
                np.minimum(level[:, slot], max_value, out=level[:, slot])
            return
        readings = self._gather_slot(positions, slot)  # (n, d), overflow -> _BIG
        minima = readings.min(axis=1)
        targets = np.minimum(minima + counts, _BIG)
        for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
            capped = np.minimum(targets, max_value)
            # only raise unsaturated counters that sit below the target
            mask = readings[:, index] < capped
            if mask.any():
                np.maximum.at(
                    level[:, slot], positions[mask, index], capped[mask]
                )

    def _gather_slot(self, positions: np.ndarray, slot: int) -> np.ndarray:
        """Per-level readings at ``slot`` with overflow masked to _BIG."""
        columns = []
        for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
            values = level[positions[:, index], slot]
            columns.append(np.where(values >= max_value, _BIG, values))
        return np.stack(columns, axis=1)

    def query_recent(self, positions: np.ndarray, slots: Sequence[int]) -> np.ndarray:
        """Estimates for each item over ``slots``: shape ``(n, len(slots))``.

        Tower read per (item, slot): min over unsaturated levels; if all
        levels overflow, the largest cap (matches the scalar structure).
        """
        n = positions.shape[0]
        estimates = np.empty((n, len(slots)), dtype=np.int64)
        if n == 0:
            return estimates
        largest_cap = max(self.max_values)
        for column, slot in enumerate(slots):
            readings = self._gather_slot(positions, slot)
            minima = readings.min(axis=1)
            estimates[:, column] = np.where(minima >= _BIG, largest_cap, minima)
        return estimates

    def clear_slot(self, slot: int) -> None:
        for level in self.levels:
            level[:, slot] = 0

    def merge(self, other: "VectorizedTower") -> "VectorizedTower":
        """Saturating counter-wise add of every sub-counter.

        Same semantics as :meth:`repro.sketch.counters.CounterArray.merge`
        (``min(a + b, max_value)``): exact for the CM rule barring
        saturation, an upper bound for CU, and overflow markers on
        either side stay pinned at the marker.  Requires identical
        geometry (s, d, level widths) and hash seed so counters align.
        """
        if type(self) is not type(other):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.s != other.s or self.d != other.d:
            raise MergeError(
                f"tower geometry differs: s={self.s}/d={self.d} vs "
                f"s={other.s}/d={other.d}"
            )
        if self.update_rule != other.update_rule:
            raise MergeError(
                f"update rules differ: {self.update_rule} vs {other.update_rule}"
            )
        if self.level_counters != other.level_counters:
            raise MergeError("vectorized-tower level geometries differ")
        if self.family.seed != other.family.seed:
            raise MergeError(
                f"hash seeds differ ({self.family.seed} vs {other.family.seed}); "
                "counters would not align"
            )
        for level, theirs, max_value in zip(self.levels, other.levels, self.max_values):
            np.minimum(level + theirs, max_value, out=level)
        return self

    @property
    def memory_bytes(self) -> float:
        bits = tower_level_widths(self.d)
        return sum(n * self.s * b for n, b in zip(self.level_counters, bits)) / 8.0
