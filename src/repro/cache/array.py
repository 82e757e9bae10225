"""Set-associative cache array with LRU replacement.

Tracks tags and MESI state only — all data values are functional and live in
:class:`~repro.mem.physical.PhysicalMemory`. This matches the paper's point
that LogTM-SE "never moves cached data" for TM purposes: the array exists to
model hits, misses, capacity, and (crucially for Result 4) victimization of
transactional blocks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.config import CacheConfig
from repro.cache.block import CacheBlock, MESI


class CacheArray:
    """Tag array: ``num_sets`` sets of ``associativity`` ways, LRU."""

    __slots__ = ("cfg", "name", "_sets", "_use_clock", "_block_shift",
                 "_set_mask", "hits", "misses", "evictions")

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        self._sets: List[Dict[int, CacheBlock]] = [
            {} for _ in range(cfg.num_sets)]
        self._use_clock = 0
        self._block_shift = cfg.block_bytes.bit_length() - 1
        self._set_mask = cfg.num_sets - 1
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._set_mask

    def lookup(self, block_addr: int, touch: bool = True
               ) -> Optional[CacheBlock]:
        """Find a resident block (hit/miss counters updated)."""
        block = self._sets[(block_addr >> self._block_shift)
                           & self._set_mask].get(block_addr)
        if block is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            self._use_clock += 1
            block.last_use = self._use_clock
        return block

    def peek(self, block_addr: int) -> Optional[CacheBlock]:
        """Find a resident block without disturbing LRU or counters."""
        return self._sets[(block_addr >> self._block_shift)
                          & self._set_mask].get(block_addr)

    def insert(self, block_addr: int, state: MESI
               ) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Allocate a block, returning ``(new_block, evicted_or_None)``.

        The LRU way of a full set is evicted; the caller is responsible for
        any writeback / directory notification for the victim.
        """
        cache_set = self._sets[self.set_index(block_addr)]
        existing = cache_set.get(block_addr)
        if existing is not None:
            existing.state = state
            self._use_clock += 1
            existing.last_use = self._use_clock
            return existing, None
        victim = None
        if len(cache_set) >= self.cfg.associativity:
            lru_addr = min(cache_set, key=lambda a: cache_set[a].last_use)
            victim = cache_set.pop(lru_addr)
            self.evictions += 1
        block = CacheBlock(block_addr, state)
        self._use_clock += 1
        block.last_use = self._use_clock
        cache_set[block_addr] = block
        return block, victim

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Remove a block (returns it, or None if absent)."""
        return self._sets[(block_addr >> self._block_shift)
                          & self._set_mask].pop(block_addr, None)

    def resident_blocks(self) -> Iterator[CacheBlock]:
        for cache_set in self._sets:
            yield from cache_set.values()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> int:
        """Drop every block (test helper); returns how many were resident."""
        count = self.occupancy
        for cache_set in self._sets:
            cache_set.clear()
        return count

    def __repr__(self) -> str:
        return (f"CacheArray({self.name}: {self.occupancy}/"
                f"{self.cfg.num_blocks} blocks)")
