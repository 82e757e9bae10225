"""Broadcast-snooping coherence alternative (Section 7).

Every GETS/GETM is broadcast to all cores; a logically-ORed *nack* signal
(the third wired-OR line the paper adds next to owner/shared) reports
whether any core's signature detected a conflict. Because every request
reaches every signature, sticky states are unnecessary and cache
victimization never loses conflict-detection coverage.

The bus is *split-transaction*: the address/snoop phase serializes on a
single bus lock, but the data phase (L2 or memory fetch) proceeds after the
bus is released — holding the bus for a 500-cycle DRAM access would be a
1990s bus, not the CMP fabric the paper assumes. The requester still owns
the coherence decision atomically: the grant is applied during the address
phase, so a competing request observes consistent state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cache.array import CacheArray
from repro.cache.block import MESI
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.msgs import CoherenceResult, ConflictPort, Timestamp
from repro.interconnect.network import Network
from repro.mem.address import AddressMap
from repro.sim.resources import SimLock


class SnoopingFabric(CoherenceFabric):
    """Single-CMP broadcast snooping with a wired-OR NACK line."""

    def __init__(self, cfg: SystemConfig, network: Network,
                 stats: StatsRegistry) -> None:
        super().__init__()
        self.cfg = cfg
        self.network = network
        self.stats = stats
        self.amap = AddressMap(block_bytes=cfg.block_bytes,
                               page_bytes=cfg.page_bytes,
                               num_banks=cfg.l2_banks)
        self.l2 = CacheArray(cfg.l2, name="L2")
        self._bus = SimLock("snoop-bus")
        #: Per-block transaction locks: the bus only serializes the
        #: address/snoop phase; same-block transactions must also not
        #: overlap their data phases (different blocks may).
        self._block_locks: Dict[int, SimLock] = {}
        # Who may hold what, to target invalidations/downgrades. Unlike
        # the directory this is *not* consulted for conflict checks (those
        # are always broadcast). Invariant: ``_owner`` plus ``_sharers``
        # is a superset of the L1s holding the block — every fill follows
        # a grant recorded here, while silent drops may leave stale extra
        # entries — so snoop invalidations and page scrubs skip every
        # other core (checked by invariant 3 and the model checker).
        self._owner: Dict[int, Optional[int]] = {}
        self._sharers: Dict[int, Set[int]] = {}
        #: ``(core_id, port)`` in core-id order, rebuilt on attach.
        self._snoopers: List[Tuple[int, ConflictPort]] = []
        self._c_requests = stats.counter("coherence.requests")
        self._c_nacks = stats.counter("coherence.nacks")
        self._c_bcast = stats.counter("coherence.snoops")
        self._c_mem = stats.counter("coherence.memory_fetches")
        self._c_l1_evict_tx = stats.counter("victimization.l1_tx")

    def attach(self, port: ConflictPort) -> None:
        super().attach(port)
        self._snoopers = [(p.core_id, p) for p in self.ports]

    def tracked_holders(self, block_addr: int) -> FrozenSet[int]:
        """Cores that may cache the block: ``_owner`` plus ``_sharers``."""
        holders = set(self._sharers.get(block_addr, ()))
        owner = self._owner.get(block_addr)
        if owner is not None:
            holders.add(owner)
        return frozenset(holders)

    def _block_lock(self, block_addr: int) -> SimLock:
        lock = self._block_locks.get(block_addr)
        if lock is None:
            lock = SimLock(f"snoop[{block_addr:#x}]")
            self._block_locks[block_addr] = lock
        return lock

    def request(self, requester_core: int, requester_thread: int,
                requester_ts: Optional[Timestamp], block_addr: int,
                is_write: bool, asid: int):
        block_lock = self._block_lock(block_addr)
        yield from block_lock.acquire()
        try:
            # --- Address/snoop phase: serialized on the bus. ---
            yield from self._bus.acquire()
            try:
                self._c_requests.add()
                self._c_bcast.add()
                if self.stats.recorder is not None:
                    self.stats.emit("coh.snoop", block=block_addr,
                                    core=requester_core, write=is_write)
                bank = self.amap.bank_of(block_addr)
                # Broadcast: reaches all cores and the home L2 bank.
                yield self.network.broadcast_from_bank(bank, "snoop")

                owner = self._owner.get(block_addr)
                sharers = self._sharers.get(block_addr, ())
                blockers = []
                for core_id, port in self._snoopers:
                    if core_id == requester_core:
                        continue
                    # The check and the coherence action are atomic per
                    # snooper: a clean core applies its invalidation /
                    # downgrade with the snoop itself. Deferring it to the
                    # grant would let a racing local hit read a doomed
                    # copy after its signature tested clean. Only tracked
                    # holders can have a copy to invalidate.
                    found = port.check_conflicts(
                        block_addr, is_write,
                        exclude_thread=requester_thread,
                        asid=asid, requester_ts=requester_ts)
                    if found:
                        blockers.extend(found)
                    elif is_write:
                        if core_id == owner or core_id in sharers:
                            port.invalidate_block(block_addr)
                    elif core_id == owner:
                        port.downgrade_block(block_addr)
                if blockers:
                    self._c_nacks.add()
                    if self.stats.recorder is not None:
                        self.stats.emit(
                            "coh.nack", block=block_addr,
                            core=requester_core, thread=requester_thread,
                            blockers=tuple(
                                (b.thread_id, b.false_positive, b.via)
                                for b in blockers))
                    return CoherenceResult(granted=False, blockers=blockers)
                l2_hit = self.l2.lookup(block_addr) is not None
            finally:
                self._bus.release()

            # --- Data phase: off the bus (split-transaction). ---
            if owner is not None and owner != requester_core:
                yield self.network.core_to_core(owner, requester_core,
                                                "data")
            elif l2_hit:
                yield self.cfg.l2.latency
            else:
                self._c_mem.add()
                yield self.cfg.memory_latency
                self.l2.insert(block_addr, MESI.SHARED)
            # Apply the grant after the final yield: the requester resumes
            # in the same simulation event, so its L1 install is atomic
            # with this state update.
            grant_state = self._apply_grant(requester_core, block_addr,
                                            is_write)
            if self.stats.recorder is not None:
                self.stats.emit("coh.grant", block=block_addr,
                                core=requester_core,
                                thread=requester_thread,
                                write=is_write, state=grant_state.name)
            return CoherenceResult(granted=True, grant_state=grant_state)
        finally:
            block_lock.release()

    def _apply_grant(self, requester_core: int, block_addr: int,
                     is_write: bool) -> MESI:
        """Residency bookkeeping only: the invalidations/downgrades were
        applied atomically with each core's snoop in the address phase."""
        owner = self._owner.get(block_addr)
        sharers = self._sharers.setdefault(block_addr, set())
        if is_write:
            sharers.clear()
            self._owner[block_addr] = requester_core
            return MESI.MODIFIED
        if owner is not None and owner != requester_core:
            sharers.add(owner)
            self._owner[block_addr] = None
        if not sharers and not any(
                port.holds_transactional(block_addr)
                for core_id, port in self._snoopers
                if core_id != requester_core):
            # E needs more than residency exclusivity: a non-resident
            # core may still hold the block in its read signature (e.g.
            # after a page-relocation scrub), and a silent E->M upgrade
            # would write without any snoop reaching that signature.
            self._owner[block_addr] = requester_core
            return MESI.EXCLUSIVE
        sharers.add(requester_core)
        return MESI.SHARED

    def scrub_block(self, block_addr: int) -> None:
        """Drop the block from every L1 that may hold it (the tracked
        holders), from the L2, and from the residency maps."""
        for core_id in sorted(self.tracked_holders(block_addr)):
            self._ports[core_id].invalidate_block(block_addr)
        self.l2.invalidate(block_addr)
        self._owner.pop(block_addr, None)
        self._sharers.pop(block_addr, None)

    def l1_evicted(self, core_id: int, block_addr: int, state: MESI,
                   transactional: bool) -> None:
        # No sticky states: broadcasts reach every signature regardless of
        # caching, so replacement just updates residency tracking.
        if self.stats.recorder is not None:
            self.stats.emit("coh.l1_victim", block=block_addr, core=core_id,
                            transactional=transactional, sticky=False)
        if transactional:
            self._c_l1_evict_tx.add()
        if self._owner.get(block_addr) == core_id:
            self._owner[block_addr] = None
        self._sharers.get(block_addr, set()).discard(core_id)
