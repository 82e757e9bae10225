"""Abstract coherence fabric.

Both the MESI directory (Section 5) and the broadcast-snooping alternative
(Section 7) implement this interface. A *fabric* owns the global view of who
caches what, routes conflict checks to cores, and reports grant/NACK
outcomes; cores own their L1 arrays and signatures.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.cache.block import MESI
from repro.coherence.msgs import CoherenceResult, ConflictPort, Timestamp


class CoherenceFabric(abc.ABC):
    """Global coherence state + request processing."""

    def __init__(self) -> None:
        self._ports: Dict[int, ConflictPort] = {}
        self._port_list: List[ConflictPort] = []

    def attach(self, port: ConflictPort) -> None:
        """Register a core's conflict/invalidaton port."""
        self._ports[port.core_id] = port
        # Ports only change here; every broadcast loop reads the cached
        # core-id-ordered list instead of re-sorting per request.
        self._port_list = [self._ports[cid] for cid in sorted(self._ports)]

    def port(self, core_id: int) -> ConflictPort:
        return self._ports[core_id]

    @property
    def ports(self) -> List[ConflictPort]:
        """Attached ports in core-id order (shared; do not mutate)."""
        return self._port_list

    @abc.abstractmethod
    def request(self, requester_core: int, requester_thread: int,
                requester_ts: Optional[Timestamp], block_addr: int,
                is_write: bool, asid: int):
        """Process one GETS/GETM as a simulation sub-generator.

        Yields latency; returns a :class:`CoherenceResult`. On a grant the
        fabric has already updated global state (sharers/owner) and performed
        remote invalidations/downgrades; the caller installs
        ``result.grant_state`` in its L1.
        """

    def note_relocated_block(self, block_addr: int) -> None:
        """OS hook: a transactional block now lives at this (new) physical
        address after a page relocation (Section 4.2).

        A directory has no pointers for the fresh frame, so without help it
        would grant requests to it *without* any signature check, silently
        breaking isolation. Marking the block "check all signatures until a
        request succeeds" (the same state used after L2 victimization)
        closes that hole. Broadcast fabrics need no action — every request
        already reaches every signature — so the default is a no-op.
        """

    def scrub_block(self, block_addr: int) -> None:
        """OS hook: the physical frame holding this block is being freed or
        reallocated (page relocation, Section 4.2).

        Any cached copy is a leftover of the frame's *previous* tenancy.
        A stale MODIFIED line is the dangerous case: when the frame is
        reused, the holding core hits locally and reads or writes the new
        tenant's data with no coherence request — and therefore no
        signature check — silently breaking isolation. Drops the block
        from every L1; fabrics with directory state also forget their
        pointers for it.
        """
        for port in self.ports:
            port.invalidate_block(block_addr)

    @abc.abstractmethod
    def l1_evicted(self, core_id: int, block_addr: int, state: MESI,
                   transactional: bool) -> None:
        """Notification that a core's L1 replaced a block.

        ``transactional`` is the evicting core's *conservative* signature
        test (sticky decision). Writeback data movement is functional (values
        live in PhysicalMemory), so only directory state changes here.
        """
