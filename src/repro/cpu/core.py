"""Core model: SMT thread contexts, private L1, and the LogTM-SE access path.

Every memory reference follows Section 2's flow:

1. **Summary-signature check** — on every reference, hit or miss, against the
   slot's summary register (conflicts with descheduled transactions trap).
2. **SMT sibling check** — signatures of other thread contexts on this core
   (same-core conflicts generate no coherence traffic, so they must be
   caught here; this also covers S->M upgrades, which the directory never
   forwards back to the requesting core).
3. **L1 lookup** — hits with sufficient permission proceed with no signature
   tests beyond the above (the coherence invariants guarantee safety).
4. **Coherence request** on a miss/upgrade; a NACK invokes LogTM's
   stall/abort resolution.
5. **Transactional bookkeeping** — insert into the read/write signature;
   for stores, consult the log filter and append an undo record on a miss.

The core also implements :class:`ConflictPort`: the directory forwards
requests here, and the signatures of all *scheduled* thread contexts answer.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.array import CacheArray
from repro.cache.block import MESI
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.msgs import Blocker, ConflictPort, Timestamp
from repro.common.config import SystemConfig
from repro.common.errors import (AbortTransaction, PreemptedAccess,
                                 SimulationError)
from repro.common.stats import StatsRegistry
from repro.core.conflict import BackoffPolicy
from repro.core.policies import ContentionPolicy, Decision, make_policy
from repro.obs.analysis import dominant_via
from repro.cpu.thread import HardwareSlot
from repro.mem.address import AddressMap
from repro.mem.physical import PhysicalMemory
from repro.mem.tlb import Tlb
from repro.signatures.rwpair import ReadWriteSignature

#: Give up after this many retries of one access — indicates a livelock bug
#: in the model rather than expected workload behavior.
MAX_ACCESS_RETRIES = 100_000

#: Operation kinds for the merged memory-op generator (plain ints: the
#: dispatch runs once per memory reference).
_OP_LOAD, _OP_STORE, _OP_FETCH_ADD, _OP_SWAP = 0, 1, 2, 3


class Core(ConflictPort):
    """One processor core: L1 cache + ``threads_per_core`` SMT slots."""

    def __init__(self, core_id: int, cfg: SystemConfig,
                 fabric: CoherenceFabric, memory: PhysicalMemory,
                 stats: StatsRegistry, backoff: BackoffPolicy,
                 summary_factory: Callable[[], ReadWriteSignature]) -> None:
        self._core_id = core_id
        self.cfg = cfg
        self.fabric = fabric
        self.memory = memory
        self.stats = stats
        self.backoff = backoff
        self.threads_per_core = cfg.threads_per_core
        self.l1 = CacheArray(cfg.l1, name=f"L1[{core_id}]")
        self.amap = AddressMap(block_bytes=cfg.block_bytes,
                               page_bytes=cfg.page_bytes,
                               num_banks=cfg.l2_banks)
        self.slots = [HardwareSlot(self, i, summary_factory())
                      for i in range(cfg.threads_per_core)]
        self.policy: ContentionPolicy = make_policy(cfg.tm)
        self.tlb = Tlb(entries=cfg.tlb_entries)
        self._c_loads = stats.counter("mem.loads")
        self._c_stores = stats.counter("mem.stores")
        self._c_stalls = stats.counter("tm.stalls")
        self._c_nontx_stalls = stats.counter("mem.nontx_stalls")
        self._c_conflicts = stats.counter("tm.conflicts_total")
        self._c_conflicts_fp = stats.counter("tm.conflicts_false_positive")
        self._c_summary = stats.counter("tm.summary_conflicts")
        self._c_sibling = stats.counter("tm.sibling_conflicts")
        self._c_log_appends = stats.counter("tm.log_appends")
        self._c_log_filtered = stats.counter("tm.log_filtered")
        self._c_tlb_misses = stats.counter("mem.tlb_misses")
        # Hot-path constants, hoisted out of the per-access loop. All are
        # fixed for the lifetime of the system (SystemConfig is immutable).
        self._lazy = cfg.tm.lazy
        self._use_asid_filter = cfg.tm.use_asid_filter
        self._l1_latency = cfg.l1.latency
        self._tlb_walk_latency = cfg.tlb_walk_latency
        self._log_store_cycles = cfg.tm.log_store_cycles
        self._block_mask = ~(cfg.block_bytes - 1)
        self._page_mask = ~(cfg.page_bytes - 1)
        #: With a single context per core there are no SMT siblings, so the
        #: per-access sibling scan is statically dead.
        self._multi_slot = cfg.threads_per_core > 1
        fabric.attach(self)

    # ------------------------------------------------------------------
    # ConflictPort (the directory/bus calls in here)
    # ------------------------------------------------------------------

    @property
    def core_id(self) -> int:
        return self._core_id

    def check_conflicts(self, block_addr: int, is_write: bool,
                        exclude_thread: Optional[int], asid: int,
                        requester_ts: Optional[Timestamp]) -> List[Blocker]:
        if self._lazy:
            # Lazy (Bulk-style) mode detects conflicts at commit time, not
            # on coherence requests: execution is never NACKed.
            return []
        blockers: List[Blocker] = []
        for slot in self.slots:
            thread = slot.thread
            if thread is None or thread.tid == exclude_thread:
                continue
            ctx = thread.ctx
            sig = ctx.signature
            # An empty pair cannot conflict; most contexts of a broadcast
            # are outside any transaction, so skip them before the ASID
            # lookup and the filter tests.
            if sig.read.is_empty and sig.write.is_empty:
                continue
            # ASID filter: signatures never NACK another address space
            # (prevents cross-process interference, Section 2). The
            # ablation knob re-creates the interference for measurement.
            if self._use_asid_filter and thread.asid != asid:
                continue
            if sig.conflicts(is_write, block_addr):
                fp = sig.conflict_is_false_positive(is_write, block_addr)
                ctx.note_nacked_older(requester_ts)
                blockers.append(Blocker(self._core_id, thread.tid,
                                        ctx.timestamp, fp))
        return blockers

    def mark_abort(self, thread_id: int, fp: bool = False) -> bool:
        for slot in self.slots:
            thread = slot.thread
            if thread is not None and thread.tid == thread_id:
                if thread.ctx.in_tx:
                    thread.ctx.pending_abort = True
                    thread.ctx.pending_abort_fp = fp
                    self.stats.counter("tm.remote_abort_requests").add()
                    return True
                return False
        return False

    def invalidate_block(self, block_addr: int) -> bool:
        return self.l1.invalidate(block_addr) is not None

    def downgrade_block(self, block_addr: int) -> bool:
        block = self.l1.peek(block_addr)
        if block is not None and block.state.is_exclusive:
            block.state = MESI.SHARED
            return True
        return False

    def holds_transactional(self, block_addr: int) -> bool:
        """Conservative signature test used for the sticky decision."""
        if self._lazy:
            # No sticky states under lazy detection (Bulk has no need:
            # commit-time broadcasts reach every signature).
            return False
        for slot in self.slots:
            if slot.thread is None:
                continue
            sig = slot.thread.ctx.signature
            read, write = sig.read, sig.write
            if read.is_empty and write.is_empty:
                continue
            if read.contains(block_addr) or write.contains(block_addr):
                return True
        return False

    # ------------------------------------------------------------------
    # The access path (simulation sub-generators)
    # ------------------------------------------------------------------

    def _lazy_tx(self, slot: HardwareSlot) -> bool:
        """Is this access a transactional access under lazy versioning?"""
        thread = slot.thread
        return (self._lazy and thread is not None
                and thread.ctx.transactional)

    def _check_doomed(self, slot: HardwareSlot) -> None:
        """Surface an asynchronous squash *before* the next operation.

        A lazily-squashed (or classic-LogTM preempted) transaction was
        already unrolled elsewhere; if its thread kept executing, its next
        store would apply non-transactionally. Raising here hands control
        to the executor's retry loop instead.
        """
        ctx = slot.thread.ctx if slot.thread else None
        if ctx is not None and ctx.aborted_by_os:
            ctx.aborted_by_os = False
            raise AbortTransaction("squashed asynchronously", cause="squash")

    def load(self, slot: HardwareSlot, vaddr: int):
        """Load a word; returns its value."""
        return self._mem_op(slot, vaddr, _OP_LOAD, 0)

    def store(self, slot: HardwareSlot, vaddr: int, value: int):
        """Store a word.

        Eager versioning updates memory in place (after undo logging, in
        the access path). Lazy versioning buffers the store locally — no
        coherence permission, no logging, invisible until commit.
        """
        return self._mem_op(slot, vaddr, _OP_STORE, value)

    def fetch_add(self, slot: HardwareSlot, vaddr: int, delta: int):
        """Atomic read-modify-write; returns the old value."""
        return self._mem_op(slot, vaddr, _OP_FETCH_ADD, delta)

    def swap(self, slot: HardwareSlot, vaddr: int, value: int):
        """Atomic exchange (test-and-set primitive); returns the old value."""
        return self._mem_op(slot, vaddr, _OP_SWAP, value)

    def _mem_op(self, slot: HardwareSlot, vaddr: int, opkind: int,
                value: int):
        """The merged memory-operation generator.

        ``load``/``store``/``fetch_add``/``swap`` are plain functions that
        return this one generator (``yield from`` propagates its return
        value to every existing call site unchanged). Merging the former
        per-op wrapper generators and ``_access`` into a single frame
        matters: each engine resume traverses every live frame in the
        ``yield from`` chain, and each access used to allocate three
        generator objects where one suffices. The body preserves the
        original statement order exactly — byte-identical results.
        """
        if opkind == _OP_LOAD:
            self._c_loads.value += 1
        else:
            self._c_stores.value += 1
        thread = slot.thread
        if thread is not None and thread.ctx.aborted_by_os:
            self._check_doomed(slot)
        if self._lazy and thread is not None and thread.ctx.transactional:
            # Lazy (Bulk-style) version management: no coherence permission,
            # no logging; stores buffer locally and loads see their own
            # buffered writes. Invisible to other threads until commit.
            ctx = thread.ctx
            if opkind == _OP_LOAD:
                word = PhysicalMemory.word_of(vaddr)
                if word in ctx.write_buffer:
                    # Read-your-own-write from the speculative buffer.
                    yield self._l1_latency
                    return ctx.write_buffer[word]
                # Not buffered: fall through to the shared access path.
            elif opkind == _OP_STORE:
                block = self.amap.block_of(thread.translate(vaddr))
                ctx.signature.insert_write(block)
                ctx.write_buffer[PhysicalMemory.word_of(vaddr)] = value
                yield self._l1_latency
                return
            elif opkind == _OP_FETCH_ADD:
                old = yield from self.load(slot, vaddr)
                yield from self.store(slot, vaddr, old + value)
                return old
            else:  # _OP_SWAP
                old = yield from self.load(slot, vaddr)
                yield from self.store(slot, vaddr, value)
                return old
        is_write = opkind != _OP_LOAD
        # -- the access path (formerly ``_access``): acquire permission and
        # perform the per-reference TM bookkeeping -------------------------
        if thread is None:
            raise SimulationError(f"access on empty slot {slot.global_id}")
        ctx = thread.ctx
        # Hot locals: this generator runs once per memory reference, and the
        # attribute chains below are the measured cost centers.
        page_table = thread.page_table
        translate = page_table.translate
        asid = page_table.asid
        block_mask = self._block_mask
        lazy = self._lazy
        summary = slot.summary
        log = ctx.log
        lookup = self.l1.lookup
        # Address translation: the page table is the functional truth; the
        # TLB charges the walk latency on a miss (and is kept coherent by
        # the OS shootdown in the paging path).
        vpage = vaddr & self._page_mask
        frame = self.tlb.lookup(asid, vpage)
        if frame is None:
            yield self._tlb_walk_latency
            self._c_tlb_misses.value += 1
            self.tlb.fill(asid, vpage, translate(vaddr) & self._page_mask)
        # Escaped accesses skip isolation bookkeeping but still carry the
        # enclosing transaction's timestamp: the thread holds isolation, so
        # it can sit on a deadlock cycle, and blockers must learn its age to
        # set their possible_cycle flags (otherwise an old transaction
        # stalled inside an escape action deadlocks the system).
        # ``log_frames`` aliases the undo log's frame list: ``log.depth > 0``
        # is a property call plus ``len``; the truthiness test below is one
        # attribute load, and this runs twice per access retry.
        log_frames = log._frames
        requester_ts = ctx.timestamp if log_frames else None

        for _attempt in range(MAX_ACCESS_RETRIES):
            # Each retry is an instruction boundary: honor preemption here
            # so a stalling thread can be descheduled (Section 4.1)...
            if thread.preempt_requested:
                raise PreemptedAccess(f"thread {thread.tid} preempted")
            # ...and honor a remote contention manager's doom mark.
            # (``log.depth > 0 and escape_depth == 0`` is ctx.transactional
            # with the property indirection peeled off.)
            transactional = bool(log_frames) and ctx.escape_depth == 0
            if ctx.pending_abort and transactional:
                raise AbortTransaction("remote contention-manager abort",
                                       cause="remote",
                                       fp=ctx.pending_abort_fp)
            # Translation can change under paging; recompute each retry.
            block = translate(vaddr) & block_mask

            # (1) Summary signature: checked on every reference.
            # (Lazy mode has neither summary signatures nor execution-time
            # conflicts — Bulk is not virtualizable this way. The common
            # case is an empty summary; ``is_empty`` is a plain attribute
            # on each half, so the test is two attribute loads.)
            if (not lazy and summary is not None
                    and not (summary.read.is_empty
                             and summary.write.is_empty)
                    and summary.conflicts(is_write, block)):
                self._c_summary.add()
                summary_fp = summary.conflict_is_false_positive(
                    is_write, block)
                self._note_conflict(ctx, fp=summary_fp, source="summary",
                                    block=block)
                if transactional:
                    # Stalling cannot resolve a conflict with a descheduled
                    # transaction; trap and abort (Section 4.1).
                    raise AbortTransaction("summary-signature conflict",
                                           cause="summary", fp=summary_fp)
                yield self.backoff.stall_delay()
                continue

            # (2) SMT sibling signatures (eager mode only; lazy writes
            # are invisible until commit; single-context cores have no
            # siblings to scan).
            sibling_blockers = None if (lazy or not self._multi_slot) else \
                self._sibling_conflicts(
                    thread.tid, asid, block, is_write, requester_ts)
            if sibling_blockers:
                self._c_sibling.add()
                self._note_conflict(ctx, fp=all(
                    b.false_positive for b in sibling_blockers),
                    source="sibling", block=block,
                    blockers=sibling_blockers)
                yield from self._resolve_or_stall(ctx, sibling_blockers,
                                                  retries=_attempt)
                continue

            # (3) L1 lookup. The permission test spells out MESI.can_write /
            # MESI.can_read: enum properties cost a descriptor call per
            # access, identity tests do not.
            resident = lookup(block)
            if resident is not None and (
                    (resident.state is MESI.MODIFIED
                     or resident.state is MESI.EXCLUSIVE) if is_write
                    else resident.state is not MESI.INVALID):
                # Insert into the signature *before* modeling the L1 access
                # latency: the insert is part of issuing the access, so a
                # conflicting request arriving during the latency window is
                # NACKed. (Deferring it opened a window where two
                # same-cycle accesses — SMT siblings, or a remote grant in
                # flight — both passed their signature checks and then both
                # proceeded, breaking isolation on the block.)
                if transactional:
                    if is_write:
                        ctx.signature.insert_write(block)
                    else:
                        ctx.signature.insert_read(block)
                yield self._l1_latency
                if is_write and resident.state is MESI.EXCLUSIVE:
                    resident.state = MESI.MODIFIED  # silent E->M upgrade
                break

            # (4) Coherence request.
            result = yield from self.fabric.request(
                self._core_id, thread.tid, requester_ts, block,
                is_write, asid)
            if result.granted:
                self._install(block, result.grant_state, is_write)
                # Do not proceed directly: an SMT sibling may have touched
                # the block while our request was in flight (its access was
                # a local L1 hit our pre-issue sibling check predates).
                # Looping re-runs the summary/sibling checks against the
                # now-resident copy before the access commits.
                continue
            self._note_conflict(ctx, fp=result.all_false_positive,
                                source="coherence", block=block,
                                blockers=result.blockers)
            yield from self._resolve_or_stall(ctx, result.blockers,
                                              retries=_attempt)
        else:
            raise SimulationError(
                f"thread {thread.tid} livelocked on {vaddr:#x}")

        # (5) Transactional bookkeeping.
        if log_frames and ctx.escape_depth == 0:
            if is_write:
                ctx.signature.insert_write(block)
                vblock = vaddr & block_mask
                if ctx.log_filter.should_log(vblock):
                    log.append(vblock, self.memory, translate)
                    self._c_log_appends.value += 1
                    yield self._log_store_cycles
                else:
                    self._c_log_filtered.value += 1
            else:
                ctx.signature.insert_read(block)

        # -- functional completion (formerly the per-op wrappers) ----------
        if opkind == _OP_LOAD:
            value = self.memory.load(slot.thread.translate(vaddr))
            if self.stats.recorder is not None:
                self._note_access(slot, vaddr, is_write=False, value=value)
            return value
        if opkind == _OP_STORE:
            self.memory.store(slot.thread.translate(vaddr), value)
            if self.stats.recorder is not None:
                self._note_access(slot, vaddr, is_write=True, value=value)
            return None
        if opkind == _OP_FETCH_ADD:
            paddr = slot.thread.translate(vaddr)
            old = self.memory.load(paddr)
            if self.stats.recorder is not None:
                self._note_access(slot, vaddr, is_write=False, value=old)
            self.memory.store(paddr, old + value)
            if self.stats.recorder is not None:
                self._note_access(slot, vaddr, is_write=True,
                                  value=old + value)
            return old
        # _OP_SWAP
        paddr = slot.thread.translate(vaddr)
        old = self.memory.load(paddr)
        if self.stats.recorder is not None:
            self._note_access(slot, vaddr, is_write=False, value=old)
        self.memory.store(paddr, value)
        if self.stats.recorder is not None:
            self._note_access(slot, vaddr, is_write=True, value=value)
        return old

    def _note_access(self, slot: HardwareSlot, vaddr: int, is_write: bool,
                     value: int) -> None:
        """Emit a ``tm.access`` event for one completed memory reference.

        Called immediately after the functional load/store with no yields
        in between, so the value and the event order exactly mirror the
        memory image — the ground truth the verification checkers
        (:mod:`repro.verify`) replay. Zero cost without a recorder.
        """
        if self.stats.recorder is None:
            return
        thread = slot.thread
        ctx = thread.ctx
        self.stats.emit(
            "tm.access", thread=thread.tid, vaddr=vaddr,
            block=self.amap.block_of(thread.translate(vaddr)),
            write=is_write, value=value, tx=ctx.transactional,
            in_tx=ctx.in_tx, asid=thread.asid)

    def _install(self, block_addr: int, state: MESI, is_write: bool) -> None:
        """Fill the L1 after a grant; notify the fabric about the victim."""
        if is_write and state is MESI.EXCLUSIVE:
            state = MESI.MODIFIED
        _new, victim = self.l1.insert(block_addr, state)
        if victim is not None:
            transactional = self.holds_transactional(victim.addr)
            self.fabric.l1_evicted(self._core_id, victim.addr,
                                   victim.state, transactional)

    def _sibling_conflicts(self, tid: int, asid: int, block: int,
                           is_write: bool, requester_ts: Optional[Timestamp]
                           ) -> List[Blocker]:
        blockers: List[Blocker] = []
        for slot in self.slots:
            other = slot.thread
            if other is None or other.tid == tid:
                continue
            sig = other.ctx.signature
            # An empty pair cannot conflict: skip it before the ASID lookup,
            # as check_conflicts does.
            if (sig.read.is_empty and sig.write.is_empty) or \
                    other.asid != asid:
                continue
            if sig.conflicts(is_write, block):
                other.ctx.note_nacked_older(requester_ts)
                blockers.append(Blocker(
                    self._core_id, other.tid, other.ctx.timestamp,
                    sig.conflict_is_false_positive(is_write, block)))
        return blockers

    def _resolve_or_stall(self, ctx, blockers: List[Blocker],
                          retries: int = 0):
        """Trap to the contention manager: stall, abort self, or doom the
        blockers (Section 2's contention-manager hook; the default policy
        is LogTM's timestamp scheme with a starvation-relief retry budget).
        """
        if ctx.transactional:
            self._c_stalls.add()
            fp = bool(blockers) and all(b.false_positive for b in blockers)
            via = dominant_via(b.via for b in blockers)
            if self.stats.recorder is not None:
                self.stats.emit("tm.stall", thread=ctx.thread_id,
                                blockers=len(blockers), fp=fp, via=via)
            decision = self.policy.decide(ctx, blockers, retries)
            if decision is Decision.ABORT_SELF:
                limit = self.cfg.tm.max_retries_before_abort
                if limit and retries >= limit:
                    self.stats.counter("tm.starvation_aborts").add()
                raise AbortTransaction(
                    f"contention manager ({self.policy.name})",
                    cause="conflict", fp=fp, via=via)
            if decision is Decision.ABORT_OTHERS:
                for blocker in blockers:
                    port = self.fabric.port(blocker.core_id)
                    port.mark_abort(blocker.thread_id,
                                    fp=blocker.false_positive)
        else:
            self._c_nontx_stalls.add()
        delay = self.backoff.stall_delay()
        self.stats.counter("tm.stall_cycles").add(delay)
        yield delay

    def _note_conflict(self, ctx, fp: bool, source: str = "coherence",
                       block: Optional[int] = None,
                       blockers: Optional[List[Blocker]] = None) -> None:
        """Table 3 accounting: every detected conflict, real or aliased.

        With a recorder attached, also emits a ``tm.conflict`` event naming
        the detection point (``summary``/``sibling``/``coherence``), the
        block, and the blocking threads — the raw material for
        :class:`repro.obs.analysis.ConflictGraph`.
        """
        self._c_conflicts.add()
        if fp:
            self._c_conflicts_fp.add()
        if self.stats.recorder is not None:
            self.stats.emit(
                "tm.conflict", thread=ctx.thread_id, source=source, fp=fp,
                block=block,
                blockers=tuple((b.thread_id, b.false_positive, b.via)
                               for b in blockers or ()))

    def __repr__(self) -> str:
        return f"Core({self._core_id}, slots={len(self.slots)})"
