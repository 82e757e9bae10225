"""Tests for TMManager: lifecycle costs, summary signatures across context
switches and migration, and paging signature rewrites (Sections 4.1-4.2)."""

import pytest

from repro.common.config import SignatureKind, SystemConfig
from repro.common.errors import AbortTransaction, TransactionError
from repro.harness.system import System


def build(num_cores=2, threads_per_core=2, extra_threads=0,
          signature=SignatureKind.PERFECT):
    cfg = SystemConfig.small(num_cores=num_cores,
                             threads_per_core=threads_per_core)
    cfg = cfg.with_signature(signature, bits=256)
    system = System(cfg, seed=1)
    threads = system.place_threads(num_cores * threads_per_core - extra_threads
                                   if extra_threads < 0 else
                                   min(num_cores * threads_per_core,
                                       num_cores * threads_per_core))
    return system, threads


def run(system, gen):
    proc = system.sim.spawn(gen)
    system.sim.run()
    assert proc.done.done
    return proc.done.value


class TestLifecycle:
    def test_begin_commit_roundtrip(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, system.manager.begin(slot))
        assert slot.ctx.in_tx
        assert run(system, system.manager.commit(slot)) is True
        assert not slot.ctx.in_tx

    def test_abort_charges_per_record(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, system.manager.begin(slot))
        for i in range(4):
            run(system, slot.core.store(slot, 0x1000 + i * 64, i))
        t0 = system.sim.now
        undone = run(system, system.manager.abort(slot))
        assert undone == 4
        cost = system.sim.now - t0
        assert cost == (system.cfg.tm.abort_handler_cycles
                        + 4 * system.cfg.tm.abort_cycles_per_entry)

    def test_nested_commit_returns_false(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, system.manager.begin(slot))
        run(system, system.manager.begin(slot))
        assert run(system, system.manager.commit(slot)) is False
        assert run(system, system.manager.commit(slot)) is True


class TestDeschedule:
    def test_deschedule_saves_and_clears_signature(self):
        system, threads = build()
        thread = threads[0]
        slot = thread.slot
        run(system, system.manager.begin(slot))
        run(system, slot.core.store(slot, 0x100, 1))
        wblock = slot.core.amap.block_of(thread.translate(0x100))
        run(system, system.manager.deschedule(slot))
        assert thread.slot is None
        assert thread.saved_signature is not None
        assert not slot.occupied
        saved = system.manager.saved_signatures(thread.asid)
        assert thread.tid in saved

    def test_summary_installed_on_peer_contexts(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        slot0 = t0.slot
        run(system, system.manager.begin(slot0))
        run(system, slot0.core.store(slot0, 0x100, 1))
        wblock = slot0.core.amap.block_of(t0.translate(0x100))
        run(system, system.manager.deschedule(slot0))
        # Every scheduled context of the process sees the summary.
        assert t1.slot.summary.write.contains(wblock)

    def test_peer_access_to_descheduled_write_set_traps(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        slot0 = t0.slot
        run(system, system.manager.begin(slot0))
        run(system, slot0.core.store(slot0, 0x100, 55))
        run(system, system.manager.deschedule(slot0))
        slot1 = t1.slot
        run(system, system.manager.begin(slot1))

        def access():
            try:
                yield from slot1.core.load(slot1, 0x100)
                return "read"
            except AbortTransaction:
                return "abort"

        assert run(system, access()) == "abort"

    def test_nontx_deschedule_saves_nothing(self):
        system, threads = build()
        thread = threads[0]
        run(system, system.manager.deschedule(thread.slot))
        assert thread.saved_signature is None
        assert not system.manager.saved_signatures(thread.asid)

    def test_deschedule_empty_slot_rejected(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, system.manager.deschedule(slot))
        with pytest.raises(TransactionError):
            run(system, system.manager.deschedule(slot))


class _EventLog:
    def __init__(self):
        self.events = []

    def record(self, kind, **fields):
        self.events.append((kind, fields))


class TestSummaryPush:
    def test_mixed_saved_and_unsaved_threads_match_per_slot_recompute(self):
        """One shared summary for unsaved threads, exclude-self summaries
        for rescheduled ones: the same snapshots, counter and events as
        computing every slot's summary on its own."""
        system, threads = build(num_cores=2, threads_per_core=2,
                                signature=SignatureKind.BIT_SELECT)
        manager = system.manager
        t0, t1, t2, t3 = threads
        asid = t0.asid
        # t0 and t2 are rescheduled mid-transaction: they keep saved
        # entries until their commit trap. Each thread touches its own
        # in-page block offsets, so no two sets alias in the filter.
        for thread, addr in ((t0, 0x100), (t2, 0x2380)):
            slot = thread.slot
            run(system, manager.begin(slot))
            run(system, slot.core.store(slot, addr, 1))
            run(system, slot.core.load(slot, addr + 0x40))
            run(system, manager.deschedule(slot))
            run(system, manager.schedule(thread, slot))
        # t1 deschedules mid-transaction; t3 never saves anything.
        slot1 = t1.slot
        run(system, manager.begin(slot1))
        run(system, slot1.core.store(slot1, 0x4600, 1))
        saved = manager.saved_signatures(asid)
        assert set(saved) == {t0.tid, t2.tid}

        log = _EventLog()
        system.stats.recorder = log
        installs = system.stats.counter("os.summary_installs")
        before = installs.value
        run(system, manager.deschedule(slot1))
        system.stats.recorder = None

        running = [slot for core in system.cores for slot in core.slots
                   if slot.thread is not None and slot.thread.asid == asid]
        assert {slot.thread.tid for slot in running} == {t0.tid, t2.tid,
                                                         t3.tid}
        for slot in running:
            expected = manager._summary_pair(asid, slot.thread.tid)
            assert slot.summary.snapshot() == expected.snapshot()
        assert installs.value - before == len(running)
        assert [fields for kind, fields in log.events
                if kind == "os.summary_install"] == [
            {"slot": slot.global_id, "asid": asid, "exclude": slot.thread.tid}
            for slot in running]
        # Slots restored from one shared snapshot do not alias each other.
        t3.slot.summary.insert_write(0x7FC0)
        assert (t0.slot.summary.snapshot()
                == manager._summary_pair(asid, t0.tid).snapshot())


class TestRescheduleAndMigration:
    def _desched_with_tx(self, system, thread, addr=0x100):
        slot = thread.slot
        run(system, system.manager.begin(slot))
        run(system, slot.core.store(slot, addr, 1))
        run(system, system.manager.deschedule(slot))
        return slot

    def test_reschedule_restores_signature(self):
        system, threads = build()
        thread = threads[0]
        wblock = thread.slot.core.amap.block_of(thread.translate(0x100))
        old_slot = self._desched_with_tx(system, thread)
        run(system, system.manager.schedule(thread, old_slot))
        assert thread.ctx.signature.write.contains(wblock)
        assert thread.saved_signature is None

    def test_own_summary_excludes_own_sets(self):
        """A rescheduled thread must not conflict with itself."""
        system, threads = build()
        thread = threads[0]
        wblock = thread.slot.core.amap.block_of(thread.translate(0x100))
        old_slot = self._desched_with_tx(system, thread)
        run(system, system.manager.schedule(thread, old_slot))
        assert not thread.slot.summary.write.contains(wblock)
        # ...and it can keep accessing its own write set.
        run(system, thread.slot.core.store(thread.slot, 0x100, 2))

    def test_peers_keep_summary_until_commit_trap(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        wblock = t0.slot.core.amap.block_of(t0.translate(0x100))
        old_slot = self._desched_with_tx(system, t0)
        run(system, system.manager.schedule(t0, old_slot))
        # Peer still sees the block in its summary (sticky isolation after
        # migration) until t0 commits.
        assert t1.slot.summary.write.contains(wblock)
        run(system, system.manager.commit(t0.slot))
        assert not t1.slot.summary.write.contains(wblock)
        assert not system.manager.saved_signatures(t0.asid)

    def test_migration_to_other_core(self):
        system, threads = build(num_cores=2, threads_per_core=2)
        t0 = threads[0]
        src = t0.slot
        src_core = src.core
        run(system, system.manager.begin(src))
        run(system, src.core.store(src, 0x100, 9))
        wblock = src.core.amap.block_of(t0.translate(0x100))
        # Free a slot on the other core by descheduling its thread.
        t_other = threads[1]
        assert t_other.slot.core is not src_core
        dst = t_other.slot
        run(system, system.manager.deschedule(dst))
        run(system, system.manager.migrate(src, dst))
        assert t0.slot is dst
        assert t0.slot.core is not src_core
        assert t0.ctx.signature.write.contains(wblock)
        # The transaction commits on the new core.
        run(system, system.manager.commit(t0.slot))
        assert not t0.ctx.in_tx

    def test_abort_discharges_summary_obligation(self):
        system, threads = build()
        t0 = threads[0]
        old_slot = self._desched_with_tx(system, t0)
        run(system, system.manager.schedule(t0, old_slot))
        run(system, system.manager.abort(t0.slot))
        assert not system.manager.saved_signatures(t0.asid)

    def test_schedule_to_occupied_slot_rejected(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        run(system, system.manager.deschedule(t0.slot))
        with pytest.raises(TransactionError):
            run(system, system.manager.schedule(t0, t1.slot))


class TestPaging:
    def test_relocation_rewrites_active_signature(self):
        system, threads = build(signature=SignatureKind.BIT_SELECT)
        thread = threads[0]
        slot = thread.slot
        run(system, system.manager.begin(slot))
        run(system, slot.core.store(slot, 0x100, 33))
        pt = system.page_table(thread.asid)
        old_block = slot.core.amap.block_of(thread.translate(0x100))
        reloc = run(system, system.manager.relocate_page(pt, 0x100))
        new_block = slot.core.amap.block_of(thread.translate(0x100))
        assert new_block != old_block
        # The signature now covers the new physical address too.
        assert thread.ctx.signature.write.contains(new_block)
        # Functional data moved with the page.
        assert run(system, slot.core.load(slot, 0x100)) == 33
        assert system.stats.value("os.page_relocations") == 1

    def test_isolation_preserved_across_relocation(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        slot0 = t0.slot
        run(system, system.manager.begin(slot0))
        run(system, slot0.core.store(slot0, 0x100, 5))
        run(system, system.manager.relocate_page(
            system.page_table(t0.asid), 0x100))
        # t1 writes the same virtual word -> new physical block; still
        # conflicts with t0's (rewritten) write set.
        done = []

        def writer():
            yield from t1.slot.core.store(t1.slot, 0x100, 9)
            done.append(True)

        system.sim.spawn(writer())
        system.sim.run(until=2000)
        assert not done, "relocated write set must stay isolated"
        run(system, system.manager.commit(slot0))
        system.sim.run()
        assert done

    def test_descheduled_saved_signature_rewritten(self):
        system, threads = build()
        t0, t1 = threads[0], threads[1]
        slot0 = t0.slot
        run(system, system.manager.begin(slot0))
        run(system, slot0.core.store(slot0, 0x100, 5))
        run(system, system.manager.deschedule(slot0))
        run(system, system.manager.relocate_page(
            system.page_table(t0.asid), 0x100))
        new_block = t1.slot.core.amap.block_of(t0.translate(0x100))
        # The peer's summary was refreshed with the rewritten snapshot.
        assert t1.slot.summary.write.contains(new_block)

    def test_abort_after_relocation_restores_new_frame(self):
        system, threads = build()
        thread = threads[0]
        slot = thread.slot
        run(system, slot.core.store(slot, 0x100, 7))   # pre-tx value
        run(system, system.manager.begin(slot))
        run(system, slot.core.store(slot, 0x100, 8))
        run(system, system.manager.relocate_page(
            system.page_table(thread.asid), 0x100))
        run(system, system.manager.abort(slot))
        # Undo went through the *current* translation (the new frame).
        assert run(system, slot.core.load(slot, 0x100)) == 7
