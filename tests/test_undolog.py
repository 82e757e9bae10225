"""Tests for the per-thread undo log (eager version management)."""

import pytest

from repro.common.errors import TransactionError
from repro.core.undolog import UndoLog, UndoRecord
from repro.mem.physical import WORD_BYTES, PhysicalMemory

IDENTITY = lambda vaddr: vaddr


def make_log():
    return UndoLog(block_bytes=64), PhysicalMemory(1 << 20)


class TestFrames:
    def test_push_pop(self):
        log, _ = make_log()
        log.push_frame(checkpoint="outer")
        assert log.depth == 1
        assert log.current.checkpoint == "outer"
        log.pop_frame()
        assert log.depth == 0

    def test_current_on_empty_raises(self):
        log, _ = make_log()
        with pytest.raises(TransactionError):
            log.current

    def test_reset_clears_pointer(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.reset()
        assert log.depth == 0
        assert log.appended == 0


class TestAppendAndUnroll:
    def test_append_captures_whole_block(self):
        log, mem = make_log()
        for i in range(8):
            mem.store(i * WORD_BYTES, 100 + i)
        log.push_frame()
        record = log.append(0, mem, IDENTITY)
        assert len(record.old_words) == 8
        assert record.old_words[0] == 100
        assert record.old_words[56] == 107

    def test_unroll_restores_lifo(self):
        log, mem = make_log()
        mem.store(0, 1)
        mem.store(64, 2)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 11)          # transactional update, in place
        log.append(64, mem, IDENTITY)
        mem.store(64, 22)
        undone = log.unroll_frame(mem, IDENTITY)
        assert undone == 2
        assert mem.load(0) == 1
        assert mem.load(64) == 2
        assert log.depth == 0

    def test_unroll_restores_even_after_multiple_writes(self):
        log, mem = make_log()
        mem.store(0, 5)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 6)
        mem.store(0, 7)  # second write, not re-logged (filter's job)
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(0) == 5

    def test_unroll_uses_current_translation(self):
        """Abort after paging must restore through the *new* mapping."""
        log, mem = make_log()
        mapping = {0: 0x1000}
        translate = lambda v: mapping[v & ~63] + (v & 63)
        mem.store(0x1000, 9)
        log.push_frame()
        log.append(0, mem, translate)
        mem.store(0x1000, 10)
        # Page moved: same virtual block now at a new physical frame.
        mapping[0] = 0x2000
        mem.store(0x2000, 10)
        log.unroll_frame(mem, translate)
        assert mem.load(0x2000) == 9


class TestNestingSemantics:
    def test_merge_into_parent_concatenates_records(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.push_frame(saved_signature="snap")
        log.append(64, mem, IDENTITY)
        child = log.merge_into_parent()
        assert child.saved_signature == "snap"
        assert log.depth == 1
        assert len(log.current.records) == 2

    def test_merge_requires_parent(self):
        log, mem = make_log()
        log.push_frame()
        with pytest.raises(TransactionError):
            log.merge_into_parent()

    def test_open_commit_discards_child_records(self):
        log, mem = make_log()
        mem.store(64, 1)
        log.push_frame()
        log.push_frame(is_open=True)
        log.append(64, mem, IDENTITY)
        mem.store(64, 2)
        log.discard_child()
        assert log.depth == 1
        assert log.current.records == []
        # Parent abort must NOT undo the open-committed write.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(64) == 2

    def test_discard_requires_parent(self):
        log, _ = make_log()
        log.push_frame()
        with pytest.raises(TransactionError):
            log.discard_child()

    def test_nested_abort_then_parent_abort(self):
        log, mem = make_log()
        mem.store(0, 1)
        mem.store(64, 2)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 10)
        log.push_frame()
        log.append(64, mem, IDENTITY)
        mem.store(64, 20)
        # Partial abort of the child restores only the child's writes.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(64) == 2
        assert mem.load(0) == 10
        # Then the parent aborts too.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(0) == 1

    def test_total_records(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.push_frame()
        log.append(64, mem, IDENTITY)
        assert log.total_records == 2
        assert log.appended == 2


class TestBlockTranslation:
    """``append``/``unroll_frame`` translate once per block; the result must
    equal translating and accessing every word on its own."""

    @staticmethod
    def reference_capture(vblock, mem, translate, block_bytes=64):
        return {vaddr: mem.load(translate(vaddr))
                for vaddr in range(vblock, vblock + block_bytes, WORD_BYTES)}

    @staticmethod
    def reference_restore(old_words, mem, translate):
        for vaddr, old in old_words.items():
            mem.store(translate(vaddr), old)

    def test_capture_and_restore_match_per_word(self):
        frames = {0x0: 0x8000, 0x1000: 0x3000}
        translate = lambda v: frames[v & ~0xFFF] + (v & 0xFFF)
        log, mem = make_log()
        ref = PhysicalMemory(1 << 20)
        for i, vaddr in enumerate(range(0x0, 0x2000, WORD_BYTES)):
            value = (i * 7919) % 5       # includes zeros (sparse words)
            mem.store(translate(vaddr), value)
            ref.store(translate(vaddr), value)
        log.push_frame()
        ref_records = []
        for vblock in (0x40, 0xFC0, 0x1000, 0x1FC0):
            record = log.append(vblock, mem, translate)
            expected = self.reference_capture(vblock, ref, translate)
            assert record.old_words == expected
            assert list(record.old_words) == list(expected)
            ref_records.append(expected)
            for off in range(0, 64, WORD_BYTES):
                mem.store(translate(vblock + off), 9)
                ref.store(translate(vblock + off), 9)
        frames[0x1000] = 0x5000          # relocated before the abort
        log.unroll_frame(mem, translate)
        for old_words in reversed(ref_records):
            self.reference_restore(old_words, ref, translate)
        assert list(mem.nonzero_words()) == list(ref.nonzero_words())

    def test_capacity_edge_raises_like_per_word(self):
        capacity = 0x1000 + 3 * WORD_BYTES   # last block is cut short
        mem = PhysicalMemory(capacity)
        log = UndoLog(block_bytes=64)
        log.push_frame()
        with pytest.raises(IndexError) as ours:
            log.append(0x1000, mem, IDENTITY)
        with pytest.raises(IndexError) as theirs:
            self.reference_capture(0x1000, mem, IDENTITY)
        assert str(ours.value) == str(theirs.value)
        # The last in-range block still captures in full.
        record = log.append(0xFC0, mem, IDENTITY)
        assert record.old_words == self.reference_capture(0xFC0, mem,
                                                          IDENTITY)

    def test_capacity_edge_restore_writes_then_raises(self):
        capacity = 0x1000 + 3 * WORD_BYTES
        old_words = {0x1000 + off: off + 1 for off in range(0, 64, 8)}
        ours, theirs = PhysicalMemory(capacity), PhysicalMemory(capacity)
        log = UndoLog(block_bytes=64)
        log.push_frame()
        log.current.records.append(UndoRecord(0x1000, dict(old_words)))
        with pytest.raises(IndexError) as err_ours:
            log.unroll_frame(ours, IDENTITY)
        with pytest.raises(IndexError) as err_theirs:
            self.reference_restore(old_words, theirs, IDENTITY)
        assert str(err_ours.value) == str(err_theirs.value)
        assert list(ours.nonzero_words()) == list(theirs.nonzero_words())
        assert len(ours) == 3

    def test_block_reads_and_writes_match_words(self):
        mem = PhysicalMemory(1 << 16)
        for addr in range(0, 256, WORD_BYTES):
            mem.store(addr, addr // 8 % 3)
        assert mem.load_block(64, 64) == [mem.load(a)
                                          for a in range(64, 128, 8)]
        mem.store_block(128, [0, 5, 0, 7])
        assert [mem.load(a) for a in range(128, 160, 8)] == [0, 5, 0, 7]
        assert 128 not in dict(mem.nonzero_words())   # zeros stay sparse
        with pytest.raises(IndexError):
            mem.load_block(-8, 16)
