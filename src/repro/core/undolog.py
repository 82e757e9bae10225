"""Per-thread undo log (eager version management).

LogTM-SE writes new values in place and saves old values in a per-thread,
cacheable, virtual-memory log. Following Nested LogTM, the log is segmented
into a stack of *frames* — one per nesting level — each with a fixed-size
header (register checkpoint + signature-save area) and a variable body of
undo records (Section 3.2).

Undo records capture the *virtual* block address and the block's previous
contents; abort restores through the current translation, which is what
makes version management survive paging (Section 4.2). The stored contents
are the real functional values from :class:`PhysicalMemory`, so an abort is
observable, not just accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import TransactionError
from repro.mem.physical import WORD_BYTES, PhysicalMemory
from repro.signatures.rwpair import PairSnapshot


@dataclass
class UndoRecord:
    """Old contents of one block, keyed by virtual address."""

    vblock: int                 # block-aligned virtual address
    old_words: Dict[int, int]   # vaddr -> previous value, one per word,
                                # ascending from vblock


@dataclass
class LogFrame:
    """One nesting level: header (checkpoint + signature save) + records."""

    checkpoint: Any = None                       # opaque register checkpoint
    saved_signature: Optional[PairSnapshot] = None  # parent's signature
    is_open: bool = False                        # open vs. closed nest
    records: List[UndoRecord] = field(default_factory=list)


class UndoLog:
    """Stack of log frames for one thread context.

    ``stats``/``thread_id`` are optional observability wiring: with a
    registry attached, the log emits ``log.append``/``log.unroll`` events
    so trace consumers can see version-management activity (log growth,
    abort walk lengths) alongside the coherence stream.
    """

    def __init__(self, block_bytes: int = 64, stats: Any = None,
                 thread_id: Optional[int] = None) -> None:
        self.block_bytes = block_bytes
        self._frames: List[LogFrame] = []
        self._stats = stats
        self._thread_id = thread_id
        #: Total records ever appended in the current outer transaction —
        #: the "log pointer" that commit resets.
        self.appended = 0

    # -- frame management ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def current(self) -> LogFrame:
        if not self._frames:
            raise TransactionError("no active log frame")
        return self._frames[-1]

    def push_frame(self, checkpoint: Any = None,
                   saved_signature: Optional[PairSnapshot] = None,
                   is_open: bool = False) -> LogFrame:
        frame = LogFrame(checkpoint=checkpoint,
                         saved_signature=saved_signature, is_open=is_open)
        self._frames.append(frame)
        return frame

    def pop_frame(self) -> LogFrame:
        if not self._frames:
            raise TransactionError("pop from empty log")
        return self._frames.pop()

    def merge_into_parent(self) -> LogFrame:
        """Closed-nest commit: parent absorbs the child's undo records.

        "LogTM-SE merges the inner transaction with its parent by discarding
        the inner transaction's header and restoring the parent's log frame."
        The parent must still be able to undo the child's writes if *it*
        later aborts, so the records are concatenated.
        """
        if len(self._frames) < 2:
            raise TransactionError("merge requires a parent frame")
        child = self._frames.pop()
        self._frames[-1].records.extend(child.records)
        return child

    def discard_child(self) -> LogFrame:
        """Open-nest commit: the child's writes become permanent.

        Its undo records are dropped — a later abort of the parent must NOT
        roll back an open-committed child (open nesting releases isolation
        and commits globally).
        """
        if len(self._frames) < 2:
            raise TransactionError("open commit requires a parent frame")
        return self._frames.pop()

    def reset(self) -> None:
        """Outer commit: reset the log pointer (frames are gone)."""
        self._frames.clear()
        self.appended = 0

    # -- undo records ----------------------------------------------------------

    def append(self, vblock: int, memory: PhysicalMemory,
               translate: Callable[[int], int]) -> UndoRecord:
        """Log the current contents of the block at ``vblock``.

        ``vblock`` is block-aligned, and the configuration makes the page
        size a multiple of the block size, so a block never straddles a
        page: one translation covers all of its words.
        """
        block_bytes = self.block_bytes
        old_words: Dict[int, int] = dict(zip(
            range(vblock, vblock + block_bytes, WORD_BYTES),
            memory.load_block(translate(vblock), block_bytes)))
        record = UndoRecord(vblock=vblock, old_words=old_words)
        self.current.records.append(record)
        self.appended += 1
        if self._stats is not None and self._stats.recorder is not None:
            self._stats.emit("log.append", thread=self._thread_id,
                             vblock=vblock, depth=self.depth)
        return record

    def unroll_frame(self, memory: PhysicalMemory,
                     translate: Callable[[int], int]) -> int:
        """Abort handler: restore the top frame's blocks in LIFO order.

        Returns the number of records undone. The frame is popped; the
        caller restores the saved signature from its header.
        """
        depth = self.depth
        frame = self.pop_frame()
        for record in reversed(frame.records):
            # One translation per record: its words fill one block, which
            # lies within one page (see ``append``).
            memory.store_block(translate(record.vblock),
                               record.old_words.values())
        if self._stats is not None and self._stats.recorder is not None:
            self._stats.emit("log.unroll", thread=self._thread_id,
                             records=len(frame.records), depth=depth)
        return len(frame.records)

    @property
    def total_records(self) -> int:
        return sum(len(f.records) for f in self._frames)
