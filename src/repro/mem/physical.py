"""Functional physical memory.

The simulator separates *timing* (caches, directory, interconnect) from
*function* (values). All data values live here, in a sparse word store, so
that LogTM-SE's eager version management is real: stores update this memory
in place, the undo log captures genuine old values, and an abort observably
restores them. Tests verify atomicity and isolation against this store.

Words are 8 bytes; addresses used by workloads are word-aligned by
convention, but any integer address maps to its containing word.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

WORD_BYTES = 8

#: Word-alignment mask (``addr & _WORD_MASK`` == ``word_of(addr)``), kept at
#: module level so the hot load/store paths skip a staticmethod call.
_WORD_MASK = ~(WORD_BYTES - 1)


class PhysicalMemory:
    """Sparse word-addressed value store (missing words read as zero)."""

    __slots__ = ("_words", "capacity_bytes")

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024 * 1024) -> None:
        self._words: Dict[int, int] = {}
        self.capacity_bytes = capacity_bytes

    @staticmethod
    def word_of(addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.capacity_bytes:
            raise IndexError(
                f"address {addr:#x} outside physical memory "
                f"({self.capacity_bytes:#x} bytes)")

    def load(self, addr: int) -> int:
        if not 0 <= addr < self.capacity_bytes:
            self._check(addr)
        return self._words.get(addr & _WORD_MASK, 0)

    def store(self, addr: int, value: int) -> int:
        """Write a word; returns the old value (used by undo logging)."""
        if not 0 <= addr < self.capacity_bytes:
            self._check(addr)
        word = addr & _WORD_MASK
        old = self._words.get(word, 0)
        if value == 0:
            self._words.pop(word, None)
        else:
            self._words[word] = value
        return old

    def load_block(self, addr: int, nbytes: int) -> List[int]:
        """Read the ``nbytes // WORD_BYTES`` words starting at ``addr``.

        Equal to ``[load(a) for a in range(addr, addr + nbytes,
        WORD_BYTES)]``, with the bounds checked at the first and last word
        only; an out-of-range block raises the same :class:`IndexError`,
        naming the first word outside memory.
        """
        end = addr + nbytes
        if not (0 <= addr and end - WORD_BYTES < self.capacity_bytes):
            for word in range(addr, end, WORD_BYTES):
                self._check(word)
        get = self._words.get
        return [get(word & _WORD_MASK, 0)
                for word in range(addr, end, WORD_BYTES)]

    def store_block(self, addr: int, values: Iterable[int]) -> None:
        """Write ``values`` to consecutive words starting at ``addr``.

        Equal to calling :meth:`store` on each word in ascending order:
        a block that runs past the end of memory writes the words inside
        it, then raises the same :class:`IndexError`.
        """
        values = list(values)
        last = addr + (len(values) - 1) * WORD_BYTES
        if not (0 <= addr and last < self.capacity_bytes):
            for value in values:
                self.store(addr, value)
                addr += WORD_BYTES
            return
        words = self._words
        for value in values:
            word = addr & _WORD_MASK
            if value == 0:
                words.pop(word, None)
            else:
                words[word] = value
            addr += WORD_BYTES

    def copy_range(self, src: int, dst: int, nbytes: int) -> None:
        """Copy a byte range (used by the paging model when moving a page)."""
        self._check(src)
        self._check(src + nbytes - 1)
        self._check(dst)
        self._check(dst + nbytes - 1)
        if nbytes % WORD_BYTES:
            raise ValueError("copy length must be word-aligned")
        moved: Dict[int, int] = {}
        for off in range(0, nbytes, WORD_BYTES):
            moved[dst + off] = self._words.get(src + off, 0)
        for addr, value in moved.items():
            if value == 0:
                self._words.pop(addr, None)
            else:
                self._words[addr] = value

    def nonzero_words(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(word_address, value)`` pairs with nonzero values."""
        return iter(sorted(self._words.items()))

    def __len__(self) -> int:
        return len(self._words)
