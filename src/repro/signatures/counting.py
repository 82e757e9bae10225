"""Counting signature: the OS's summary-maintenance structure.

Footnote 1 of the paper: "To efficiently compute summary signatures, the OS
could maintain a counting signature data structure to track the number of
suspended threads setting each summary signature bit, similar to VTM's XF
data structure." This is that structure.

A :class:`CountingSignature` keeps an integer counter per filter position.
Merging a descheduled thread's signature increments the counters its bits
cover; removing it (at the commit trap) decrements them. The plain bit
summary to install in hardware is "counter > 0" — so the OS never has to
re-union every saved signature from scratch on each change, turning the
summary update from O(saved threads) into O(1) signature operations.

It works over any filter whose state is an integer bit mask (bit-select,
coarse-bit-select, hashed, DBS via its two halves) and falls back to exact
multiset counting for perfect signatures.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Dict, Tuple

from repro.common.errors import TransactionError
from repro.signatures.base import Signature, Snapshot


def _mask_bits(mask: int):
    """Yield set-bit positions of a non-negative integer mask, ascending.

    Walks the set bits, not the bit positions: ``mask & -mask`` isolates
    the lowest set bit, so a 2,048-bit filter with a handful of bits set
    costs a handful of iterations.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CountingSignature:
    """Per-bit reference counts over one signature's filter positions."""

    def __init__(self, template: Signature) -> None:
        #: Prototype used to build result signatures and interpret state.
        self._template = template.spawn_empty()
        self._bit_counts: Dict[Tuple[int, int], int] = {}
        self._exact_counts: Multiset = Multiset()
        self.members = 0

    def _state_masks(self, snap: Snapshot):
        """Normalize a snapshot's filter state into (field, mask) pairs."""
        filter_state, _exact = snap
        if filter_state is None:
            return []  # perfect signature: exact multiset carries it
        if isinstance(filter_state, tuple):
            return list(enumerate(filter_state))  # e.g. DBS halves
        return [(0, int(filter_state))]

    def add(self, snap: Snapshot) -> None:
        """Merge one saved signature into the counts."""
        for field, mask in self._state_masks(snap):
            for bit in _mask_bits(mask):
                key = (field, bit)
                self._bit_counts[key] = self._bit_counts.get(key, 0) + 1
        self._exact_counts.update(snap[1])
        self.members += 1

    def remove(self, snap: Snapshot) -> None:
        """Remove a previously added signature (its thread committed)."""
        if self.members <= 0:
            raise TransactionError("remove from empty counting signature")
        for field, mask in self._state_masks(snap):
            for bit in _mask_bits(mask):
                key = (field, bit)
                count = self._bit_counts.get(key, 0)
                if count <= 0:
                    raise TransactionError(
                        f"counting signature underflow at bit {key}")
                if count == 1:
                    del self._bit_counts[key]
                else:
                    self._bit_counts[key] = count - 1
        self._exact_counts.subtract(snap[1])
        self._exact_counts += Multiset()  # drop zero/negative entries
        self.members -= 1

    def summary(self) -> Signature:
        """Materialize the current union as a plain signature."""
        result = self._template.spawn_empty()
        fields: Dict[int, int] = {}
        for (field, bit), _count in self._bit_counts.items():
            fields[field] = fields.get(field, 0) | (1 << bit)
        probe = self._template.snapshot()[0]
        if probe is None:
            state = None
        elif isinstance(probe, tuple):
            state = tuple(fields.get(i, 0) for i in range(len(probe)))
        else:
            state = fields.get(0, 0)
        result.restore((state, frozenset(self._exact_counts.keys())))
        return result

    @property
    def is_empty(self) -> bool:
        return self.members == 0

    def copy(self) -> "CountingSignature":
        clone = CountingSignature(self._template)
        clone._bit_counts = dict(self._bit_counts)
        clone._exact_counts = Multiset(self._exact_counts)
        clone.members = self.members
        return clone

    def __repr__(self) -> str:
        return (f"CountingSignature(members={self.members}, "
                f"bits={len(self._bit_counts)})")


class CountingPair:
    """Counting structure over (read, write) signature pairs.

    This is what :class:`~repro.core.manager.TMManager` keeps per address
    space: descheduling a thread adds its saved pair; the commit trap
    removes it; installing a context's summary materializes the union —
    optionally excluding one member's own contribution (a rescheduled
    thread must not conflict with itself, Section 4.1).
    """

    def __init__(self, template_pair) -> None:
        self._read = CountingSignature(template_pair.read)
        self._write = CountingSignature(template_pair.write)

    def add(self, pair_snapshot) -> None:
        read_snap, write_snap = pair_snapshot
        self._read.add(read_snap)
        self._write.add(write_snap)

    def remove(self, pair_snapshot) -> None:
        read_snap, write_snap = pair_snapshot
        self._read.remove(read_snap)
        self._write.remove(write_snap)

    def summary_into(self, target_pair, exclude=None) -> None:
        """Install the union into ``target_pair`` (a ReadWriteSignature).

        ``exclude`` is an optional pair snapshot whose contribution is
        subtracted before materializing.
        """
        read_counts, write_counts = self._read, self._write
        if exclude is not None:
            read_counts = read_counts.copy()
            write_counts = write_counts.copy()
            read_counts.remove(exclude[0])
            write_counts.remove(exclude[1])
        target_pair.restore((read_counts.summary().snapshot(),
                             write_counts.summary().snapshot()))

    @property
    def members(self) -> int:
        return self._read.members

    @property
    def is_empty(self) -> bool:
        return self._read.is_empty
