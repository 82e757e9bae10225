"""Signature abstraction (Section 2).

A signature conservatively summarizes a set of block-aligned physical
addresses. The contract mirrors the paper's operations:

* ``INSERT(O, A)``  → :meth:`Signature.insert`
* ``CONFLICT(O, A)`` → :meth:`Signature.contains` (may return false
  positives, never false negatives)
* ``CLEAR(O)``      → :meth:`Signature.clear`

Beyond the paper's hardware interface, signatures here are *software
accessible* — they can be snapshotted, restored, and unioned — because that
accessibility is exactly the property LogTM-SE exploits for virtualization
(nesting saves to the log, descheduling merges into a summary signature).

Every implementation also maintains an exact shadow set. The shadow is a
simulator-observability feature (it is how the harness counts *false
positive* conflicts for Table 3); the modeled hardware never consults it for
conflict decisions.
"""

from __future__ import annotations

import abc
from typing import Any, FrozenSet, Iterable, Set, Tuple

from repro.common.errors import TransactionError

#: Opaque snapshot of a signature's state: (filter-state, exact-shadow).
Snapshot = Tuple[Any, FrozenSet[int]]


class Signature(abc.ABC):
    """One conservative address-set summary (a read-set OR a write-set).

    ``is_empty`` (nothing inserted since the last clear) is a plain
    attribute, not a computation: every mutator — ``insert``, ``clear``,
    ``restore``, ``union_update`` — keeps it exact, equal to
    ``not exact_set()``. A subclass that flattens ``insert`` must set it
    to False too. Conflict scans read it for every context on every
    coherence request, and almost every context is outside a transaction.
    """

    __slots__ = ("_exact", "is_empty")

    def __init__(self) -> None:
        self._exact: Set[int] = set()
        self.is_empty = True

    # -- hardware interface -------------------------------------------------

    def insert(self, block_addr: int) -> None:
        """INSERT: add a block-aligned physical address to the set."""
        self._insert_filter(block_addr)
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        """CONFLICT test: True if the address *may* be in the set."""
        return self._test_filter(block_addr)

    def clear(self) -> None:
        """CLEAR: empty the set (a local, single-cycle operation)."""
        self._clear_filter()
        self._exact.clear()
        self.is_empty = True

    # -- software accessibility (virtualization) ----------------------------

    def snapshot(self) -> Snapshot:
        """Copy the state out (e.g. into a log frame's signature-save area)."""
        return (self._filter_state(), frozenset(self._exact))

    def restore(self, snap: Snapshot) -> None:
        """Overwrite this signature with a previously saved snapshot."""
        filter_state, exact = snap
        self._load_filter_state(filter_state)
        self._exact = set(exact)
        self.is_empty = not exact

    def union_update(self, other: "Signature") -> None:
        """OR another signature of the same type into this one.

        Used by the OS to build summary signatures (Section 4.1).
        """
        if type(other) is not type(self):
            raise TransactionError(
                f"cannot union {type(other).__name__} into "
                f"{type(self).__name__}")
        self._union_filter(other)
        self._exact |= other._exact
        self.is_empty = self.is_empty and other.is_empty

    def union_snapshot(self, snap: Snapshot) -> None:
        """OR a saved snapshot into this signature."""
        scratch = self.spawn_empty()
        scratch.restore(snap)
        self.union_update(scratch)

    # -- observability (harness only; not modeled hardware) -----------------

    def contains_exact(self, block_addr: int) -> bool:
        """Ground truth for false-positive accounting."""
        return block_addr in self._exact

    def exact_set(self) -> FrozenSet[int]:
        return frozenset(self._exact)

    @property
    def exact_size(self) -> int:
        return len(self._exact)

    def false_positive(self, block_addr: int) -> bool:
        """Whether a CONFLICT hit on this address would be spurious."""
        return self.contains(block_addr) and not self.contains_exact(block_addr)

    # -- implementation hooks ------------------------------------------------

    @abc.abstractmethod
    def spawn_empty(self) -> "Signature":
        """A fresh, empty signature with identical parameters."""

    @abc.abstractmethod
    def _insert_filter(self, block_addr: int) -> None: ...

    @abc.abstractmethod
    def _test_filter(self, block_addr: int) -> bool: ...

    @abc.abstractmethod
    def _clear_filter(self) -> None: ...

    @abc.abstractmethod
    def _filter_state(self) -> Any: ...

    @abc.abstractmethod
    def _load_filter_state(self, state: Any) -> None: ...

    @abc.abstractmethod
    def _union_filter(self, other: "Signature") -> None: ...

    def insert_many(self, block_addrs: Iterable[int]) -> None:
        for addr in block_addrs:
            self.insert(addr)
