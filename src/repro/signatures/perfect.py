"""Perfect (idealized) signature.

Records exact read/write sets regardless of size — the paper's "P" bars in
Figure 4. Unimplementable in hardware (it is an unbounded associative
search), but the reference point every realistic signature is compared to.
A perfect signature never produces false positives.
"""

from __future__ import annotations

from typing import Any, FrozenSet

from repro.signatures.base import Signature


class PerfectSignature(Signature):
    """Exact set membership; the filter *is* the exact shadow set."""

    __slots__ = ()

    # Flattened hot-path overrides: the exact shadow *is* the filter, so
    # insert/contains collapse to one set operation each.
    def insert(self, block_addr: int) -> None:
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._exact

    def spawn_empty(self) -> "PerfectSignature":
        return PerfectSignature()

    def _insert_filter(self, block_addr: int) -> None:
        pass  # the exact shadow maintained by the base class is the state

    def _test_filter(self, block_addr: int) -> bool:
        return block_addr in self._exact

    def _clear_filter(self) -> None:
        pass

    def _filter_state(self) -> Any:
        return None  # fully captured by the exact shadow

    def _load_filter_state(self, state: Any) -> None:
        pass

    def _union_filter(self, other: Signature) -> None:
        pass

    def __repr__(self) -> str:
        return f"PerfectSignature(n={len(self._exact)})"
