"""Bit-select (BS) signature — Figure 3(a).

INSERT decodes the ``n`` least-significant bits of the *block* address (the
address divided by the block size) and ORs the decoded one-hot value into an
``N = 2**n`` bit register. CONFLICT tests the corresponding bit; CLEAR zeros
the register. The filter state is kept as a Python integer bit mask, which
makes union (bitwise OR) and snapshot (the integer itself) trivial.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigError, TransactionError
from repro.signatures.base import Signature


class BitSelectSignature(Signature):
    """Single-field decode of low block-address bits into an N-bit register."""

    __slots__ = ("bits", "block_bytes", "_mask", "_index_mask", "_block_shift")

    def __init__(self, bits: int = 2048, block_bytes: int = 64) -> None:
        super().__init__()
        if bits <= 0 or bits & (bits - 1):
            raise ConfigError(f"signature bits must be a power of two: {bits}")
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigError(
                f"block size must be a power of two: {block_bytes}")
        self.bits = bits
        self.block_bytes = block_bytes
        self._mask = 0
        self._index_mask = bits - 1
        self._block_shift = block_bytes.bit_length() - 1

    def _bit_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._index_mask

    # Flattened hot-path overrides of the base-class insert/contains: one
    # shift-and-mask on a Python int, no template-method indirection. The
    # exact shadow is still maintained, matching Signature.insert.
    def insert(self, block_addr: int) -> None:
        self._mask |= 1 << ((block_addr >> self._block_shift)
                            & self._index_mask)
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        return bool(self._mask
                    >> ((block_addr >> self._block_shift) & self._index_mask)
                    & 1)

    def spawn_empty(self) -> "BitSelectSignature":
        return BitSelectSignature(self.bits, self.block_bytes)

    def _insert_filter(self, block_addr: int) -> None:
        self._mask |= 1 << self._bit_index(block_addr)

    def _test_filter(self, block_addr: int) -> bool:
        return bool(self._mask >> self._bit_index(block_addr) & 1)

    def _clear_filter(self) -> None:
        self._mask = 0

    def _filter_state(self) -> Any:
        return self._mask

    def _load_filter_state(self, state: Any) -> None:
        self._mask = int(state)

    def _union_filter(self, other: Signature) -> None:
        if not isinstance(other, BitSelectSignature):
            # Explicit raise (not ``assert``): this guards a hot
            # correctness path and must survive ``python -O``.
            raise TransactionError(
                f"cannot union {type(other).__name__} into BitSelectSignature")
        if other.bits != self.bits:
            raise ConfigError(
                f"cannot union {other.bits}-bit into {self.bits}-bit signature")
        self._mask |= other._mask

    @property
    def popcount(self) -> int:
        """Number of set filter bits (occupancy; drives false positives)."""
        return bin(self._mask).count("1")

    def __repr__(self) -> str:
        return (f"BitSelectSignature(bits={self.bits}, "
                f"set={self.popcount}, exact={len(self._exact)})")
