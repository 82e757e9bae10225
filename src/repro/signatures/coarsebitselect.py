"""Coarse-bit-select (CBS) signature — Figure 3(c).

Identical decode to bit-select, but applied at *macroblock* granularity —
the paper's configuration tracks 1 KB macroblocks (sixteen 64-byte blocks).
Coarser granularity means large read/write sets occupy fewer filter bits
(helping transactions like Raytrace's 550-block read set), at the price of
false conflicts between distinct blocks inside one macroblock.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigError, TransactionError
from repro.signatures.base import Signature


class CoarseBitSelectSignature(Signature):
    """Bit-select over macroblock (default 1 KB) addresses."""

    __slots__ = ("bits", "macroblock_bytes", "_mask", "_index_mask",
                 "_macro_shift")

    def __init__(self, bits: int = 2048, macroblock_bytes: int = 1024) -> None:
        super().__init__()
        if bits <= 0 or bits & (bits - 1):
            raise ConfigError(f"signature bits must be a power of two: {bits}")
        if macroblock_bytes <= 0 or macroblock_bytes & (macroblock_bytes - 1):
            raise ConfigError(
                f"macroblock size must be a power of two: {macroblock_bytes}")
        self.bits = bits
        self.macroblock_bytes = macroblock_bytes
        self._mask = 0
        self._index_mask = bits - 1
        self._macro_shift = macroblock_bytes.bit_length() - 1

    def _bit_index(self, block_addr: int) -> int:
        return (block_addr >> self._macro_shift) & self._index_mask

    # Flattened hot-path overrides (see BitSelectSignature for rationale).
    def insert(self, block_addr: int) -> None:
        self._mask |= 1 << ((block_addr >> self._macro_shift)
                            & self._index_mask)
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        return bool(self._mask
                    >> ((block_addr >> self._macro_shift) & self._index_mask)
                    & 1)

    def spawn_empty(self) -> "CoarseBitSelectSignature":
        return CoarseBitSelectSignature(self.bits, self.macroblock_bytes)

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
        if not isinstance(other, CoarseBitSelectSignature):
            # Explicit raise (not ``assert``): this guards a hot
            # correctness path and must survive ``python -O``.
            raise TransactionError(
                f"cannot union {type(other).__name__} into CoarseBitSelectSignature")
        if (other.bits != self.bits
                or other.macroblock_bytes != self.macroblock_bytes):
            raise ConfigError("cannot union CBS signatures with different "
                              "geometry")
        self._mask |= other._mask

    @property
    def popcount(self) -> int:
        return bin(self._mask).count("1")

    def __repr__(self) -> str:
        return (f"CoarseBitSelectSignature(bits={self.bits}, "
                f"macro={self.macroblock_bytes}, set={self.popcount})")
