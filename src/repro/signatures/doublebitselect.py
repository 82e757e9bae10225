"""Double-bit-select (DBS) signature — Figure 3(b).

INSERT decodes *two* fields of the block address — the low bits and the next
group of bits — into two independent halves of the register, setting one bit
in each. CONFLICT reports a hit only when *both* bits are set, which is a
two-hash Bloom filter and is "similar to Bulk's default signature mechanism"
(Section 5). For 2Kb total, each half is 1Kb (10 decoded bits), matching the
paper's "separately decodes the 10 least-significant bits of a block address
and the next 10 address bits".
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.common.errors import ConfigError, TransactionError
from repro.signatures.base import Signature


class DoubleBitSelectSignature(Signature):
    """Two-field decode; conflict requires both decoded bits set."""

    __slots__ = ("bits", "block_bytes", "_lo", "_hi",
                 "_half_bits", "_half_mask", "_field_shift", "_block_shift")

    def __init__(self, bits: int = 2048, block_bytes: int = 64) -> None:
        super().__init__()
        if bits < 4 or bits & (bits - 1):
            raise ConfigError(
                f"DBS bits must be a power of two >= 4, got {bits}")
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigError(
                f"block size must be a power of two: {block_bytes}")
        self.bits = bits
        self.block_bytes = block_bytes
        self._half_bits = bits // 2
        self._half_mask = self._half_bits - 1
        self._field_shift = self._half_bits.bit_length() - 1  # log2(half)
        self._block_shift = block_bytes.bit_length() - 1
        self._lo = 0
        self._hi = 0

    def _indices(self, block_addr: int) -> Tuple[int, int]:
        idx = block_addr >> self._block_shift
        return idx & self._half_mask, (idx >> self._field_shift) & self._half_mask

    # Flattened hot-path overrides (see BitSelectSignature for rationale).
    def insert(self, block_addr: int) -> None:
        idx = block_addr >> self._block_shift
        self._lo |= 1 << (idx & self._half_mask)
        self._hi |= 1 << ((idx >> self._field_shift) & self._half_mask)
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        idx = block_addr >> self._block_shift
        return bool((self._lo >> (idx & self._half_mask) & 1)
                    and (self._hi
                         >> ((idx >> self._field_shift) & self._half_mask)
                         & 1))

    def spawn_empty(self) -> "DoubleBitSelectSignature":
        return DoubleBitSelectSignature(self.bits, self.block_bytes)

    def _insert_filter(self, block_addr: int) -> None:
        lo, hi = self._indices(block_addr)
        self._lo |= 1 << lo
        self._hi |= 1 << hi

    def _test_filter(self, block_addr: int) -> bool:
        lo, hi = self._indices(block_addr)
        return bool((self._lo >> lo & 1) and (self._hi >> hi & 1))

    def _clear_filter(self) -> None:
        self._lo = 0
        self._hi = 0

    def _filter_state(self) -> Any:
        return (self._lo, self._hi)

    def _load_filter_state(self, state: Any) -> None:
        self._lo, self._hi = state

    def _union_filter(self, other: Signature) -> None:
        if not isinstance(other, DoubleBitSelectSignature):
            # Explicit raise (not ``assert``): this guards a hot
            # correctness path and must survive ``python -O``.
            raise TransactionError(
                f"cannot union {type(other).__name__} into DoubleBitSelectSignature")
        if other.bits != self.bits:
            raise ConfigError(
                f"cannot union {other.bits}-bit into {self.bits}-bit signature")
        self._lo |= other._lo
        self._hi |= other._hi

    @property
    def popcount(self) -> int:
        return bin(self._lo).count("1") + bin(self._hi).count("1")

    def __repr__(self) -> str:
        return (f"DoubleBitSelectSignature(bits={self.bits}, "
                f"set={self.popcount}, exact={len(self._exact)})")
