"""Hashed (k-hash Bloom-filter) signatures.

Section 5 closes with "more creative signatures may prove necessary if
larger transactions and deep nesting become the norm" — the direction the
follow-on signature literature took (H3-class universal hashing, multiple
independent hash functions over one bit array). This implementation
provides that generalization: ``k`` independent hashes over an ``N``-bit
register; INSERT sets k bits, CONFLICT requires all k set.

The hash family is H3-style: each hash function is a fixed random binary
matrix applied to the block-address bits (XOR of matrix rows selected by
set address bits), which is cheap in hardware (an XOR tree per output bit)
and gives near-universal behaviour. Matrices are derived deterministically
from a seed so signatures are reproducible and two signatures with the same
parameters are *compatible* (union/snapshot work across them).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.common.errors import ConfigError, TransactionError
from repro.common.rng import make_rng
from repro.signatures.base import Signature

#: Width of the address slice hashed (block-index bits).
_ADDRESS_BITS = 32


def _h3_matrix(seed: int, hash_index: int, out_bits: int) -> List[int]:
    """Random binary matrix: one ``out_bits``-wide row per address bit."""
    rng = make_rng(seed, "h3", hash_index, out_bits)
    return [rng.getrandbits(out_bits) for _ in range(_ADDRESS_BITS)]


class _HashFamily:
    """Precomputed H3 machinery shared by every signature with one
    ``(seed, hashes, index_bits)`` parameter set.

    The per-bit XOR fold over 32 matrix rows is replaced by byte-sliced
    tables: ``tables[k][j][b]`` is the XOR of rows ``8j .. 8j+7`` of hash
    ``k`` selected by the set bits of byte value ``b``, so hashing an
    address is four table lookups and three XORs per hash function —
    bit-for-bit identical to the row fold. Results are additionally
    memoized per block index, since workloads revisit a small address set.
    """

    __slots__ = ("matrices", "_tables", "_memo")

    def __init__(self, seed: int, hashes: int, index_bits: int) -> None:
        self.matrices = [_h3_matrix(seed, k, index_bits)
                         for k in range(hashes)]
        self._tables = []
        for matrix in self.matrices:
            per_hash = []
            for j in range(_ADDRESS_BITS // 8):
                rows = matrix[8 * j: 8 * j + 8]
                table = [0] * 256
                for value in range(256):
                    acc = 0
                    bits = value
                    row = 0
                    while bits:
                        if bits & 1:
                            acc ^= rows[row]
                        bits >>= 1
                        row += 1
                    table[value] = acc
                per_hash.append(table)
            self._tables.append(per_hash)
        self._memo: dict = {}

    def indices(self, idx: int) -> Tuple[int, ...]:
        out = self._memo.get(idx)
        if out is None:
            b0 = idx & 0xFF
            b1 = (idx >> 8) & 0xFF
            b2 = (idx >> 16) & 0xFF
            b3 = (idx >> 24) & 0xFF
            out = tuple(t[0][b0] ^ t[1][b1] ^ t[2][b2] ^ t[3][b3]
                        for t in self._tables)
            self._memo[idx] = out
        return out


_FAMILIES: dict = {}


def _family(seed: int, hashes: int, index_bits: int) -> _HashFamily:
    key = (seed, hashes, index_bits)
    fam = _FAMILIES.get(key)
    if fam is None:
        fam = _FAMILIES[key] = _HashFamily(seed, hashes, index_bits)
    return fam


class HashedSignature(Signature):
    """k independent H3 hashes over one N-bit filter."""

    __slots__ = ("bits", "hashes", "block_bytes", "seed",
                 "_mask", "_family", "_index_bits", "_block_shift")

    def __init__(self, bits: int = 2048, hashes: int = 4,
                 block_bytes: int = 64, seed: int = 0) -> None:
        super().__init__()
        if bits <= 0 or bits & (bits - 1):
            raise ConfigError(f"signature bits must be a power of two: {bits}")
        if hashes < 1:
            raise ConfigError(f"need at least one hash function: {hashes}")
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigError(
                f"block size must be a power of two: {block_bytes}")
        self.bits = bits
        self.hashes = hashes
        self.block_bytes = block_bytes
        self.seed = seed
        self._mask = 0
        self._index_bits = bits.bit_length() - 1
        self._block_shift = block_bytes.bit_length() - 1
        self._family = _family(seed, hashes, self._index_bits)

    def _indices(self, block_addr: int) -> List[int]:
        idx = (block_addr >> self._block_shift) & ((1 << _ADDRESS_BITS) - 1)
        return list(self._family.indices(idx))

    # Flattened hot-path overrides: hash via the shared byte-sliced tables,
    # no template-method indirection. The exact shadow is still maintained.
    def insert(self, block_addr: int) -> None:
        mask = self._mask
        for index in self._family.indices(
                (block_addr >> self._block_shift) & 0xFFFFFFFF):
            mask |= 1 << index
        self._mask = mask
        self._exact.add(block_addr)
        self.is_empty = False

    def contains(self, block_addr: int) -> bool:
        mask = self._mask
        for index in self._family.indices(
                (block_addr >> self._block_shift) & 0xFFFFFFFF):
            if not mask >> index & 1:
                return False
        return True

    def spawn_empty(self) -> "HashedSignature":
        return HashedSignature(self.bits, self.hashes, self.block_bytes,
                               self.seed)

    def _insert_filter(self, block_addr: int) -> None:
        for index in self._indices(block_addr):
            self._mask |= 1 << index

    def _test_filter(self, block_addr: int) -> bool:
        return all(self._mask >> index & 1
                   for index in self._indices(block_addr))

    def _clear_filter(self) -> None:
        self._mask = 0

    def _filter_state(self) -> Any:
        return self._mask

    def _load_filter_state(self, state: Any) -> None:
        self._mask = int(state)

    def _union_filter(self, other: Signature) -> None:
        if not isinstance(other, HashedSignature):
            # Explicit raise (not ``assert``): this guards a hot
            # correctness path and must survive ``python -O``.
            raise TransactionError(
                f"cannot union {type(other).__name__} into HashedSignature")
        if (other.bits, other.hashes, other.seed) != (
                self.bits, self.hashes, self.seed):
            raise ConfigError(
                "cannot union hashed signatures with different parameters")
        self._mask |= other._mask

    @property
    def popcount(self) -> int:
        return bin(self._mask).count("1")

    def __repr__(self) -> str:
        return (f"HashedSignature(bits={self.bits}, k={self.hashes}, "
                f"set={self.popcount}, exact={len(self._exact)})")
