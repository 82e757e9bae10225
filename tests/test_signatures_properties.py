"""Property-based tests (hypothesis) for signature correctness invariants.

The load-bearing property from the paper: signatures "may return false
positives ... but may not have false negatives". These tests hammer that,
plus the algebra that virtualization relies on (snapshot/restore identity,
union soundness, clear).
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import SignatureConfig, SignatureKind
from repro.signatures.counting import CountingPair
from repro.signatures.factory import make_rw_pair, make_signature
from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.coarsebitselect import CoarseBitSelectSignature
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature
from repro.verify.faults import make_lossy

block_addrs = st.lists(
    st.integers(min_value=0, max_value=(1 << 30) - 1).map(lambda x: x * 64),
    min_size=0, max_size=60)

sig_builders = st.sampled_from([
    lambda: PerfectSignature(),
    lambda: BitSelectSignature(bits=64),
    lambda: BitSelectSignature(bits=1024),
    lambda: DoubleBitSelectSignature(bits=64),
    lambda: DoubleBitSelectSignature(bits=2048),
    lambda: CoarseBitSelectSignature(bits=128, macroblock_bytes=1024),
])


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=120)
def test_no_false_negatives(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    for a in addrs:
        assert sig.contains(a), "inserted address must always be found"


@given(build=sig_builders, addrs=block_addrs,
       probe=st.integers(min_value=0, max_value=(1 << 30) - 1))
@settings(max_examples=120)
def test_false_positive_flag_consistent(build, addrs, probe):
    sig = build()
    for a in addrs:
        sig.insert(a)
    probe_addr = probe * 64
    if sig.false_positive(probe_addr):
        assert sig.contains(probe_addr)
        assert not sig.contains_exact(probe_addr)


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=100)
def test_snapshot_restore_identity(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    snap = sig.snapshot()
    clone = build()
    clone.restore(snap)
    # The clone must answer identically on inserted and derived probes.
    for a in addrs:
        assert clone.contains(a)
    assert clone.exact_set() == sig.exact_set()
    assert clone.snapshot() == snap


@given(build=sig_builders, first=block_addrs, second=block_addrs)
@settings(max_examples=100)
def test_union_is_sound(build, first, second):
    a = build()
    b = build()
    for x in first:
        a.insert(x)
    for x in second:
        b.insert(x)
    a.union_update(b)
    for x in first + second:
        assert a.contains(x), "union must cover both operands"
    assert a.exact_set() == frozenset(first) | frozenset(second)


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=100)
def test_clear_then_reinsert(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    sig.clear()
    assert sig.is_empty
    for a in addrs:
        sig.insert(a)
    for a in addrs:
        assert sig.contains(a)


@given(reads=block_addrs, writes=block_addrs,
       probe=st.integers(min_value=0, max_value=(1 << 30) - 1))
@settings(max_examples=120)
def test_rwpair_conflict_semantics_perfect(reads, writes, probe):
    """With perfect signatures the pair's conflict answers are exact."""
    pair = ReadWriteSignature(PerfectSignature(), PerfectSignature())
    for a in reads:
        pair.insert_read(a)
    for a in writes:
        pair.insert_write(a)
    addr = probe * 64
    # CONFLICT(read, A): only the write set matters.
    assert pair.conflicts_with_read(addr) == (addr in set(writes))
    # CONFLICT(write, A): read or write set.
    expected = addr in (set(reads) | set(writes))
    assert pair.conflicts_with_write(addr) == expected


@given(reads=block_addrs, writes=block_addrs)
@settings(max_examples=80)
def test_rwpair_snapshot_roundtrip(reads, writes):
    pair = ReadWriteSignature(BitSelectSignature(bits=256),
                              BitSelectSignature(bits=256))
    for a in reads:
        pair.insert_read(a)
    for a in writes:
        pair.insert_write(a)
    snap = pair.snapshot()
    pair.clear()
    assert pair.is_empty
    pair.restore(snap)
    for a in reads:
        assert pair.read.contains(a)
    for a in writes:
        assert pair.write.contains(a)


# -- empty pairs answer nothing ------------------------------------------
#
# Conflict checks skip a context whose pair reports ``is_empty`` without
# testing its filters. That is only sound if an empty pair can never
# report a conflict: whatever its history, ``is_empty`` must imply that
# no block is ``contains``-ed by either half.

factory_configs = st.sampled_from(
    [SignatureConfig(kind=SignatureKind.PERFECT)]
    + [SignatureConfig(kind=kind, bits=bits)
       for kind in SignatureKind if kind is not SignatureKind.PERFECT
       for bits in (64, 2048)]
    + [SignatureConfig(kind=SignatureKind.COARSE_BIT_SELECT, bits=128,
                       granularity=1024)])

#: A pair's history: ("read"|"write", block), ("clear",), ("save",) or
#: ("restore",) — restore reloads the latest save (or the empty start).
pair_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["read", "write"]),
              st.integers(min_value=0, max_value=(1 << 20) - 1).map(
                  lambda x: x * 64)),
    st.tuples(st.sampled_from(["clear", "save", "restore"]))),
    max_size=40)

probe_blocks = st.lists(
    st.integers(min_value=0, max_value=(1 << 20) - 1).map(lambda x: x * 64),
    max_size=20)


def _assert_silent_if_empty(pair, probes):
    if not pair.is_empty:
        return
    for block in probes:
        assert not pair.read.contains(block)
        assert not pair.write.contains(block)
        assert not pair.conflicts(False, block)
        assert not pair.conflicts(True, block)


def _replay(pair, ops, probes):
    """Apply a history, checking the empty-implies-silent property after
    every step against the probes and every block inserted so far."""
    saved = pair.snapshot()
    seen = list(probes)
    for op in ops:
        if op[0] == "read":
            pair.insert_read(op[1])
            seen.append(op[1])
        elif op[0] == "write":
            pair.insert_write(op[1])
            seen.append(op[1])
        elif op[0] == "clear":
            pair.clear()
        elif op[0] == "save":
            saved = pair.snapshot()
        else:
            pair.restore(saved)
        _assert_silent_if_empty(pair, seen)
    pair.clear()
    _assert_silent_if_empty(pair, seen)


@given(cfg=factory_configs, ops=pair_ops, probes=probe_blocks)
@settings(max_examples=150)
def test_empty_pair_never_conflicts(cfg, ops, probes):
    _replay(make_rw_pair(cfg), ops, probes)


@given(cfg=factory_configs, ops=pair_ops, probes=probe_blocks,
       drops=probe_blocks)
@settings(max_examples=100)
def test_empty_lossy_pair_never_conflicts(cfg, ops, probes, drops):
    pair = make_lossy(make_rw_pair(cfg), drops)
    _replay(pair, ops, probes + drops)


@given(cfg=factory_configs,
       members=st.lists(st.tuples(block_addrs, block_addrs), max_size=4),
       probes=probe_blocks)
@settings(max_examples=100)
def test_empty_counting_summary_never_conflicts(cfg, members, probes):
    """A summary whose members all left, or whose only member is
    excluded, is empty and silent."""
    counting = CountingPair(make_rw_pair(cfg))
    snaps = []
    for reads, writes in members:
        pair = make_rw_pair(cfg)
        for block in reads:
            pair.insert_read(block)
        for block in writes:
            pair.insert_write(block)
        snaps.append(pair.snapshot())
        counting.add(snaps[-1])
    touched = probes + [b for r, w in members for b in r + w]
    summary = make_rw_pair(cfg)
    if len(snaps) == 1:
        counting.summary_into(summary, exclude=snaps[0])
        assert summary.is_empty
        _assert_silent_if_empty(summary, touched)
    for snap in snaps:
        counting.remove(snap)
    counting.summary_into(summary)
    assert summary.is_empty
    _assert_silent_if_empty(summary, touched)


# -- emptiness is state ------------------------------------------------------
#
# ``Signature.is_empty`` is a plain attribute, not a computation over the
# exact shadow. Every mutator must keep it equal to ``not exact_set()``.

#: One signature's history: ("insert", block), ("insert_many", blocks),
#: ("clear",), ("save",), ("restore",), ("union", blocks) — OR in a fresh
#: signature holding ``blocks`` — and ("union_snapshot",), which ORs in
#: the latest save (or the empty start).
signature_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"),
              st.integers(min_value=0, max_value=(1 << 20) - 1).map(
                  lambda x: x * 64)),
    st.tuples(st.sampled_from(["insert_many", "union"]), probe_blocks),
    st.tuples(st.sampled_from(["clear", "save", "restore",
                               "union_snapshot"]))),
    max_size=40)


@given(cfg=factory_configs, ops=signature_ops)
@settings(max_examples=200)
def test_is_empty_tracks_exact_set(cfg, ops):
    sig = make_signature(cfg)
    assert not isinstance(getattr(type(sig), "is_empty"), property)
    saved = sig.snapshot()
    assert sig.is_empty is True
    for op in ops:
        if op[0] == "insert":
            sig.insert(op[1])
        elif op[0] == "insert_many":
            sig.insert_many(op[1])
        elif op[0] == "clear":
            sig.clear()
        elif op[0] == "save":
            saved = sig.snapshot()
        elif op[0] == "restore":
            sig.restore(saved)
        elif op[0] == "union":
            other = sig.spawn_empty()
            other.insert_many(op[1])
            assert other.is_empty == (not op[1])
            sig.union_update(other)
        else:
            sig.union_snapshot(saved)
        assert sig.is_empty == (not sig.exact_set())
        assert sig.is_empty == (sig.exact_size == 0)
