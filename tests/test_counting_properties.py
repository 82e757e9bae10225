"""Property tests: the counting signature vs. re-union from scratch.

The counting structure's whole claim is that incremental add/remove always
equals the full re-union of the surviving members (footnote 1 / VTM's XF).
Hypothesis drives random add/remove programs over every filter family.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.coarsebitselect import CoarseBitSelectSignature
from repro.signatures.counting import CountingPair, CountingSignature, _mask_bits
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.hashed import HashedSignature
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature

builders = st.sampled_from([
    lambda: PerfectSignature(),
    lambda: BitSelectSignature(bits=128),
    lambda: DoubleBitSelectSignature(bits=128),
    lambda: CoarseBitSelectSignature(bits=64, macroblock_bytes=1024),
    lambda: HashedSignature(bits=128, hashes=3),
])

member_sets = st.lists(
    st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1)
             .map(lambda x: x * 64), min_size=0, max_size=10),
    min_size=1, max_size=8)

removal_mask = st.lists(st.booleans(), min_size=8, max_size=8)


@given(build=builders, members=member_sets, removals=removal_mask)
@settings(max_examples=150, deadline=None)
def test_counting_equals_reunion(build, members, removals):
    template = build()
    counting = CountingSignature(template)
    snapshots = []
    for addrs in members:
        sig = build()
        for a in addrs:
            sig.insert(a)
        snapshots.append(sig.snapshot())
        counting.add(snapshots[-1])

    kept = []
    for snap, remove in zip(snapshots, removals):
        if remove:
            counting.remove(snap)
        else:
            kept.append(snap)
    # Unremoved members beyond the mask length are kept.
    kept.extend(snapshots[len(removals):])

    expected = build()
    for snap in kept:
        expected.union_snapshot(snap)

    assert counting.summary().snapshot() == expected.snapshot()
    assert counting.members == len(kept)


@given(members=member_sets)
@settings(max_examples=80, deadline=None)
def test_add_remove_all_returns_to_empty(members):
    counting = CountingSignature(BitSelectSignature(bits=128))
    snaps = []
    for addrs in members:
        sig = BitSelectSignature(bits=128)
        for a in addrs:
            sig.insert(a)
        snaps.append(sig.snapshot())
        counting.add(snaps[-1])
    for snap in snaps:
        counting.remove(snap)
    assert counting.is_empty
    assert counting.summary().is_empty


@given(reads=st.lists(st.integers(min_value=0, max_value=1023)
                      .map(lambda x: x * 64), max_size=8),
       writes=st.lists(st.integers(min_value=0, max_value=1023)
                       .map(lambda x: x * 64), max_size=8))
@settings(max_examples=80, deadline=None)
def test_pair_exclusion_is_pure(reads, writes):
    """summary_into(exclude=...) must not mutate the counting state."""
    def make_pair():
        return ReadWriteSignature(BitSelectSignature(bits=128),
                                  BitSelectSignature(bits=128))

    counting = CountingPair(make_pair())
    pair = make_pair()
    for a in reads:
        pair.insert_read(a)
    for a in writes:
        pair.insert_write(a)
    snap = pair.snapshot()
    counting.add(snap)

    target = make_pair()
    counting.summary_into(target, exclude=snap)
    assert target.read.is_empty and target.write.is_empty
    # The member is still present afterwards.
    target2 = make_pair()
    counting.summary_into(target2)
    for a in reads:
        assert target2.read.contains(a)
    for a in writes:
        assert target2.write.contains(a)


def _positional_mask_bits(mask):
    """Reference: shift through every bit position up to the highest."""
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1


@given(mask=st.one_of(
    st.integers(min_value=0, max_value=(1 << 2048) - 1),
    st.sets(st.integers(min_value=0, max_value=2047), max_size=12).map(
        lambda bits: sum(1 << b for b in bits))))
@settings(max_examples=300)
def test_mask_bits_matches_positional_walk(mask):
    assert list(_mask_bits(mask)) == list(_positional_mask_bits(mask))
