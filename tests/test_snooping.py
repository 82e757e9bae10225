"""Tests for the broadcast-snooping alternative (Section 7)."""

import hashlib
import json
from dataclasses import replace
from typing import List

import pytest

from repro.cache.block import MESI
from repro.coherence.invariants import (InvariantViolation, check_all,
                                        check_directory_accuracy)
from repro.coherence.msgs import Blocker, ConflictPort
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import CoherenceStyle, SignatureKind, SystemConfig
from repro.common.rng import make_rng
from repro.common.stats import StatsRegistry
from repro.cpu.executor import ThreadExecutor
from repro.harness.runner import RunResult
from repro.harness.system import System
from repro.interconnect.network import Network
from repro.interconnect.topology import GridTopology
from repro.osmodel.paging import PagingDaemon
from repro.osmodel.scheduler import TimeSliceScheduler
from repro.sim.engine import Simulator
from repro.workloads import Raytrace


class FakePort(ConflictPort):
    def __init__(self, core_id: int):
        self._core_id = core_id
        self.conflicts: List[int] = []
        self.invalidated: List[int] = []
        self.downgraded: List[int] = []
        self.checked: List[int] = []

    @property
    def core_id(self) -> int:
        return self._core_id

    def check_conflicts(self, block_addr, is_write, exclude_thread, asid,
                        requester_ts):
        self.checked.append(block_addr)
        if block_addr in self.conflicts:
            return [Blocker(self._core_id, 100 + self._core_id,
                            (1, 100 + self._core_id), False)]
        return []

    def invalidate_block(self, block_addr) -> bool:
        self.invalidated.append(block_addr)
        return True

    def downgrade_block(self, block_addr) -> bool:
        self.downgraded.append(block_addr)
        return True

    def holds_transactional(self, block_addr) -> bool:
        return False


def build(num_cores=4):
    cfg = SystemConfig.small(num_cores=num_cores)
    stats = StatsRegistry()
    topo = GridTopology(*cfg.mesh_dims, cfg.num_cores, cfg.l2_banks)
    net = Network(topo, cfg.link_latency, stats)
    fabric = SnoopingFabric(cfg, net, stats)
    ports = [FakePort(i) for i in range(num_cores)]
    for p in ports:
        fabric.attach(p)
    return fabric, ports, stats


def do_request(fabric, core, block, is_write, ts=None):
    sim = Simulator()
    proc = sim.spawn(fabric.request(core, core, ts, block, is_write, 0))
    sim.run()
    return proc.done.value


class TestSnooping:
    def test_every_request_checks_every_other_core(self):
        fabric, ports, stats = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        for p in ports[1:]:
            assert 0x1000 in p.checked
        assert ports[0].checked == []  # requester excluded
        assert stats.value("coherence.snoops") == 1

    def test_grant_states(self):
        fabric, ports, _ = build()
        r = do_request(fabric, 0, 0x1000, is_write=False)
        assert r.grant_state is MESI.EXCLUSIVE
        r = do_request(fabric, 1, 0x1000, is_write=False)
        assert r.grant_state is MESI.SHARED
        assert ports[0].downgraded == [0x1000]
        r = do_request(fabric, 2, 0x1000, is_write=True)
        assert r.grant_state is MESI.MODIFIED
        assert 0x1000 in ports[0].invalidated
        assert 0x1000 in ports[1].invalidated

    def test_wired_or_nack(self):
        fabric, ports, stats = build()
        ports[2].conflicts.append(0x1000)
        r = do_request(fabric, 0, 0x1000, is_write=True)
        assert r.nacked
        assert r.blockers[0].core_id == 2
        assert stats.value("coherence.nacks") == 1

    def test_no_sticky_needed_after_eviction(self):
        """Victimization cannot lose conflict coverage under snooping."""
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=True)
        # The evictor's signature still gets checked on the next broadcast.
        ports[0].conflicts.append(0x1000)
        r = do_request(fabric, 1, 0x1000, is_write=True)
        assert r.nacked

    def test_bus_serializes_requests(self):
        fabric, ports, _ = build()
        sim = Simulator()
        order = []

        def req(core, block):
            result = yield from fabric.request(core, core, None, block,
                                               False, 0)
            order.append((sim.now, core))
            return result

        sim.spawn(req(0, 0x1000))
        sim.spawn(req(1, 0x2000))
        sim.run()
        # Both complete, at different times (one bus transaction at a time).
        assert len(order) == 2
        assert order[0][0] != order[1][0]

    def test_owner_supplies_data(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        # Second read: data comes from owner's cache (cheap), not memory.
        sim = Simulator()
        proc = sim.spawn(fabric.request(1, 1, None, 0x1000, False, 0))
        sim.run()
        assert proc.done.value.granted
        assert sim.now < fabric.cfg.memory_latency

    def test_write_invalidates_only_tracked_holders(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)   # core 0: E owner
        do_request(fabric, 1, 0x1000, is_write=False)   # cores 0, 1: S
        do_request(fabric, 3, 0x1000, is_write=True)
        assert ports[0].invalidated == [0x1000]
        assert ports[1].invalidated == [0x1000]
        assert ports[2].invalidated == []                # never held it
        # Every other core's signatures were still snooped.
        assert all(0x1000 in p.checked for p in ports[:3])
        assert fabric.tracked_holders(0x1000) == {3}

    def test_scrub_invalidates_only_tracked_holders(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        do_request(fabric, 2, 0x1000, is_write=False)
        fabric.scrub_block(0x1000)
        assert [p.invalidated for p in ports] == [[0x1000], [], [0x1000], []]
        assert fabric.tracked_holders(0x1000) == frozenset()


def snooping_system(signature_bits=None):
    """A 4-core x 2-SMT snooping system (perfect signatures, or
    bit-select ones of ``signature_bits``)."""
    cfg = replace(SystemConfig.small(num_cores=4, threads_per_core=2),
                  coherence=CoherenceStyle.SNOOPING)
    if signature_bits is not None:
        cfg = cfg.with_signature(SignatureKind.BIT_SELECT,
                                 bits=signature_bits)
    return System(cfg, seed=1)


class TestResidencyInvariant:
    """Invariant 3 on snooping: every L1 holder is an owner or sharer,
    the superset that targeted invalidations and scrubs rely on."""

    def test_untracked_l1_fill_raises(self):
        system = snooping_system()
        # A line installed behind the fabric's back would survive the
        # next write's snoop and any scrub of its frame.
        system.cores[2].l1.insert(0x880, MESI.SHARED)
        with pytest.raises(InvariantViolation, match="core 2"):
            check_directory_accuracy(system)

    def test_granted_fill_is_tracked(self):
        system = snooping_system()
        fabric = system.fabric
        sim = Simulator()
        proc = sim.spawn(fabric.request(2, 2, None, 0x880, False, 0))
        sim.run()
        system.cores[2].l1.insert(0x880, proc.done.value.grant_state)
        assert check_directory_accuracy(system) == 1


#: Digest of ``small_virtualized_snoop_run()``'s result, recorded before
#: snoop invalidations and page scrubs were narrowed to tracked holders.
#: The narrowing must not change a single simulated outcome.
SNOOP_VIRT_DIGEST = (
    "625d437f127536fa7716b9867dc44a84456c92d345a07346a7e885434d8ec664")


def small_virtualized_snoop_run():
    """Raytrace, 12 threads on 8 contexts over snooping with small
    (aliasing) signatures, a time-slice scheduler and a paging daemon
    relocating pages."""
    system = snooping_system(signature_bits=64)
    workload = Raytrace(num_threads=12, units_per_thread=8, seed=7,
                        compute_per_ray=3000)
    threads = [system.new_thread() for _ in range(workload.num_threads)]
    for thread, slot in zip(threads, system.all_slots()):
        slot.bind(thread)
    executors, workers = [], []
    for index, thread in enumerate(threads):
        rng = make_rng(7, "workload", index)
        executor = ThreadExecutor(system.cfg, thread, system.manager,
                                  workload.program(index, rng), rng,
                                  system.stats)
        executors.append(executor)
        workers.append(system.sim.spawn(executor.run(), name=f"t{index}"))
    scheduler = TimeSliceScheduler(system, threads, quantum=4_000,
                                   rng=make_rng(7, "sched"))
    system.sim.spawn(scheduler.run(), name="scheduler")
    pager = PagingDaemon(system, system.page_table(0), period=3_000,
                         rng=make_rng(7, "pager"))
    system.sim.spawn(pager.run(), name="pager")
    system.sim.run_until_done(workers, limit=50_000_000)
    scheduler.stop()
    pager.stop()
    result = RunResult(
        workload=workload.name, config_label="snoop-virt",
        cycles=system.sim.now, units=sum(e.units_done for e in executors),
        counters=system.stats.snapshot(),
        histograms=system.stats.histograms())
    record = result.to_dict()
    record["events"] = system.sim.events_executed
    record["os"] = {"preemptions": scheduler.preemptions,
                    "page_moves": pager.moves}
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return system, record, hashlib.sha256(blob.encode()).hexdigest()


class TestVirtualizedSnoopGolden:
    def test_digest_is_pinned(self):
        system, record, digest = small_virtualized_snoop_run()
        # The run exercises what it pins: broadcasts, NACK-driven aborts,
        # preemptions and page relocations, and it completes every unit.
        assert record["units"] == 12 * 8
        assert record["aborts"] > 0
        assert record["os"]["preemptions"] > 0
        assert record["os"]["page_moves"] > 0
        assert record["counters"]["coherence.snoops"] > 0
        check_all(system)
        assert digest == SNOOP_VIRT_DIGEST
