"""Outside-in per-layer tracing for the traced benchmark run.

The wrappers are installed from here, on the classes of ``src/repro``,
around each layer's public calls; nothing inside the simulator changes.
Every wrapped call is a span. A call that returns a generator (the
simulator's processes and access paths) is timed per resume: the returned
generator is proxied, and each ``send``/``throw``/``close`` is a span of
its own, so time spent suspended in the event queue is never charged to it.

A layer's self time is the time it sits on top of the span stack: entering
a span charges the elapsed interval to the span below, leaving charges it
to the span that ends. That is the span's duration minus the part of it
covered by nested spans of other layers, computed without keeping spans.
Counts are kept at the same boundaries (calls per wrapped function, plus
the two counts the run's counters lack: L1 lookups and undo records
restored).
"""

from __future__ import annotations

import functools
import time
import types
from typing import Callable, Dict, List, Optional

#: Layers in report order. ``harness`` is the root span: the scenario's own
#: code between wrapped calls.
LAYERS = ("harness", "sim", "cpu.executor", "cpu.core", "cache",
          "coherence", "interconnect", "signatures", "core", "mem",
          "osmodel", "workloads")


class LayerClock:
    """The span stack and the per-layer self-time and count ledgers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {"l1_lookups": 0,
                                       "undo_records_restored": 0}
        self._stack: List[str] = ["harness"]
        self._mark = time.perf_counter()

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self._mark = now

    def leave(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def metrics(self, counters: Dict[str, int], events: int,
                os_counts: Dict[str, int]) -> Dict[str, float]:
        """Close the root span; returns the run's per-layer metrics
        (``trace.overhead`` aside).

        Ratios and counts come from the run's own counters and event count
        where the simulator keeps them, and from the wrapper counts
        otherwise; all of them repeat exactly. The ``*.self_s`` values are
        host time.
        """
        if self._stack != ["harness"]:
            raise RuntimeError(f"unbalanced spans: {self._stack}")
        self.leave()
        self_s = self.self_s
        c = counters.get
        accesses = c("mem.loads", 0) + c("mem.stores", 0)
        requests = c("coherence.requests", 0)
        l1_lookups = self.counts["l1_lookups"]
        logged = c("tm.log_appends", 0) + c("tm.log_filtered", 0)
        return {
            "sim.events": events,
            "sim.events_per_access": _ratio(events, accesses),
            "sim.self_s": self_s["sim"],
            "cpu.executor_self_s": self_s["cpu.executor"],
            "cpu.core_self_s": self_s["cpu.core"],
            # Every L1 lookup the core makes either hits with enough
            # permission or is followed by one coherence request.
            "cache.l1_hit_ratio": _ratio(l1_lookups - requests, l1_lookups),
            "cache.self_s": self_s["cache"],
            "coherence.requests_per_access": _ratio(requests, accesses),
            "coherence.nack_ratio": _ratio(c("coherence.nacks", 0),
                                           requests),
            "coherence.self_s": self_s["coherence"],
            "interconnect.messages_per_access": _ratio(
                c("network.messages", 0), accesses),
            "interconnect.self_s": self_s["interconnect"],
            "signatures.tests_per_access": _ratio(
                self.calls["ReadWriteSignature.conflicts"], accesses),
            "signatures.false_positive_share": _ratio(
                c("tm.conflicts_false_positive", 0),
                c("tm.conflicts_total", 0)),
            "signatures.self_s": self_s["signatures"],
            "core.commit_ratio": _ratio(c("tm.commits", 0),
                                        c("tm.attempts", 0)),
            "core.stalls_per_commit": _ratio(c("tm.stalls", 0),
                                             c("tm.commits", 0)),
            "core.log_filter_hit_ratio": _ratio(c("tm.log_filtered", 0),
                                                logged),
            "core.undo_records_restored":
                self.counts["undo_records_restored"],
            "core.self_s": self_s["core"],
            "mem.tlb_miss_ratio": _ratio(c("mem.tlb_misses", 0), accesses),
            "mem.self_s": self_s["mem"],
            "osmodel.preemptions": os_counts.get("preemptions", 0),
            "osmodel.deschedules_in_tx": c("os.deschedules_in_tx", 0),
            "osmodel.summary_conflicts": c("tm.summary_conflicts", 0),
            "osmodel.signature_rehomes": c("os.signature_rehomes", 0),
            "osmodel.self_s": self_s["osmodel"],
            "workloads.self_s": self_s["workloads"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TimedGenerator:
    """Generator proxy timing each resume of the wrapped generator."""

    __slots__ = ("_gen", "_layer", "_clock")

    def __init__(self, gen, layer: str, clock: LayerClock) -> None:
        self._gen = gen
        self._layer = layer
        self._clock = clock

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._clock.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            self._clock.leave()

    def throw(self, typ, val=None, tb=None):
        self._clock.enter(self._layer)
        try:
            return self._gen.throw(typ if val is None else val)
        finally:
            self._clock.leave()

    def close(self) -> None:
        self._clock.enter(self._layer)
        try:
            self._gen.close()
        finally:
            self._clock.leave()


def _plain_function(cls: type, name: str) -> Callable:
    for klass in cls.__mro__:
        if name in vars(klass):
            attr = vars(klass)[name]
            if not isinstance(attr, types.FunctionType):
                raise TypeError(f"{cls.__name__}.{name} is not a plain "
                                "method and cannot be wrapped")
            return attr
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def _wrap(clock: LayerClock, layer: str, cls: type, name: str,
          on_result: Optional[Callable] = None) -> None:
    fn = _plain_function(cls, name)
    key = f"{cls.__name__}.{name}"
    clock.calls[key] = 0
    calls = clock.calls

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        calls[key] += 1
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.leave()
        if on_result is not None:
            on_result(args[0], result)
        if type(result) is types.GeneratorType:
            return TimedGenerator(result, layer, clock)
        return result

    setattr(cls, name, timed)


def install() -> LayerClock:
    """Wrap every layer's public calls; returns the clock they report to.

    Call before any system is built: the wrappers replace class
    attributes, so bound methods captured earlier would bypass them.
    """
    from repro.cache.array import CacheArray
    from repro.coherence.directory import DirectoryFabric
    from repro.coherence.snooping import SnoopingFabric
    from repro.core.conflict import BackoffPolicy
    from repro.core.logfilter import LogFilter
    from repro.core.manager import TMManager
    from repro.core.undolog import UndoLog
    from repro.cpu.core import Core
    from repro.cpu.executor import ThreadExecutor
    from repro.interconnect.network import Network
    from repro.mem.physical import PhysicalMemory
    from repro.mem.tlb import Tlb
    from repro.mem.vm import PageTable
    from repro.osmodel.paging import PagingDaemon
    from repro.osmodel.scheduler import TimeSliceScheduler
    from repro.signatures.rwpair import ReadWriteSignature
    from repro.sim.engine import Simulator
    from repro.workloads import BerkeleyDB, Mp3d, Raytrace

    clock = LayerClock()
    counts = clock.counts

    def count_l1_lookup(array, _block) -> None:
        if array.name.startswith("L1"):
            counts["l1_lookups"] += 1

    def count_restored(_log, records: int) -> None:
        counts["undo_records_restored"] += records

    fabric_calls = ("request", "l1_evicted", "scrub_block",
                    "note_relocated_block")
    targets = [
        ("sim", Simulator, ("run_until_done",)),
        ("cpu.executor", ThreadExecutor, ("run",)),
        ("cpu.core", Core, ("load", "store", "fetch_add", "swap")),
        ("cache", CacheArray, ("insert", "invalidate")),
        ("coherence", DirectoryFabric, fabric_calls),
        ("coherence", SnoopingFabric, fabric_calls),
        ("interconnect", Network, ("core_to_bank", "bank_to_core",
                                   "core_to_core", "broadcast_from_bank")),
        ("signatures", ReadWriteSignature, (
            "insert_read", "insert_write", "conflicts",
            "conflict_is_false_positive")),
        ("core", TMManager, ("begin", "commit", "abort")),
        ("core", UndoLog, ("append",)),
        ("core", LogFilter, ("should_log",)),
        ("core", BackoffPolicy, ("stall_delay", "restart_delay")),
        ("mem", Tlb, ("lookup", "fill", "invalidate")),
        ("mem", PageTable, ("translate",)),
        ("mem", PhysicalMemory, ("load", "store")),
        ("osmodel", TMManager, ("deschedule", "schedule", "relocate_page")),
        ("osmodel", TimeSliceScheduler, ("run",)),
        ("osmodel", PagingDaemon, ("run",)),
        ("workloads", Mp3d, ("program",)),
        ("workloads", BerkeleyDB, ("program",)),
        ("workloads", Raytrace, ("program",)),
    ]
    for layer, cls, names in targets:
        for name in names:
            _wrap(clock, layer, cls, name)
    _wrap(clock, "cache", CacheArray, "lookup", on_result=count_l1_lookup)
    _wrap(clock, "core", UndoLog, "unroll_frame", on_result=count_restored)
    return clock
