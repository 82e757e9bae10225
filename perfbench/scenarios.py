"""The benchmark's three workloads, built from the simulator's public API.

Every workload runs on Table 1's 16-core x 2-SMT CMP with pinned inputs
(seed ``SIM_SEED``), so each simulated result -- cycles, counters,
histograms, event count -- repeats exactly from run to run and process to
process; only host time varies. Each scenario exists to stress layers the
others leave idle:

* ``mp3d_dir`` -- Mp3d on the directory fabric with sticky states, BS_2Kb
  (a Figure 4 config): coherence-miss-bound, almost no conflicts.
* ``berkeleydb_bs64`` -- BerkeleyDB on the directory fabric, BS_64
  (Table 3's small bit-select): conflict-bound -- NACKs, stalls, aborts,
  undo-log unroll and backoff.
* ``raytrace_virt_snoop`` -- Raytrace with 48 software threads on 32
  contexts over broadcast snooping, a time-slice scheduler migrating
  threads mid-transaction and a paging daemon relocating pages: the only
  workload for the OS model, summary signatures and the snooping fabric.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

from repro import (CoherenceStyle, RunResult, SignatureKind, System,
                   SystemConfig, run_workload)
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.cpu.executor import ThreadExecutor
from repro.harness.runner import DEFAULT_CYCLE_LIMIT
from repro.osmodel.paging import PagingDaemon
from repro.osmodel.scheduler import TimeSliceScheduler
from repro.workloads import BerkeleyDB, Mp3d, Raytrace

#: Seed of every simulated input. Pinned, not taken from ``--seed``: the
#: simulated metrics and the result digest must repeat exactly across runs.
SIM_SEED = DEFAULT_SEED


@dataclass
class Outcome:
    """What one execution of a scenario produced."""

    units_issued: int
    result: RunResult
    events: int
    #: OS-model counts kept outside ``StatsRegistry`` (scheduler, pager).
    os_counts: Dict[str, int] = field(default_factory=dict)

    def canonical(self) -> Dict[str, object]:
        """The digested record: everything simulated, nothing host-timed,
        and none of the verification fields (a verified run must digest
        the same as an unverified one)."""
        record = self.result.to_dict()
        record.pop("verify_checks_run")
        record.pop("verify_violations")
        record["events"] = self.events
        record["os"] = dict(sorted(self.os_counts.items()))
        return record

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run_harness(cfg: SystemConfig, workload, verify: bool) -> Outcome:
    result = run_workload(cfg, workload, seed=SIM_SEED, keep_system=True,
                          verify=verify)
    return Outcome(units_issued=workload.total_units, result=result,
                   events=result.system.sim.events_executed)


def mp3d_dir(verify: bool) -> Outcome:
    cfg = SystemConfig.default().with_signature(SignatureKind.BIT_SELECT,
                                                bits=2048)
    workload = Mp3d(num_threads=32, units_per_thread=100, seed=SIM_SEED)
    return _run_harness(cfg, workload, verify)


def berkeleydb_bs64(verify: bool) -> Outcome:
    cfg = SystemConfig.default().with_signature(SignatureKind.BIT_SELECT,
                                                bits=64)
    workload = BerkeleyDB(num_threads=32, units_per_thread=12, seed=SIM_SEED)
    return _run_harness(cfg, workload, verify)


#: Raytrace under virtualization: 48 threads on 32 contexts.
RAYTRACE_THREADS = 48
RAYTRACE_UNITS = 60
SCHEDULER_QUANTUM = 5_000
PAGER_PERIOD = 20_000


def raytrace_virt_snoop(verify: bool) -> Outcome:
    cfg = replace(SystemConfig.default(),
                  coherence=CoherenceStyle.SNOOPING).with_signature(
        SignatureKind.BIT_SELECT, bits=2048)
    system = System(cfg, seed=SIM_SEED)
    suite = None
    if verify:
        from repro.verify.checkers import VerificationSuite
        bus, _ = system.attach_bus(with_log=False)
        suite = VerificationSuite(system).attach(bus)
    workload = Raytrace(num_threads=RAYTRACE_THREADS,
                        units_per_thread=RAYTRACE_UNITS, seed=SIM_SEED)
    threads = [system.new_thread() for _ in range(RAYTRACE_THREADS)]
    # The first 32 threads start on a context; the scheduler places the
    # other 16 as it preempts.
    for thread, slot in zip(threads, system.all_slots()):
        slot.bind(thread)
    executors: List[ThreadExecutor] = []
    workers = []
    for index, thread in enumerate(threads):
        rng = make_rng(SIM_SEED, "workload", workload.name, index)
        executor = ThreadExecutor(cfg, thread, system.manager,
                                  workload.program(index, rng), rng,
                                  system.stats)
        executors.append(executor)
        workers.append(system.sim.spawn(executor.run(), name=f"t{index}"))
    scheduler = TimeSliceScheduler(system, threads, quantum=SCHEDULER_QUANTUM,
                                   rng=make_rng(SIM_SEED, "sched"))
    system.sim.spawn(scheduler.run(), name="scheduler")
    pager = PagingDaemon(system, system.page_table(0), period=PAGER_PERIOD,
                         rng=make_rng(SIM_SEED, "pager"))
    system.sim.spawn(pager.run(), name="pager")
    # Completion is the last worker's finish, not a polling boundary:
    # sim_cycles is the exact cycle the work ended.
    system.sim.run_until_done(workers, limit=DEFAULT_CYCLE_LIMIT)
    scheduler.stop()
    pager.stop()
    report = suite.finish() if suite is not None else None
    result = RunResult(
        workload=workload.name, config_label=cfg.tm.signature.describe(),
        cycles=system.sim.now, units=sum(e.units_done for e in executors),
        counters=system.stats.snapshot(),
        histograms=system.stats.histograms(),
        verify_checks_run=list(report.checks_run) if report else [],
        verify_violations=[v.to_dict() for v in report.violations]
        if report else [])
    return Outcome(units_issued=workload.total_units, result=result,
                   events=system.sim.events_executed,
                   os_counts={"preemptions": scheduler.preemptions,
                              "page_moves": pager.moves})


SCENARIOS: Dict[str, Callable[[bool], Outcome]] = {
    "mp3d_dir": mp3d_dir,
    "berkeleydb_bs64": berkeleydb_bs64,
    "raytrace_virt_snoop": raytrace_virt_snoop,
}
