#!/usr/bin/env python3
"""The repository's benchmark: simulator speed and simulated results.

Usage, from the repository root::

    python3 perfbench/run.py --workload mp3d_dir --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload

One run repeats the workload's simulation in fresh, single-threaded
interpreters, one after another, for ``--seconds`` (at least
``MIN_REPEATS`` times), and reports medians. Every repetition is checked:
it must finish without an exception or a cycle-limit hit, complete every
unit of work it issued, and produce the same result digest as every other
repetition and every earlier run of the same code. A verified pass with
the correctness checkers follows, outside the timed window; each unit it
leaves undone and each checker violation counts as a failure.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions instead and reports the per-layer metrics
of :mod:`layers`, with ``trace.overhead`` (traced / untraced ``run_s``);
the traced result must digest the same as the untraced one.

The simulated inputs are pinned (see ``scenarios.SIM_SEED``), so the
simulated metrics and digests repeat exactly; ``--seed`` only orders the
traced and untraced repetitions. The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mp3d_dir", "berkeleydb_bs64", "raytrace_virt_snoop")
MIN_REPEATS = 3
#: Seconds one benchmark process may take before it counts as hung.
CHILD_TIMEOUT = 60
#: Digests recorded by earlier runs, keyed by code version.
DIGEST_RECORD = ROOT / ".perfbench" / "digests.json"
#: Digests of the simulated results when this benchmark was defined. A
#: different digest is reported, not failed: a change may re-pin results
#: on purpose.
PINNED_DIGESTS = {
    "mp3d_dir":
        "a8bb2db3a39de907f72b90c67cbc27e98ce4fe3542895145a10c61145e2da4a4",
    "berkeleydb_bs64":
        "67feccd7936a01e66e8d8c333302dc8877f894586501f4556ff6247b890160d8",
    "raytrace_virt_snoop":
        "5b1eb0d71174d4a7516d045b26154f9f195945057a8aae895e07818173c01362",
}


def metric_units(traced: bool) -> Dict[str, str]:
    """Name -> unit of the metrics a run reports, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


class Run:
    """The repetitions of one workload and the checks on their output."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: Dict[str, List[dict]] = {
            "timed": [], "traced": [], "verified": []}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def repeat(self, mode: str) -> Optional[dict]:
        """Run one fresh benchmark process; returns its record or None."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        probe_before = calibrate.probe()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), self.workload,
                 mode, repr(t0)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if lines else {
                "error": f"no output (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}"}
        except subprocess.TimeoutExpired:
            record = {"error": f"timed out after {CHILD_TIMEOUT} s"}
        except json.JSONDecodeError as exc:
            record = {"error": f"unreadable output: {exc}"}
        if "error" in record:
            # A repetition that died counts all its units as failed.
            self.attempted += self.issued()
            self.failed += self.issued()
            self.problems.append(f"{mode} run failed: {record['error']}")
            return None
        record["scale"] = calibrate.time_scale(probe_before,
                                               record["probe_s"])
        self.attempted += record["units_issued"]
        missing = record["units_issued"] - record["units_done"]
        self.failed += missing
        if missing:
            self.problems.append(f"{mode} run left {missing} of "
                                 f"{record['units_issued']} units undone")
        self.records[mode].append(record)
        return record

    def measure(self, seconds: float, traced: bool, seed: int) -> None:
        rng = random.Random(seed)
        start = time.monotonic()
        while (time.monotonic() - start < seconds
               or len(self.records["timed"]) < MIN_REPEATS):
            modes = ["timed", "traced"] if traced else ["timed"]
            rng.shuffle(modes)
            for mode in modes:
                if self.repeat(mode) is None:
                    return
        record = self.repeat("verified")
        if record is not None:
            self.failed += len(record["violations"])

    def issued(self) -> int:
        """Units one repetition issues (1 before any has reported)."""
        for records in self.records.values():
            if records:
                return records[0]["units_issued"]
        return 1

    def check_digests(self) -> Optional[str]:
        digests = {r["digest"] for records in self.records.values()
                   for r in records}
        if len(digests) != 1:
            self.problems.append(
                f"result digests differ between repetitions: "
                f"{sorted(digests)} (nondeterminism)")
            return None
        digest = digests.pop()
        version = code_version()
        recorded = load_digest_record()
        earlier = recorded.setdefault(version, {}).get(self.workload)
        if earlier is None:
            recorded[version][self.workload] = digest
            save_digest_record(recorded)
        elif earlier != digest:
            self.problems.append(
                f"result digest {digest} differs from {earlier}, recorded "
                "by an earlier run of the same code (nondeterminism)")
        return digest

    def check_layer_counts(self) -> None:
        counts = {json.dumps({k: v for k, v in r["layers"].items()
                              if not k.endswith("self_s")}, sort_keys=True)
                  for r in self.records["traced"]}
        if len(counts) > 1:
            self.problems.append("per-layer counts differ between traced "
                                 "repetitions (nondeterminism)")

    def samples(self, mode: str = "timed") -> Dict[str, List[float]]:
        """Per-repetition host figures, in reference-host seconds."""
        records = self.records[mode]
        return {
            "setup_s": [r["setup_s"] * r["scale"] for r in records],
            "run_s": [r["run_s"] * r["scale"] for r in records],
            "accesses_per_s": [r["accesses"] / (r["run_s"] * r["scale"])
                               for r in records],
            "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        }

    def end_to_end(self) -> Dict[str, float]:
        first = self.records["timed"][0]
        metrics = {name: statistics.median(values)
                   for name, values in self.samples().items()}
        metrics["sim_cycles"] = first["cycles"]
        metrics["aborts_per_commit"] = first["aborts"] / first["commits"]
        return metrics

    def per_layer(self) -> Dict[str, float]:
        traced = self.records["traced"]
        metrics = dict(traced[0]["layers"])
        for name in metrics:
            if name.endswith("self_s"):
                metrics[name] = statistics.median(
                    r["layers"][name] * r["scale"] for r in traced)
        metrics["trace.overhead"] = (
            statistics.median(self.samples("traced")["run_s"])
            / statistics.median(self.samples()["run_s"]))
        return metrics


def code_version() -> str:
    """Hash of the simulator's and the benchmark's sources."""
    sha = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def load_digest_record() -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(DIGEST_RECORD.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def save_digest_record(record: Dict[str, Dict[str, str]]) -> None:
    DIGEST_RECORD.parent.mkdir(exist_ok=True)
    tmp = DIGEST_RECORD.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, DIGEST_RECORD)


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def report(workload: str, seconds: float, traced: bool, seed: int,
           units: Dict[str, str]) -> Tuple[Run, Dict[str, float]]:
    """Run one workload, print its metrics and checks; returns the run and
    its metrics (none when a check failed)."""
    run = Run(workload)
    run.measure(seconds, traced, seed)
    metrics: Dict[str, float] = {}
    print(f"== {workload}")
    if not run.problems:
        digest = run.check_digests()
        if traced:
            run.check_layer_counts()
        pinned = PINNED_DIGESTS[workload]
        if digest is not None:
            print(f"  result_digest {digest} ("
                  + ("as pinned" if digest == pinned
                     else f"changed; pinned {pinned}") + ")")
    if not run.problems:
        metrics = run.per_layer() if traced else run.end_to_end()
        if set(metrics) != set(units):
            run.problems.append(f"metrics {sorted(metrics)} do not match "
                                f"BENCHMARK.json {sorted(units)}")
            metrics = {}
        samples = run.samples()
        for name, value in metrics.items():
            extra = f"  (median; {spread(samples[name])})" \
                if name in samples and not traced else ""
            print(f"  {name:34s} {value:.6g} {units[name]}{extra}")
        timed = run.records["timed"]
        scales = [r["scale"] for r in timed]
        print(f"  host-time scale {statistics.median(scales):.4g} "
              f"(median; {spread(scales)}); unscaled medians: run_s "
              f"{statistics.median(r['run_s'] for r in timed):.4g} s, "
              f"setup_s {statistics.median(r['setup_s'] for r in timed):.4g} s")
    verified = run.records["verified"]
    rules = sorted({rule for r in verified for rule in r["violations"]})
    print(f"  checks: {len(run.records['timed'])} timed, "
          f"{len(run.records['traced'])} traced, {len(verified)} verified "
          f"repetitions; {run.failed} of {run.attempted} units failed"
          + (f"; checker violations: {', '.join(rules)}" if rules else ""))
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        run, values = report(workload, args.seconds, bool(args.trace),
                             args.seed, units)
        correct = correct and not run.problems
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
