"""One benchmark process: build one scenario, simulate it once, report.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py <workload> <timed|traced|verified> <t0>

``t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter; the set-up time runs from it to the first simulated event, so
interpreter start, ``import repro``, configuration, the ``System`` build,
thread placement and workload construction all count. Right after the
simulation the process times the host-speed probe of :mod:`calibrate`.
It prints one JSON record as its last line and exits 0, or prints
``{"error": ...}`` and exits 1.

Modes: ``timed`` runs the scenario as a user would; ``traced`` installs the
per-layer wrappers of :mod:`layers` first; ``verified`` attaches the
correctness checkers and reports their violations.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    workload, mode, t0 = argv[0], argv[1], float(argv[2])
    import calibrate
    import scenarios
    from repro.sim.engine import Simulator

    clock = None
    if mode == "traced":
        import layers
        clock = layers.install()

    # The first call into the kernel is the first simulated event; it and
    # its return bracket the simulation proper.
    stamps = []
    run_until_done = Simulator.run_until_done

    def stamped(sim, procs, limit=None):
        stamps.append(time.monotonic())
        try:
            return run_until_done(sim, procs, limit)
        finally:
            stamps.append(time.monotonic())

    Simulator.run_until_done = stamped
    try:
        outcome = scenarios.SCENARIOS[workload](mode == "verified")
    except Exception as exc:  # a failed run is reported, not raised
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    if len(stamps) != 2:
        print(json.dumps({"error": f"expected one simulation, saw "
                                   f"{len(stamps) // 2}"}))
        return 1

    counters = outcome.result.counters
    record = {
        "setup_s": stamps[0] - t0,
        "run_s": stamps[1] - stamps[0],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units_issued": outcome.units_issued,
        "units_done": outcome.result.units,
        "cycles": outcome.result.cycles,
        "accesses": counters["mem.loads"] + counters["mem.stores"],
        "commits": outcome.result.commits,
        "aborts": outcome.result.aborts,
        "digest": outcome.digest(),
        "violations": [v["rule"] for v in outcome.result.verify_violations],
        # Last, so the probe's allocations stay out of peak_rss_mb.
        "probe_s": calibrate.probe(),
    }
    if clock is not None:
        record["layers"] = clock.metrics(counters, outcome.events,
                                         outcome.os_counts)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
