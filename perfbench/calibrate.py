"""Host-speed probe: a fixed piece of pure-Python work, timed.

The benchmark shares its host with other tenants, and their load changes
how fast the interpreter runs, in phases that last from seconds to many
minutes: identical simulations took 1.4 s in one phase and 2.3 s in
another. This probe's work never changes. It is a small discrete-event
loop of generators, a heap and a dict, the interpreter paths the
simulator leans on, and it imports nothing from the repository. Timed
right before and right after each simulation, it measures the host's
speed around it, and :func:`time_scale` turns that into the factor that
converts the simulation's host seconds to seconds on the reference host.
"""

from __future__ import annotations

import heapq
import time

#: Probe time, in seconds, that defines the reference host speed: the
#: ``probe()`` time measured on a quiet 2-vCPU x86-64 host under CPython
#: 3.11. Scaled host times read as seconds on such a host.
REFERENCE_S = 0.15

#: How strongly the simulator's host time follows the probe's. Between the
#: medians of host phases on a 2-vCPU x86-64 host, log(simulation time)
#: moved 0.67 to 0.73 times as far as log(probe time); fits over single
#: repetitions read lower (0.47 to 0.54) because the probe's own noise
#: dilutes them. The probe's working set is tiny, so contention slows it
#: more than the simulator, and a full (exponent 1) correction overshoots.
SENSITIVITY = 0.7

#: Rounds per probe; one round is about 15 ms at the reference speed.
ROUNDS = 10


def _process(steps: int, sink: list):
    total = 0
    seen = {}
    for i in range(steps):
        seen[i & 255] = seen.get(i & 255, 0) + i
        total += yield (i * 7) % 13 + 1
    sink.append(total + len(seen))


def _round(processes: int = 64, steps: int = 400) -> int:
    sink: list = []
    queue = []
    seq = 0
    for _ in range(processes):
        seq += 1
        heapq.heappush(queue, (0, seq, _process(steps, sink), None))
    while queue:
        now, _, gen, value = heapq.heappop(queue)
        try:
            delay = gen.send(value)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq, gen, now))
    return sum(sink)


def probe() -> float:
    """Host seconds the fixed work takes now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - start


def time_scale(*probe_times: float) -> float:
    """Factor converting host seconds measured between probes that took
    ``probe_times`` to seconds on the reference host."""
    mean = sum(probe_times) / len(probe_times)
    return (REFERENCE_S / mean) ** SENSITIVITY
