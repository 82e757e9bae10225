"""Message latency model over the grid.

A :class:`Network` converts (source, destination) pairs into cycle costs and
counts traffic by message class, which the harness can report. There is no
queueing model — see DESIGN.md ("blocking directory" keeps at most one
transaction per directory entry in flight, which bounds contention; the
paper's numbers are dominated by protocol hops and memory latency).
"""

from __future__ import annotations

from repro.common.stats import StatsRegistry
from repro.interconnect.topology import GridTopology


class Network:
    """Charges per-hop link latency for coherence traffic."""

    def __init__(self, topology: GridTopology, link_latency: int,
                 stats: StatsRegistry) -> None:
        self.topology = topology
        self.link_latency = link_latency
        self._stats = stats
        self._messages = stats.counter("network.messages")
        self._hops = stats.counter("network.hops")
        #: Per-class counters, cached so the hot path skips the name
        #: formatting and registry lookup.
        self._class_counters = {}
        #: Per-bank broadcast fan-out from the static placement:
        #: (messages, hop sum, worst hop).
        self._fanout = []
        for bank_id in range(topology.num_banks):
            hops = [topology.core_to_bank_hops(core_id, bank_id)
                    for core_id in range(topology.num_cores)]
            self._fanout.append((len(hops), sum(hops), max(hops, default=0)))

    def _class_counter(self, msg_class: str):
        counter = self._class_counters.get(msg_class)
        if counter is None:
            counter = self._class_counters[msg_class] = (
                self._stats.counter(f"network.msg.{msg_class}"))
        return counter

    def _charge(self, hops: int, msg_class: str) -> int:
        self._messages.value += 1
        self._hops.value += hops
        counter = self._class_counters.get(msg_class)
        if counter is None:
            counter = self._class_counter(msg_class)
        counter.value += 1
        # Minimum one link traversal even for same-tile transfers (the
        # message still crosses the router/bank interface).
        return (hops if hops > 1 else 1) * self.link_latency

    def core_to_bank(self, core_id: int, bank_id: int,
                     msg_class: str = "request") -> int:
        hops = self.topology.core_to_bank_hops(core_id, bank_id)
        # net.msg events are guarded: this is the hottest emission site in
        # the machine, and building the kwargs dict must cost nothing when
        # no bus/recorder is attached.
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="core_to_bank", src=core_id,
                             dst=bank_id, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def bank_to_core(self, bank_id: int, core_id: int,
                     msg_class: str = "response") -> int:
        hops = self.topology.core_to_bank_hops(core_id, bank_id)
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="bank_to_core", src=bank_id,
                             dst=core_id, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def core_to_core(self, src: int, dst: int,
                     msg_class: str = "forward") -> int:
        hops = self.topology.core_to_core_hops(src, dst)
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="core_to_core", src=src,
                             dst=dst, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def broadcast_from_bank(self, bank_id: int,
                            msg_class: str = "broadcast") -> int:
        """Cost of reaching every core from a bank (sequential worst hop).

        Used when the L2 lost directory info (Section 5) or under the
        snooping protocol (Section 7): the latency is bounded by the farthest
        destination; per-message counters record the fan-out.
        """
        messages, hop_sum, worst = self._fanout[bank_id]
        self._messages.value += messages
        self._hops.value += hop_sum
        self._class_counter(msg_class).value += 1
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="broadcast", src=bank_id,
                             dst=-1, cls=msg_class, hops=worst)
        return max(worst, 1) * self.link_latency
