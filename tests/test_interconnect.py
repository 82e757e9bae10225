"""Tests for the grid topology and latency model."""

import pytest

from repro.common.errors import ConfigError
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.interconnect.topology import GridTopology


class TestGridTopology:
    def test_tile_placement(self):
        topo = GridTopology(4, 4, num_cores=16, num_banks=16)
        assert topo.core_coord(0) == (0, 0)
        assert topo.core_coord(5) == (1, 1)
        assert topo.core_coord(15) == (3, 3)

    def test_manhattan_distance(self):
        topo = GridTopology(4, 4, num_cores=16, num_banks=16)
        assert topo.core_to_core_hops(0, 15) == 6
        assert topo.core_to_core_hops(0, 0) == 0
        assert topo.core_to_core_hops(0, 1) == 1

    def test_diameter(self):
        assert GridTopology(4, 4, 16, 16).diameter == 6
        assert GridTopology(4, 3, 12, 12).diameter == 5

    def test_banks_share_tiles(self):
        topo = GridTopology(4, 4, num_cores=16, num_banks=16)
        assert topo.core_to_bank_hops(3, 3) == 0

    def test_bank_wraparound(self):
        topo = GridTopology(2, 2, num_cores=4, num_banks=8)
        assert topo.bank_coord(4) == topo.bank_coord(0)

    def test_rejects_overfull_grid(self):
        with pytest.raises(ConfigError):
            GridTopology(2, 2, num_cores=5, num_banks=4)


class TestNetwork:
    def _net(self):
        stats = StatsRegistry()
        topo = GridTopology(4, 4, num_cores=16, num_banks=16)
        return Network(topo, link_latency=3, stats=stats), stats

    def test_latency_scales_with_hops(self):
        net, _ = self._net()
        near = net.core_to_bank(0, 0)
        far = net.core_to_bank(0, 15)
        assert near == 3  # min one link
        assert far == 6 * 3

    def test_message_counting(self):
        net, stats = self._net()
        net.core_to_core(0, 5, "fwd")
        net.core_to_core(0, 5, "fwd")
        assert stats.value("network.messages") == 2
        assert stats.value("network.msg.fwd") == 2
        assert stats.value("network.hops") == 4

    def test_broadcast_counts_all_cores(self):
        net, stats = self._net()
        latency = net.broadcast_from_bank(0, "snoop")
        assert stats.value("network.messages") == 16
        assert latency == 6 * 3  # farthest tile bounds the latency
        net.broadcast_from_bank(0, "snoop")
        assert stats.value("network.messages") == 32
        assert stats.value("network.hops") == 2 * sum(
            net.topology.core_to_bank_hops(c, 0) for c in range(16))
        assert stats.value("network.msg.snoop") == 2

    def test_symmetric_bank_core(self):
        net, _ = self._net()
        assert net.core_to_bank(2, 9) == net.bank_to_core(9, 2)
