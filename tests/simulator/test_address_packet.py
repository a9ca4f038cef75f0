"""Tests of addressing and the packet model."""

import pytest

from repro.simulator.address import (
    MULTICAST_BASE,
    GroupAddress,
    GroupAddressAllocator,
    NodeAddress,
    is_multicast,
)
from repro.simulator.packet import Packet


class TestAddresses:
    def test_unicast_address_in_range(self):
        assert int(NodeAddress(5)) == 5

    def test_unicast_address_rejects_multicast_range(self):
        with pytest.raises(ValueError):
            NodeAddress(MULTICAST_BASE)

    def test_group_address_requires_multicast_range(self):
        with pytest.raises(ValueError):
            GroupAddress(5)

    def test_is_multicast_discriminates(self):
        assert is_multicast(GroupAddress(MULTICAST_BASE + 1))
        assert not is_multicast(NodeAddress(1))
        assert is_multicast(MULTICAST_BASE + 7)
        assert not is_multicast(3)

    def test_addresses_are_hashable_and_ordered(self):
        a, b = GroupAddress(MULTICAST_BASE + 1), GroupAddress(MULTICAST_BASE + 2)
        assert a < b
        assert len({a, b, GroupAddress(MULTICAST_BASE + 1)}) == 2

    def test_str_representations(self):
        assert "node" in str(NodeAddress(3))
        assert "group" in str(GroupAddress(MULTICAST_BASE + 3))


class TestGroupAllocator:
    def test_allocates_distinct_addresses(self):
        allocator = GroupAddressAllocator()
        addresses = allocator.allocate_block(10)
        assert len(set(addresses)) == 10

    def test_block_is_consecutive(self):
        allocator = GroupAddressAllocator()
        block = allocator.allocate_block(3)
        values = [int(a) for a in block]
        assert values == list(range(values[0], values[0] + 3))

    def test_separate_blocks_do_not_overlap(self):
        allocator = GroupAddressAllocator()
        first = set(map(int, allocator.allocate_block(5)))
        second = set(map(int, allocator.allocate_block(5)))
        assert not first & second

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            GroupAddressAllocator().allocate_block(0)

    def test_allocated_iterates_all(self):
        allocator = GroupAddressAllocator()
        allocator.allocate_block(4)
        assert len(list(allocator.allocated())) == 4


class TestPacket:
    def _packet(self, **kwargs):
        defaults = dict(
            source=NodeAddress(1),
            destination=NodeAddress(2),
            size_bytes=576,
        )
        defaults.update(kwargs)
        return Packet(**defaults)

    def test_size_bits(self):
        assert self._packet(size_bytes=100).size_bits == 800

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            self._packet(size_bytes=0)

    def test_multicast_flag(self):
        unicast = self._packet()
        multicast = self._packet(destination=GroupAddress(MULTICAST_BASE + 1))
        assert not unicast.multicast
        assert multicast.multicast

    def test_replica_shares_headers_and_keeps_its_own_slots(self):
        original = self._packet(
            destination=GroupAddress(MULTICAST_BASE + 1), headers={"k": 1}, protocol="flid"
        )
        replica = original.replicate()
        assert replica is not original and replica.headers is original.headers
        assert (replica.size_bytes, replica.protocol, replica.multicast) == (576, "flid", True)
        replica.size_bytes = 100
        assert original.size_bytes == 576

    def test_a_packet_holds_nothing_outside_its_slots(self):
        packet = self._packet()
        with pytest.raises(AttributeError):
            packet.hop_count = 1
        with pytest.raises(TypeError):
            self._packet(created_at=0.0)
