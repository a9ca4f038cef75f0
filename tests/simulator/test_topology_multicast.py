"""Tests of topology construction, unicast routing, multicast forwarding and IGMP."""

import pickle

import pytest

from repro.simulator import (
    IgmpHostInterface,
    Network,
    NetworkGraph,
    Packet,
    dumbbell_topology,
    install_igmp,
)
from repro.simulator.node import PacketAgent
from repro.simulator.multicast import GRAFT_DELAY_S


class Collector(PacketAgent):
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)


class FirstMemberLog:
    """A picklable first-member callback (the service is checkpointed)."""

    def __init__(self):
        self.groups = []

    def heard(self, group):
        self.groups.append(group)


def route_path(src, dst):
    """The nodes a unicast packet from ``src`` to ``dst`` visits, hop by hop."""
    path = [src]
    while path[-1] is not dst:
        path.append(path[-1].route_for(dst.address).dst)
    return path


def build_line_network():
    """host_a -- r1 -- r2 -- host_b."""
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    net.attach_host(a, r1, 10e6, 0.001)
    net.attach_host(b, r2, 10e6, 0.001)
    net.duplex_link(r1, r2, 1e6, 0.010)
    net.build_routes()
    return net, a, b, r1, r2


class TestNetworkConstruction:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_host("x")

    def test_host_and_router_lookup(self):
        net, a, b, r1, r2 = build_line_network()
        assert net.host("a") is a
        assert net.router("r1") is r1
        with pytest.raises(TypeError):
            net.host("r1")

    def test_find_link(self):
        net, a, b, r1, r2 = build_line_network()
        link = net.find_link(r1, r2)
        assert link.src is r1 and link.dst is r2

    def test_addresses_are_unique(self):
        net, a, b, r1, r2 = build_line_network()
        addresses = {int(n.address) for n in net.nodes.values()}
        assert len(addresses) == 4


class TestUnicastRouting:
    def test_unicast_delivery_across_routers(self):
        net, a, b, r1, r2 = build_line_network()
        collector = Collector()
        b.register_agent("data", collector)
        a.send(Packet(source=a.address, destination=b.address, size_bytes=500))
        net.run(until=1.0)
        assert len(collector.packets) == 1

    def test_port_demultiplexing(self):
        net, a, b, r1, r2 = build_line_network()
        right_port = Collector()
        wrong_port = Collector()
        b.register_agent(10, right_port)
        b.register_agent(11, wrong_port)
        a.send(
            Packet(
                source=a.address,
                destination=b.address,
                size_bytes=500,
                headers={"port": 10},
            )
        )
        net.run(until=1.0)
        assert len(right_port.packets) == 1
        assert not wrong_port.packets

    def test_shortest_path_nodes(self):
        net, a, b, r1, r2 = build_line_network()
        path = route_path(a, b)
        assert [n.name for n in path] == ["a", "r1", "r2", "b"]

    def test_routes_follow_the_lowest_delay_path(self):
        """Delay is the metric: two fast hops beat one slow direct link."""
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        r1, r2, r3 = (net.add_router(name) for name in ("r1", "r2", "r3"))
        net.attach_host(a, r1, 10e6, 0.001)
        net.attach_host(b, r3, 10e6, 0.001)
        net.duplex_link(r1, r3, 10e6, 0.050)
        net.duplex_link(r1, r2, 1e6, 0.010)
        net.duplex_link(r2, r3, 1e6, 0.010)
        net.build_routes()
        assert [n.name for n in route_path(a, b)] == ["a", "r1", "r2", "r3", "b"]
        assert [n.name for n in route_path(b, a)] == ["b", "r3", "r2", "r1", "a"]

    def test_disconnected_nodes_have_no_route(self):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.build_routes()
        assert a.route_for(b.address) is None


class TestMulticastForwarding:
    def test_member_receives_group_traffic(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        collector = Collector()
        b.register_group_agent(group, collector)
        net.multicast.join(b, group, immediate=True)
        a.send(Packet(source=a.address, destination=group, size_bytes=500))
        net.run(until=1.0)
        assert len(collector.packets) == 1

    def test_non_member_receives_nothing(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        collector = Collector()
        b.register_group_agent(group, collector)
        a.send(Packet(source=a.address, destination=group, size_bytes=500))
        net.run(until=1.0)
        assert not collector.packets

    def test_leave_stops_delivery(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        collector = Collector()
        b.register_group_agent(group, collector)
        net.multicast.join(b, group, immediate=True)
        a.send(Packet(source=a.address, destination=group, size_bytes=500))
        net.run(until=1.0)
        net.multicast.leave(b, group, immediate=True)
        a.send(Packet(source=a.address, destination=group, size_bytes=500))
        net.run(until=2.0)
        assert len(collector.packets) == 1

    def test_replication_to_multiple_members(self):
        net = Network()
        src = net.add_host("src")
        r = net.add_router("r")
        rx1 = net.add_host("rx1")
        rx2 = net.add_host("rx2")
        net.attach_host(src, r, 10e6, 0.001)
        net.attach_host(rx1, r, 10e6, 0.001)
        net.attach_host(rx2, r, 10e6, 0.001)
        net.build_routes()
        group = net.allocate_groups(1)[0]
        c1, c2 = Collector(), Collector()
        rx1.register_group_agent(group, c1)
        rx2.register_group_agent(group, c2)
        net.multicast.join(rx1, group, immediate=True)
        net.multicast.join(rx2, group, immediate=True)
        src.send(Packet(source=src.address, destination=group, size_bytes=500))
        net.run(until=1.0)
        assert len(c1.packets) == 1
        assert len(c2.packets) == 1

    def test_cached_rows_are_rebuilt_after_an_effective_join_and_leave(self):
        net = Network()
        src = net.add_host("src")
        r = net.add_router("r")
        rx1 = net.add_host("rx1")
        rx2 = net.add_host("rx2")
        for host in (src, rx1, rx2):
            net.attach_host(host, r, 10e6, 0.001)
        net.build_routes()
        group = net.allocate_groups(1)[0]
        service = net.multicast

        def rows():
            return [(link.name, hop.name, is_host) for link, hop, is_host in service.out_rows(r, group)]

        assert rows() == []
        service.join(rx2, group, immediate=True)
        assert rows() == [("r->rx2", "rx2", True)]
        cached = service.out_rows(r, group)
        assert service.out_rows(r, group) is cached  # not recomputed per packet
        service.join(rx2, group, immediate=True)  # not effective: already a member
        assert service.out_rows(r, group) is cached
        service.join(rx1, group, immediate=True)
        assert rows() == [("r->rx1", "rx1", True), ("r->rx2", "rx2", True)]
        service.leave(rx2, group, immediate=True)
        assert rows() == [("r->rx1", "rx1", True)]
        service.leave(rx1, group, immediate=True)
        assert rows() == []

    def test_rows_tell_routers_from_local_interfaces(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        net.multicast.join(b, group, immediate=True)
        [(link, hop, is_host)] = net.multicast.out_rows(r1, group)
        assert (hop, is_host) == (r2, False) and link.dst is r2
        [(link, hop, is_host)] = net.multicast.out_rows(r2, group)
        assert (hop, is_host) == (b, True) and link.dst is b

    def test_sigma_intercept_flag_blocks_local_delivery(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        collector = Collector()
        b.register_group_agent(group, collector)
        net.multicast.join(b, group, immediate=True)
        a.send(
            Packet(
                source=a.address,
                destination=group,
                size_bytes=500,
                headers={"sigma_intercept": True},
            )
        )
        net.run(until=1.0)
        assert not collector.packets

    def test_membership_stats(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        net.multicast.join(b, group, immediate=True)
        net.multicast.leave(b, group, immediate=True)
        assert net.multicast.stats.joins_effective == 1
        assert net.multicast.stats.leaves_effective == 1

    def test_groups_of_host(self):
        net, a, b, r1, r2 = build_line_network()
        groups = net.allocate_groups(3)
        for group in groups:
            net.multicast.join(b, group, immediate=True)
        assert len(net.multicast.groups_of(b)) == 3


class TestFirstMemberHook:
    def test_runs_on_zero_to_one_only(self):
        net, a, b, r1, r2 = build_line_network()
        group, other = net.allocate_groups(2)
        log = FirstMemberLog()
        net.multicast.on_first_member(group, log.heard)
        net.multicast.join(b, other, immediate=True)
        assert log.groups == []
        net.multicast.join(b, group, immediate=True)
        assert log.groups == [group]
        net.multicast.join(b, group, immediate=True)  # already a member
        net.multicast.join(a, group, immediate=True)  # one -> two
        assert log.groups == [group]

    def test_runs_again_after_a_drop_to_zero(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        log = FirstMemberLog()
        net.multicast.on_first_member(group, log.heard)
        net.multicast.join(a, group, immediate=True)
        net.multicast.join(b, group, immediate=True)
        net.multicast.leave(a, group, immediate=True)  # two -> one
        net.multicast.join(a, group, immediate=True)
        assert log.groups == [group]
        net.multicast.leave(a, group, immediate=True)
        net.multicast.leave(b, group, immediate=True)
        net.multicast.join(b, group, immediate=True)
        assert log.groups == [group, group]

    def test_runs_inside_the_effective_join(self):
        """With a graft delay the hook fires when membership changes, not before."""
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        seen = []
        net.multicast.on_first_member(
            group, lambda g: seen.append((net.sim.now, net.multicast.is_member(b, g)))
        )
        net.multicast.join(b, group)
        assert seen == []
        net.run(until=1.0)
        assert seen == [(GRAFT_DELAY_S, True)]

    def test_callbacks_survive_pickle_of_the_network(self):
        net, a, b, r1, r2 = build_line_network()
        group = net.allocate_groups(1)[0]
        log = FirstMemberLog()
        net.multicast.on_first_member(group, log.heard)
        restored, restored_log = pickle.loads(pickle.dumps((net, log)))
        restored.multicast.join(restored.host("b"), group, immediate=True)
        assert restored_log.groups == [group]
        assert log.groups == []


class TestIgmp:
    def test_join_via_igmp_reaches_multicast_service(self):
        net, a, b, r1, r2 = build_line_network()
        install_igmp(r2, net.multicast)
        group = net.allocate_groups(1)[0]
        interface = IgmpHostInterface(b)
        interface.join(group)
        net.run(until=1.0)
        assert net.multicast.is_member(b, group)

    def test_leave_via_igmp(self):
        net, a, b, r1, r2 = build_line_network()
        install_igmp(r2, net.multicast)
        group = net.allocate_groups(1)[0]
        interface = IgmpHostInterface(b)
        interface.join(group)
        net.run(until=1.0)
        interface.leave(group)
        net.run(until=2.0)
        assert not net.multicast.is_member(b, group)

    def test_igmp_grants_any_group(self):
        """The vulnerability the paper exploits: IGMP never refuses a join."""
        net, a, b, r1, r2 = build_line_network()
        manager = install_igmp(r2, net.multicast)
        interface = IgmpHostInterface(b)
        for group in net.allocate_groups(10):
            interface.join(group)
        net.run(until=1.0)
        assert manager.joins_handled == 10
        assert len(net.multicast.groups_of(b)) == 10

    def test_interface_requires_attachment(self):
        net = Network()
        host = net.add_host("lonely")
        with pytest.raises(RuntimeError):
            IgmpHostInterface(host)


class TestDumbbell:
    def test_three_link_paths(self):
        net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=1_000_000.0))
        sender = net.add_sender()
        receiver = net.add_receiver()
        net.build_routes()
        path = route_path(sender, receiver)
        assert [n.name for n in path] == [sender.name, "left", "right", receiver.name]

    def test_bottleneck_buffer_uses_path_rtt(self):
        # 2 * 1 Mbps * 80 ms (the path round trip, not the 20 ms hop) / 8.
        (link,) = dumbbell_topology(bottleneck_bandwidth_bps=1_000_000.0).links
        assert link.buffer_bytes == 20_000

    def test_receiver_edge_router_is_right(self):
        net = NetworkGraph(dumbbell_topology())
        receiver = net.add_receiver()
        assert receiver.edge_router is net.router("right")
