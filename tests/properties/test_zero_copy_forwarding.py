"""Aliasing properties of the zero-copy forwarding plane.

The multicast fan-out shares one headers dictionary between every replica of
a packet, and a router hands the incoming packet itself to its last branch.
These tests pin down the safety contract:

* **replicas are whole** — a replica copies every slot of its original and
  shares its headers, and an agent may keep the packets a run delivers;
* **observational equivalence** — a scenario run with zero-copy fan-out
  produces byte-identical metrics across repeated runs and across the
  serial versus process-pool runner paths (the batched monitors feed both);
* **moving is invisible** — a router hands the incoming packet itself to its
  last eligible branch and copies only for the branches before it; nothing a
  receiver, a sibling or a counter can see tells that from the router that
  copied for every branch (kept below as :func:`forward_by_copying`).
"""

import hashlib
import json

from repro.adversary import paper_attacker
from repro.experiments import (
    ExperimentRunner,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    scenario_spec,
)
from repro.experiments.runner import run_scenario
from repro.multicast_cc import headers
from repro.simulator.address import GroupAddress, NodeAddress, MULTICAST_BASE
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.multicast import MulticastRoutingService
from repro.simulator.node import Host, PacketAgent, Router
from repro.simulator.packet import Packet


def build_fanout():
    """A router replicating one group to three directly attached hosts."""
    sim = Simulator()
    router = Router(sim, "r", NodeAddress(1))
    service = MulticastRoutingService(sim)
    router.multicast_service = service
    hosts = []
    for i in range(3):
        host = Host(sim, f"h{i}", NodeAddress(10 + i))
        link = Link(sim, router, host, bandwidth_bps=1e7, delay_s=0.001)
        router.attach_link(link)
        router.routes[int(host.address)] = link
        hosts.append(host)
    group = GroupAddress(MULTICAST_BASE + 1)
    for host in hosts:
        service.join(host, group, immediate=True)
    return sim, router, service, hosts, group


class IdentityRecorder(PacketAgent):
    """Keeps every packet delivered to it."""

    def __init__(self) -> None:
        self.objects = []

    def handle_packet(self, packet: Packet) -> None:
        self.objects.append(packet)


def count_replicas(monkeypatch) -> list:
    """Count :meth:`Packet.replicate` calls into the returned one-item list."""
    calls = [0]
    replicate = Packet.replicate

    def counting_replicate(packet):
        calls[0] += 1
        return replicate(packet)

    monkeypatch.setattr(Packet, "replicate", counting_replicate)
    return calls


class TestWholeReplicas:
    def test_replica_copies_every_slot_but_its_identity(self):
        """A slot ``replicate`` forgets would raise on the replica."""
        original = Packet(
            NodeAddress(1), GroupAddress(MULTICAST_BASE + 3), 100, protocol="flid",
            headers={"k": "v"}, overhead_bits=32,
        )
        replica = original.replicate()
        assert replica is not original and replica.headers is original.headers
        for name in Packet.__slots__:
            assert getattr(replica, name) == getattr(original, name), name

    def test_fanout_leaves_the_shared_headers_intact(self, monkeypatch):
        sim, router, service, hosts, group = build_fanout()
        recorders = [IdentityRecorder() for _ in hosts]
        for host, recorder in zip(hosts, recorders):
            host.register_group_agent(group, recorder)
        replicas = count_replicas(monkeypatch)
        for n in range(50):
            router.receive(Packet(NodeAddress(99), group, 576, headers={"seq": n}), None)
            sim.run()
        assert replicas == [100]
        for n, copies in enumerate(zip(*(r.objects for r in recorders))):
            assert len({id(packet) for packet in copies}) == 3
            assert all(packet.headers is copies[0].headers for packet in copies)
            assert copies[0].headers == {"seq": n}

    def test_an_agent_may_keep_the_packets_a_run_delivers(self):
        scenario = Scenario.from_spec(scenario_spec("figure1-attack", duration_s=3.0))
        session = scenario.sessions[0]
        keeper = IdentityRecorder()
        session.receivers[0].host.register_group_agent(session.spec.address_of(1), keeper)
        scenario.run(3.0)
        assert len(keeper.objects) > 10
        for packet in keeper.objects:
            assert packet.source == session.sender.host.address
            assert packet.headers[headers.SESSION] == session.spec.session_id
            assert packet.headers[headers.GROUP] == 1
        seqs = [packet.headers[headers.GROUP_SEQ] for packet in keeper.objects]
        assert seqs == sorted(set(seqs))


def forward_by_copying(self, packet, incoming):
    """``Router._forward_multicast`` as it was: a replica for *every* branch,
    the incoming packet dropped."""
    service = self.multicast_service
    if service is None:
        return
    intercept = packet.headers.get("sigma_intercept")
    if intercept and self.group_manager is not None:
        handler = getattr(self.group_manager, "handle_control_packet", None)
        if handler is not None:
            handler(packet)
    self.multicast_packets_forwarded += 1
    copies = 0
    incoming_src = incoming.src if incoming is not None else None
    for out, _next_hop, _is_host in service.out_rows(self, packet.destination):
        dst = out.dst
        if dst is incoming_src:
            continue
        is_local_interface = isinstance(dst, Host)
        if intercept and is_local_interface:
            continue
        copies += 1
        out.send(packet.replicate())
    self.multicast_copies_sent += copies


class TestMovingThePacket:
    def test_fanout_of_one_moves_the_packet_and_allocates_nothing(self, monkeypatch):
        sim, router, service, hosts, group = build_fanout()
        for host in hosts[1:]:
            service.leave(host, group, immediate=True)
        recorder = IdentityRecorder()
        hosts[0].register_group_agent(group, recorder)
        replicas = count_replicas(monkeypatch)
        for n in range(5):
            packet = Packet(NodeAddress(99), group, 576, headers={"seq": n})
            router.receive(packet, None)
            sim.run()
            assert recorder.objects[-1] is packet
        assert replicas == [0]
        assert router.multicast_copies_sent == 5
        assert router.links["h0"].stats.transmitted_packets == 5

    def test_fanout_of_three_copies_twice_and_moves_once(self, monkeypatch):
        sim, router, service, hosts, group = build_fanout()
        recorders = [IdentityRecorder() for _ in hosts]
        for host, recorder in zip(hosts, recorders):
            host.register_group_agent(group, recorder)
        replicas = count_replicas(monkeypatch)
        packet = Packet(NodeAddress(99), group, 576, headers={"seq": 0})
        router.receive(packet, None)
        sim.run()
        assert replicas == [2]
        assert [r.objects[0] is packet for r in recorders] == [False, False, True]
        assert all(r.objects[0].headers is packet.headers for r in recorders)
        assert router.multicast_copies_sent == 3

    def test_no_eligible_branch_drops_the_packet(self, monkeypatch):
        sim, router, service, hosts, group = build_fanout()
        replicas = count_replicas(monkeypatch)
        packet = Packet(NodeAddress(99), group, 576, headers={"sigma_intercept": True})
        router.receive(packet, None)  # every branch is a local interface
        assert replicas == [0]
        assert router.multicast_copies_sent == 0
        assert not any(link.stats.transmitted_packets for link in router.links.values())
        assert sim.pending_events == 0

    def observe(self, monkeypatch, copying):
        """Run 10 s of figure1-attack; everything a bystander could compare,
        and the number of replicas the routers made."""
        if copying:
            monkeypatch.setattr(Router, "_forward_multicast", forward_by_copying)
        replicas = count_replicas(monkeypatch)
        seen = hashlib.sha256()
        host_receive = Host.receive

        def logging_receive(host, packet, link):
            if packet.multicast:
                seen.update(
                    repr((host.sim.now, host.name, sorted(packet.headers.items()))).encode()
                )
            host_receive(host, packet, link)

        monkeypatch.setattr(Host, "receive", logging_receive)
        scenario = run_scenario(scenario_spec("figure1-attack", duration_s=10.0))
        monkeypatch.undo()
        network = scenario.network
        routers = [node for node in network.nodes.values() if isinstance(node, Router)]
        return {
            "copies": {r.name: r.multicast_copies_sent for r in routers},
            "forwarded": {r.name: r.multicast_packets_forwarded for r in routers},
            "transmitted": {l.name: l.stats.transmitted_packets for l in network.links},
            "dropped": {l.name: l.queue.stats.dropped_packets for l in network.links},
            "deliveries_sha256": seen.hexdigest(),
        }, replicas[0]

    def test_figure1_attack_looks_the_same_as_with_the_copying_router(self, monkeypatch):
        moved, moved_replicas = self.observe(monkeypatch, copying=False)
        copied, copied_replicas = self.observe(monkeypatch, copying=True)
        assert moved == copied
        assert sum(moved["copies"].values()) > 1000  # the run did forward
        # ... and nearly every one of those copies was a move.
        assert moved_replicas < copied_replicas / 2


def pooled_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="zero-copy-monitor-determinism",
        protected=True,
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl("mc1", receivers=2),
            SessionDecl("mc2", receivers=1, attacks=paper_attacker(True, start_s=2.0)),
        ),
        duration_s=6.0,
        record_series=True,
    )


class TestBatchedMonitorDeterminism:
    def test_batched_monitors_serial_vs_pool_byte_identical(self):
        """Slot-batched monitor accumulation serialises identically when the
        scenario runs in-process versus inside ProcessPoolExecutor workers."""
        spec = pooled_spec()
        serial = ExperimentRunner(jobs=1).run_seed_sweep(spec, range(2))
        pooled = ExperimentRunner(jobs=2).run_seed_sweep(spec, range(2))
        serial_json = [json.dumps(r.to_dict(), sort_keys=True) for r in serial]
        pooled_json = [json.dumps(r.to_dict(), sort_keys=True) for r in pooled]
        assert serial_json == pooled_json

    def test_batched_monitors_repeat_byte_identical(self):
        first, second = (execute_spec(pooled_spec()).to_json() for _ in range(2))
        assert first == second
