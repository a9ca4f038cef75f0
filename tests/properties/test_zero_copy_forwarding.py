"""Aliasing and pooling properties of the zero-copy forwarding plane.

The multicast fan-out shares one headers dictionary between every replica of
a packet and recycles dead replicas through a :class:`PacketPool`.  These
tests pin down the safety contract:

* **pool hygiene** — recycling never rewrites a shared headers dictionary,
  double release is a no-op, and foreign packets pass through untouched;
* **observational equivalence** — a scenario run with pooling/zero-copy
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
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    scenario_spec,
)
from repro.experiments.warmstart import run_scenario
from repro.simulator.address import GroupAddress, NodeAddress, MULTICAST_BASE
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.multicast import MulticastRoutingService
from repro.simulator.node import Host, PacketAgent, Router
from repro.simulator.packet import Packet, PacketPool


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


class Recorder(PacketAgent):
    """Snapshots every delivery (agents must not retain the packet)."""

    def __init__(self) -> None:
        self.snapshots = []

    def handle_packet(self, packet: Packet) -> None:
        self.snapshots.append(dict(packet.headers))


class TestPoolHygiene:
    def test_release_preserves_shared_headers_dict(self):
        pool = PacketPool()
        group = GroupAddress(MULTICAST_BASE + 3)
        packet = pool.acquire(NodeAddress(1), group, 100, headers={"k": "v"})
        shared = packet.headers
        replica = packet.replicate(pool)
        pool.release(packet)
        reused = pool.acquire(NodeAddress(2), group, 200, headers={"k": "other"})
        assert reused is packet  # recycled object ...
        assert replica.headers is shared and shared["k"] == "v"  # ... old dict intact
        assert reused.headers is not shared

    def test_acquire_resets_every_field_a_recycled_packet_carried(self):
        pool = PacketPool()
        packet = pool.acquire(
            NodeAddress(1), GroupAddress(MULTICAST_BASE + 3), 100, protocol="flid",
            headers={"k": "v"}, overhead_bits=32, created_at=4.0,
        )
        packet.hop_count = 5
        pool.release(packet)
        reused = pool.acquire(NodeAddress(2), NodeAddress(3), 200)
        assert reused is packet
        fresh = Packet(NodeAddress(2), NodeAddress(3), 200)
        for name in Packet.__slots__:
            if name not in ("uid", "_pool"):
                assert getattr(reused, name) == getattr(fresh, name), name

    def test_replica_copies_every_slot_but_its_identity(self):
        """A slot ``replicate`` forgets would read stale state off a pooled
        object (or raise on a fresh one)."""
        pool = PacketPool()
        original = pool.acquire(
            NodeAddress(1), GroupAddress(MULTICAST_BASE + 3), 100, protocol="flid",
            headers={"k": "v"}, overhead_bits=32, created_at=4.0,
        )
        original.hop_count = 2
        stale = pool.acquire(NodeAddress(9), NodeAddress(8), 900)
        pool.release(stale)
        for replica in (original.replicate(), original.replicate(pool)):
            assert replica.headers is original.headers
            assert replica.uid != original.uid
            for name in Packet.__slots__:
                if name not in ("uid", "_pool"):
                    assert getattr(replica, name) == getattr(original, name), name
        assert pool.recycled == 1  # the second replica reused the stale object

    def test_double_release_is_idempotent(self):
        pool = PacketPool()
        packet = pool.acquire(NodeAddress(1), GroupAddress(MULTICAST_BASE + 3), 100)
        pool.release(packet)
        pool.release(packet)
        first = pool.acquire_blank()
        second = pool.acquire_blank()
        assert first is not second

    def test_foreign_packets_are_never_pooled(self):
        pool = PacketPool()
        packet = Packet(NodeAddress(1), NodeAddress(2), 100)
        pool.release(packet)
        assert len(pool) == 0

    def test_bounded_free_list(self):
        pool = PacketPool(max_size=2)
        packets = [
            pool.acquire(NodeAddress(1), GroupAddress(MULTICAST_BASE + 3), 100)
            for _ in range(5)
        ]
        for packet in packets:
            pool.release(packet)
        assert len(pool) == 2

    def test_fanout_recycles_through_pool(self):
        sim, router, service, hosts, group = build_fanout()
        for host in hosts:
            host.register_group_agent(group, Recorder())
        pool = service.packet_pool
        for n in range(50):
            packet = pool.acquire(
                source=NodeAddress(99),
                destination=group,
                size_bytes=576,
                headers={"seq": n},
                created_at=sim.now,
            )
            router.receive(packet, None)
            sim.run()
        # Steady state: replicas come back; fresh allocations stay a small
        # constant (the in-flight window), not one per delivery.
        assert pool.recycled > pool.allocated


def forward_by_copying(self, packet, incoming):
    """``Router._forward_multicast`` as it was: a replica for *every* branch,
    the incoming packet absorbed and recycled."""
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
    pool = service.packet_pool
    incoming_src = incoming.src if incoming is not None else None
    for out, _next_hop, _is_host in service.out_rows(self, packet.destination):
        dst = out.dst
        if dst is incoming_src:
            continue
        is_local_interface = isinstance(dst, Host)
        if intercept and is_local_interface:
            continue
        copies += 1
        out.send(packet.replicate(pool))
    self.multicast_copies_sent += copies
    pool.release(packet)


class IdentityRecorder(PacketAgent):
    """Remembers *which object* arrived (compared, never dereferenced later)."""

    def __init__(self) -> None:
        self.objects = []

    def handle_packet(self, packet: Packet) -> None:
        self.objects.append(packet)


class TestMovingThePacket:
    def test_fanout_of_one_moves_the_packet_and_allocates_nothing(self):
        sim, router, service, hosts, group = build_fanout()
        for host in hosts[1:]:
            service.leave(host, group, immediate=True)
        recorder = IdentityRecorder()
        hosts[0].register_group_agent(group, recorder)
        pool = service.packet_pool
        for n in range(5):
            packet = pool.acquire(NodeAddress(99), group, 576, headers={"seq": n})
            uid = packet.uid
            acquisitions = pool.allocated + pool.recycled
            router.receive(packet, None)
            sim.run()
            assert pool.allocated + pool.recycled == acquisitions  # no replica drawn
            assert recorder.objects[-1] is packet and packet.uid == uid
            assert packet._pool is None  # recycled by the host, its last consumer
        assert router.multicast_copies_sent == 5
        assert router.links["h0"].stats.transmitted_packets == 5

    def test_fanout_of_three_copies_twice_and_moves_once(self):
        sim, router, service, hosts, group = build_fanout()
        recorders = [IdentityRecorder() for _ in hosts]
        for host, recorder in zip(hosts, recorders):
            host.register_group_agent(group, recorder)
        pool = service.packet_pool
        packet = pool.acquire(NodeAddress(99), group, 576, headers={"seq": 0})
        acquisitions = pool.allocated + pool.recycled
        router.receive(packet, None)
        sim.run()
        assert pool.allocated + pool.recycled == acquisitions + 2
        assert [r.objects[0] is packet for r in recorders] == [False, False, True]
        assert router.multicast_copies_sent == 3

    def test_no_eligible_branch_releases_the_packet(self):
        sim, router, service, hosts, group = build_fanout()
        pool = service.packet_pool
        packet = pool.acquire(
            NodeAddress(99), group, 576, headers={"sigma_intercept": True}
        )
        router.receive(packet, None)  # every branch is a local interface
        assert packet._pool is None and len(pool) == 1
        assert router.multicast_copies_sent == 0
        assert sim.pending_events == 0

    def observe(self, monkeypatch, copying):
        """Run 10 s of figure1-attack; everything a bystander could compare."""
        if copying:
            monkeypatch.setattr(Router, "_forward_multicast", forward_by_copying)
        seen = hashlib.sha256()
        host_receive = Host.receive

        def logging_receive(host, packet, link):
            if packet.multicast:
                seen.update(
                    repr(
                        (host.sim.now, host.name, packet.hop_count,
                         sorted(packet.headers.items()))
                    ).encode()
                )
            host_receive(host, packet, link)

        monkeypatch.setattr(Host, "receive", logging_receive)
        scenario = run_scenario(scenario_spec("figure1-attack", duration_s=10.0))
        monkeypatch.undo()
        network = scenario.network
        routers = [node for node in network.nodes.values() if isinstance(node, Router)]
        pool = network.multicast.packet_pool
        return {
            "copies": {r.name: r.multicast_copies_sent for r in routers},
            "forwarded": {r.name: r.multicast_packets_forwarded for r in routers},
            "transmitted": {l.name: l.stats.transmitted_packets for l in network.links},
            "dropped": {l.name: l.queue.stats.dropped_packets for l in network.links},
            "deliveries_sha256": seen.hexdigest(),
        }, pool.allocated + pool.recycled

    def test_figure1_attack_looks_the_same_as_with_the_copying_router(self, monkeypatch):
        moved, moved_acquisitions = self.observe(monkeypatch, copying=False)
        copied, copied_acquisitions = self.observe(monkeypatch, copying=True)
        assert moved == copied
        assert sum(moved["copies"].values()) > 1000  # the run did forward
        # ... and nearly every one of those copies was a move.
        assert moved_acquisitions < copied_acquisitions / 2


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
