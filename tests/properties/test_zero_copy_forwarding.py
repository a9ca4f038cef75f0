"""Aliasing and pooling properties of the zero-copy forwarding plane.

The multicast fan-out shares one headers dictionary between every replica of
a packet and recycles dead replicas through a :class:`PacketPool`.  These
tests pin down the safety contract:

* **mutation canary** — a receiver that mutates its delivered copy (through
  the copy-on-write :meth:`Packet.mutable_headers` surface) never leaks the
  mutation into sibling receivers' deliveries, the sender's packet, or later
  packets that reuse the pooled object;
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
import random

import pytest

from repro.core.delta.ecn import COMPONENT_HEADER, EcnComponentScrambler
from repro.experiments import (
    ExperimentRunner,
    PAPER_DEFAULTS,
    ScenarioSpec,
    SessionDecl,
    scenario_spec,
)
from repro.experiments.runner import run_spec_json
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
    service = MulticastRoutingService(sim, graft_delay_s=0.0, prune_delay_s=0.0)
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

    def __init__(self, mutate: bool = False) -> None:
        self.mutate = mutate
        self.snapshots = []

    def handle_packet(self, packet: Packet) -> None:
        if self.mutate:
            headers = packet.mutable_headers()
            headers["component"] = "tampered"
            headers["injected"] = True
        self.snapshots.append(dict(packet.headers))


class TestMutationCanary:
    def test_receiver_mutation_never_aliases_into_siblings(self):
        sim, router, service, hosts, group = build_fanout()
        recorders = [Recorder(mutate=(i == 1)) for i in range(3)]
        for host, recorder in zip(hosts, recorders):
            host.register_group_agent(group, recorder)

        pool = service.packet_pool
        for n in range(20):
            packet = pool.acquire(
                source=NodeAddress(99),
                destination=group,
                size_bytes=576,
                protocol="flid",
                headers={"component": n, "seq": n},
                created_at=sim.now,
            )
            router.receive(packet, None)
            sim.run()

        for index, recorder in enumerate(recorders):
            assert len(recorder.snapshots) == 20
            if index == 1:
                assert all(s["component"] == "tampered" for s in recorder.snapshots)
            else:
                # The canary: sibling deliveries carry the genuine values.
                assert [s["component"] for s in recorder.snapshots] == list(range(20))
                assert all("injected" not in s for s in recorder.snapshots)

    def test_replicas_share_headers_until_first_write(self):
        original = Packet(NodeAddress(1), GroupAddress(MULTICAST_BASE + 2), 100, headers={"a": 1})
        replica = original.replicate()
        assert replica.headers is original.headers
        mutated = replica.mutable_headers()
        mutated["a"] = 2
        assert original.headers["a"] == 1
        assert replica.headers is not original.headers

    def test_ecn_mark_is_per_replica(self):
        original = Packet(NodeAddress(1), GroupAddress(MULTICAST_BASE + 2), 100)
        first = original.replicate()
        second = original.replicate()
        first.ecn = True
        assert not second.ecn and not original.ecn


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
    hook = self.local_delivery_hook
    incoming_src = incoming.src if incoming is not None else None
    for out in service.out_links(self, packet.destination):
        dst = out.dst
        if dst is incoming_src:
            continue
        is_local_interface = isinstance(dst, Host)
        if intercept and is_local_interface:
            continue
        copy = packet.replicate(pool)
        if is_local_interface and hook is not None:
            hook(copy, out)
        copies += 1
        out.send(copy)
    self.multicast_copies_sent += copies
    pool.release(packet)


class IdentityRecorder(PacketAgent):
    """Remembers *which object* arrived (compared, never dereferenced later)."""

    def __init__(self) -> None:
        self.objects = []

    def handle_packet(self, packet: Packet) -> None:
        self.objects.append(packet)


class TestMovingThePacket:
    def marked_packet(self, pool, group, n):
        packet = pool.acquire(
            source=NodeAddress(99),
            destination=group,
            size_bytes=576,
            headers={COMPONENT_HEADER: 1000 + n, "seq": n},
        )
        packet.ecn = True  # as if a congested queue upstream had marked it
        return packet

    @pytest.mark.parametrize("scrambled", [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}])
    def test_scrambler_writes_never_cross_between_moved_packet_and_replicas(self, scrambled):
        """Branch 2 (the last) carries the moved packet, 0 and 1 carry replicas."""
        sim, router, service, hosts, group = build_fanout()
        scrambler = EcnComponentScrambler(rng=random.Random(7))
        targets = {hosts[i] for i in scrambled}
        router.local_delivery_hook = (
            lambda packet, link: scrambler(packet, link) if link.dst in targets else None
        )
        recorders = [Recorder() for _ in hosts]
        for host, recorder in zip(hosts, recorders):
            host.register_group_agent(group, recorder)
        for n in range(10):
            router.receive(self.marked_packet(service.packet_pool, group, n), None)
            sim.run()
        for index, recorder in enumerate(recorders):
            components = [s[COMPONENT_HEADER] for s in recorder.snapshots]
            genuine = [1000 + n for n in range(10)]
            if index in scrambled:
                assert all(got != real for got, real in zip(components, genuine))
                assert all(s["delta_component_scrambled"] for s in recorder.snapshots)
            else:
                assert components == genuine
                assert all("delta_component_scrambled" not in s for s in recorder.snapshots)
        assert scrambler.scrambled_packets == 10 * len(scrambled)

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
        assert not packet._owns_headers  # siblings share its headers now
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
                        (host.sim.now, host.name, packet.hop_count, packet.ecn,
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


FAST_CONFIG = PAPER_DEFAULTS.with_duration(6.0)


def pooled_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="zero-copy-monitor-determinism",
        protected=True,
        expected_sessions=2,
        sessions=(
            SessionDecl("mc1", receivers=2),
            SessionDecl("mc2", receivers=1, misbehaving=(0,), attack_start_s=2.0),
        ),
        duration_s=6.0,
        record_series=True,
        config=FAST_CONFIG,
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
        payload = pooled_spec().to_json()
        assert run_spec_json(payload) == run_spec_json(payload)
