"""Tests of the declarative topology layer: specs, factories, NetworkGraph."""

import pytest

from repro.simulator import (
    TOPOLOGIES,
    LinkSpec,
    NetworkGraph,
    TopologySpec,
    binary_tree_topology,
    build_topology,
    dumbbell_topology,
    multi_edge_dumbbell_topology,
    parking_lot_topology,
    sharded_dumbbell_topology,
    star_topology,
)
from repro.simulator.link import default_buffer_bytes
from repro.simulator.queues import DropTailQueue


def route_path(src, dst):
    """The nodes a unicast packet from ``src`` to ``dst`` visits, hop by hop."""
    path = [src]
    while path[-1] is not dst:
        path.append(path[-1].route_for(dst.address).dst)
    return path


class TestTopologySpecValidation:
    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            TopologySpec(
                kind="bad",
                routers=("a",),
                links=(LinkSpec("a", "b", 1e6, 0.01),),
                sender_routers=("a",),
                receiver_routers=("a",),
            )

    def test_unknown_attachment_router_rejected(self):
        with pytest.raises(ValueError, match="attachment router"):
            TopologySpec(
                kind="bad",
                routers=("a", "b"),
                links=(LinkSpec("a", "b", 1e6, 0.01),),
                sender_routers=("a",),
                receiver_routers=("c",),
            )

    def test_duplicate_router_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TopologySpec(
                kind="bad",
                routers=("a", "a"),
                links=(),
                sender_routers=("a",),
                receiver_routers=("a",),
            )


class TestFactories:
    def test_registry_names(self):
        assert set(TOPOLOGIES) == {
            "dumbbell",
            "parking-lot",
            "star",
            "binary-tree",
            "multi-edge-dumbbell",
            "sharded-dumbbell",
        }

    def test_dumbbell_factory_sizes_its_bottleneck(self):
        spec = dumbbell_topology(bottleneck_bandwidth_bps=2e6)
        assert spec.routers == ("left", "right")
        assert len(spec.links) == 1
        assert spec.links[0].bandwidth_bps == 2e6
        # Two BDPs of the 80 ms path round trip: 2 * 2 Mbps * 0.08 s / 8.
        assert spec.links[0].buffer_bytes == 40_000
        assert (spec.access_bandwidth_bps, spec.access_delay_s) == (10_000_000.0, 0.010)

    def test_dumbbell_default_is_one_fair_share(self):
        (link,) = dumbbell_topology().links
        assert (link.bandwidth_bps, link.delay_s) == (250_000.0, 0.020)
        assert link.buffer_bytes == 4 * 1600  # the floor: 2 BDPs are 5000 bytes

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(bandwidth_bps=float("nan")), "bandwidth_bps must be a finite number > 0"),
            (dict(bandwidth_bps=float("inf")), "bandwidth_bps must be a finite number > 0"),
            (dict(bandwidth_bps=0.0), "bandwidth_bps must be a finite number > 0"),
            (dict(bandwidth_bps=-1e6), "bandwidth_bps must be a finite number > 0"),
            (dict(delay_s=float("nan")), "delay_s must be a finite number >= 0"),
            (dict(delay_s=-0.01), "delay_s must be a finite number >= 0"),
        ],
    )
    def test_link_spec_refuses_impossible_links(self, kwargs, match):
        fields = {"a": "x", "b": "y", "bandwidth_bps": 1e6, "delay_s": 0.01, **kwargs}
        with pytest.raises(ValueError, match=f"link 'x'-'y': {match}"):
            LinkSpec(**fields)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0, -5.0])
    def test_factories_refuse_an_impossible_bottleneck(self, bandwidth):
        """A NaN used to die in the buffer arithmetic, not at the link."""
        with pytest.raises(ValueError, match="bandwidth_bps must be a finite number > 0"):
            dumbbell_topology(bottleneck_bandwidth_bps=bandwidth)
        with pytest.raises(ValueError, match="bandwidth_bps must be a finite number > 0"):
            parking_lot_topology(bottleneck_bandwidth_bps=bandwidth)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(access_bandwidth_bps=0.0), "'dumbbell': access_bandwidth_bps must be a finite"),
            (dict(access_delay_s=float("nan")), "'dumbbell': access_delay_s must be a finite"),
            (dict(access_delay_s=-0.01), "'dumbbell': access_delay_s must be a finite"),
            (dict(buffer_bdp_multiple=float("nan")), "buffer_bdp_multiple must be a finite"),
        ],
    )
    def test_factories_refuse_impossible_access_links_and_buffers(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            dumbbell_topology(**kwargs)

    def test_parking_lot_shape(self):
        spec = parking_lot_topology(hops=4)
        assert len(spec.routers) == 5
        assert len(spec.links) == 4
        assert spec.sender_routers == ("r0",)
        assert spec.receiver_routers == ("r1", "r2", "r3", "r4")

    def test_star_shape(self):
        spec = star_topology(arms=3)
        assert spec.routers == ("core", "arm1", "arm2", "arm3")
        assert all(link.a == "core" for link in spec.links)
        assert spec.receiver_routers == ("arm1", "arm2", "arm3")

    def test_binary_tree_shape(self):
        spec = binary_tree_topology(depth=3)
        assert len(spec.routers) == 7  # 2^3 - 1
        assert len(spec.links) == 6
        assert spec.sender_routers == ("t0",)
        assert spec.receiver_routers == ("t3", "t4", "t5", "t6")  # the leaves

    def test_multi_edge_dumbbell_shape(self):
        spec = multi_edge_dumbbell_topology(edges=3)
        assert spec.routers == ("left", "core", "edge1", "edge2", "edge3")
        assert len(spec.links) == 4  # bottleneck + one fat link per edge
        assert spec.sender_routers == ("left",)
        assert spec.receiver_routers == ("edge1", "edge2", "edge3")
        bottleneck = spec.links[0]
        assert {bottleneck.a, bottleneck.b} == {"left", "core"}
        # The fan-out links must never be the scarce resource.
        assert all(
            link.bandwidth_bps > bottleneck.bandwidth_bps for link in spec.links[1:]
        )

    def test_build_topology_by_name(self):
        assert build_topology("star", arms=2).kind == "star"
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("moebius")

    def test_factory_parameter_validation(self):
        with pytest.raises(ValueError):
            parking_lot_topology(hops=0)
        with pytest.raises(ValueError):
            binary_tree_topology(depth=1)
        with pytest.raises(ValueError):
            star_topology(arms=0)


class TestNetworkGraph:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_every_link_queues_drop_tail_at_its_declared_buffer(self, kind):
        """Both directions of every declared link get a drop-tail queue of
        the link's buffer (two bandwidth-delay products when unset)."""
        spec = build_topology(kind)
        graph = NetworkGraph(spec)
        assert len(graph.links) == 2 * len(spec.links)
        for declared, forward, backward in zip(spec.links, graph.links[::2], graph.links[1::2]):
            assert (forward.src.name, forward.dst.name) == (declared.a, declared.b)
            assert (backward.src.name, backward.dst.name) == (declared.b, declared.a)
            expected = declared.buffer_bytes or default_buffer_bytes(
                declared.bandwidth_bps, declared.delay_s, declared.buffer_bdp_multiple
            )
            for link in (forward, backward):
                assert type(link.queue) is DropTailQueue
                assert link.queue.capacity_bytes == expected

    def test_round_robin_receiver_placement(self):
        graph = NetworkGraph(star_topology(arms=3))
        receivers = [graph.add_receiver() for _ in range(4)]
        edges = [host.edge_router.name for host in receivers]
        assert edges == ["arm1", "arm2", "arm3", "arm1"]

    def test_explicit_router_placement(self):
        graph = NetworkGraph(parking_lot_topology(hops=3))
        host = graph.add_receiver(router="r2")
        assert host.edge_router.name == "r2"

    def test_sender_to_receiver_path_spans_the_chain(self):
        graph = NetworkGraph(parking_lot_topology(hops=3))
        sender = graph.add_sender()
        receiver = graph.add_receiver(router="r3")
        graph.build_routes()
        path = [node.name for node in route_path(sender, receiver)]
        assert path == [sender.name, "r0", "r1", "r2", "r3", receiver.name]

    def test_tree_path_descends_from_root(self):
        graph = NetworkGraph(binary_tree_topology(depth=3))
        sender = graph.add_sender()
        receiver = graph.add_receiver(router="t6")
        graph.build_routes()
        path = [node.name for node in route_path(sender, receiver)]
        assert path == [sender.name, "t0", "t2", "t6", receiver.name]

    def test_receiver_edge_routers(self):
        graph = NetworkGraph(star_topology(arms=2))
        assert [router.name for router in graph.receiver_edge_routers] == ["arm1", "arm2"]
        assert graph.edge_router.name == "arm1"

    def test_dumbbell_network_is_left_bottleneck_right(self):
        network = NetworkGraph(dumbbell_topology())
        assert network.spec.kind == "dumbbell"
        left, right = network.router("left"), network.router("right")
        assert [(link.src, link.dst) for link in network.links] == [
            (left, right),
            (right, left),
        ]
        assert network.find_link(left, right).bandwidth_bps == 250_000.0
        assert network.edge_router is right


class TestTopologyRegions:
    """Region annotations: the sharded runner's partitioning contract."""

    def _spec(self, regions):
        return TopologySpec(
            kind="regioned",
            routers=("left", "core1", "edge1", "core2", "edge2"),
            links=(
                LinkSpec("left", "core1", 1e6, 0.01),
                LinkSpec("core1", "edge1", 1e7, 0.005),
                LinkSpec("left", "core2", 1e6, 0.01),
                LinkSpec("core2", "edge2", 1e7, 0.005),
            ),
            sender_routers=("left",),
            receiver_routers=("edge1", "edge2"),
            regions=regions,
        )

    def test_region_of(self):
        spec = self._spec((("core1", "edge1"), ("core2", "edge2")))
        assert spec.region_of("edge1") == 0
        assert spec.region_of("core2") == 1
        assert spec.region_of("left") is None  # trunk

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="cannot be empty"):
            self._spec((("core1", "edge1"), ()))

    def test_unknown_region_router_rejected(self):
        with pytest.raises(ValueError, match="not in the spec"):
            self._spec((("core1", "ghost"),))

    def test_duplicate_region_membership_rejected(self):
        with pytest.raises(ValueError, match="appears in two regions"):
            self._spec((("core1", "edge1"), ("edge1", "core2")))

    def test_sender_router_in_region_rejected(self):
        with pytest.raises(ValueError, match="must sit on the trunk"):
            self._spec((("left", "core1"),))

    def test_cross_region_link_rejected(self):
        with pytest.raises(ValueError, match="crosses two regions"):
            TopologySpec(
                kind="bad",
                routers=("left", "core1", "core2"),
                links=(
                    LinkSpec("left", "core1", 1e6, 0.01),
                    LinkSpec("core1", "core2", 1e6, 0.01),
                ),
                sender_routers=("left",),
                receiver_routers=("core1", "core2"),
                regions=(("core1",), ("core2",)),
            )


class TestShardedDumbbellFactory:
    def test_full_build_shape(self):
        spec = sharded_dumbbell_topology(regions=3, edges_per_region=2)
        assert spec.kind == "sharded-dumbbell"
        assert len(spec.regions) == 3
        assert spec.sender_routers == ("left",)
        assert spec.receiver_routers == (
            "edge1-1", "edge1-2", "edge2-1", "edge2-2", "edge3-1", "edge3-2",
        )
        # one cut link per region: left <-> core{r}
        cuts = [
            link for link in spec.links
            if "left" in (link.a, link.b) and "core" in link.a + link.b
        ]
        assert len(cuts) == 3

    def test_receiver_routers_are_region_contiguous(self):
        spec = sharded_dumbbell_topology(regions=3, edges_per_region=2)
        order = [spec.region_of(edge) for edge in spec.receiver_routers]
        assert order == sorted(order)

    def test_region_sub_build_matches_full_build(self):
        """The region sub-topology reuses the full build's names and links."""
        full = sharded_dumbbell_topology(regions=3, edges_per_region=2)
        full_links = {
            frozenset((link.a, link.b)): link for link in full.links
        }
        for region in (1, 2, 3):
            sub = sharded_dumbbell_topology(
                regions=3, edges_per_region=2, region=region
            )
            assert len(sub.regions) == 1
            assert sub.regions[0] == full.regions[region - 1]
            assert sub.receiver_routers == tuple(
                edge for edge in full.receiver_routers
                if full.region_of(edge) == region - 1
            )
            for link in sub.links:
                assert full_links[frozenset((link.a, link.b))] == link

    def test_region_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="region must be in 1..4"):
            sharded_dumbbell_topology(region=5)

    def test_registered(self):
        spec = build_topology("sharded-dumbbell", regions=2, edges_per_region=2)
        assert len(spec.regions) == 2
