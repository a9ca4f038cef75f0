"""Unicast route computation.

Routes are computed once the topology is built (and recomputed on demand if
links are added later).  The metric is propagation delay, which makes the
computed paths identical to the intuitive ones on every topology used in the
paper's evaluation (dumbbells and chains).  Dijkstra's algorithm over the
node/link graph fills per-node forwarding tables mapping destination address
to next-hop link.

Multicast trees are *derived* from these unicast routes by
:mod:`repro.simulator.multicast`: the distribution tree of a group is the
union of the unicast shortest paths from the current forwarding node to every
member host, which on single-source trees matches what a protocol like
PIM-SSM would build.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from .link import Link
from .node import Node

__all__ = ["compute_routes"]


def _adjacency(nodes: Iterable[Node]) -> Dict[str, List[Tuple[float, Link]]]:
    adjacency: Dict[str, List[Tuple[float, Link]]] = {}
    for node in nodes:
        edges = []
        for link in node.links.values():
            # Delay is the primary metric; a tiny bandwidth-derived term
            # breaks ties deterministically in favour of faster links.
            cost = link.delay_s + 1e-12 / link.bandwidth_bps
            edges.append((cost, link))
        adjacency[node.name] = edges
    return adjacency


def compute_routes(nodes: Iterable[Node]) -> None:
    """Populate every node's unicast forwarding table.

    Runs Dijkstra from each node.  The topologies in this reproduction have
    at most a few dozen nodes, so the quadratic cost is negligible.
    """
    node_list = list(nodes)
    adjacency = _adjacency(node_list)
    by_name = {node.name: node for node in node_list}

    for source in node_list:
        dist: Dict[str, float] = {source.name: 0.0}
        first_hop: Dict[str, Link] = {}
        heap: List[Tuple[float, str]] = [(0.0, source.name)]
        visited: set[str] = set()
        while heap:
            d, name = heapq.heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            for cost, link in adjacency[name]:
                neighbour = link.dst.name
                nd = d + cost
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    # The first hop from the source is either this link (when
                    # we are at the source) or inherited from the parent.
                    first_hop[neighbour] = link if name == source.name else first_hop[name]
                    heapq.heappush(heap, (nd, neighbour))
        source.routes = {
            int(by_name[dest_name].address): link
            for dest_name, link in first_hop.items()
        }
