"""Scenario construction: declarations in, network out.

:class:`Scenario` is the interpreter of the declaration layer
(:mod:`repro.experiments.spec`).  :meth:`Scenario.from_spec` builds the
topology a :class:`~repro.experiments.spec.ScenarioSpec` names and hands
each of its :class:`~repro.experiments.spec.SessionDecl`,
:class:`~repro.experiments.spec.TcpDecl` and
:class:`~repro.experiments.spec.CbrDecl` to one realise method apiece; a
declaration is read where it is realised and nowhere else, so a new
declaration field is one dataclass line plus its use here.

:meth:`Scenario.from_spec` is the only constructor: the network is a
:class:`~repro.simulator.topology.NetworkGraph` of the topology the spec
declares (the §5.1 dumbbell is one more topology), seeded from the spec's
``seed``.

Group management is installed on *every* receiver-side router of the
topology: an IGMP manager per router for the unprotected baseline, or one
SIGMA agent per router (sharing a single slot clock) for the protected
system — on multi-bottleneck topologies such as the parking lot, star and
binary tree, each edge router polices its own local receivers.

:meth:`Scenario.from_spec` realises each class of *interchangeable* receiver
edges (:func:`interchangeable_edges`) as one edge: the class's first edge in
topology order carries the rows of every edge of the class, and the other
edges and their links are not built.  Each declared host on such an edge is
still reported on its own (:attr:`MulticastSession.declared`), so the result
document is the one the edge-by-edge build gives.  ``Scenario.from_spec(spec,
())`` builds every edge, which makes it the reference.

The scenario exposes the created senders/receivers/connections so experiments
and tests can interrogate throughput monitors, SIGMA statistics and level
histories after :meth:`run`.
"""

from __future__ import annotations

import io
import itertools
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import code_digest
from ..adversary.receivers import StrategyStack
from ..adversary.registry import ADVERSARIES, build_strategies
from ..adversary.spec import AttackSpec
from ..core.sigma import SigmaRouterAgent
from ..core.timeslot import SlotClock
from ..multicast_cc import (
    FlidDlReceiver,
    FlidDlSender,
    FlidDsReceiver,
    FlidDsSender,
    SessionSpec,
)
from ..multicast_cc.population import split_counts
from ..multicast_cc.receiver_base import LayeredReceiverBase
from ..multicast_cc.sender_base import LayeredSenderBase
from ..simulator.igmp import IgmpGroupManager, install_igmp
from ..simulator.monitors import OverheadAccumulator
from ..simulator.node import Host
from ..simulator.topology import NetworkGraph
from ..transport.cbr import CbrSink, OnOffCbrSource
from ..transport.tcp import TcpConnection
from .spec import CbrDecl, CohortDecl, ScenarioSpec, SessionDecl, TcpDecl

#: The only non-``repro`` globals a checkpoint names: bound methods pickle as
#: ``getattr(obj, name)``; links, the address counter and RNG streams hold the rest.
_CHECKPOINT_STDLIB = {
    ("builtins", "getattr"), ("collections", "deque"), ("itertools", "count"), ("random", "Random")
}


class _CheckpointUnpickler(pickle.Unpickler):
    """Resolves only the globals a checkpoint legitimately names.

    A ``ck_*.pkl`` blob comes from a directory the daemon shares with its
    clients.  It may name :data:`_CHECKPOINT_STDLIB` and the classes and
    functions ``repro`` *defines* (not what a ``repro`` module imports), and
    its ``getattr`` refuses dunder names, the step from a function to its
    module's globals; anything else raises before it runs.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _CHECKPOINT_STDLIB:
            found = super().find_class(module, name)
            return _checkpoint_getattr if found is getattr else found
        if module == "repro" or module.startswith("repro."):
            found = super().find_class(module, name)
            home = getattr(found, "__module__", None) or ""
            if home == "repro" or home.startswith("repro."):
                return found
        raise pickle.UnpicklingError(f"checkpoint names a disallowed global {module}.{name}")


def _checkpoint_getattr(obj: Any, name: str) -> Any:
    """``getattr`` as a checkpoint may call it: never for a dunder attribute."""
    if name.startswith("__"):
        raise pickle.UnpicklingError(f"checkpoint reaches for attribute {name!r}")
    return getattr(obj, name)


__all__ = ["MulticastSession", "Scenario", "interchangeable_edges"]

#: A receiver host to build: its name, its router (``None``: round-robin over
#: the receiver edges) and the member counts of the rows it stands for.
HostRows = Tuple[str, Optional[str], Sequence[int]]


def _block_hosts(
    edges: Sequence[str], session_id: str, c_index: int, cohort: CohortDecl
) -> List[HostRows]:
    """Every receiver host of one population block over the receiver ``edges``.

    Every placement builds the same receiver; ``cohort.model`` decides
    how many hosts carry the block and how many members each stands for:

    * ``"individual"`` — ``count`` hosts of one member each (the
      reference realisation the equivalence tests compare against);
    * ``"cohort"`` — one host carrying every row of the as-even split
      when the block is honest and its rows share a router (pinned, or
      the topology's only receiver edge): such rows would receive the
      same packets at the same instants and decide alike.  Otherwise
      one host per row: an attacking row's strategy stack draws from
      its own host-named stream, and unpinned rows spread round-robin
      across several edges;
    * ``"vector"`` — one host per receiver edge router (or the pinned
      ``cohort.router``), carrying the rows spread round-robin across
      the edges.
    """
    hosts: List[HostRows] = []
    if cohort.model == "individual":
        for member in range(cohort.count):
            hosts.append(
                (f"{session_id}-pop{c_index + 1}-rx{member + 1}", cohort.router, (1,))
            )
    elif cohort.model == "vector":
        counts = split_counts(cohort.count, cohort.cohorts or 1)
        spread = [cohort.router] if cohort.router is not None else list(edges)
        for e_index, edge in enumerate(spread):
            # Row k of the split lands on edge k mod E; edges left
            # without a row get no receiver.
            rows = tuple(counts[e_index :: len(spread)])
            if rows:
                hosts.append((f"{session_id}-vec{c_index + 1}-{e_index + 1}", edge, rows))
    else:
        counts = tuple(split_counts(cohort.count, cohort.cohorts or 1))
        name = f"{session_id}-cohort{c_index + 1}"
        shared = cohort.router is not None or len(edges) == 1
        if len(counts) == 1 or (cohort.attack is None and shared):
            hosts.append((name, cohort.router, counts))
        else:
            hosts.extend(
                (f"{name}-{k + 1}", cohort.router, (members,))
                for k, members in enumerate(counts)
            )
    return hosts


def interchangeable_edges(spec: ScenarioSpec) -> Tuple[Tuple[str, ...], ...]:
    """The classes of receiver edges of ``spec`` that one edge can stand for.

    Edges are interchangeable when every one of them

    * is a leaf hanging off the same parent router by a link of the same
      orientation, bandwidth, delay and buffer (access links are the
      topology's, the same for every vector host);
    * has the same population blocks behind it — only the member counts
      of their rows may differ — and each is a ``model="vector"`` block
      whose strategy, if any, is :attr:`~repro.adversary.strategy.AttackStrategy.interchangeable`
      (a vector block cannot churn);
    * has no individual receiver, no cohort- or individual-model host and
      no sender, TCP or CBR endpoint behind it.

    Such edges see the same packets at the same instants and decide alike,
    so one edge carrying all their rows books every member-weighted counter
    the class would.  The regions of a ``shards`` spec record a membership
    log that names every host in its boundary digest, so none of its edges
    is interchangeable (a region job builds every edge itself:
    :func:`~repro.experiments.runner.run_job`).  Returns each class of two or
    more edges in topology order; its first edge is the one built.
    """
    if spec.shards is not None:
        return ()
    topology = spec.network_topology
    edges = topology.receiver_routers
    cursor = itertools.count()

    def place(router: Optional[str]) -> str:
        return edges[next(cursor) % len(edges)] if router is None else router

    # Edge -> (session, block) of every block behind it, in placement order.
    blocks: Dict[str, List[Tuple[int, int]]] = {edge: [] for edge in edges}
    held: Set[Optional[str]] = set(topology.sender_routers)
    for s_index, decl in enumerate(spec.sessions):
        held.update(place(router) for router in decl.receiver_routers or [None] * decl.receivers)
        for c_index, cohort in enumerate(decl.population):
            alike = cohort.model == "vector" and (
                cohort.attack is None or ADVERSARIES[cohort.attack.strategy].interchangeable
            )
            for _name, router, _rows in _block_hosts(edges, decl.session_id, c_index, cohort):
                if alike:
                    blocks[place(router)].append((s_index, c_index))
                else:
                    held.add(place(router))
    for unicast in (*spec.tcp, *spec.cbr):
        held.update((place(unicast.receiver_router), unicast.sender_router))

    # Router -> (neighbour, whether the router is the link's ``b`` end, link
    # numbers) of each of its links: a leaf edge has exactly one.
    links: Dict[str, List[Tuple[Any, ...]]] = {}
    for link in topology.links:
        numbers = (link.bandwidth_bps, link.delay_s, link.buffer_bytes, link.buffer_bdp_multiple)
        links.setdefault(link.a, []).append((link.b, False, *numbers))
        links.setdefault(link.b, []).append((link.a, True, *numbers))
    classes: Dict[Tuple[Any, ...], List[str]] = {}
    for edge in edges:
        if edge not in held and len(links.get(edge, ())) == 1:
            classes.setdefault((*links[edge], *blocks[edge]), []).append(edge)
    return tuple(tuple(members) for members in classes.values() if len(members) > 1)


@dataclass
class MulticastSession:
    """Handles to one multicast session created by the scenario builder.

    ``receivers`` lists the live receiver *objects* — one appears once
    however many members it stands for; metric code weights each by its
    ``population``.
    """

    spec: SessionSpec
    protected: bool
    sender: LayeredSenderBase
    receivers: List[LayeredReceiverBase] = field(default_factory=list)
    overhead: Optional[OverheadAccumulator] = None
    #: Per declaration group — the individuals, then each
    #: ``SessionDecl.population`` block in declaration order — one
    #: ``(receiver, rows)`` entry per declared host: the live receiver
    #: realising it and, when that receiver carries a whole class of
    #: interchangeable edges, the member counts of this edge's own rows
    #: (``None``: the receiver's own, live rows).  How many hosts a block
    #: declares depends on its placement (``count`` for individuals, one for
    #: an honest cohort block however many rows it splits into, one per row
    #: for an attacking one, one per edge router for vector blocks), so
    #: downstream code maps declarations to receivers through these groups
    #: rather than re-deriving the arithmetic.  A class's receiver appears
    #: once per edge of the class, which is how metric code reports the
    #: class edge by edge.
    declared: List[List[Tuple[LayeredReceiverBase, Optional[Tuple[int, ...]]]]] = field(
        default_factory=list
    )

    @property
    def receiver(self) -> LayeredReceiverBase:
        """The session's first (often only) receiver."""
        return self.receivers[0]

    @property
    def total_population(self) -> int:
        """End systems served by the session across all receivers."""
        return sum(receiver.population for receiver in self.receivers)


class Scenario:
    """One experiment: a topology graph plus a configurable traffic mix.

    Build one with :meth:`from_spec`.
    """

    def __init__(self, spec: ScenarioSpec, edge_classes: Sequence[Sequence[str]]) -> None:
        """The network of ``spec`` with its group management, no traffic yet."""
        protected = self.protected = spec.protected
        #: What :meth:`run` defaults to: the duration of the spec the
        #: scenario was built from or last rebound to (:meth:`rebind_spec`).
        self.duration_s = spec.duration_s
        topology = spec.network_topology
        #: The declared receiver edges, built or not: placement spreads over
        #: these, in topology order.
        self.receiver_edges = topology.receiver_routers
        #: First edge -> all edges (itself first) of every class of
        #: interchangeable edges built as its first edge alone.
        self.edge_classes: Dict[str, Tuple[str, ...]] = {
            members[0]: tuple(members) for members in edge_classes
        }
        self._built_edge = {
            edge: members[0] for members in edge_classes for edge in members
        }
        self._receiver_cursor = 0
        self.network = NetworkGraph(
            topology.without_routers(
                {edge for members in edge_classes for edge in members[1:]}
            ),
            seed=spec.seed,
        )
        self.sessions: List[MulticastSession] = []
        self.tcp_connections: List[TcpConnection] = []
        self.cbr_sources: List[OnOffCbrSource] = []
        self.cbr_sinks: List[CbrSink] = []
        self.sigma_agents: List[SigmaRouterAgent] = []
        self.igmp_managers: List[IgmpGroupManager] = []
        self.slot_clock: Optional[SlotClock] = None
        # Always None: read by benchmarks/e2e/traced.py until ROADMAP.md item 2.
        self.population_table: None = None
        self._next_port = 5000

        #: The slot length of every session's protocol.
        self.slot_duration_s = spec.slot_duration_s
        if protected:
            # One slot clock drives every edge agent so all receiver-side
            # routers revoke/grant on the same slot boundaries (§3.2).
            self.slot_clock = SlotClock(self.network.sim, self.slot_duration_s)
            for router in self.network.receiver_edge_routers:
                self.sigma_agents.append(
                    SigmaRouterAgent(router, self.network.multicast, self.slot_clock)
                )
            self.slot_clock.start()
        else:
            for router in self.network.receiver_edge_routers:
                self.igmp_managers.append(install_igmp(router, self.network.multicast))

    @property
    def sigma(self) -> Optional[SigmaRouterAgent]:
        """The first (on a dumbbell: the only) SIGMA edge agent."""
        return self.sigma_agents[0] if self.sigma_agents else None

    # ------------------------------------------------------------------
    # declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: ScenarioSpec, edge_classes: Optional[Sequence[Sequence[str]]] = None
    ) -> "Scenario":
        """Realise a declarative :class:`ScenarioSpec` into a live scenario.

        Each class of ``edge_classes`` (by default the classes
        :func:`interchangeable_edges` finds in ``spec``) is built as its
        first edge, carrying the rows of every edge of the class; ``()``
        builds every edge, the reference the classes are checked against.
        """
        if edge_classes is None:
            edge_classes = interchangeable_edges(spec)
        scenario = cls(spec, edge_classes)
        for session in spec.sessions:
            scenario._realise_session(session)
        for tcp in spec.tcp:
            scenario._realise_tcp(tcp)
        for cbr in spec.cbr:
            scenario._realise_cbr(cbr)
        return scenario

    # ------------------------------------------------------------------
    # multicast sessions
    # ------------------------------------------------------------------
    def _realise_session(self, decl: SessionDecl) -> None:
        """Create one declared session: its sender, then every receiver.

        Individual receivers and population blocks go through one placement
        loop: the individuals first (one member each, with their own start
        time, access delay, router and attack stack), then each block at
        the placement its ``model`` names (:func:`_block_hosts`), in
        declaration order.  A block's hosts on the edges of one class of
        interchangeable edges become one host, on the class's first edge,
        carrying all their rows.
        """
        session_id = decl.session_id
        spec = SessionSpec(
            session_id,
            group_count=decl.group_count,
            slot_duration_s=self.slot_duration_s,
            group_addresses=tuple(self.network.allocate_groups(decl.group_count)),
        )
        overhead = OverheadAccumulator() if decl.track_overhead else None

        sender_class, receiver_class, protocol = self._protocol(decl)
        sender: LayeredSenderBase = sender_class(
            self.network,
            self.network.add_sender(f"{session_id}-src"),
            spec,
            overhead=overhead,
            suppress_unsubscribed_groups=decl.suppress_unsubscribed_groups,
            **protocol,
        )
        session = MulticastSession(
            spec=spec, protected=self.protected, sender=sender, overhead=overhead
        )
        individual_attacks, block_attacks = self._declared_attacks(decl)
        count = decl.receivers
        start_times = decl.receiver_start_times or [0.0] * count
        access_delays = decl.receiver_access_delays or [None] * count
        routers = decl.receiver_routers or [None] * count
        #: One entry per receiver object to create: host name, router, the
        #: rows it stands for, its attacks, start time, access delay, churn.
        placements: List[List[Any]] = [
            [
                f"{session_id}-rx{index + 1}",
                self._place(routers[index]),
                [1],
                individual_attacks.get(index, ()),
                start_times[index],
                access_delays[index],
                None,
            ]
            for index in range(count)
        ]
        #: Per declaration group, (placement index, own rows) per declared host.
        declared: List[List[Tuple[int, Optional[Tuple[int, ...]]]]] = [
            [(index, None) for index in range(count)]
        ]
        for c_index, (cohort, attacks) in enumerate(zip(decl.population, block_attacks)):
            group: List[Tuple[int, Optional[Tuple[int, ...]]]] = []
            #: Built edge -> the placement carrying its class's rows.
            carriers: Dict[str, int] = {}
            for host_name, router, rows in _block_hosts(
                self.receiver_edges, session_id, c_index, cohort
            ):
                edge = self._place(router)
                built = self._built_edge.get(edge)
                if built in carriers:
                    placements[carriers[built]][2].extend(rows)
                    group.append((carriers[built], tuple(rows)))
                    continue
                if built is not None:
                    # The class's first edge comes first: its host carries the class.
                    carriers[built] = len(placements)
                group.append((len(placements), None if built is None else tuple(rows)))
                placements.append(
                    [host_name, edge, list(rows), attacks, cohort.start_s, None, cohort.churn]
                )
            declared.append(group)
        for host_name, router, rows, attacks, start_s, access_delay_s, churn in placements:
            host = self.network.add_receiver(
                host_name, access_delay_s=access_delay_s, router=router
            )
            receiver = receiver_class(
                self.network,
                host,
                spec,
                counts=rows,
                strategies=self._strategy_stack(spec, host_name, attacks),
                churn=churn,
                **protocol,
            )
            session.receivers.append(receiver)
            receiver.start(start_s)
        session.declared = [
            [(session.receivers[index], rows) for index, rows in group] for group in declared
        ]
        sender.start()
        self.sessions.append(session)

    def _place(self, router: Optional[str]) -> str:
        """The declared edge a receiver host attaches to.

        ``router``, or the next receiver edge round-robin; every receiver
        host, TCP and CBR sink takes its turn, built edge or not.
        """
        if router is None:
            router = self.receiver_edges[self._receiver_cursor % len(self.receiver_edges)]
            self._receiver_cursor += 1
        return router

    def _declared_attacks(
        self, decl: SessionDecl
    ) -> Tuple[Dict[int, List[AttackSpec]], List[Tuple[AttackSpec, ...]]]:
        """What ``decl`` mounts where: by individual index, and per block.

        Each individual receiver stacks its attacks in declaration order
        (their target indices were range-checked when ``decl`` was
        declared).  A population block mounts its own ``attack`` on every
        member.
        """
        individuals: Dict[int, List[AttackSpec]] = {}
        for attack in decl.attacks:
            for index in attack.receivers:
                individuals.setdefault(index, []).append(attack)
        blocks = [
            (cohort.attack,) if cohort.attack is not None else ()
            for cohort in decl.population
        ]
        return individuals, blocks

    def _strategy_stack(
        self, spec: SessionSpec, host_name: str, attacks: Sequence[AttackSpec]
    ) -> Optional[StrategyStack]:
        """The stack realising ``attacks`` on one host (None when honest)."""
        if not attacks:
            return None
        return StrategyStack(
            build_strategies(list(attacks), self.network, spec, host_name)
        )

    def _protocol(self, decl: SessionDecl) -> Tuple[type, type, Dict[str, Any]]:
        """``decl``'s sender class, receiver class and their extra keywords."""
        if self.protected:
            return FlidDsSender, FlidDsReceiver, {"key_bits": decl.key_bits}
        return FlidDlSender, FlidDlReceiver, {}

    # ------------------------------------------------------------------
    # unicast traffic
    # ------------------------------------------------------------------
    def _unicast_endpoints(
        self, decl: Union[TcpDecl, CbrDecl]
    ) -> Tuple[Host, Host, int]:
        """Source host, sink host and port for one declared TCP/CBR flow."""
        source = self.network.add_sender(f"{decl.name}-src", router=decl.sender_router)
        sink = self.network.add_receiver(
            f"{decl.name}-dst", router=self._place(decl.receiver_router)
        )
        port = self._next_port
        self._next_port += 1
        return source, sink, port

    def _realise_tcp(self, decl: TcpDecl) -> None:
        """Create one declared TCP Reno connection crossing the topology."""
        source, sink_host, port = self._unicast_endpoints(decl)
        connection = TcpConnection.create(
            source,
            sink_host,
            port=port,
            name=decl.name,
        )
        connection.start(decl.start_s)
        self.tcp_connections.append(connection)

    def _realise_cbr(self, decl: CbrDecl) -> None:
        """Create one declared on-off CBR session crossing the topology."""
        source_host, sink_host, port = self._unicast_endpoints(decl)
        sink = CbrSink(sink_host, port, name=f"{decl.name}-sink")
        source = OnOffCbrSource(
            source_host,
            sink_host,
            port,
            rate_bps=decl.rate_bps,
            on_s=decl.on_s,
            off_s=decl.off_s,
            active_window=decl.active_window,
            name=decl.name,
        )
        source.start()
        self.cbr_sources.append(source)
        self.cbr_sinks.append(sink)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, duration_s: Optional[float] = None) -> None:
        """Build routes and run to ``duration_s`` (default: :attr:`duration_s`)."""
        self.network.run(self.duration_s if duration_s is None else duration_s)

    # ------------------------------------------------------------------
    # checkpoint / warm-start
    # ------------------------------------------------------------------
    def run_to_barrier(self, barrier_s: float) -> None:
        """Run the simulation strictly *up to* a slot barrier (exclusive).

        Events scheduled at exactly ``barrier_s`` stay queued and fire first
        when the scenario is resumed, so ``run_to_barrier(b)`` followed by
        ``run(d)`` executes exactly the event sequence of a cold ``run(d)``.
        The clock still advances to ``barrier_s`` even if the queues drain
        early, matching :meth:`~repro.simulator.engine.Simulator.run`.
        """
        self.network.ensure_routes()
        self.network.sim.run(until=barrier_s, inclusive=False)

    def checkpoint(self) -> bytes:
        """Serialise the complete live simulation state into one blob.

        Every piece of mutable state — the event heap, timer groups, link
        backlogs, named RNG streams, SIGMA/IGMP agents, monitors and
        receivers — hangs off this object graph, and every scheduled
        callable is a named bound method, so a single pickle captures the
        full simulation.  Rebuild with :meth:`restore`.
        """
        return pickle.dumps((code_digest(), self), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "Scenario":
        """Rebuild a checkpointed scenario from :meth:`checkpoint` output.

        Raises :class:`ValueError` when :func:`repro.code_digest` of other
        code stamps the blob (a worker spawned after a source edit reads one
        its planner addressed) and :class:`pickle.UnpicklingError`
        when it names a global outside :class:`_CheckpointUnpickler`'s
        allow-list; callers treat both as a cache miss.
        """
        payload = _CheckpointUnpickler(io.BytesIO(blob)).load()
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or payload[0] != code_digest()
            or not isinstance(payload[1], cls)
        ):
            raise ValueError("incompatible scenario checkpoint")
        return payload[1]

    def rebind_spec(self, spec: ScenarioSpec) -> None:
        """Swap a restored prefix's placeholder declarations for ``spec``'s.

        A warm-start prefix runs with canonical placeholder attacks and
        churn processes that are inert before the barrier (see
        :mod:`repro.experiments.warmstart`), so divergent grid cells share
        one checkpoint.  Rebinding is exact: strategy RNG stream names
        depend only on (session, host, attack index, strategy) and a
        zero-draw stream equals a freshly created one, while churned blocks
        keep their initial-population booking because an inert process never
        changed the population before the barrier.
        """
        self.duration_s = spec.duration_s
        for decl, session in zip(spec.sessions, self.sessions):
            individual_attacks, block_attacks = self._declared_attacks(decl)
            for r_index, attacks in individual_attacks.items():
                receiver = session.receivers[r_index]
                receiver.rebind(
                    self._strategy_stack(session.spec, receiver.host.name, attacks)
                )
            for cohort, attacks, group in zip(
                decl.population, block_attacks, session.declared[1:]
            ):
                # A receiver carrying a class of edges is declared once per edge.
                for receiver in dict.fromkeys(receiver for receiver, _ in group):
                    receiver.rebind(
                        self._strategy_stack(session.spec, receiver.host.name, attacks),
                        cohort.churn,
                    )
