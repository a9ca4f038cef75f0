"""Scenario construction: declarations in, network out.

:class:`Scenario` is the interpreter of the declaration layer
(:mod:`repro.experiments.spec`).  :meth:`Scenario.from_spec` builds the
topology a :class:`~repro.experiments.spec.ScenarioSpec` names and hands
each of its :class:`~repro.experiments.spec.SessionDecl`,
:class:`~repro.experiments.spec.TcpDecl` and
:class:`~repro.experiments.spec.CbrDecl` to one realise method apiece; a
declaration is read where it is realised and nowhere else, so a new
declaration field is one dataclass line plus its use here.

:meth:`~Scenario.add_multicast_session`, :meth:`~Scenario.add_tcp_connection`
and :meth:`~Scenario.add_onoff_cbr` are *declaration constructors*, not a
second API: each builds the corresponding declaration from its keyword
arguments (the declaration's own fields and defaults, auto-naming sessions
``mc<N>`` and connections ``tcp<N>``) and realises it on a scenario made
with ``Scenario(config, protected, …)`` — over the paper's dumbbell by
default, or any :class:`~repro.simulator.topology.TopologySpec`.

Group management is installed on *every* receiver-side router of the
topology: an IGMP manager per router for the unprotected baseline, or one
SIGMA agent per router (sharing a single slot clock) for the protected
system — on multi-bottleneck topologies such as the parking lot, star and
binary tree, each edge router polices its own local receivers.

The scenario exposes the created senders/receivers/connections so experiments
and tests can interrogate throughput monitors, SIGMA statistics and level
histories after :meth:`run`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..adversary.receivers import StrategyStack
from ..adversary.registry import build_strategies
from ..adversary.spec import AttackSpec
from ..core.sigma import SigmaConfig, SigmaRouterAgent
from ..core.timeslot import SlotClock
from ..multicast_cc import (
    FlidDlReceiver,
    FlidDlSender,
    FlidDsReceiver,
    FlidDsSender,
    PopulationTable,
    SessionSpec,
)
from ..multicast_cc.population import split_counts
from ..multicast_cc.receiver_base import LayeredReceiverBase
from ..multicast_cc.sender_base import LayeredSenderBase
from ..simulator.igmp import IgmpGroupManager, install_igmp
from ..simulator.monitors import OverheadAccumulator
from ..simulator.node import Host
from ..simulator.topology import (
    DumbbellConfig,
    DumbbellNetwork,
    NetworkGraph,
    TopologySpec,
    build_topology,
)
from ..transport.cbr import CbrSink, OnOffCbrSource
from ..transport.tcp import TcpConnection
from .config import ExperimentConfig
from .spec import CbrDecl, CohortDecl, ScenarioSpec, SessionDecl, TcpDecl

#: Stamped into every :meth:`Scenario.checkpoint` blob; bump whenever the
#: pickled state layout changes so stale blobs read as misses, never as state.
#: It is part of ``PrefixPlan.checkpoint_key``, so a bump leaves old blobs
#: unaddressed instead of counted as hits the worker then fails to unpickle.
CHECKPOINT_VERSION = 5

__all__ = ["MulticastSession", "Scenario"]


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
    #: Per population block, the half-open ``(start, stop)`` range of indices
    #: its realised receiver objects occupy in ``receivers`` — one entry per
    #: ``SessionDecl.population`` declaration, in declaration order.  How
    #: many objects a block realises as depends on its placement (``count``
    #: for individuals, ``cohorts`` for per-cohort objects, one per edge
    #: router for vector blocks), so downstream code maps declarations to
    #: objects through these slices rather than re-deriving the arithmetic.
    block_slices: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def receiver(self) -> LayeredReceiverBase:
        """The session's first (often only) receiver."""
        return self.receivers[0]

    @property
    def total_population(self) -> int:
        """End systems served by the session across all receivers."""
        return sum(receiver.population for receiver in self.receivers)


class Scenario:
    """One experiment: a topology graph plus a configurable traffic mix."""

    def __init__(
        self,
        config: ExperimentConfig,
        protected: bool,
        bottleneck_bps: Optional[float] = None,
        expected_sessions: int = 1,
        sigma_config: Optional[SigmaConfig] = None,
        topology: Optional[TopologySpec] = None,
        dumbbell_config: Optional[DumbbellConfig] = None,
    ) -> None:
        self.config = config
        self.protected = protected
        if topology is None:
            self.network: NetworkGraph = DumbbellNetwork(
                dumbbell_config or config.dumbbell(expected_sessions, bottleneck_bps)
            )
        else:
            self.network = NetworkGraph(topology, seed=config.seed)
        self.sessions: List[MulticastSession] = []
        self.tcp_connections: List[TcpConnection] = []
        self.cbr_sources: List[OnOffCbrSource] = []
        self.cbr_sinks: List[CbrSink] = []
        self.sigma_agents: List[SigmaRouterAgent] = []
        self.igmp_managers: List[IgmpGroupManager] = []
        self.slot_clock: Optional[SlotClock] = None
        #: Columnar population state shared by every vector block of the
        #: scenario (``None`` until the first ``model="vector"`` block).
        self.population_table: Optional[PopulationTable] = None
        self._next_port = 5000

        if protected:
            # One slot clock drives every edge agent so all receiver-side
            # routers revoke/grant on the same slot boundaries (§3.2).
            self.slot_clock = SlotClock(self.network.sim, config.flid_ds_slot_s)
            for router in self.network.receiver_edge_routers:
                self.sigma_agents.append(
                    SigmaRouterAgent(
                        router,
                        self.network.multicast,
                        self.slot_clock,
                        config=sigma_config,
                    )
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
    def from_spec(cls, spec: ScenarioSpec, sigma_config: Optional[SigmaConfig] = None) -> "Scenario":
        """Realise a declarative :class:`ScenarioSpec` into a live scenario."""
        params = dict(spec.topology_params)
        topology: Optional[TopologySpec] = None
        dumbbell_config = None
        if spec.topology == "dumbbell":
            # Dumbbells always go through DumbbellConfig (sized from fair
            # share × expected sessions) so parameter overrides — including
            # seed and graft/prune delays — reach the realised network.
            if params:
                dumbbell_config = spec.config.dumbbell(
                    spec.expected_sessions, spec.bottleneck_bps
                )
                for key, value in params.items():
                    if not hasattr(dumbbell_config, key):
                        raise TypeError(f"unknown dumbbell parameter {key!r}")
                    setattr(dumbbell_config, key, value)
        else:
            topology = build_topology(spec.topology, **params)
        scenario = cls(
            spec.config,
            spec.protected,
            bottleneck_bps=spec.bottleneck_bps,
            expected_sessions=spec.expected_sessions,
            sigma_config=sigma_config,
            topology=topology,
            dumbbell_config=dumbbell_config,
        )
        for session in spec.sessions:
            scenario._realise_session(session)
        for tcp in spec.tcp:
            scenario._realise_tcp(tcp)
        for cbr in spec.cbr:
            scenario._realise_cbr(cbr)
        return scenario

    # ------------------------------------------------------------------
    # declaration constructors
    # ------------------------------------------------------------------
    def add_multicast_session(
        self, session_id: Optional[str] = None, **fields: Any
    ) -> MulticastSession:
        """Declare one multicast session and realise it.

        Builds ``SessionDecl(session_id, **fields)`` — the keywords *are*
        :class:`~repro.experiments.spec.SessionDecl`'s fields, with its
        defaults and its declaration-time validation — and hands it to the
        interpreter.  ``session_id`` defaults to ``mc<N>``, ``N`` counting
        the scenario's sessions from 1.
        """
        session_id = session_id or f"mc{len(self.sessions) + 1}"
        return self._realise_session(SessionDecl(session_id, **fields))

    def add_tcp_connection(
        self, name: Optional[str] = None, **fields: Any
    ) -> TcpConnection:
        """Declare one TCP Reno connection and realise it.

        Builds ``TcpDecl(name, **fields)``; ``name`` defaults to ``tcp<N>``,
        ``N`` counting the scenario's connections from 1.
        """
        name = name or f"tcp{len(self.tcp_connections) + 1}"
        return self._realise_tcp(TcpDecl(name, **fields))

    def add_onoff_cbr(
        self, rate_bps: float, **fields: Any
    ) -> Tuple[OnOffCbrSource, CbrSink]:
        """Declare one on-off CBR source and realise it.

        Builds ``CbrDecl(rate_bps=rate_bps, **fields)``.
        """
        return self._realise_cbr(CbrDecl(rate_bps=rate_bps, **fields))

    # ------------------------------------------------------------------
    # multicast sessions
    # ------------------------------------------------------------------
    def _realise_session(self, decl: SessionDecl) -> MulticastSession:
        """Create one declared session: its sender, then every receiver.

        Individual receivers and population blocks go through one placement
        loop: the individuals first (one member each, with their own start
        time, access delay, router and attack stack), then each block at
        the placement its ``model`` names (:meth:`_block_hosts`), in
        declaration order.
        """
        session_id = decl.session_id
        spec = self.config.session_spec(session_id, self.protected).with_addresses(
            self.network.allocate_groups(self.config.group_count)
        )
        overhead = OverheadAccumulator() if decl.track_overhead else None

        sender_class, receiver_class, protocol = self._protocol()
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
        placements: List[Tuple[Any, ...]] = [
            (
                f"{session_id}-rx{index + 1}",
                routers[index],
                (1,),
                individual_attacks.get(index, ()),
                start_times[index],
                access_delays[index],
                None,
            )
            for index in range(count)
        ]
        bounds = [count]
        for c_index, (cohort, attacks) in enumerate(zip(decl.population, block_attacks)):
            placements.extend(
                (host_name, router, rows, attacks, cohort.start_s, None, cohort.churn)
                for host_name, router, rows in self._block_hosts(
                    session_id, c_index, cohort
                )
            )
            bounds.append(len(placements))
        session.block_slices = list(zip(bounds, bounds[1:]))
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
        sender.start()
        self.sessions.append(session)
        return session

    def _block_hosts(
        self, session_id: str, c_index: int, cohort: CohortDecl
    ) -> List[Tuple[str, Optional[str], Sequence[int]]]:
        """``(host name, router, rows)`` of every receiver of one population block.

        Every placement builds the same receiver; ``cohort.model`` decides
        how many hosts carry the block and how many members each stands for:

        * ``"individual"`` — ``count`` hosts of one member each (the
          reference realisation the equivalence tests compare against);
        * ``"cohort"`` — ``cohorts`` hosts (default one), each standing for
          one row of the as-even split;
        * ``"vector"`` — one host per receiver edge router (or the pinned
          ``cohort.router``), carrying the rows spread round-robin across
          the edges and registered in the scenario's population table.
        """
        hosts: List[Tuple[str, Optional[str], Sequence[int]]] = []
        if cohort.model == "individual":
            for member in range(cohort.count):
                hosts.append(
                    (f"{session_id}-pop{c_index + 1}-rx{member + 1}", cohort.router, (1,))
                )
        elif cohort.model == "vector":
            counts = split_counts(cohort.count, cohort.cohorts or 1)
            if cohort.router is not None:
                edges: List[str] = [cohort.router]
            else:
                edges = list(self.network.spec.receiver_routers)
            for e_index, edge in enumerate(edges):
                # Row k of the split lands on edge k mod E; edges left
                # without a row get no receiver.
                rows = counts[e_index :: len(edges)]
                if rows:
                    block = self._require_population_table().allocate(
                        edge, session_id, rows
                    )
                    hosts.append(
                        (f"{session_id}-vec{c_index + 1}-{e_index + 1}", edge, block)
                    )
        else:
            counts = split_counts(cohort.count, cohort.cohorts or 1)
            for k, members in enumerate(counts):
                # The single-cohort host keeps its historical name so legacy
                # scenarios stay byte-identical; split cohorts get a -k suffix.
                suffix = "" if len(counts) == 1 else f"-{k + 1}"
                hosts.append(
                    (f"{session_id}-cohort{c_index + 1}{suffix}", cohort.router, (members,))
                )
        return hosts

    def _require_population_table(self) -> PopulationTable:
        """The scenario-level population table, created on first vector block.

        Lazy so scenarios without vector blocks never touch the table (or
        the backend selection) at all.
        """
        if self.population_table is None:
            self.population_table = PopulationTable()
        return self.population_table

    def _declared_attacks(
        self, decl: SessionDecl
    ) -> Tuple[Dict[int, List[AttackSpec]], List[Tuple[AttackSpec, ...]]]:
        """What ``decl`` mounts where: by individual index, and per block.

        The legacy ``misbehaving`` shorthand expands to the paper's default
        attacker for the scenario's protocol: plain ``inflated-join`` against
        FLID-DL (Figure 1), or the composite Figure 7 stack (bare joins on
        top of the honest pipeline, key replay, key guessing) against
        FLID-DS.  Declared attacks follow in declaration order (their target
        indices were range-checked when ``decl`` was declared).  A
        population block mounts its own ``attack`` on every member.
        """
        legacy: List[AttackSpec] = []
        if decl.misbehaving:
            joins = AttackSpec(
                "inflated-join",
                receivers=tuple(decl.misbehaving),
                start_s=decl.attack_start_s,
            )
            if self.protected:
                legacy = [
                    replace(joins, params={"suppress_honest": False}),
                    replace(joins, strategy="key-replay"),
                    replace(joins, strategy="key-guessing"),
                ]
            else:
                legacy = [joins]
        individuals: Dict[int, List[AttackSpec]] = {}
        for attack in (*legacy, *decl.attacks):
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

    def _protocol(self) -> Tuple[type, type, Dict[str, Any]]:
        """The scenario's sender class, receiver class and their extra keywords."""
        if self.protected:
            return FlidDsSender, FlidDsReceiver, {"key_bits": self.config.key_bits}
        return FlidDlSender, FlidDlReceiver, {}

    # ------------------------------------------------------------------
    # unicast traffic
    # ------------------------------------------------------------------
    def _unicast_endpoints(
        self, decl: Union[TcpDecl, CbrDecl]
    ) -> Tuple[Host, Host, int]:
        """Source host, sink host and port for one declared TCP/CBR flow."""
        source = self.network.add_sender(f"{decl.name}-src", router=decl.sender_router)
        sink = self.network.add_receiver(f"{decl.name}-dst", router=decl.receiver_router)
        self.network.build_routes()
        port = self._next_port
        self._next_port += 1
        return source, sink, port

    def _realise_tcp(self, decl: TcpDecl) -> TcpConnection:
        """Create one declared TCP Reno connection crossing the topology."""
        source, sink_host, port = self._unicast_endpoints(decl)
        connection = TcpConnection.create(
            source,
            sink_host,
            port=port,
            segment_bytes=self.config.packet_bytes,
            name=decl.name,
        )
        connection.start(decl.start_s)
        self.tcp_connections.append(connection)
        return connection

    def _realise_cbr(self, decl: CbrDecl) -> Tuple[OnOffCbrSource, CbrSink]:
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
            packet_bytes=self.config.packet_bytes,
            active_window=decl.active_window,
            name=decl.name,
        )
        source.start()
        self.cbr_sources.append(source)
        self.cbr_sinks.append(sink)
        return source, sink

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, duration_s: Optional[float] = None) -> None:
        """Build routes and run the simulation for the configured duration."""
        self.network.run(duration_s if duration_s is not None else self.config.duration_s)

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

        Every piece of mutable state — the two event lanes, timer groups,
        named RNG streams, population tables, SIGMA/IGMP agents, monitors
        and receivers — hangs off this object graph, and every
        scheduled callable is a named bound method, so a single pickle
        captures the full simulation.  Rebuild with :meth:`restore`.
        """
        return pickle.dumps(
            (CHECKPOINT_VERSION, self), protocol=pickle.HIGHEST_PROTOCOL
        )

    @classmethod
    def restore(cls, blob: bytes) -> "Scenario":
        """Rebuild a checkpointed scenario from :meth:`checkpoint` output.

        Raises :class:`ValueError` when the blob was written by an
        incompatible checkpoint layout (callers treat that as a cache miss).
        """
        payload = pickle.loads(blob)
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or payload[0] != CHECKPOINT_VERSION
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
        for decl, session in zip(spec.sessions, self.sessions):
            individual_attacks, block_attacks = self._declared_attacks(decl)
            for r_index, attacks in individual_attacks.items():
                receiver = session.receivers[r_index]
                receiver.rebind(
                    self._strategy_stack(session.spec, receiver.host.name, attacks)
                )
            for cohort, attacks, (start, stop) in zip(
                decl.population, block_attacks, session.block_slices
            ):
                for receiver in session.receivers[start:stop]:
                    receiver.rebind(
                        self._strategy_stack(session.spec, receiver.host.name, attacks),
                        cohort.churn,
                    )

    # ------------------------------------------------------------------
    # results helpers
    # ------------------------------------------------------------------
    def multicast_average_kbps(
        self, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> List[float]:
        """Average throughput of each session's first receiver."""
        start = self.config.warmup_s if start_s is None else start_s
        end = self.config.duration_s if end_s is None else end_s
        return [s.receiver.average_rate_kbps(start, end) for s in self.sessions]

    def tcp_average_kbps(
        self, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> List[float]:
        """Average throughput of each TCP connection."""
        start = self.config.warmup_s if start_s is None else start_s
        end = self.config.duration_s if end_s is None else end_s
        return [c.monitor.average_rate_kbps(start, end) for c in self.tcp_connections]
