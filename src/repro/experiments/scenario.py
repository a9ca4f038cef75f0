"""Scenario construction: the interpreter of declarative scenario specs.

Historically :class:`Scenario` was a dumbbell-only builder; it is now an
interpreter over the general topology layer.  It can be driven two ways:

* **declaratively** — :meth:`Scenario.from_spec` takes a
  :class:`~repro.experiments.spec.ScenarioSpec` (topology by name plus session
  / cross-traffic declarations) and realises the whole experiment;
* **imperatively** — the historical API (construct, then
  :meth:`add_multicast_session` / :meth:`add_tcp_connection` /
  :meth:`add_onoff_cbr`) still works and now accepts an arbitrary
  :class:`~repro.simulator.topology.TopologySpec`, defaulting to the paper's
  dumbbell.

Group management is installed on *every* receiver-side router of the
topology: an IGMP manager per router for the unprotected baseline, or one
SIGMA agent per router (sharing a single slot clock) for the protected
system — on multi-bottleneck topologies such as the parking lot, star and
binary tree, each edge router polices its own local receivers.

The builder exposes the created senders/receivers/connections so experiments
and tests can interrogate throughput monitors, SIGMA statistics and level
histories after :meth:`run`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.receivers import StrategyStack
from ..adversary.registry import build_strategies
from ..adversary.spec import AttackSpec
from ..core.sigma import SigmaConfig, SigmaRouterAgent
from ..core.timeslot import SlotClock
from ..multicast_cc import (
    ChurnProcess,
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
from .spec import CohortDecl, ScenarioSpec

#: Stamped into every :meth:`Scenario.checkpoint` blob; bump whenever the
#: pickled state layout changes so stale blobs read as misses, never as state.
#: It is part of ``PrefixPlan.checkpoint_key``, so a bump leaves old blobs
#: unaddressed instead of counted as hits the worker then fails to unpickle.
CHECKPOINT_VERSION = 2

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
            scenario.add_multicast_session(
                session.session_id,
                receivers=session.receivers,
                misbehaving=tuple(session.misbehaving),
                attack_start_s=session.attack_start_s,
                attacks=session.attacks,
                receiver_start_times=(
                    list(session.receiver_start_times)
                    if session.receiver_start_times is not None
                    else None
                ),
                receiver_access_delays=(
                    list(session.receiver_access_delays)
                    if session.receiver_access_delays is not None
                    else None
                ),
                receiver_routers=(
                    list(session.receiver_routers)
                    if session.receiver_routers is not None
                    else None
                ),
                track_overhead=session.track_overhead,
                suppress_unsubscribed_groups=session.suppress_unsubscribed_groups,
                population=session.population,
            )
        for tcp in spec.tcp:
            scenario.add_tcp_connection(
                tcp.name,
                start_s=tcp.start_s,
                sender_router=tcp.sender_router,
                receiver_router=tcp.receiver_router,
            )
        for cbr in spec.cbr:
            scenario.add_onoff_cbr(
                rate_bps=cbr.rate_bps,
                on_s=cbr.on_s,
                off_s=cbr.off_s,
                active_window=(
                    (cbr.active_window[0], cbr.active_window[1])
                    if cbr.active_window is not None
                    else None
                ),
                name=cbr.name,
                sender_router=cbr.sender_router,
                receiver_router=cbr.receiver_router,
            )
        return scenario

    # ------------------------------------------------------------------
    # multicast sessions
    # ------------------------------------------------------------------
    def add_multicast_session(
        self,
        session_id: Optional[str] = None,
        receivers: int = 1,
        misbehaving: Tuple[int, ...] = (),
        attack_start_s: float = 0.0,
        attacks: Sequence[AttackSpec] = (),
        receiver_start_times: Optional[List[float]] = None,
        receiver_access_delays: Optional[List[Optional[float]]] = None,
        receiver_routers: Optional[List[Optional[str]]] = None,
        track_overhead: bool = False,
        suppress_unsubscribed_groups: bool = True,
        population: Sequence[CohortDecl] = (),
    ) -> MulticastSession:
        """Create one multicast session with its sender and receivers.

        ``attacks`` lists :class:`~repro.adversary.spec.AttackSpec`
        declarations; each targets one or more (0-based) receiver indices and
        several may stack on the same receiver.  ``misbehaving`` is the
        historical shorthand: the listed indices mount the paper's default
        inflated-subscription stack from ``attack_start_s``.
        ``receiver_routers`` optionally pins receivers to named routers.

        ``population`` appends blocks of homogeneous receivers after the
        individual ones: each :class:`~repro.experiments.spec.CohortDecl`
        is realised at the placement its ``model`` names (one aggregated
        receiver by default).  ``attacks`` never target population blocks;
        a block turns adversarial through its own ``attack`` declaration.
        """
        index = len(self.sessions) + 1
        session_id = session_id or f"mc{index}"
        spec = self.config.session_spec(session_id, self.protected).with_addresses(
            self.network.allocate_groups(self.config.group_count)
        )
        overhead = OverheadAccumulator() if track_overhead else None

        sender_host = self.network.add_sender(f"{session_id}-src")
        sender: LayeredSenderBase
        if self.protected:
            sender = FlidDsSender(
                self.network,
                sender_host,
                spec,
                key_bits=self.config.key_bits,
                overhead=overhead,
                suppress_unsubscribed_groups=suppress_unsubscribed_groups,
            )
        else:
            sender = FlidDlSender(
                self.network,
                sender_host,
                spec,
                overhead=overhead,
                suppress_unsubscribed_groups=suppress_unsubscribed_groups,
            )

        session = MulticastSession(
            spec=spec, protected=self.protected, sender=sender, overhead=overhead
        )
        per_receiver = self._attacks_per_receiver(
            receivers, misbehaving, attack_start_s, attacks
        )
        start_times = receiver_start_times or [0.0] * receivers
        access_delays = receiver_access_delays or [None] * receivers
        routers = receiver_routers or [None] * receivers
        for r_index in range(receivers):
            host = self.network.add_receiver(
                f"{session_id}-rx{r_index + 1}",
                access_delay_s=access_delays[r_index],
                router=routers[r_index],
            )
            receiver = self._make_receiver(spec, host, per_receiver.get(r_index, ()))
            session.receivers.append(receiver)
            receiver.start(start_times[r_index])
        for c_index, cohort in enumerate(population):
            start = len(session.receivers)
            self._add_population(session, spec, session_id, c_index, cohort)
            session.block_slices.append((start, len(session.receivers)))
        sender.start()
        self.sessions.append(session)
        return session

    def _add_population(
        self,
        session: MulticastSession,
        spec: SessionSpec,
        session_id: str,
        c_index: int,
        cohort: CohortDecl,
    ) -> None:
        """Realise one population block at the placement its model names.

        Every placement builds the same receiver; ``cohort.model`` decides
        how many hosts carry the block and how many members each stands for:

        * ``"individual"`` — ``count`` hosts of one member each (the
          reference realisation the equivalence tests compare against);
        * ``"cohort"`` — ``cohorts`` hosts (default one), each standing for
          one row of the as-even split;
        * ``"vector"`` — one host per receiver edge router (or the pinned
          ``cohort.router``), carrying the rows spread round-robin across
          the edges and registered in the scenario's population table.

        A block carrying an :class:`~repro.adversary.spec.AttackSpec` mounts
        the declared strategy on every receiver it realises as.
        """
        attacks = (cohort.attack,) if cohort.attack is not None else ()
        #: (host name, router, rows) of every receiver of the block; vector
        #: rows are the population-table block registering them.
        placements: List[Tuple[str, Optional[str], Sequence[int]]] = []
        if cohort.model == "individual":
            for member in range(cohort.count):
                placements.append(
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
                    placements.append(
                        (f"{session_id}-vec{c_index + 1}-{e_index + 1}", edge, block)
                    )
        else:
            counts = split_counts(cohort.count, cohort.cohorts or 1)
            for k, members in enumerate(counts):
                # The single-cohort host keeps its historical name so legacy
                # scenarios stay byte-identical; split cohorts get a -k suffix.
                suffix = "" if len(counts) == 1 else f"-{k + 1}"
                placements.append(
                    (f"{session_id}-cohort{c_index + 1}{suffix}", cohort.router, (members,))
                )
        for host_name, router, rows in placements:
            host = self.network.add_receiver(host_name, router=router)
            receiver = self._make_receiver(
                spec, host, attacks, counts=rows, churn=cohort.churn
            )
            session.receivers.append(receiver)
            receiver.start(cohort.start_s)

    def _require_population_table(self) -> PopulationTable:
        """The scenario-level population table, created on first vector block.

        Lazy so scenarios without vector blocks never touch the table (or
        the backend selection) at all.
        """
        if self.population_table is None:
            self.population_table = PopulationTable()
        return self.population_table

    def _attacks_per_receiver(
        self,
        receivers: int,
        misbehaving: Tuple[int, ...],
        attack_start_s: float,
        attacks: Sequence[AttackSpec],
    ) -> Dict[int, List[AttackSpec]]:
        """Resolve legacy + declared attacks into per-receiver stacks.

        The legacy ``misbehaving`` shorthand expands to the paper's default
        attacker for the scenario's protocol: plain ``inflated-join`` against
        FLID-DL (Figure 1), or the composite Figure 7 stack (bare joins on
        top of the honest pipeline, key replay, key guessing) against
        FLID-DS.  Declared attacks follow in declaration order.
        """
        per_receiver: Dict[int, List[AttackSpec]] = {}
        if misbehaving:
            if self.protected:
                legacy = [
                    AttackSpec(
                        "inflated-join",
                        receivers=misbehaving,
                        start_s=attack_start_s,
                        params={"suppress_honest": False},
                    ),
                    AttackSpec("key-replay", receivers=misbehaving, start_s=attack_start_s),
                    AttackSpec("key-guessing", receivers=misbehaving, start_s=attack_start_s),
                ]
            else:
                legacy = [
                    AttackSpec("inflated-join", receivers=misbehaving, start_s=attack_start_s)
                ]
            attacks = legacy + list(attacks)
        for attack in attacks:
            for index in attack.receivers:
                if not 0 <= index < receivers:
                    raise ValueError(
                        f"attack {attack.strategy!r} targets receiver {index}, "
                        f"out of range for {receivers} receivers"
                    )
                per_receiver.setdefault(index, []).append(attack)
        return per_receiver

    def _strategy_stack(
        self, spec: SessionSpec, host_name: str, attacks: Sequence[AttackSpec]
    ) -> Optional[StrategyStack]:
        """The stack realising ``attacks`` on one host (None when honest)."""
        if not attacks:
            return None
        return StrategyStack(
            build_strategies(list(attacks), self.network, spec, host_name)
        )

    def _make_receiver(
        self,
        spec: SessionSpec,
        host: Host,
        attacks: Sequence[AttackSpec],
        counts: Sequence[int] = (1,),
        churn: Optional[ChurnProcess] = None,
    ) -> LayeredReceiverBase:
        """The scenario's protocol receiver standing for ``counts`` on ``host``."""
        strategies = self._strategy_stack(spec, host.name, attacks)
        if self.protected:
            return FlidDsReceiver(
                self.network,
                host,
                spec,
                counts=counts,
                strategies=strategies,
                churn=churn,
                key_bits=self.config.key_bits,
            )
        return FlidDlReceiver(
            self.network, host, spec, counts=counts, strategies=strategies, churn=churn
        )

    # ------------------------------------------------------------------
    # unicast traffic
    # ------------------------------------------------------------------
    def add_tcp_connection(
        self,
        name: Optional[str] = None,
        start_s: float = 0.0,
        sender_router: Optional[str] = None,
        receiver_router: Optional[str] = None,
    ) -> TcpConnection:
        """Add a TCP Reno connection crossing the topology left to right."""
        index = len(self.tcp_connections) + 1
        name = name or f"tcp{index}"
        source = self.network.add_sender(f"{name}-src", router=sender_router)
        sink_host = self.network.add_receiver(f"{name}-dst", router=receiver_router)
        self.network.build_routes()
        connection = TcpConnection.create(
            source, sink_host, port=self._allocate_port(), segment_bytes=self.config.packet_bytes, name=name
        )
        connection.start(start_s)
        self.tcp_connections.append(connection)
        return connection

    def add_onoff_cbr(
        self,
        rate_bps: float,
        on_s: float = 5.0,
        off_s: float = 5.0,
        active_window: Optional[Tuple[float, float]] = None,
        name: str = "cbr",
        sender_router: Optional[str] = None,
        receiver_router: Optional[str] = None,
    ) -> Tuple[OnOffCbrSource, CbrSink]:
        """Add an on-off CBR session crossing the topology."""
        source_host = self.network.add_sender(f"{name}-src", router=sender_router)
        sink_host = self.network.add_receiver(f"{name}-dst", router=receiver_router)
        self.network.build_routes()
        port = self._allocate_port()
        sink = CbrSink(sink_host, port, name=f"{name}-sink")
        source = OnOffCbrSource(
            source_host,
            sink_host,
            port,
            rate_bps=rate_bps,
            on_s=on_s,
            off_s=off_s,
            packet_bytes=self.config.packet_bytes,
            active_window=active_window,
            name=name,
        )
        source.start()
        self.cbr_sources.append(source)
        self.cbr_sinks.append(sink)
        return source, sink

    def _allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

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
            per_receiver = self._attacks_per_receiver(
                decl.receivers,
                tuple(decl.misbehaving),
                decl.attack_start_s,
                decl.attacks,
            )
            for r_index, attacks in per_receiver.items():
                receiver = session.receivers[r_index]
                receiver.rebind(
                    self._strategy_stack(session.spec, receiver.host.name, attacks)
                )
            for b_index, cohort in enumerate(decl.population):
                start, stop = session.block_slices[b_index]
                attacks = (cohort.attack,) if cohort.attack is not None else ()
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
        start = self.config.warmup_s if start_s is None else start_s
        end = self.config.duration_s if end_s is None else end_s
        return [c.monitor.average_rate_kbps(start, end) for c in self.tcp_connections]
