"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serialisable description of one §5-style
experiment: which topology to build (by name, from the simulator's topology
registry), which multicast sessions to run (protocol variant, receiver
placement, misbehaviour schedules, layering), which TCP/CBR cross traffic to
add, and the seed.  What the paper's §5.1 fixes for every run is a
constant: :data:`FAIR_SHARE_BPS`, the slot lengths of
:attr:`ScenarioSpec.slot_duration_s`, and the rates and packet size of
:class:`~repro.multicast_cc.session.SessionSpec`'s defaults.

Specs are plain frozen dataclasses with a canonical JSON form, so they can be

* interpreted by :meth:`repro.experiments.scenario.Scenario.from_spec`,
* shipped to worker processes by the parallel
  :class:`~repro.experiments.runner.ExperimentRunner`,
* hashed for result caching, and
* registered under a name in :mod:`repro.experiments.registry`.

The canonical JSON of a spec, its ``seed`` included, fully determines an
experiment's output bit-for-bit (the engine and the multicast forwarding
plane are deterministic), which the property tests assert.

A declaration's fields are spelled once, in its dataclass body.  The codec
(:func:`encode` / :func:`decode`, exposed on every declaration through
:class:`PlainData`) walks :func:`dataclasses.fields` and the annotations, so
adding a field is one dataclass line — declared through :func:`unset` when
it is optional, which keeps the JSON of every older spec byte-identical.
Decoding has one policy for every declaration: a key that names no field
is refused, and so is a value that does not fit its annotation — a
misspelt or retired key never silently runs the defaults.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping as AbstractMapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..adversary.spec import SCALAR_TYPES, AttackSpec
from ..multicast_cc.churn import ChurnProcess
from ..simulator.topology import TopologySpec, build_topology

__all__ = [
    "CohortDecl",
    "SessionDecl",
    "TcpDecl",
    "CbrDecl",
    "FAIR_SHARE_BPS",
    "MAX_DURATION_S",
    "MAX_GROUP_COUNT",
    "MAX_KEY_BITS",
    "PAPER_DURATION_S",
    "ScenarioSpec",
    "PlainData",
    "canonical_json",
    "decode",
    "encode",
    "unset",
]


def canonical_json(document: Any) -> str:
    """The one byte form of a JSON document: sorted keys, no whitespace.

    Specs, job payloads, region documents and results all serialise through
    here, so equal documents are equal strings — what the cache keys, the
    job dedup and every byte-identity test compare.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# the codec: one dataclass walk between declarations and plain JSON data
# ----------------------------------------------------------------------
_OMIT_WHEN_UNSET = "omit_when_unset"


def unset(default: Any = None) -> Any:
    """A declaration field left out of the plain-data form while unset.

    The key is omitted while the field equals ``default``, so the canonical
    JSON — and with it every cache key, checkpoint key and golden digest —
    of a spec that predates the field is byte-identical to what it always
    was.  Every optional field added to a declaration is declared this way.
    """
    return field(default=default, metadata={_OMIT_WHEN_UNSET: True})


def _plain(value: Any) -> Any:
    """``value`` as JSON data: declarations → dicts, tuples → lists."""
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if is_dataclass(value):
        return encode(value)
    return dict(value) if isinstance(value, AbstractMapping) else value


def _checked(kind: type, value: Any) -> Any:
    # Checked, never coerced: a JSON integer is a legal ``float`` (``10``
    # for ``start_s``), a boolean never an ``int``.
    if type(value) not in SCALAR_TYPES[kind]:
        raise TypeError(
            f"expected {kind.__name__}, got {type(value).__name__} {value!r}"
        )
    return value


def _listed(value: Any, length: Optional[int] = None) -> Any:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__} {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"expected {length} entries, got {value!r}")
    return value


def _mapping(value: Any) -> Dict[str, Any]:
    if not isinstance(value, AbstractMapping):
        raise TypeError(f"expected a mapping, got {type(value).__name__} {value!r}")
    return dict(value)


def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The function rebuilding one annotated field from plain JSON data.

    It checks the data against the annotation on the way: scalars by type,
    tuples for being lists (of the right length, when fixed), nested
    declarations through :func:`decode`; free-form mappings
    (``Mapping[str, Any]``) for being mappings only.
    """
    if hint in SCALAR_TYPES:
        return partial(_checked, hint)
    if is_dataclass(hint):
        return partial(decode, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decoder(args[0])
        return lambda value: tuple([item(entry) for entry in _listed(value)])
    if origin is tuple:
        items = [_decoder(arg) for arg in args]
        return lambda value: tuple(
            [item(entry) for item, entry in zip(items, _listed(value, len(items)))]
        )
    if origin in (dict, AbstractMapping):
        return _mapping
    raise TypeError(f"no codec for the annotation {hint!r}")


@lru_cache(maxsize=None)
def _field_plan(cls: type) -> Tuple[Tuple[str, bool, Any, Callable[[Any], Any]], ...]:
    """Per field of ``cls``: ``(name, required, omitted default, decoder)``.

    Computed once per class from :func:`dataclasses.fields` and the resolved
    annotations — the dataclass body is the only place a field is spelled.
    """
    hints = get_type_hints(cls)
    return tuple(
        (
            item.name,
            item.default is MISSING and item.default_factory is MISSING,
            item.default if item.metadata.get(_OMIT_WHEN_UNSET) else MISSING,
            _decoder(hints[item.name]),
        )
        for item in fields(cls)
    )


def encode(declaration: Any) -> Dict[str, Any]:
    """Plain-data form of a declaration — the one encoder behind ``to_dict``.

    Fields declared through :func:`unset` are left out while they hold
    their default.
    """
    payload: Dict[str, Any] = {}
    for name, _required, omitted, _decode in _field_plan(type(declaration)):
        value = getattr(declaration, name)
        if omitted is MISSING or value != omitted:
            payload[name] = _plain(value)
    return payload


def decode(cls: type, payload: Any) -> Any:
    """Rebuild a ``cls`` declaration — the one decoder behind ``from_dict``.

    This is the trust boundary of everything that takes a spec from outside
    the process (the daemon's ``submit``, worker payloads, the result
    cache).  Absent keys take the dataclass default, a key naming no field
    raises :class:`TypeError` listing it, and every present value is
    checked against its field's annotation: a missing required key raises
    :class:`KeyError`, a wrongly-typed value :class:`TypeError` or
    :class:`ValueError` naming the field, instead of a crash inside a run.
    A ``payload`` that already is a ``cls`` declaration is checked field by
    field the same way and returned as it is.
    """
    if isinstance(payload, cls):
        _decoded_fields(cls, vars(payload))
        return payload
    if not isinstance(payload, AbstractMapping):
        raise TypeError(
            f"{cls.__name__} must be a mapping, got {type(payload).__name__}"
        )
    unknown = payload.keys() - {name for name, *_ in _field_plan(cls)}
    if unknown:
        raise TypeError(f"{cls.__name__} got unknown keys {sorted(unknown)}")
    return cls(**_decoded_fields(cls, payload))


def _decoded_fields(cls: type, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """``cls``'s keyword arguments decoded from the fields in ``payload``."""
    kwargs: Dict[str, Any] = {}
    name = ""
    try:
        for name, required, _omitted, decode_field in _field_plan(cls):
            if name in payload:
                kwargs[name] = decode_field(payload[name])
            elif required:
                raise KeyError(f"{cls.__name__}.{name} is required")
    except (TypeError, ValueError) as error:
        kind = TypeError if isinstance(error, TypeError) else ValueError
        raise kind(f"{cls.__name__}.{name}: {error}") from None
    return kwargs


def _check_number(
    name: str, value: float, where: str, *, unit: str = "", positive: bool = False
) -> None:
    """Refuse a ``value`` that is not finite and >= 0 (> 0 when ``positive``),
    naming the field ``name`` and the declaration ``where``."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number{unit} {bound} {where}, got {value!r}")


def _check_count(
    name: str, value: int, minimum: int, where: str = "", maximum: Optional[int] = None
) -> None:
    """Refuse a ``value`` that is not an integer >= ``minimum`` (and <=
    ``maximum``, when given), naming the field ``name``: a boolean or a
    float never counts, although Python would let ``True`` or ``2.0`` pass
    for one."""
    high = math.inf if maximum is None else maximum
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= high:
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        where = f" {where}" if where else ""
        raise ValueError(f"{name} must be an integer {bound}{where}, got {value!r}")


class PlainData:
    """The codec as methods, shared by every declaration and by results."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (:func:`encode`)."""
        return encode(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — stable for hashing."""
        return canonical_json(encode(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Any:
        """Rebuild from :meth:`to_dict` output, type-checked (:func:`decode`)."""
        return decode(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Rebuild from the canonical JSON form."""
        return decode(cls, json.loads(text))


@dataclass(frozen=True)
class CohortDecl(PlainData):
    """``count`` homogeneous receivers added to a session's population.

    Every block is realised by the same protocol receiver
    (:mod:`~repro.multicast_cc.receiver_base`), which stands for any number
    of members; ``model`` names where the scenario interpreter *places*
    them:

    * ``"cohort"`` (default) — one host whose receiver stands for the whole
      block, per-slot cost amortised over the population (sessions scale to
      100k+ receivers);
    * ``"individual"`` — ``count`` hosts of one member each, the reference
      realisation the equivalence tests and the scale benchmark compare
      against;
    * ``"vector"`` — one host per edge router, each receiver carrying the
      block's cohorts placed there as a tuple of row member counts
      (sessions scale past 1M receivers).

    ``cohorts`` splits the block's ``count`` members into that many
    homogeneous cohorts (as even as possible; ``None`` means one), and the
    metrics report one entry per cohort.  With ``model="cohort"`` an honest
    block's rows share one host and receiver when they share a router
    (``router`` is set, or the topology has one receiver edge): they would
    get the same packets at the same instants and decide alike.  An
    attacking block keeps one host per row, because each row's strategy
    stack draws from its own host-named stream.  ``model="vector"`` packs
    the rows behind one receiver per edge.

    ``router`` optionally pins the cohort to a named edge router (default:
    the topology's round-robin receiver placement — for ``"vector"`` the
    cohorts are spread round-robin *across* the receiver edge routers);
    ``start_s`` is the members' shared join time.

    ``attack`` makes the block an **adversarial cohort**: every member
    mounts the declared strategy (any registered strategy: one receiver
    books every message and counter at member weight, so N members act as N
    one-member receivers would; the attack's ``receivers`` indices are
    ignored, the block itself is the target).  Key guessing is the
    exception: the block draws one guess budget per slot for all its
    members, where N receivers draw N (ROADMAP item 16; the strict xfail
    ``test_key_guessing_block_guesses_like_its_members`` pins it).
    ``churn`` drives the member count by a deterministic
    :class:`~repro.multicast_cc.churn.ChurnProcess` (flash crowds, gradual
    arrival/departure); churn requires the aggregated ``"cohort"`` model.
    Any *other* heterogeneity — staggered joins, randomised attacks —
    belongs in individual receivers or in *separate* cohorts, never inside
    one cohort (see ``docs/scale.md`` for when aggregation is exact).
    """

    count: int
    router: Optional[str] = None
    start_s: float = 0.0
    model: str = "cohort"
    attack: Optional[AttackSpec] = unset()
    churn: Optional[ChurnProcess] = unset()
    cohorts: Optional[int] = unset()

    def __post_init__(self) -> None:
        _check_count("CohortDecl.count", self.count, 1)
        if self.model not in ("cohort", "individual", "vector"):
            raise ValueError(f"CohortDecl.model {self.model!r} is not cohort, individual or vector")
        if self.cohorts is not None:
            _check_count("CohortDecl.cohorts", self.cohorts, 1)
            if self.cohorts > self.count:
                raise ValueError(
                    f"cannot split {self.count} members into {self.cohorts} "
                    "cohorts (each cohort needs at least one member)"
                )
            if self.model == "individual":
                raise ValueError(
                    "cohorts only applies to aggregated models; individual "
                    "receivers are already one object per member"
                )
        if self.churn is not None and (
            self.model != "cohort" or (self.cohorts or 1) != 1
        ):
            raise ValueError(
                "population churn needs a single aggregated cohort "
                "(individual receivers cannot arrive or depart dynamically, "
                "and a churn process drives exactly one cohort's membership)"
            )
        if self.churn is not None and self.attack is not None:
            # A churned attacker population would book attack counters with
            # a stale member count (the attack context weight is fixed at
            # admission); churn composes with attacks from *outside* the
            # cohort instead — see docs/scale.md.
            raise ValueError(
                "a cohort cannot both churn and attack; declare the churned "
                "honest audience and the attacker population as separate blocks"
            )


#: The largest group count the paper evaluates (Figure 9(a)); a run's cost
#: grows about fivefold per four groups beyond it.
MAX_GROUP_COUNT = 20

#: The widest key every FEC symbol can carry: keys stay below the field
#: prime 2^61 - 1 (:mod:`repro.fec.erasure`).
MAX_KEY_BITS = 60


@dataclass(frozen=True)
class SessionDecl(PlainData):
    """One multicast session of a scenario.

    ``attacks`` declares the misbehaviour: each
    :class:`~repro.adversary.spec.AttackSpec` names a registered strategy,
    its parameters and schedule, and the (0-based) receiver indices mounting
    it — several attacks may stack on one receiver (the paper's own
    attacker is :func:`~repro.adversary.spec.paper_attacker`).
    ``receiver_routers`` optionally pins each receiver to a named router of
    the topology; ``None`` entries (or omitting the field) fall back to the
    topology's round-robin receiver placement.

    ``group_count`` and ``key_bits`` set the session's layering: how many
    groups it sends (at most :data:`MAX_GROUP_COUNT`) and how wide the
    keys of a FLID-DS session are (at most :data:`MAX_KEY_BITS`; FLID-DL
    sends no keys).  Their defaults are the paper's 10 groups and 16-bit
    keys (§5.1).

    ``population`` appends :class:`CohortDecl` blocks *after* the
    ``receivers`` individual ones.  ``attacks`` entries can only target
    individual receiver indices (``0 .. receivers-1``); a population block
    becomes adversarial by carrying its own :class:`CohortDecl.attack`
    (any registered strategy), which is the paper's threat model taken
    to scale — bounded attacker cohorts against large honest audiences.  A
    session declaring a population may set ``receivers=0``.
    """

    session_id: str
    receivers: int = 1
    attacks: Tuple[AttackSpec, ...] = ()
    receiver_start_times: Optional[Tuple[float, ...]] = None
    receiver_access_delays: Optional[Tuple[Optional[float], ...]] = None
    receiver_routers: Optional[Tuple[Optional[str], ...]] = None
    track_overhead: bool = False
    suppress_unsubscribed_groups: bool = True
    population: Tuple[CohortDecl, ...] = unset(())
    group_count: int = unset(10)
    key_bits: int = unset(16)

    def __post_init__(self) -> None:
        where = f"(session {self.session_id!r})"
        _check_count("SessionDecl.receivers", self.receivers, 0, where)
        _check_count("SessionDecl.group_count", self.group_count, 1, where, MAX_GROUP_COUNT)
        _check_count("SessionDecl.key_bits", self.key_bits, 1, where, MAX_KEY_BITS)
        if self.receivers < 1 and not self.population:
            raise ValueError("a session needs at least one receiver")
        for attack in self.attacks:
            for index in attack.receivers:
                if not 0 <= index < self.receivers:
                    raise ValueError(
                        f"attack {attack.strategy!r} targets receiver {index}, "
                        f"out of range for {self.receivers} receivers"
                    )
        for name, values in (
            ("receiver_start_times", self.receiver_start_times),
            ("receiver_access_delays", self.receiver_access_delays),
            ("receiver_routers", self.receiver_routers),
        ):
            if values is not None and len(values) != self.receivers:
                raise ValueError(f"{name} must have one entry per receiver")

    # ------------------------------------------------------------------
    def attacker_indices(self) -> Tuple[int, ...]:
        """Sorted *individual* receiver indices mounting any attack."""
        return tuple(sorted({index for attack in self.attacks for index in attack.receivers}))

    def attack_onset_s(self) -> Optional[float]:
        """Earliest scheduled attack start, or ``None`` without attackers."""
        onsets = [attack.start_s for attack in self.attacks]
        onsets.extend(
            block.attack.start_s for block in self.population
            if block.attack is not None
        )
        return min(onsets) if onsets else None

    def total_population(self) -> int:
        """End systems the session stands for: individuals plus cohorts."""
        return self.receivers + sum(cohort.count for cohort in self.population)


@dataclass(frozen=True)
class TcpDecl(PlainData):
    """One TCP Reno connection crossing the topology."""

    name: str
    start_s: float = 0.0
    sender_router: Optional[str] = None
    receiver_router: Optional[str] = None

    def __post_init__(self) -> None:
        _check_number("TcpDecl.start_s", self.start_s, f"(tcp {self.name!r})", unit=" of seconds")


@dataclass(frozen=True)
class CbrDecl(PlainData):
    """One on-off CBR source crossing the topology."""

    name: str = "cbr"
    rate_bps: float = 100_000.0
    on_s: float = 5.0
    off_s: float = 5.0
    active_window: Optional[Tuple[float, float]] = None
    sender_router: Optional[str] = None
    receiver_router: Optional[str] = None

    def __post_init__(self) -> None:
        where = f"(cbr {self.name!r})"
        _check_number("CbrDecl.rate_bps", self.rate_bps, where, positive=True)
        _check_number("CbrDecl.on_s", self.on_s, where, unit=" of seconds", positive=True)
        _check_number("CbrDecl.off_s", self.off_s, where, unit=" of seconds")
        # A window that ends before it begins is empty: the source never
        # turns on (a registered builder declares one when the run ends
        # before its attack starts).
        if self.active_window is not None and not all(
            math.isfinite(seconds) and seconds >= 0 for seconds in self.active_window
        ):
            raise ValueError(
                f"CbrDecl.active_window must be two finite numbers of seconds >= 0 "
                f"{where}, got {self.active_window!r}"
            )


#: The paper's experiment length (§5.1), every spec's default run duration.
PAPER_DURATION_S = 200.0

#: Every flow's fair share of a bottleneck in the paper's set-up (§5.1):
#: builders size a bottleneck at this times the flows crossing it, and the
#: protection metrics measure honest receivers against it.
FAIR_SHARE_BPS = 250_000.0

#: The longest run a spec may declare, 18 times the longest registered one
#: (Figures 1 and 7): a longer one would hold a worker for hours.
MAX_DURATION_S = 3600.0


@dataclass(frozen=True)
class ScenarioSpec(PlainData):
    """Declarative description of one experiment run.

    ``topology`` names a factory in :data:`repro.simulator.topology.TOPOLOGIES`
    and ``topology_params`` are its keyword arguments — the one place a
    scenario's links are described, the §5.1 dumbbell's included (its
    default bottleneck is one 250 Kbps fair share; builders that share it
    among more flows pass ``bottleneck_bandwidth_bps``).  The topology is
    built once when the spec is declared (:attr:`network_topology`), so an
    unknown kind, an unknown parameter or an impossible link is refused
    here, not inside a run.

    ``duration_s`` is the one run length, in simulated seconds (> 0 and at
    most :data:`MAX_DURATION_S`); ``seed`` seeds every random stream of the
    run.  ``protected`` picks the protocol of every session, FLID-DS with
    DELTA and SIGMA or plain FLID-DL, and with it the slot length
    (:attr:`slot_duration_s`).

    ``shards`` opts the spec into region-sharded execution: the runner
    partitions the topology's annotated regions into ``shards`` standalone
    sub-scenarios, runs them (serially or on the process pool) and merges the
    results deterministically (:mod:`repro.experiments.shard`).  It must
    match the topology's region count, the spec's regions must be able to
    run apart (:meth:`_check_shardable`), and it is omitted from the
    canonical JSON when unset, so every pre-sharding spec hash and golden
    digest stays byte-identical.
    """

    name: str
    protected: bool
    sessions: Tuple[SessionDecl, ...] = ()
    tcp: Tuple[TcpDecl, ...] = ()
    cbr: Tuple[CbrDecl, ...] = ()
    topology: str = "dumbbell"
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    duration_s: float = PAPER_DURATION_S
    seed: int = 0
    record_series: bool = False
    shards: Optional[int] = unset()

    def __post_init__(self) -> None:
        # What the codec would refuse of this spec is refused when it is
        # declared, so every declared spec decodes again.
        _decoded_fields(ScenarioSpec, vars(self))
        if not 0 < self.duration_s <= MAX_DURATION_S:
            raise ValueError(
                f"ScenarioSpec.duration_s must be a number of seconds > 0 and "
                f"<= MAX_DURATION_S ({MAX_DURATION_S:g}), got {self.duration_s!r}"
            )
        if self.shards is not None and self.shards < 2:
            raise ValueError(
                "shards must be >= 2 when set (omit it for unsharded execution)"
            )
        regions = len(self.network_topology.regions)
        if self.shards is not None and self.shards != regions:
            raise ValueError(
                f"spec declares shards={self.shards} but topology "
                f"{self.topology!r} annotates {regions} regions"
            )
        if self.shards is not None:
            self._check_shardable()
        # Where and when every receiver attaches: a pinned router outside
        # the receiver edges, or a start time or access delay the engine
        # cannot schedule, would otherwise fail inside the build.
        edges = self.network_topology.receiver_routers
        for decl in self.sessions:
            where = f"(session {decl.session_id!r})"
            blocks = decl.population
            pins = decl.receiver_routers or ()
            routers = [("SessionDecl.receiver_routers", r) for r in pins]
            routers += [("CohortDecl.router", block.router) for block in blocks]
            for name, router in routers:
                if router is not None and router not in edges:
                    raise ValueError(
                        f"{name} {router!r} {where} is not a receiver edge router "
                        f"of topology {self.topology!r}: one of {list(edges)}"
                    )
            starts = decl.receiver_start_times or ()
            delays = decl.receiver_access_delays or ()
            times = [("SessionDecl.receiver_start_times", t) for t in starts]
            times += [("SessionDecl.receiver_access_delays", d) for d in delays]
            times += [("CohortDecl.start_s", block.start_s) for block in blocks]
            for name, seconds in times:
                if seconds is not None:
                    _check_number(name, seconds, where, unit=" of seconds")

    def check_measures(self) -> None:
        """Refuse a spec with no session, TCP flow or CBR flow: an idle
        network measures nothing.  Checked where a spec enters (the planner,
        the daemon's wire): a region of a sharded spec may hold no receivers."""
        if not (self.sessions or self.tcp or self.cbr):
            raise ValueError(
                f"spec {self.name!r} measures nothing: ScenarioSpec.sessions, "
                "tcp and cbr are all empty; declare a session or a flow"
            )

    def _check_shardable(self) -> None:
        """Refuse a ``shards`` spec whose regions could not run apart.

        Cross traffic, series recording and overhead tracking couple the
        regions; individual receivers and unpinned non-``vector`` blocks are
        placed by a topology-global cursor a region cannot reproduce.
        """
        if self.tcp or self.cbr:
            raise ValueError("TCP/CBR cross traffic couples regions; cannot shard")
        if self.record_series:
            raise ValueError("record_series is not supported on sharded runs")
        for decl in self.sessions:
            if decl.receivers != 0:
                raise ValueError(
                    f"session {decl.session_id!r} declares individual receivers; "
                    "sharded sessions must realise their population as blocks "
                    "(receivers=0) so placement does not depend on a "
                    "topology-global cursor"
                )
            if decl.track_overhead:
                raise ValueError(
                    f"session {decl.session_id!r} tracks overhead, which is a "
                    "whole-session accumulator; cannot shard"
                )
            for block in decl.population:
                if block.router is None and block.model != "vector":
                    raise ValueError(
                        f"unpinned model={block.model!r} blocks round-robin over a "
                        "topology-global cursor; pin them to a router or use "
                        'model="vector" to shard'
                    )

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def effective_duration_s(self) -> float:
        """:attr:`duration_s` under the name ``benchmarks/e2e`` reads; nothing else reads it."""
        return self.duration_s

    @cached_property
    def network_topology(self) -> TopologySpec:
        """The topology ``topology`` and ``topology_params`` describe."""
        return build_topology(self.topology, **self.topology_params)

    @property
    def slot_duration_s(self) -> float:
        """The slot length of the spec's protocol (§5.1): 250 ms FLID-DS
        slots when ``protected``, else 500 ms FLID-DL slots — the same
        control granularity, because SIGMA enforces access with a
        responsiveness of two slots."""
        return 0.25 if self.protected else 0.5

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec run under ``seed``."""
        return replace(self, seed=seed)
