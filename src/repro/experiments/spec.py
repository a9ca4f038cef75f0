"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serialisable description of one §5-style
experiment: which topology to build (by name, from the simulator's topology
registry), which multicast sessions to run (protocol variant, receiver
placement, misbehaviour schedules), which TCP/CBR cross traffic to add, and
the shared :class:`~repro.experiments.config.ExperimentConfig` knobs.

Specs are plain frozen dataclasses with a canonical JSON form, so they can be

* interpreted by :meth:`repro.experiments.scenario.Scenario.from_spec`,
* shipped to worker processes by the parallel
  :class:`~repro.experiments.runner.ExperimentRunner`,
* hashed for result caching, and
* registered under a name in :mod:`repro.experiments.registry`.

The canonical JSON of a spec plus the seed inside its config fully determine
an experiment's output bit-for-bit (the engine and the multicast forwarding
plane are deterministic), which the property tests assert.

A declaration's fields are spelled once, in its dataclass body.  The codec
(:func:`encode` / :func:`decode`, exposed on every declaration through
:class:`PlainData`) walks :func:`dataclasses.fields` and the annotations, so
adding a field is one dataclass line — declared through :func:`unset` when
it is optional, which keeps the JSON of every older spec byte-identical —
and a wire spec whose value does not fit its annotation is refused at decode.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as AbstractMapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
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

from ..adversary.spec import AttackSpec
from ..multicast_cc.churn import ChurnProcess
from .config import PAPER_DEFAULTS, ExperimentConfig

__all__ = [
    "CohortDecl",
    "SessionDecl",
    "TcpDecl",
    "CbrDecl",
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

#: Classes whose decode refuses keys that name no field.  Declarations
#: ignore them (documents written by a build with more fields still read);
#: the config is all knobs, where a misspelt key would silently run the
#: paper defaults.
_REJECT_UNKNOWN_KEYS = frozenset({ExperimentConfig})

#: The JSON types a scalar annotation accepts.  Checked, never coerced: a
#: JSON integer is a legal ``float`` (``10`` for ``start_s``), a boolean is
#: never an ``int`` although Python would let it pass for one.
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


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
    if type(value) not in _SCALARS[kind]:
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
    if hint in _SCALARS:
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
    cache).  Absent keys take the dataclass default, unknown keys are
    ignored (except on the config), and every present value is checked
    against its field's annotation: a missing required key raises
    :class:`KeyError`, a wrongly-typed value :class:`TypeError` or
    :class:`ValueError` naming the field, instead of a crash inside a run.
    """
    if not isinstance(payload, AbstractMapping):
        raise TypeError(
            f"{cls.__name__} must be a mapping, got {type(payload).__name__}"
        )
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
    if len(kwargs) != len(payload) and cls in _REJECT_UNKNOWN_KEYS:
        unknown = sorted(set(payload) - set(kwargs))
        raise TypeError(f"{cls.__name__} got unknown keys {unknown}")
    return cls(**kwargs)


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
      block's cohorts placed there as rows registered in the scenario's
      :class:`~repro.multicast_cc.population.PopulationTable` (sessions
      scale past 1M receivers).

    ``cohorts`` splits the block's ``count`` members into that many
    homogeneous cohorts (as even as possible; ``None`` means one).  With
    ``model="cohort"`` each gets its own host and receiver — the reference
    path the cohort-count benchmark measures against — while
    ``model="vector"`` packs them as rows behind one receiver per edge.

    ``router`` optionally pins the cohort to a named edge router (default:
    the topology's round-robin receiver placement — for ``"vector"`` the
    cohorts are spread round-robin *across* the receiver edge routers);
    ``start_s`` is the members' shared join time.

    ``attack`` makes the block an **adversarial cohort**: every member
    mounts the declared strategy (the whole registry batches exactly —
    :data:`~repro.adversary.spec.COHORT_BATCHED_STRATEGIES`; the attack's
    ``receivers`` indices are ignored, the block itself is the target).
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
        if self.count < 1:
            raise ValueError("a cohort needs at least one receiver")
        if self.model not in ("cohort", "individual", "vector"):
            raise ValueError(f"unknown receiver model {self.model!r}")
        if self.cohorts is not None:
            if self.cohorts < 1:
                raise ValueError("cohorts must be >= 1 when given")
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
        # Every declarable strategy batches exactly over a cohort: AttackSpec
        # itself rejects registered strategies without batched decision rules
        # (BATCHED_DECISION_RULES), so no per-model gate is needed here.
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


@dataclass(frozen=True)
class SessionDecl(PlainData):
    """One multicast session of a scenario.

    ``attacks`` declares the misbehaviour: each
    :class:`~repro.adversary.spec.AttackSpec` names a registered strategy,
    its parameters and schedule, and the (0-based) receiver indices mounting
    it — several attacks may stack on one receiver.  The historical shorthand
    remains: ``misbehaving`` lists receiver indices that mount the paper's
    default inflated-subscription attack from ``attack_start_s`` (translated
    by the scenario interpreter into the protocol-appropriate strategy
    stack).  ``receiver_routers`` optionally pins each receiver to a named
    router of the topology; ``None`` entries (or omitting the field) fall
    back to the topology's round-robin receiver placement.

    ``population`` appends :class:`CohortDecl` blocks *after* the
    ``receivers`` individual ones.  ``attacks`` entries can only target
    individual receiver indices (``0 .. receivers-1``); a population block
    becomes adversarial by carrying its own :class:`CohortDecl.attack`
    (batch-exact strategies only), which is the paper's threat model taken
    to scale — bounded attacker cohorts against large honest audiences.  A
    session declaring a population may set ``receivers=0``.
    """

    session_id: str
    receivers: int = 1
    misbehaving: Tuple[int, ...] = ()
    attack_start_s: float = 0.0
    attacks: Tuple[AttackSpec, ...] = ()
    receiver_start_times: Optional[Tuple[float, ...]] = None
    receiver_access_delays: Optional[Tuple[Optional[float], ...]] = None
    receiver_routers: Optional[Tuple[Optional[str], ...]] = None
    track_overhead: bool = False
    suppress_unsubscribed_groups: bool = True
    population: Tuple[CohortDecl, ...] = unset(())

    def __post_init__(self) -> None:
        if self.receivers < 0:
            raise ValueError("receivers cannot be negative")
        if self.receivers < 1 and not self.population:
            raise ValueError("a session needs at least one receiver")
        for index in self.misbehaving:
            if not 0 <= index < self.receivers:
                raise ValueError(f"misbehaving index {index} out of range")
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
        indices = set(self.misbehaving)
        for attack in self.attacks:
            indices.update(attack.receivers)
        return tuple(sorted(indices))

    def attack_onset_s(self) -> Optional[float]:
        """Earliest scheduled attack start, or ``None`` without attackers."""
        onsets = [attack.start_s for attack in self.attacks]
        if self.misbehaving:
            onsets.append(self.attack_start_s)
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


@dataclass(frozen=True)
class ScenarioSpec(PlainData):
    """Declarative description of one experiment run.

    ``topology`` names a factory in :data:`repro.simulator.topology.TOPOLOGIES`
    and ``topology_params`` are its keyword arguments.  For the default
    ``dumbbell`` kind with no explicit parameters, the bottleneck is sized from
    the config's fair share times ``expected_sessions`` (or ``bottleneck_bps``
    when given), exactly as the imperative builder always did.

    ``shards`` opts the spec into region-sharded execution: the runner
    partitions the topology's annotated regions into ``shards`` standalone
    sub-scenarios, runs them (serially or on the process pool) and merges the
    results deterministically (:mod:`repro.experiments.shard`).  It must
    match the topology's region count and is omitted from the canonical JSON
    when unset, so every pre-sharding spec hash and golden digest stays
    byte-identical.
    """

    name: str
    protected: bool
    sessions: Tuple[SessionDecl, ...] = ()
    tcp: Tuple[TcpDecl, ...] = ()
    cbr: Tuple[CbrDecl, ...] = ()
    topology: str = "dumbbell"
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    expected_sessions: int = 1
    bottleneck_bps: Optional[float] = None
    duration_s: Optional[float] = None
    record_series: bool = False
    shards: Optional[int] = unset()
    config: ExperimentConfig = PAPER_DEFAULTS

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 2:
            raise ValueError(
                "shards must be >= 2 when set (omit it for unsharded execution)"
            )

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def effective_duration_s(self) -> float:
        """The run duration: the spec override or the config default."""
        return self.config.duration_s if self.duration_s is None else self.duration_s

    @property
    def seed(self) -> int:
        """The RNG seed carried inside the spec's config."""
        return self.config.seed

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec whose config carries ``seed``."""
        return replace(self, config=self.config.with_seed(seed))

    def with_duration(self, duration_s: float) -> "ScenarioSpec":
        """A copy of this spec with an overridden run duration."""
        return replace(self, duration_s=duration_s)
