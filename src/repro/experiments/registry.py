"""Named scenario and figure registries.

Experiments register :class:`~repro.experiments.spec.ScenarioSpec` builders
under a stable name, making every scenario addressable from the command line
(``python -m repro run <name>``), from the parallel runner, and from tests.
A builder is a callable returning a spec; keyword parameters are forwarded,
so registered scenarios stay parameterisable (seed, duration, scale knobs).

Each table of the paper's evaluation is a :class:`FigureDecl`: the cells its
registered builders produce at given axis values, and a pure reducer from
those cells' :class:`~repro.experiments.metrics.RunResult` documents to the
table.  :func:`run_figure` is the one way a figure runs — every cell goes
through :class:`~repro.experiments.runner.ExperimentRunner`, so figures get
the result cache, warm-starts and the worker pool like any other batch.

The paper's scenarios and figures register themselves from their modules
(:mod:`repro.experiments.figure1`, :mod:`~repro.experiments.figure8`,
:mod:`~repro.experiments.figure9`); the multi-bottleneck showcases on the
parking-lot / star / binary-tree topologies are registered here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    get_type_hints,
)

from ..adversary.spec import paper_attacker
from ..simulator.monitors import window_rate_bps
from .metrics import RunResult
from .runner import ExperimentRunner
from .spec import FAIR_SHARE_BPS, CbrDecl, ScenarioSpec, SessionDecl, TcpDecl, _decoder

__all__ = [
    "FigureDecl",
    "ScenarioEntry",
    "figure",
    "list_figures",
    "register_figure",
    "register_scenario",
    "run_figure",
    "scenario_spec",
    "scenario_entry",
    "list_scenarios",
]


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: its name, a short description, a builder."""

    name: str
    description: str
    builder: Callable[..., ScenarioSpec]

    def build(self, **params) -> ScenarioSpec:
        """The builder's spec for ``params``.

        The codec's decoder for each named parameter's annotation refuses a
        value of another kind, naming it, before ``True`` or ``2.0`` sizes a
        topology wrongly or a string fails inside the builder.  A builder's
        ``**params: Any`` are its strategy's, which ``AttackSpec`` checks.
        """
        hints = get_type_hints(self.builder) if params else {}
        for key, value in params.items():
            if hints.get(key, Any) is not Any:
                try:
                    params[key] = _decoder(hints[key])(value)
                except (TypeError, ValueError) as error:
                    raise type(error)(f"scenario {self.name!r}: {key}: {error}") from None
        return self.builder(**params)


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register_scenario(name: str, description: str):
    """Decorator registering ``builder(**params) -> ScenarioSpec`` as ``name``."""

    def decorate(builder: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioEntry(name=name, description=description, builder=builder)
        return builder

    return decorate


def scenario_entry(name: str) -> ScenarioEntry:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from exc


def scenario_spec(name: str, **params) -> ScenarioSpec:
    """Build the named scenario's spec with builder keyword ``params``."""
    return scenario_entry(name).build(**params)


def list_scenarios() -> List[ScenarioEntry]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# figures: a grid of cells and a reducer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureDecl:
    """One table of the paper's evaluation, registered under ``name``.

    ``cells(**axes)`` builds the figure's cells with registered scenario
    builders at the given axis values (its keyword defaults are the
    paper's).  ``reduce(cells, results)`` is a pure function from those
    cells and their results, in cell order, to the figure's plain-JSON
    table; an analytic figure has no cells and reduces ``([], [])``.
    """

    name: str
    cells: Callable[..., List[ScenarioSpec]]
    reduce: Callable[[Sequence[ScenarioSpec], Sequence[RunResult]], Dict[Any, Any]]


_FIGURES: Dict[str, FigureDecl] = {}


def register_figure(name: str, cells: Callable[..., List[ScenarioSpec]]):
    """Decorator registering ``reduce(cells, results) -> table`` as figure ``name``."""

    def decorate(reduce: Callable[..., Dict[Any, Any]]) -> Callable[..., Dict[Any, Any]]:
        if name in _FIGURES:
            raise ValueError(f"figure {name!r} is already registered")
        _FIGURES[name] = FigureDecl(name, cells, reduce)
        return reduce

    return decorate


def figure(name: str) -> FigureDecl:
    """The registered figure called ``name``."""
    try:
        return _FIGURES[name]
    except KeyError as exc:
        raise KeyError(f"unknown figure {name!r}; known: {sorted(_FIGURES)}") from exc


def list_figures() -> List[FigureDecl]:
    """All registered figures, sorted by name."""
    return [_FIGURES[name] for name in sorted(_FIGURES)]


def run_figure(
    decl: FigureDecl, runner: Optional[ExperimentRunner] = None, **axes: Any
) -> Dict[Any, Any]:
    """Run ``decl``'s cells at ``axes`` and reduce their results to its table.

    The cells go through ``runner`` (a fresh serial
    :class:`~repro.experiments.runner.ExperimentRunner` by default) as one
    batch, with ``record_series`` set so every result carries the raw
    throughput bins and level histories the reducers window.
    """
    cells = [replace(spec, record_series=True) for spec in decl.cells(**axes)]
    return decl.reduce(cells, (runner or ExperimentRunner()).run(cells))


def series_kbps(bins: Collection[Tuple[int, int]], start_s: float, end_s: float) -> float:
    """Average Kbps over [start_s, end_s] of one recorded series' bins.

    Every monitor bins by :data:`~repro.simulator.monitors.BIN_WIDTH_S`, so
    this is :meth:`~repro.simulator.monitors.ThroughputMonitor.average_rate_kbps`
    of the live monitor, to the bit.
    """
    return window_rate_bps(bins, start_s, end_s) / 1e3


# ----------------------------------------------------------------------
# showcases on the multi-bottleneck topologies
# ----------------------------------------------------------------------
@register_scenario(
    "parking-lot-attack",
    "Inflated-subscription attack on a 3-hop parking lot: the attacker sits "
    "one hop in, its victims span every bottleneck",
)
def parking_lot_attack(
    protected: bool = True,
    hops: int = 3,
    attack_start_s: float = 30.0,
    duration_s: float = 90.0,
) -> ScenarioSpec:
    receivers = hops
    routers = tuple(f"r{i + 1}" for i in range(receivers))
    return ScenarioSpec(
        name="parking-lot-attack",
        protected=protected,
        topology="parking-lot",
        topology_params={
            "hops": hops,
            "bottleneck_bandwidth_bps": 2 * FAIR_SHARE_BPS,
        },
        sessions=(
            SessionDecl(
                "victims",
                receivers=receivers,
                receiver_routers=routers,
            ),
            SessionDecl(
                "attacker",
                receivers=1,
                attacks=paper_attacker(protected, start_s=attack_start_s),
                receiver_routers=("r1",),
            ),
        ),
        duration_s=duration_s,
    )


@register_scenario(
    "star-fanout",
    "One session fanning out to independently-bottlenecked star arms, with a "
    "TCP flow competing on the first arm",
)
def star_fanout(
    protected: bool = True,
    arms: int = 4,
    duration_s: float = 60.0,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="star-fanout",
        protected=protected,
        topology="star",
        topology_params={
            "arms": arms,
            "arm_bandwidth_bps": 2 * FAIR_SHARE_BPS,
        },
        sessions=(
            SessionDecl(
                "fanout",
                receivers=arms,
                receiver_routers=tuple(f"arm{i + 1}" for i in range(arms)),
            ),
        ),
        tcp=(TcpDecl("cross", receiver_router="arm1"),),
        duration_s=duration_s,
    )


@register_scenario(
    "tree-convergence",
    "Staggered receivers joining across the leaves of a binary distribution "
    "tree, with a CBR burst squeezing the root link",
)
def tree_convergence(
    protected: bool = True,
    depth: int = 3,
    duration_s: float = 60.0,
) -> ScenarioSpec:
    leaves = 2 ** max(depth - 1, 0)  # an int even where the topology refuses depth
    first_leaf = leaves - 1
    return ScenarioSpec(
        name="tree-convergence",
        protected=protected,
        topology="binary-tree",
        topology_params={
            "depth": depth,
            "link_bandwidth_bps": 4 * FAIR_SHARE_BPS,
        },
        sessions=(
            SessionDecl(
                "tree",
                receivers=leaves,
                receiver_start_times=tuple(5.0 * i for i in range(leaves)),
                receiver_routers=tuple(f"t{first_leaf + i}" for i in range(leaves)),
            ),
        ),
        cbr=(
            CbrDecl(
                "burst",
                rate_bps=2 * FAIR_SHARE_BPS,
                on_s=15.0,
                off_s=1.0,
                active_window=(30.0, 45.0),
                receiver_router=f"t{first_leaf}",
            ),
        ),
        duration_s=duration_s,
    )
