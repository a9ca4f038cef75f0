"""The scenario catalogue and the figure registry, as rows.

A scenario is one :class:`ScenarioEntry` row: its name, a description, the
parameters it takes with their types and defaults, and the builder it calls.
Every scenario is addressable by name from the command line (``python -m
repro run <name> --param key=value``), from the parallel runner and from
tests, and every override is checked against the row before its builder runs.
Scenarios of one shape share one builder: the F1/F2 duels
(:mod:`repro.experiments.attacks`) and the cohort duels
(:mod:`repro.experiments.scale`).

Each table of the paper's evaluation is a :class:`FigureDecl` row: the
scenario its cells build, a grid over that scenario's parameters, the values
every cell fixes, and a pure reducer from those cells'
:class:`~repro.experiments.metrics.RunResult` documents to the table.
:func:`run_figure` is the one way a figure runs — every cell goes through
:class:`~repro.experiments.runner.ExperimentRunner`, so figures get the
result cache, warm-starts and the worker pool like any other batch.

The paper's scenarios and figures register their rows from their modules
(:mod:`repro.experiments.figure1`, :mod:`~repro.experiments.figure8`,
:mod:`~repro.experiments.figure9`); the multi-bottleneck showcases on the
parking-lot / star / binary-tree topologies are registered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

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
    """One row of the scenario catalogue.

    ``params`` maps each parameter the scenario takes to its default; its
    type is the default's, unless ``hints`` gives its annotation (a tuple, or
    ``Optional`` for a default of ``None``).  :meth:`build` calls
    ``builder(name, **params)`` with every parameter set.  A row with
    ``strategy_params`` gathers the keywords it does not declare into its
    builder's ``strategy_params`` mapping: its attacker strategy's
    parameters, which ``AttackSpec`` checks by name.
    """

    name: str
    description: str
    builder: Callable[..., ScenarioSpec]
    params: Mapping[str, Any]
    hints: Mapping[str, Any] = field(default_factory=dict)
    strategy_params: bool = False

    def build(self, **overrides: Any) -> ScenarioSpec:
        """The row's spec with ``overrides`` in place of its defaults.

        The codec's decoder for each parameter's type refuses a value of
        another kind, naming it, before ``True`` or ``2.0`` sizes a topology
        wrongly or a string fails inside the builder; a parameter the row
        does not declare is refused by name.
        """
        values = dict(self.params)
        strategy_params = {}
        for key, value in overrides.items():
            if key in values:
                hint = self.hints.get(key, type(self.params[key]))
                try:
                    values[key] = _decoder(hint)(value)
                except (TypeError, ValueError) as error:
                    raise type(error)(f"scenario {self.name!r}: {key}: {error}") from None
            elif self.strategy_params:
                strategy_params[key] = value
            else:
                raise TypeError(
                    f"scenario {self.name!r}: unexpected keyword argument {key!r}; "
                    f"it takes {', '.join(self.params)}"
                )
        if self.strategy_params:
            values["strategy_params"] = strategy_params
        return self.builder(self.name, **values)


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register_scenario(
    name: str, description: str, params: Mapping[str, Any], **fields: Any
) -> Callable[[Callable[..., ScenarioSpec]], Callable[..., ScenarioSpec]]:
    """Decorator registering ``builder`` as the row ``name`` taking ``params``
    (parameter → default), with the other :class:`ScenarioEntry` ``fields``."""

    def decorate(builder: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioEntry(name, description, builder, params, **fields)
        return builder

    return decorate


def _row(table: Dict[str, Any], kind: str, name: str) -> Any:
    """The row ``name`` of ``table``; an unknown name is refused with the known ones."""
    try:
        return table[name]
    except KeyError as exc:
        raise KeyError(f"unknown {kind} {name!r}; known: {sorted(table)}") from exc


def scenario_entry(name: str) -> ScenarioEntry:
    """The registered scenario row called ``name``."""
    return _row(_REGISTRY, "scenario", name)


def scenario_spec(name: str, **params: Any) -> ScenarioSpec:
    """The named scenario's spec with ``params`` in place of its defaults."""
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

    Its cells are the registered ``scenario`` at every point of ``grid``
    (parameter → values, crossed in order) with ``fixed`` values; an axis
    named in ``grid_axes`` replaces the values of the grid parameter it
    maps to, and every other axis goes to the scenario as a parameter.
    ``reduce(cells, results)`` is a pure function from those cells and
    their results, in cell order, to the figure's plain-JSON table; an
    analytic figure has no ``scenario`` and reduces ``([], [])``.
    """

    name: str
    reduce: Callable[[Sequence[ScenarioSpec], Sequence[RunResult]], Dict[Any, Any]]
    scenario: Optional[str] = None
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    grid_axes: Mapping[str, str] = field(default_factory=dict)

    def cells(self, **axes: Any) -> List[ScenarioSpec]:
        """The figure's cells at ``axes`` (the defaults are the paper's)."""
        if self.scenario is None:
            if axes:
                raise TypeError(f"figure {self.name!r} is analytic and takes no axes")
            return []
        grid = dict(self.grid)
        for axis, param in self.grid_axes.items():
            if axis in axes:
                grid[param] = axes.pop(axis)
        return [
            scenario_spec(self.scenario, **dict(zip(grid, point)), **self.fixed, **axes)
            for point in product(*grid.values())
        ]


_FIGURES: Dict[str, FigureDecl] = {}


def register_figure(
    name: str, **fields: Any
) -> Callable[[Callable[..., Dict[Any, Any]]], Callable[..., Dict[Any, Any]]]:
    """Decorator registering ``reduce(cells, results) -> table`` as the figure
    row ``name``, with the other :class:`FigureDecl` ``fields``."""

    def decorate(reduce: Callable[..., Dict[Any, Any]]) -> Callable[..., Dict[Any, Any]]:
        if name in _FIGURES:
            raise ValueError(f"figure {name!r} is already registered")
        _FIGURES[name] = FigureDecl(name, reduce, **fields)
        return reduce

    return decorate


def figure(name: str) -> FigureDecl:
    """The registered figure called ``name``."""
    return _row(_FIGURES, "figure", name)


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
    dict(protected=True, hops=3, attack_start_s=30.0, duration_s=90.0),
)
def _parking_lot_attack(
    name: str, protected: bool, hops: int, attack_start_s: float, duration_s: float
) -> ScenarioSpec:
    receivers = hops
    routers = tuple(f"r{i + 1}" for i in range(receivers))
    return ScenarioSpec(
        name=name,
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
    dict(protected=True, arms=4, duration_s=60.0),
)
def _star_fanout(name: str, protected: bool, arms: int, duration_s: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
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
    dict(protected=True, depth=3, duration_s=60.0),
)
def _tree_convergence(name: str, protected: bool, depth: int, duration_s: float) -> ScenarioSpec:
    leaves = 2 ** max(depth - 1, 0)  # an int even where the topology refuses depth
    first_leaf = leaves - 1
    return ScenarioSpec(
        name=name,
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
