"""Experiments reproducing every figure of the paper's evaluation (§5).

The stack is layered:

* :mod:`repro.experiments.spec` — declarative, serialisable scenario
  specifications (:class:`ScenarioSpec`): topology by name, sessions and
  their layering, attack schedules, TCP/CBR cross traffic, the seed; the
  §5.1 settings no run varies are its constants.
* :mod:`repro.experiments.registry` — the scenario catalogue, one
  :class:`ScenarioEntry` row per named scenario (see ``python -m repro
  list``), and the figure registry: each table of the paper's evaluation as
  a :class:`FigureDecl` row (a scenario, a grid over its parameters and a
  pure reducer), run through the runner by :func:`run_figure`.
* :mod:`repro.experiments.scenario` — the interpreter realising specs on the
  simulator's topology graph layer.
* :mod:`repro.experiments.metrics` — the one metric assembler
  (:func:`collect_metrics`): a finished run's measurements, one document
  per run, assembled into a :class:`RunResult`.
* :mod:`repro.experiments.warmstart` — common-prefix warm-starts for sweep
  grids: canonical prefix planning, slot-barrier checkpoints, the blob
  store, and the body realising and running a cell.
* :mod:`repro.experiments.shard` — region-sharded execution for 10M+
  receivers: the planner splitting a ``shards=N`` spec into standalone
  region sub-scenarios and the deterministic merge (the assembler over N
  region documents plus the boundary-event summary).
* :mod:`repro.experiments.runner` — the cell pipeline, plan → run →
  assemble (the planner, a planned cell's steps, the worker entry point)
  and the parallel :class:`ExperimentRunner` with atomic JSON caching.
* :mod:`repro.experiments.figure1` / :mod:`figure8` / :mod:`figure9`,
  :mod:`~repro.experiments.attacks` and :mod:`~repro.experiments.scale` —
  the rows of the paper's scenarios and figures, built on the layers above.
"""

from .spec import FAIR_SHARE_BPS, CbrDecl, CohortDecl, ScenarioSpec, SessionDecl, TcpDecl
from .registry import (
    FigureDecl,
    ScenarioEntry,
    figure,
    list_figures,
    list_scenarios,
    register_figure,
    register_scenario,
    run_figure,
    scenario_entry,
    scenario_spec,
)
from .metrics import RunResult, collect_metrics
from .runner import (
    CellPlan,
    ExperimentExecutionError,
    ExperimentRunner,
    JobExecutor,
    ResultCache,
    cache_stats,
    execute_spec,
    plan_cell,
    plan_cells,
    prune_cache,
)
from . import figure1  # registers the Figure 1 and Figure 7 rows
from .figure8 import PAPER_SESSION_COUNTS
from .attacks import attack_duel_spec
from .figure9 import PAPER_GROUP_COUNTS, PAPER_SLOT_DURATIONS, figure9_model
from .scale import scale_dumbbell_spec, scale_protection_spec
from .scenario import MulticastSession, Scenario
from .shard import ShardPlan, merge_region_results, plan_shards
from .warmstart import PrefixPlan, plan_prefix
from ..multicast_cc.churn import ChurnProcess

__all__ = [
    "FAIR_SHARE_BPS",
    "CbrDecl",
    "ChurnProcess",
    "CohortDecl",
    "ScenarioSpec",
    "SessionDecl",
    "TcpDecl",
    "scale_dumbbell_spec",
    "scale_protection_spec",
    "FigureDecl",
    "ScenarioEntry",
    "figure",
    "list_figures",
    "list_scenarios",
    "register_figure",
    "register_scenario",
    "run_figure",
    "scenario_entry",
    "scenario_spec",
    "CellPlan",
    "ExperimentExecutionError",
    "ExperimentRunner",
    "JobExecutor",
    "ResultCache",
    "RunResult",
    "cache_stats",
    "collect_metrics",
    "execute_spec",
    "plan_cell",
    "plan_cells",
    "prune_cache",
    "PrefixPlan",
    "plan_prefix",
    "attack_duel_spec",
    "PAPER_SESSION_COUNTS",
    "PAPER_GROUP_COUNTS",
    "PAPER_SLOT_DURATIONS",
    "figure9_model",
    "MulticastSession",
    "Scenario",
    "ShardPlan",
    "merge_region_results",
    "plan_shards",
]
