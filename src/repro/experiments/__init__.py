"""Experiments reproducing every figure of the paper's evaluation (§5).

The stack is layered:

* :mod:`repro.experiments.config` — the shared §5.1 settings.
* :mod:`repro.experiments.spec` — declarative, serialisable scenario
  specifications (:class:`ScenarioSpec`): topology by name, sessions, attack
  schedules, TCP/CBR cross traffic.
* :mod:`repro.experiments.registry` — named scenario registry (see
  ``python -m repro list``).
* :mod:`repro.experiments.scenario` — the interpreter realising specs on the
  simulator's topology graph layer.
* :mod:`repro.experiments.runner` — the cell pipeline, plan → run →
  assemble: the one planner (:func:`plan_cells`), the one metric assembler
  (:func:`collect_metrics`) and the parallel :class:`ExperimentRunner` —
  spec × seed × parameter grids over a process pool, atomic JSON caching.
* :mod:`repro.experiments.shard` — region-sharded execution for 10M+
  receivers: the planner splitting a ``shards=N`` spec into standalone
  region sub-scenarios, the region worker, and the deterministic merge
  (the assembler over N region documents plus the boundary-event summary).
* :mod:`repro.experiments.warmstart` — common-prefix warm-starts for sweep
  grids: canonical prefix planning, slot-barrier checkpoints, the blob
  store, and the one worker body realising and running a scenario.
* :mod:`repro.experiments.figure1` / :mod:`figure8` / :mod:`figure9` — the
  paper's figures, built on the layers above.
"""

from .config import PAPER_DEFAULTS, ExperimentConfig
from .spec import CbrDecl, CohortDecl, ScenarioSpec, SessionDecl, TcpDecl
from .registry import (
    ScenarioEntry,
    list_scenarios,
    register_scenario,
    scenario_entry,
    scenario_spec,
)
from .runner import (
    CellPlan,
    ExperimentExecutionError,
    ExperimentRunner,
    JobExecutor,
    ResultCache,
    RunResult,
    cache_stats,
    collect_metrics,
    execute_spec,
    plan_cell,
    plan_cells,
    prune_cache,
    run_spec_json,
)
from .figure1 import (
    DEFAULT_ATTACK_START_S,
    InflatedSubscriptionResult,
    inflated_subscription_spec,
    run_inflated_subscription_experiment,
)
from .figure8 import (
    PAPER_SESSION_COUNTS,
    ConvergenceResult,
    ResponsivenessResult,
    RttFairnessResult,
    ThroughputVsSessionsResult,
    convergence_spec,
    responsiveness_spec,
    run_convergence,
    run_heterogeneous_rtt,
    run_responsiveness,
    run_throughput_vs_sessions,
    throughput_vs_sessions_spec,
)
from .attacks import attack_duel_spec
from .figure9 import (
    PAPER_GROUP_COUNTS,
    PAPER_SLOT_DURATIONS,
    MeasuredOverheadResult,
    OverheadSweepResult,
    figure9_model,
    measured_overhead_spec,
    run_group_count_sweep,
    run_measured_overhead,
    run_slot_duration_sweep,
)
from .scale import (
    attack_churn_flash_crowd_spec,
    attack_collusion_100k_spec,
    attack_inflated_100k_spec,
    attack_keys_100k_spec,
    run_scale_protection_sweep,
    scale_dumbbell_1m_spec,
    scale_dumbbell_10m_spec,
    scale_dumbbell_spec,
    scale_overhead_spec,
    scale_protection_spec,
)
from .scenario import MulticastSession, Scenario
from .shard import ShardPlan, merge_region_results, plan_shards, run_region_json
from .warmstart import CheckpointStore, PrefixPlan, plan_prefix
from ..multicast_cc.churn import ChurnProcess

__all__ = [
    "PAPER_DEFAULTS",
    "ExperimentConfig",
    "CbrDecl",
    "ChurnProcess",
    "CohortDecl",
    "ScenarioSpec",
    "SessionDecl",
    "TcpDecl",
    "attack_churn_flash_crowd_spec",
    "attack_collusion_100k_spec",
    "attack_inflated_100k_spec",
    "attack_keys_100k_spec",
    "run_scale_protection_sweep",
    "scale_dumbbell_1m_spec",
    "scale_dumbbell_10m_spec",
    "scale_dumbbell_spec",
    "scale_overhead_spec",
    "scale_protection_spec",
    "ScenarioEntry",
    "list_scenarios",
    "register_scenario",
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
    "run_spec_json",
    "CheckpointStore",
    "PrefixPlan",
    "plan_prefix",
    "attack_duel_spec",
    "DEFAULT_ATTACK_START_S",
    "InflatedSubscriptionResult",
    "inflated_subscription_spec",
    "run_inflated_subscription_experiment",
    "PAPER_SESSION_COUNTS",
    "ConvergenceResult",
    "ResponsivenessResult",
    "RttFairnessResult",
    "ThroughputVsSessionsResult",
    "convergence_spec",
    "responsiveness_spec",
    "run_convergence",
    "run_heterogeneous_rtt",
    "run_responsiveness",
    "run_throughput_vs_sessions",
    "throughput_vs_sessions_spec",
    "PAPER_GROUP_COUNTS",
    "PAPER_SLOT_DURATIONS",
    "MeasuredOverheadResult",
    "OverheadSweepResult",
    "figure9_model",
    "measured_overhead_spec",
    "run_group_count_sweep",
    "run_measured_overhead",
    "run_slot_duration_sweep",
    "MulticastSession",
    "Scenario",
    "ShardPlan",
    "merge_region_results",
    "plan_shards",
    "run_region_json",
]
