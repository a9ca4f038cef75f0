"""Region-sharded execution: the region planner and the deterministic merge.

Vector placement (one receiver per edge router carrying many cohort rows)
takes one session to a million receivers on a single CPU; this module is the other half of the scale story
— *hierarchical aggregation* in the sense of the "Scalable Internetworking"
report: partition an annotated topology into regions cut at designated
trunk-to-region links, run each region as an ordinary standalone scenario
(in-process or in a :class:`~concurrent.futures.ProcessPoolExecutor`
worker), and merge the results deterministically.

The two halves, around the ``region`` job that
:func:`~repro.experiments.runner.run_job` runs in a worker:

* :func:`plan_shards` — the **region planner**.  A spec with ``shards=N``
  runs on a topology whose :class:`~repro.simulator.topology.TopologySpec`
  annotates exactly ``N`` regions, and declaring it already refused
  everything that would couple regions
  (:class:`~repro.experiments.spec.ScenarioSpec`).  The planner splits every
  session's vector population blocks into per-region sub-blocks.  The split
  is exact: receiver edge routers are region-contiguous, so the round-robin
  row placement assigns each region a contiguous share of the
  :func:`~repro.multicast_cc.population.split_counts` row sequence, and
  re-splitting that share inside the region reproduces the very same rows on
  the very same edges.  Each region becomes a standalone
  :class:`~repro.experiments.spec.ScenarioSpec` over the single-region
  sub-topology (``topology_params["region"]``) with identical router names
  and link parameters.

  Regions whose sub-specs are equal but for that ``region`` number run
  once (:func:`~repro.experiments.runner.plan_cells`), and their one
  document stands for each of them.  That is exact, for three reasons:

  - ``sharded-dumbbell``, the only factory that annotates regions, builds
    every region from the same link numbers and names its routers only by
    region number;
  - every RNG stream is named by session and host, and host names are
    region-local (``audience-vec1-1`` in every region), so no stream,
    placement or metric reads a region's router names;
  - a region document names no router.
* :func:`merge_region_results` — the **deterministic merge**.  Validates
  the region documents' count and order, hands them to the one metric
  assembler (:func:`~repro.experiments.metrics.assemble` — the same code an
  unsharded run goes through with a single document, so every float
  reduction happens in the unsharded receiver index order), and folds the
  boundary events into per-slot barriers (slot-major, then region-major)
  summarised by a SHA-256 digest.  The merge is a pure function of the
  region documents, so running the regions serially or on the pool yields a
  byte-identical merged result — the serial == sharded contract
  (``docs/determinism.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..multicast_cc.population import split_counts
from ..simulator.topology import TopologySpec
from .metrics import RunResult, assemble, attack_onsets
from .spec import CohortDecl, ScenarioSpec, SessionDecl

__all__ = [
    "RegionSession",
    "RegionPlan",
    "ShardPlan",
    "plan_shards",
    "merge_region_results",
]


@dataclass(frozen=True)
class RegionSession:
    """One session's share of a region: which original blocks it carries."""

    session_index: int
    block_indices: Tuple[int, ...]


@dataclass(frozen=True)
class RegionPlan:
    """One region of a :class:`ShardPlan`: a standalone runnable sub-spec."""

    region: int
    spec: ScenarioSpec
    sessions: Tuple[RegionSession, ...]


@dataclass(frozen=True)
class ShardPlan:
    """The full execution plan for one sharded spec."""

    spec: ScenarioSpec
    topology: TopologySpec
    regions: Tuple[RegionPlan, ...]
    slot_s: float
    #: Attack onsets precomputed from the *original* spec (a region sub-spec
    #: may omit sessions, which would shift the global onset): per-session
    #: onset plus the global minimum, or ``None`` without attackers.
    onsets: Optional[Dict[str, Any]]


def plan_shards(spec: ScenarioSpec) -> ShardPlan:
    """Partition a ``shards=N`` spec into ``N`` standalone region sub-specs.

    Declaring the spec matched ``shards`` to the region count and refused
    what would couple regions or depend on a topology-global placement
    cursor, and ``sharded-dumbbell`` (the one factory annotating regions)
    lists every receiver edge inside a region, region-major.
    """
    if spec.shards is None:
        raise ValueError("spec has no shards field set; nothing to plan")
    topology = spec.network_topology
    edges = topology.receiver_routers
    edge_regions = [topology.region_of(edge) for edge in edges]
    count = len(topology.regions)
    # Per region, for every session with blocks there: which of the spec's
    # blocks they are, and the region's share of the session.
    regional: List[List[Tuple[RegionSession, SessionDecl]]] = [
        [] for _ in range(count)
    ]
    for s_index, decl in enumerate(spec.sessions):
        per_region: Dict[int, List[Tuple[int, CohortDecl]]] = {}
        for b_index, block in enumerate(decl.population):
            if block.router is not None:
                region = topology.region_of(block.router)
                per_region.setdefault(region, []).append((b_index, block))
                continue
            rows = split_counts(block.count, block.cohorts or 1)
            rows_by_region: Dict[int, List[int]] = {}
            for row, members in enumerate(rows):
                rows_by_region.setdefault(edge_regions[row % len(edges)], []).append(
                    members
                )
            for region in sorted(rows_by_region):
                share = rows_by_region[region]
                per_region.setdefault(region, []).append(
                    (
                        b_index,
                        replace(
                            block,
                            count=sum(share),
                            cohorts=len(share) if len(share) > 1 else None,
                        ),
                    )
                )
        for region, entries in per_region.items():
            # Blocks were visited in order and land at most once per region,
            # so ``entries`` is already in block order.
            regional[region].append(
                (
                    RegionSession(s_index, tuple(b_index for b_index, _ in entries)),
                    replace(decl, population=tuple(block for _, block in entries)),
                )
            )

    region_plans = [
        RegionPlan(
            region=region + 1,
            spec=replace(
                spec,
                topology_params={**spec.topology_params, "region": region + 1},
                sessions=tuple(share for _, share in shares),
                shards=None,
            ),
            sessions=tuple(mapping for mapping, _ in shares),
        )
        for region, shares in enumerate(regional)
    ]
    return ShardPlan(
        spec=spec,
        topology=topology,
        regions=tuple(region_plans),
        slot_s=spec.slot_duration_s,
        onsets=attack_onsets(spec),
    )


# ----------------------------------------------------------------------
# merge side
# ----------------------------------------------------------------------
def merge_boundary_events(
    plan: ShardPlan, documents: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold per-region boundary events into deterministic slot barriers.

    Events are bucketed into slots of the protocol's slot duration and
    emitted slot-major, region-major, preserving each region's own event
    order — cross-region ordering *within* a slot is not physically
    meaningful, only the slot barrier is, so the barrier order is the
    deterministic one.  The merged stream is summarised (counts + SHA-256
    digest) rather than embedded, keeping the metric document small.
    """
    slot_s = plan.slot_s
    buckets: Dict[int, List[List[Any]]] = {}
    joins = 0
    leaves = 0
    per_region: Dict[str, int] = {}
    for region_plan, document in zip(plan.regions, documents):
        events = document.get("boundary", [])
        per_region[str(region_plan.region)] = len(events)
        for event in events:
            time_s, group, host, delta = event
            slot = int(time_s / slot_s)
            buckets.setdefault(slot, []).append(
                [slot, region_plan.region, time_s, group, host, delta]
            )
            if delta > 0:
                joins += 1
            else:
                leaves += 1
    merged: List[List[Any]] = []
    for slot in sorted(buckets):
        merged.extend(buckets[slot])
    digest = hashlib.sha256(
        json.dumps(merged, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return {
        "slot_s": slot_s,
        "regions": len(plan.regions),
        "events": joins + leaves,
        "joins": joins,
        "leaves": leaves,
        "per_region": per_region,
        "digest": digest,
    }


def merge_region_results(
    plan: ShardPlan, documents: Sequence[Dict[str, Any]]
) -> RunResult:
    """Deterministically merge region documents into one :class:`RunResult`.

    The documents must be the plan's regions, in region order.  Their
    metric ingredients go through :func:`~repro.experiments.metrics.assemble`
    — the assembler of every run, here over N documents, each mapped onto
    the original spec's sessions and blocks by its region plan — and the
    ``boundary`` summary (:func:`merge_boundary_events`) is the one
    sharding-only block added on top.
    """
    if len(documents) != len(plan.regions):
        raise ValueError(
            f"expected {len(plan.regions)} region documents, got {len(documents)}"
        )
    for region_plan, document in zip(plan.regions, documents):
        if document.get("region") != region_plan.region:
            raise ValueError(
                f"region document out of order: expected region "
                f"{region_plan.region}, got {document.get('region')}"
            )
    layouts = [
        [(session.session_index, session.block_indices) for session in region.sessions]
        for region in plan.regions
    ]
    metrics = assemble(plan.spec, plan.onsets, documents, layouts)
    metrics["boundary"] = merge_boundary_events(plan, documents)
    return RunResult.for_spec(plan.spec, metrics)
