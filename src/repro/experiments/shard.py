"""Region-sharded execution: planner, region workers and deterministic merge.

Vector placement (one receiver per edge router carrying many cohort rows)
takes one session to a million receivers on a single CPU; this module is the other half of the scale story
— *hierarchical aggregation* in the sense of the "Scalable Internetworking"
report: partition an annotated topology into regions cut at designated
trunk-to-region links, run each region as an ordinary standalone scenario
(in-process or in a :class:`~concurrent.futures.ProcessPoolExecutor`
worker), and merge the results deterministically.

The three layers:

* :func:`plan_shards` — the **region planner**.  Validates that a spec with
  ``shards=N`` runs on a topology whose :class:`~repro.simulator.topology.
  TopologySpec` annotates exactly ``N`` regions, then splits every session's
  vector population blocks into per-region sub-blocks.  The split is exact:
  receiver edge routers are region-contiguous, so the round-robin row
  placement assigns each region a contiguous share of the
  :func:`~repro.multicast_cc.population.split_counts` row sequence, and
  re-splitting that share inside the region reproduces the very same rows on
  the very same edges.  Each region becomes a standalone
  :class:`~repro.experiments.spec.ScenarioSpec` over the single-region
  sub-topology (``topology_params["region"]``) with identical router names
  and link parameters.
* :func:`run_region_json` — the **worker entry point** (module-level and
  string-typed, so it pickles into pool workers exactly like
  :func:`~repro.experiments.runner.run_spec_json`).  Runs one region
  through the shared worker body
  (:func:`~repro.experiments.warmstart.run_scenario`), records the boundary
  events (effective membership transitions — the result of IGMP/SIGMA
  signalling crossing the region's cut link) via the multicast service's
  ``membership_log`` hook, and returns the region's metric ingredients
  (:func:`~repro.experiments.runner.collect_ingredients`) as JSON.
* :func:`merge_region_results` — the **deterministic merge**.  Validates
  the region documents' count and order, hands them to the one metric
  assembler (:func:`~repro.experiments.runner.assemble` — the same code an
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
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..multicast_cc.population import split_counts
from ..simulator.topology import TopologySpec, build_topology
from .runner import RunResult, assemble, attack_onsets, collect_ingredients
from .spec import CohortDecl, ScenarioSpec, SessionDecl, canonical_json
from .warmstart import run_scenario

__all__ = [
    "RegionSession",
    "RegionPlan",
    "ShardPlan",
    "plan_shards",
    "region_payloads",
    "run_region_json",
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

    Raises :class:`ValueError` when the spec is not shardable: the topology
    must annotate exactly ``N`` regions with region-contiguous receiver edge
    routers, sessions must realise their whole population as blocks
    (``receivers=0``; the individual-receiver path uses a topology-global
    placement cursor), every round-robin block must use the
    ``model="vector"`` placement, and globally-coupled features (TCP/CBR cross
    traffic, overhead tracking, series recording) are rejected.
    """
    if spec.shards is None:
        raise ValueError("spec has no shards field set; nothing to plan")
    if spec.topology == "dumbbell":
        raise ValueError(
            "the default dumbbell has no topology regions; sharding needs an "
            "annotated topology such as 'sharded-dumbbell'"
        )
    params = dict(spec.topology_params)
    if "region" in params:
        raise ValueError("topology_params['region'] is reserved for region workers")
    topology = build_topology(spec.topology, **params)
    if not topology.regions:
        raise ValueError(
            f"topology {spec.topology!r} annotates no regions; sharding cuts "
            "at region boundaries"
        )
    if len(topology.regions) != spec.shards:
        raise ValueError(
            f"spec declares shards={spec.shards} but topology "
            f"{spec.topology!r} annotates {len(topology.regions)} regions"
        )
    if spec.tcp or spec.cbr:
        raise ValueError("TCP/CBR cross traffic couples regions; cannot shard")
    if spec.record_series:
        raise ValueError("record_series is not supported on sharded runs")

    edges = topology.receiver_routers
    edge_regions: List[int] = []
    for edge in edges:
        region = topology.region_of(edge)
        if region is None:
            raise ValueError(f"receiver router {edge!r} is not in any region")
        edge_regions.append(region)
    # Region contiguity is what makes the vector-row split exact: each
    # region's edges must form one contiguous run of the receiver list.
    seen: List[int] = []
    for region in edge_regions:
        if seen and seen[-1] != region and region in seen:
            raise ValueError(
                "receiver routers must be region-contiguous for exact "
                "round-robin re-splitting"
            )
        if not seen or seen[-1] != region:
            seen.append(region)

    count = len(topology.regions)
    # Per region, for every session with blocks there: which of the spec's
    # blocks they are, and the region's share of the session.
    regional: List[List[Tuple[RegionSession, SessionDecl]]] = [
        [] for _ in range(count)
    ]
    for s_index, decl in enumerate(spec.sessions):
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
        per_region: Dict[int, List[Tuple[int, CohortDecl]]] = {}
        for b_index, block in enumerate(decl.population):
            if block.router is not None:
                region = topology.region_of(block.router)
                if region is None:
                    raise ValueError(
                        f"block router {block.router!r} is not in any region"
                    )
                per_region.setdefault(region, []).append((b_index, block))
                continue
            if block.model != "vector":
                raise ValueError(
                    f"unpinned model={block.model!r} blocks round-robin over a "
                    "topology-global cursor; pin them to a router or use "
                    'model="vector" to shard'
                )
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
                topology_params={**params, "region": region + 1},
                sessions=tuple(share for _, share in shares),
                shards=None,
            ),
            sessions=tuple(mapping for mapping, _ in shares),
        )
        for region, shares in enumerate(regional)
    ]
    config = spec.config
    slot_s = config.flid_ds_slot_s if spec.protected else config.flid_dl_slot_s
    return ShardPlan(
        spec=spec,
        topology=topology,
        regions=tuple(region_plans),
        slot_s=slot_s,
        onsets=attack_onsets(spec),
    )


def region_payloads(
    plan: ShardPlan, warm_blocks: Optional[Sequence[Dict[str, Any]]] = None
) -> List[str]:
    """One worker payload (JSON string) per region, in region order.

    ``warm_blocks`` — one :meth:`PrefixPlan.block
    <repro.experiments.warmstart.PrefixPlan.block>` per region, in region
    order — makes the regions resume from their prefix checkpoints instead
    of running from ``t=0``.
    """
    payloads: List[str] = []
    for index, region in enumerate(plan.regions):
        payload: Dict[str, Any] = {
            "kind": "region",
            "region": region.region,
            "spec": region.spec.to_dict(),
            "slot_s": plan.slot_s,
            "onsets": plan.onsets,
        }
        if warm_blocks is not None:
            payload["warm"] = warm_blocks[index]
        payloads.append(canonical_json(payload))
    return payloads


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_region_json(payload_json: str) -> str:
    """Worker entry point: region payload JSON in, region document JSON out.

    Module-level and string-typed so it pickles into pool workers.  The
    returned document is the region's metric ingredients
    (:func:`~repro.experiments.runner.collect_ingredients`, with the
    protection windows of the *whole* spec from the payload) plus the
    region number, the recorded boundary events and the region's wall time
    (the only nondeterministic field — the merge drops it).  A ``warm``
    block in the payload resumes the region from its prefix checkpoint.
    """
    payload = json.loads(payload_json)
    spec = ScenarioSpec.from_dict(payload["spec"])
    started = time.perf_counter()
    scenario = run_scenario(spec, warm=payload.get("warm"), membership_log=True)
    wall_s = time.perf_counter() - started
    document = collect_ingredients(scenario, spec, payload.get("onsets"))
    document["region"] = payload["region"]
    document["boundary"] = [
        list(event) for event in scenario.network.multicast.membership_log
    ]
    document["wall_s"] = wall_s
    return canonical_json(document)


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
    metric ingredients go through :func:`~repro.experiments.runner.assemble`
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
