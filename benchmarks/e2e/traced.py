"""The traced pass: one round per workload, walked through the public pieces.

The untraced rounds in :mod:`workloads` call the system the way its users
do.  Here the benchmark takes the same request apart at the layer
boundaries the public API exposes, puts a span around each piece, samples
the stack while the pieces run in this process, and reads counters off
public attributes afterwards.  Nothing measured here feeds the end-to-end
table; the bytes produced must equal the untraced bytes.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments import (
    ExperimentRunner,
    JobExecutor,
    ResultCache,
    RunResult,
    Scenario,
    ScenarioSpec,
    cache_stats,
    collect_metrics,
    plan_cell,
    plan_prefix,
)
from repro.experiments.runner import run_job
from repro.service.protocol import decode_line, encode_message

from tracing import LAYERS, Sampler, Tracer, tail_percentile
from workloads import REPLAYS, Cell, Context, Round, ServedAnswers, grid_specs, serve_daemon

#: Per-layer metric names and units.  Every traced run reports all of them;
#: a layer the workload never enters reads 0.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.import_s": "s",
    "cli.list_s": "s",
    "spec.build_s": "s",
    "spec.to_json_s": "s",
    "spec.from_json_s": "s",
    "spec.bytes": "bytes",
    "scenario.build_s": "s",
    "scenario.checkpoint_s": "s",
    "scenario.restore_s": "s",
    "scenario.checkpoint_bytes": "bytes",
    "engine.run_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.pending_at_end": "count",
    "forwarding.packets_forwarded": "count",
    "forwarding.multicast_copies": "count",
    "forwarding.link_tx_packets": "count",
    "forwarding.queue_drops": "count",
    "forwarding.pool_recycled": "count",
    "forwarding.pool_allocated": "count",
    "forwarding.us_per_packet": "us",
    "population.rows": "count",
    "population.receivers": "count",
    "sigma.valid_submissions": "count",
    "sigma.revocations": "count",
    "collect.metrics_s": "s",
    "collect.to_json_s": "s",
    "collect.result_bytes": "bytes",
    "planner.plan_s": "s",
    "planner.jobs": "count",
    "planner.payload_bytes": "bytes",
    "warmstart.build_s": "s",
    "warmstart.resume_s": "s",
    "warmstart.blob_bytes": "bytes",
    "warmstart.hits": "count",
    "warmstart.misses": "count",
    "warmstart.warm_runs": "count",
    "shard.region_s_sum": "s",
    "shard.region_s_max": "s",
    "shard.merge_s": "s",
    "shard.boundary_events": "count",
    "pool.spinup_s": "s",
    "pool.run_all_s": "s",
    "pool.worker_busy_s": "s",
    "pool.overhead_s": "s",
    "pool.utilisation": "fraction",
    "pool.restarts": "count",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "bytes",
    "cache.files": "count",
    "service.spawn_s": "s",
    "service.connect_s": "s",
    "service.encode_s": "s",
    "service.decode_s": "s",
    "service.wire_bytes_in": "bytes",
    "service.wire_bytes_out": "bytes",
    "service.hit_p50_ms": "ms",
    "service.request_tail_s": "s",
    "service.request_tail_pct": "%",
    "service.hit_tail_ms": "ms",
    "service.hit_tail_pct": "%",
    "service.hits_per_s": "1/s",
    "service.vs_batch_ratio": "ratio",
    "service.cache_hits": "count",
    "service.dedup_hits": "count",
    "service.warm_runs": "count",
    "service.pool_restarts": "count",
    "service.retries_used": "count",
    "harness.speed_factor": "ratio",
    "harness.trace_overhead_ratio": "ratio",
    "harness.sampler_hz": "1/s",
    "harness.unmapped_samples_frac": "fraction",
    "harness.span_coverage": "fraction",
}

Traced = Tuple[Round, Dict[str, float]]


# ----------------------------------------------------------------------
# layers measured the same way on every workload
# ----------------------------------------------------------------------
def cli_probes(ctx: Context, reps: int) -> Dict[str, float]:
    """Wall of a bare import and of ``python -m repro list``, median of ``reps``."""

    def wall(command: List[str]) -> float:
        samples = []
        for _ in range(reps):
            started = time.perf_counter()
            subprocess.run(command, env=ctx.env, stdout=subprocess.DEVNULL, check=True)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    return {
        "cli.import_s": wall([sys.executable, "-c", "import repro.experiments"]),
        "cli.list_s": wall([sys.executable, "-m", "repro", "list"]),
    }


def spec_layer(build: Callable[[], List[Cell]]) -> Dict[str, float]:
    """Cost of declaring the workload: build, serialise, parse back."""
    started = time.perf_counter()
    cells = build()
    built = time.perf_counter()
    documents = [cell.spec.to_json() for cell in cells]
    serialised = time.perf_counter()
    for document in documents:
        ScenarioSpec.from_json(document)
    parsed = time.perf_counter()
    return {
        "spec.build_s": built - started,
        "spec.to_json_s": serialised - built,
        "spec.from_json_s": parsed - serialised,
        "spec.bytes": float(sum(len(document) for document in documents)),
    }


def _sigma_counters(outputs: Dict[str, str]) -> Dict[str, float]:
    """SIGMA work, read off the result documents every workload ends with."""
    valid = revocations = 0
    for document in outputs.values():
        sigma = json.loads(document)["metrics"].get("sigma", {})
        valid += sigma.get("valid_submissions", 0)
        revocations += sigma.get("revocations", 0)
    return {"sigma.valid_submissions": float(valid), "sigma.revocations": float(revocations)}


def _sampled(sampler: Sampler) -> Dict[str, float]:
    layers = {f"{layer}.self_s": seconds for layer, seconds in sampler.self_seconds().items()}
    layers["harness.sampler_hz"] = sampler.hz()
    layers["harness.unmapped_samples_frac"] = sampler.unmapped_frac()
    return layers


def _traced_round(ctx: Context, window: Tuple[float, float], outputs: Dict[str, str], **more: Any) -> Round:
    """The round as :mod:`workloads` reports one: times in reference seconds."""
    wall_s = ctx.meter.seconds(*window)
    more.setdefault("request_s", [wall_s])
    return Round(wall_s=wall_s, speed=ctx.meter.speed(*window), outputs=outputs, **more)


def _root_coverage(tracer: Tracer, started: float, wall_s: float) -> float:
    """Share of the timed window that lies inside some root span."""
    covered = sum(
        s["end"] - s["start"]
        for s in tracer.spans
        if s["parent"] is None and s["start"] >= started and s["end"] <= started + wall_s
    )
    return covered / wall_s


# ----------------------------------------------------------------------
# figures / scale
# ----------------------------------------------------------------------
def traced_inprocess_round(ctx: Context, cells: Sequence[Cell], tracer: Tracer) -> Traced:
    """``execute_spec`` taken apart: build, run, collect, serialise."""
    sampler = Sampler(ctx.src)
    outputs: Dict[str, str] = {}
    request_s: List[float] = []
    counts = dict.fromkeys(
        (
            "engine.events",
            "engine.pending_at_end",
            "forwarding.packets_forwarded",
            "forwarding.multicast_copies",
            "forwarding.link_tx_packets",
            "forwarding.queue_drops",
            "forwarding.pool_recycled",
            "forwarding.pool_allocated",
            "population.rows",
            "population.receivers",
        ),
        0.0,
    )
    started = time.perf_counter()
    with sampler.sampling():
        for cell in cells:
            spec = cell.spec
            with tracer.span("request", cell.name) as request:
                with tracer.span("scenario.build", cell.name):
                    scenario = Scenario.from_spec(spec)
                with tracer.span("engine.run", cell.name):
                    scenario.run(spec.effective_duration_s)
                with tracer.span("collect.metrics", cell.name):
                    metrics = collect_metrics(scenario, spec)
                with tracer.span("collect.to_json", cell.name):
                    outputs[cell.name] = RunResult(
                        scenario=spec.name,
                        seed=spec.seed,
                        protected=spec.protected,
                        duration_s=spec.effective_duration_s,
                        metrics=metrics,
                    ).to_json()
            request_s.append(ctx.meter.seconds(request["start"], request["end"]))
            network = scenario.network
            routers = [node for node in network.nodes.values() if hasattr(node, "multicast_copies_sent")]
            counts["engine.events"] += network.sim.events_executed
            counts["engine.pending_at_end"] += network.sim.pending_events
            counts["forwarding.packets_forwarded"] += sum(r.packets_forwarded for r in routers)
            counts["forwarding.multicast_copies"] += sum(r.multicast_copies_sent for r in routers)
            counts["forwarding.link_tx_packets"] += sum(
                link.stats.transmitted_packets for link in network.links
            )
            counts["forwarding.queue_drops"] += sum(
                link.queue.stats.dropped_packets for link in network.links
            )
            counts["forwarding.pool_recycled"] += network.multicast.packet_pool.recycled
            counts["forwarding.pool_allocated"] += network.multicast.packet_pool.allocated
            if scenario.population_table is not None:
                counts["population.rows"] += scenario.population_table.rows
            counts["population.receivers"] += sum(s.total_population for s in scenario.sessions)
            del scenario, network, routers
    window = (started, time.perf_counter())
    wall_s = window[1] - started

    layer: Dict[str, float] = dict(counts)
    layer.update(_sampled(sampler))
    layer["scenario.build_s"] = tracer.total("scenario.build")
    layer["engine.run_s"] = tracer.total("engine.run")
    layer["collect.metrics_s"] = tracer.total("collect.metrics")
    layer["collect.to_json_s"] = tracer.total("collect.to_json")
    layer["collect.result_bytes"] = float(sum(len(o) for o in outputs.values()))
    layer["engine.events_per_s"] = counts["engine.events"] / layer["engine.run_s"]
    packets = counts["forwarding.link_tx_packets"]
    layer["forwarding.us_per_packet"] = (
        layer.get("forwarding.self_s", 0.0) / packets * 1e6 if packets else 0.0
    )
    layer["harness.span_coverage"] = _root_coverage(tracer, started, wall_s)
    return _traced_round(ctx, window, outputs, request_s=request_s), layer


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def traced_job(job: Tuple[str, str]) -> Tuple[str, float, float, int]:
    """Pool worker: ``run_job`` plus the worker-side span around it."""
    started = time.perf_counter()
    output = "" if job[0] == "noop" else run_job(job)
    return output, started, time.perf_counter(), os.getpid()


def traced_sweep_round(ctx: Context, cells: Sequence[Cell], tracer: Tracer) -> Traced:
    """``ExperimentRunner.run`` walked by hand: load, plan, pool, merge, store."""
    specs = [cell.spec for cell in cells]
    layer: Dict[str, float] = {}
    outputs: Dict[str, str] = {}
    with ctx.scratch("cache") as cache_dir:
        cache = ResultCache(cache_dir)
        started = time.perf_counter()
        with tracer.span("cache.load"):
            cached = [cache.load(spec) for spec in specs]
        with tracer.span("planner.plan"):
            plans = [plan_cell(spec, checkpoint_dir=cache_dir) for spec in specs]
            # Every cell of a prefix group asks for the same blob.
            setup = list(dict.fromkeys(job for plan in plans for job in plan.setup_jobs))
            jobs = [job for plan in plans for job in plan.jobs]
        with JobExecutor(jobs=ctx.jobs, worker=traced_job) as executor:
            with tracer.span("pool.spinup"):
                executor.run_all([("noop", "")] * ctx.jobs)
            with tracer.span("pool.run_all", "setup"):
                setup_done = executor.run_all(setup)
            with tracer.span("pool.run_all", "jobs"):
                done = executor.run_all(jobs)
            with tracer.span("pool.close"):
                executor.close()
            restarts = executor.restarts
        offset = 0
        region_outputs: List[str] = []
        for cell, plan in zip(cells, plans):
            mine = [output for output, *_ in done[offset : offset + len(plan.jobs)]]
            offset += len(plan.jobs)
            if plan.shard_plan is None:
                with tracer.span("collect.parse", cell.name):
                    plan.merge(mine)
                output = mine[0]
            else:
                region_outputs.extend(mine)
                with tracer.span("shard.merge", cell.name):
                    result = plan.merge(mine)
                with tracer.span("collect.to_json", cell.name):
                    output = result.to_json()
            with tracer.span("cache.store", cell.name):
                cache.store(cell.spec, output)
            outputs[cell.name] = output
        window = (started, time.perf_counter())
        layer["harness.span_coverage"] = _root_coverage(tracer, started, window[1] - started)

        # Worker-side spans, taken over after the clock stopped.
        for job, (_out, begin, end, pid) in zip(setup + jobs, setup_done + done):
            tracer.add(f"worker.{job[0]}", begin, end, pid=pid)
        stats = cache_stats(cache_dir)

        # The pooled cells' layer shares: the same jobs again, in this
        # process, under the sampler (it cannot see into pool workers).
        sampler = Sampler(ctx.src)
        with sampler.sampling():
            for job in setup + jobs:
                run_job(job)

        # Checkpoint / restore cost of one grid prefix, on its own.
        prefix = plan_prefix(cells[0].spec)
        scenario = Scenario.from_spec(prefix.spec)
        scenario.run_to_barrier(prefix.barrier_s)
        with tracer.span("scenario.checkpoint"):
            blob = scenario.checkpoint()
        with tracer.span("scenario.restore"):
            Scenario.restore(blob)

    busy = sum(end - begin for _out, begin, end, _pid in setup_done + done)
    run_all_s = tracer.total("pool.run_all")
    regions = tracer.durations("worker.region")
    layer.update(_sampled(sampler))
    layer.update(
        {
            "cache.load_s": tracer.total("cache.load"),
            "cache.store_s": tracer.total("cache.store"),
            "cache.hits": float(sum(hit is not None for hit in cached)),
            "cache.misses": float(sum(hit is None for hit in cached)),
            "cache.bytes_written": float(sum(len(o) for o in outputs.values())),
            "cache.files": float(stats["results"]["entries"] + stats["checkpoints"]["entries"]),
            "planner.plan_s": tracer.total("planner.plan"),
            "planner.jobs": float(len(setup) + len(jobs)),
            "planner.payload_bytes": float(sum(len(payload) for _kind, payload in setup + jobs)),
            "warmstart.build_s": tracer.total("worker.checkpoint"),
            "warmstart.resume_s": statistics.median(tracer.durations("worker.warm") or [0.0]),
            "warmstart.blob_bytes": float(stats["checkpoints"]["bytes"]),
            "warmstart.hits": float(sum(plan.checkpoint_hits for plan in plans)),
            "warmstart.misses": float(len(setup)),
            "warmstart.warm_runs": float(sum(plan.warm for plan in plans)),
            "shard.region_s_sum": sum(regions),
            "shard.region_s_max": max(regions, default=0.0),
            "shard.merge_s": tracer.total("shard.merge"),
            "shard.boundary_events": float(
                sum(len(json.loads(document)["boundary"]) for document in region_outputs)
            ),
            "pool.spinup_s": tracer.total("pool.spinup"),
            "pool.run_all_s": run_all_s,
            "pool.worker_busy_s": busy,
            "pool.overhead_s": run_all_s - busy / ctx.jobs,
            "pool.utilisation": busy / (ctx.jobs * run_all_s),
            "pool.restarts": float(restarts),
            "collect.to_json_s": tracer.total("collect.to_json"),
            "collect.result_bytes": float(sum(len(o) for o in outputs.values())),
            "scenario.checkpoint_s": tracer.total("scenario.checkpoint"),
            "scenario.restore_s": tracer.total("scenario.restore"),
            "scenario.checkpoint_bytes": float(len(blob)),
        }
    )
    return _traced_round(ctx, window, outputs), layer


# ----------------------------------------------------------------------
# served
# ----------------------------------------------------------------------
def traced_served_round(ctx: Context, cells: Sequence[Cell], tracer: Tracer) -> Traced:
    """The served round over a raw socket, so frames can be timed and counted."""
    requests = grid_specs(ctx)
    seeds = [ctx.seed, ctx.seed + 1]
    answers = ServedAnswers(ctx, cells)
    request_s: List[float] = []
    hit_ms: List[float] = []
    wire = {"in": 0, "out": 0}

    def exchange(reader: Any, sock: socket.socket, name: str, document: Dict[str, Any]) -> List[Dict[str, Any]]:
        """One request, first byte out to the event that ends it."""
        events = []
        with tracer.span("service.encode", name):
            frame = encode_message(document)
        wire["out"] += len(frame)
        with tracer.span("service.first_event", name):
            sock.sendall(frame)
            line = reader.readline()
        while True:
            if not line:
                raise RuntimeError(f"{name}: the daemon closed the connection")
            wire["in"] += len(line)
            with tracer.span("service.decode", name):
                event = decode_line(line)
            events.append(event)
            if event.get("event") in ("done", "rejected", "status", "bye"):
                return events
            with tracer.span("service.next_event", name):
                line = reader.readline()

    def submit(reader: Any, sock: socket.socket, name: str, spec: ScenarioSpec, replay: bool) -> float:
        document = {"op": "submit", "id": name, "spec": spec.to_dict(), "seeds": seeds}
        with tracer.span("service.request", name) as span:
            events = exchange(reader, sock, name, document)
        answers.absorb(name, events, replay)
        return span["end"] - span["start"]

    with ctx.scratch("served") as directory:
        spawned = time.perf_counter()
        with serve_daemon(ctx, directory) as (proc, socket_path):
            tracer.add("service.spawn", spawned, time.perf_counter())
            with tracer.span("service.connect"):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(170.0)
                sock.connect(socket_path)
                reader = sock.makefile("rb")
            try:
                with tracer.span("service.hello"):
                    hello = reader.readline()
                    wire["in"] += len(hello)
                    if decode_line(hello).get("event") != "hello":
                        raise RuntimeError(f"no hello from the daemon: {hello!r}")
                started = time.perf_counter()
                for name, spec in requests:
                    request_s.append(submit(reader, sock, name, spec, replay=False))
                cold = (started, time.perf_counter())
                wall_s = cold[1] - started
                for _ in range(REPLAYS):
                    for name, spec in requests:
                        hit_ms.append(submit(reader, sock, name, spec, replay=True) * 1e3)
                replay_s = time.perf_counter() - cold[1]
                status = exchange(reader, sock, "status", {"op": "status", "id": "status"})[-1]
                exchange(reader, sock, "shutdown", {"op": "shutdown", "id": "shutdown"})
            finally:
                reader.close()
                sock.close()
            code = proc.wait(timeout=60)
            if code != 0:
                answers.problems.append(f"daemon exited with code {code}")

        # The same 42 cells as one batch, for the daemon-versus-batch ratio.
        with ctx.scratch("cache") as cache_dir:
            batch_started = time.perf_counter()
            ExperimentRunner(jobs=ctx.jobs, cache_dir=cache_dir).run([cell.spec for cell in cells])
            batch_s = time.perf_counter() - batch_started

    scheduler, pool = status["scheduler"], status["pool"]
    layer = {
        "service.spawn_s": tracer.total("service.spawn"),
        "service.connect_s": tracer.total("service.connect") + tracer.total("service.hello"),
        "service.encode_s": tracer.total("service.encode"),
        "service.decode_s": tracer.total("service.decode"),
        "service.wire_bytes_in": float(wire["in"]),
        "service.wire_bytes_out": float(wire["out"]),
        "service.hits_per_s": len(hit_ms) / replay_s,
        "service.vs_batch_ratio": wall_s / batch_s,
        "service.cache_hits": float(scheduler["cache_hits"]),
        "service.dedup_hits": float(scheduler["dedup_hits"]),
        "service.warm_runs": float(scheduler["warm_runs"]),
        "service.pool_restarts": float(pool["restarts"]),
        "service.retries_used": float(pool["retries_used"]),
        "cache.hits": float(scheduler["cache_hits"]),
        "cache.misses": float(scheduler["cache_misses"]),
        "warmstart.hits": float(scheduler["checkpoint_hits"]),
        "warmstart.misses": float(scheduler["checkpoint_misses"]),
        "warmstart.warm_runs": float(scheduler["warm_runs"]),
        "collect.result_bytes": float(sum(len(o) for o in answers.outputs.values())),
        "harness.span_coverage": _root_coverage(tracer, started, wall_s + replay_s),
    }
    traced = _traced_round(
        ctx, cold, answers.outputs,
        request_s=ctx.meter.scaled(request_s, cold), hit_ms=hit_ms,
        problems=answers.problems, status=status,
    )
    return traced, layer


def service_latency(request_s: Sequence[float], hit_ms: Sequence[float]) -> Dict[str, float]:
    """Cache-hit median, and tails at the highest percentile each sample supports."""
    request_pct, request_tail = tail_percentile(request_s)
    hit_pct, hit_tail = tail_percentile(hit_ms)
    return {
        "service.hit_p50_ms": statistics.median(hit_ms),
        "service.request_tail_s": request_tail,
        "service.request_tail_pct": request_pct,
        "service.hit_tail_ms": hit_tail,
        "service.hit_tail_pct": hit_pct,
    }


TRACED_ROUNDS: Dict[str, Callable[[Context, Sequence[Cell], Tracer], Traced]] = {
    "figures": traced_inprocess_round,
    "scale": traced_inprocess_round,
    "sweep": traced_sweep_round,
    "served": traced_served_round,
}


def finish_layers(layer: Dict[str, float], outputs: Dict[str, str]) -> Dict[str, float]:
    """All of ``PER_LAYER``: zeros where the workload never goes."""
    complete = dict.fromkeys(PER_LAYER, 0.0)
    complete.update(_sigma_counters(outputs))
    complete.update(layer)
    unknown = set(complete) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
    return complete
