"""Command-line entry point: list, run and profile registered scenarios.

Examples::

    python -m repro list
    python -m repro topologies
    python -m repro run figure8-throughput --seeds 4 --jobs 4
    python -m repro run parking-lot-attack --duration 30 --out results/
    python -m repro profile figure8-throughput --top 25 --sort tottime
    python -m repro cache stats --cache-dir results/cache
    python -m repro cache prune --cache-dir results/cache --max-bytes 50000000
    python -m repro serve --socket /tmp/repro.sock --cache-dir results/cache --jobs 4
    python -m repro submit figure8-throughput --socket /tmp/repro.sock --seeds 4
    python -m repro status --socket /tmp/repro.sock

``run`` executes the named scenario's spec over a seed sweep through the
parallel :class:`~repro.experiments.runner.ExperimentRunner`, prints the
per-seed key metrics, the cache/warm-start counters and the cross-seed
aggregate, and optionally writes the raw results plus the aggregate as JSON.

``cache`` inspects the runner's on-disk cache: ``stats`` reports result
entries and checkpoint blobs (count and bytes), ``prune --max-bytes N``
evicts oldest-first until the directory fits the budget.

``profile`` realises one seed of a scenario under :mod:`cProfile` and prints
the top-N entries of the :mod:`pstats` table — the workflow behind the
engine hot-path overhaul (see ``docs/performance.md``).

``serve`` runs the experiment daemon (see ``docs/service.md``); ``submit``
sends a scenario sweep to a running daemon and streams the results back;
``status`` prints a daemon's introspection snapshot (queue depth, cache hit
rate, worker health).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .adversary import ADVERSARIES
from .analysis.reporting import (
    aggregate_metrics,
    format_aggregate_table,
    format_protection_table,
    format_table,
    write_json,
)
from .experiments import (
    ExperimentRunner,
    cache_stats,
    list_scenarios,
    prune_cache,
    scenario_entry,
)
from .simulator.topology import TOPOLOGIES


def _first_doc_line(obj) -> str:
    """First docstring line, or empty (docstrings vanish under ``python -OO``)."""
    return next(iter((obj.__doc__ or "").strip().splitlines()), "")


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [(entry.name, entry.description) for entry in list_scenarios()]
    print(format_table(["scenario", "description"], rows))
    return 0


def _cmd_topologies(_args: argparse.Namespace) -> int:
    rows = [
        (name, _first_doc_line(factory)) for name, factory in sorted(TOPOLOGIES.items())
    ]
    print(format_table(["topology", "description"], rows))
    return 0


def _cmd_adversaries(_args: argparse.Namespace) -> int:
    rows = [(name, _first_doc_line(cls)) for name, cls in sorted(ADVERSARIES.items())]
    print(format_table(["strategy", "description"], rows))
    return 0


def _parse_param(text: str):
    """Parse a ``key=value`` override; values become int/float/bool if they can."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    value: object
    lowered = raw.lower()
    if lowered in ("true", "false"):
        value = lowered == "true"
    else:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
    return key, value


def _resolve_spec(args: argparse.Namespace):
    """Resolve a subcommand's scenario + overrides into ``(entry, spec)``.

    Shared by ``run`` and ``profile`` (which accept the same scenario,
    ``--duration`` and ``--param`` surface).  Prints an ``error:`` line and
    returns None on user error; callers exit 2.
    """
    try:
        entry = scenario_entry(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None
    params = dict(args.param or [])
    if args.duration is not None:
        params["duration_s"] = args.duration
    try:
        spec = entry.build(**params)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return entry, spec


def _run_population(result) -> int:
    """Receivers one run simulated, cohort-aware.

    Sessions that declare cohorts report an explicit ``population``; plain
    sessions count one receiver per goodput entry.
    """
    total = 0
    for session in result.metrics.get("multicast", {}).values():
        total += session.get("population", len(session.get("receiver_kbps", ())))
    return total


def _format_run_cost(
    results, wall_s: float, simulated_s: float, cache_hits: int
) -> str:
    """One-line receivers-simulated and wall-per-simulated-second summary
    for ``run`` output (``simulated_s``: the executed, uncached runs only)."""
    total = sum(_run_population(result) for result in results)
    line = (
        f"receivers simulated: {total:,} across {len(results)} run(s) "
        f"in {wall_s:.2f}s wall"
    )
    if simulated_s > 0:
        line += f" ({wall_s / simulated_s:.3g} s wall per simulated s)"
    if cache_hits:
        line += f" [{cache_hits} cached run(s)]"
    return line


def _report_goodput(entry, results, out) -> Optional[Path]:
    """The report ``run`` and ``submit`` share: print the per-seed goodput
    table and, with ``out``, write ``<out>/<scenario>-runs.json`` (returns
    its path for the caller's own ``wrote ...`` line, else ``None``)."""
    rows = []
    for result in results:
        for session_id, session in result.metrics["multicast"].items():
            rows.append((result.seed, session_id, session["average_kbps"]))
    print()
    print(format_table(["seed", "session", "avg goodput (Kbps)"], rows))
    if out is None:
        return None
    return write_json(
        Path(out) / f"{entry.name}-runs.json", [r.to_dict() for r in results]
    )


def _cmd_run(args: argparse.Namespace) -> int:
    resolved = _resolve_spec(args)
    if resolved is None:
        return 2
    entry, spec = resolved
    try:
        runner = ExperimentRunner(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            warm_start=args.warm_start,
            verify_warm_start=args.verify_warm_start,
        )
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_start = time.perf_counter()
    results = runner.run_seed_sweep(spec, range(args.seeds))
    wall_s = time.perf_counter() - wall_start

    print(f"{entry.name}: {entry.description}")
    print(
        f"topology={spec.topology} protected={spec.protected} "
        f"duration={spec.effective_duration_s:g}s seeds={args.seeds} jobs={args.jobs}"
    )
    simulated_s = spec.effective_duration_s * runner.cache_misses
    print(_format_run_cost(results, wall_s, simulated_s, runner.cache_hits))
    print(
        f"cache: {runner.cache_hits} hit(s), {runner.cache_misses} miss(es); "
        f"warm starts: {runner.warm_runs} run(s) from "
        f"{runner.checkpoint_hits + runner.checkpoint_misses} checkpoint(s) "
        f"({runner.checkpoint_hits} reused, {runner.checkpoint_misses} built)"
    )
    runs_path = _report_goodput(entry, results, args.out)
    for result in results:
        protection = result.metrics.get("protection")
        if protection:
            print(f"\nprotection (seed {result.seed}):")
            print(format_protection_table(protection))
    print()
    aggregate = aggregate_metrics([result.metrics for result in results])
    print(format_aggregate_table(aggregate))

    if runs_path is not None:
        agg_path = write_json(
            Path(args.out) / f"{entry.name}-aggregate.json", aggregate
        )
        print(f"\nwrote {runs_path} and {agg_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, run_daemon

    if args.socket is None and args.port is None:
        print("error: serve needs --socket PATH or --port N", file=sys.stderr)
        return 2
    try:
        config = ServiceConfig(
            cache_dir=Path(args.cache_dir),
            socket=Path(args.socket) if args.socket else None,
            host=args.host,
            port=args.port or 0,
            jobs=args.jobs,
            retries=args.retries,
            timeout_s=args.timeout,
            max_queue=args.max_queue,
            warm_start=args.warm_start,
            checkpoint_dir=Path(args.checkpoint_dir) if args.checkpoint_dir else None,
        )
        run_daemon(config)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _connect_client(args: argparse.Namespace):
    """Open a :class:`~repro.service.ServiceClient` from ``--socket``/``--host``.

    Prints an ``error:`` line and returns None on user/connection error;
    callers exit 2.
    """
    from .service import ServiceClient, ServiceError

    if args.socket is None and args.port is None:
        print(
            "error: need --socket PATH or --host/--port of a running daemon",
            file=sys.stderr,
        )
        return None
    try:
        return ServiceClient(
            socket_path=args.socket,
            host=args.host if args.socket is None else None,
            port=args.port if args.socket is None else None,
            timeout_s=args.connect_timeout,
        )
    except (OSError, ServiceError) as exc:
        print(f"error: cannot reach the daemon: {exc}", file=sys.stderr)
        return None


def _cmd_submit(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from .service import ServiceError

    resolved = _resolve_spec(args)
    if resolved is None:
        return 2
    entry, spec = resolved
    client = _connect_client(args)
    if client is None:
        return 2
    events = []
    try:
        with client:
            results = client.run(
                spec,
                seeds=list(range(args.seeds)),
                timeout_s=args.timeout,
                on_event=events.append,
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    streamed = {e["seed"]: e for e in events if e.get("event") == "result"}
    cached = sum(1 for e in streamed.values() if e.get("cached"))
    deduped = sum(1 for e in streamed.values() if e.get("deduped"))
    warm = sum(1 for e in streamed.values() if e.get("warm"))
    print(f"{entry.name}: {entry.description}")
    print(
        f"daemon answered {len(results)} cell(s): {cached} cached, "
        f"{deduped} deduped, {warm} warm-started"
    )
    runs_path = _report_goodput(entry, results, args.out)
    if args.digest:
        for result in results:
            text = json.dumps(
                result.metrics, sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(f"metrics_sha256 seed={result.seed}: {digest}")
    if runs_path is not None:
        print(f"wrote {runs_path}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    client = _connect_client(args)
    if client is None:
        return 2
    with client:
        document = client.status()
    document.pop("event", None)
    document.pop("id", None)
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = Path(args.cache_dir)
    try:
        if args.cache_command == "prune":
            report = prune_cache(directory, args.max_bytes)
            print(
                f"{report['path']}: deleted {report['deleted']} file(s), "
                f"freed {report['freed_bytes']:,} bytes, "
                f"{report['remaining_bytes']:,} bytes remain"
            )
        else:
            report = cache_stats(directory)
            results, checkpoints = report["results"], report["checkpoints"]
            print(f"{report['path']}:")
            print(
                f"  results:     {results['entries']} entries, "
                f"{results['bytes']:,} bytes"
            )
            print(
                f"  checkpoints: {checkpoints['entries']} blobs, "
                f"{checkpoints['bytes']:,} bytes"
            )
            print(f"  total:       {report['total_bytes']:,} bytes")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from .experiments.scenario import Scenario

    resolved = _resolve_spec(args)
    if resolved is None:
        return 2
    entry, spec = resolved
    spec = spec.with_seed(args.seed)
    duration = spec.effective_duration_s
    scenario = Scenario.from_spec(spec)
    sim = scenario.network.sim

    print(
        f"profiling {entry.name} (seed {args.seed}, {duration:g}s simulated) ..."
    )
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run(duration)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    wall = max(stats.total_tt, 1e-9)
    print(
        f"{sim.events_executed:,} events in {wall:.2f}s profiled "
        f"({sim.events_executed / wall:,.0f} events/s under instrumentation; "
        f"run python3 benchmarks/e2e/run.py --workload figures --trace 1 "
        f"for uninstrumented numbers)"
    )
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"wrote raw profile to {args.out} (inspect with `python -m pstats`)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of GorinskyJVZ03: run registered evaluation scenarios.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered scenarios").set_defaults(func=_cmd_list)
    sub.add_parser("topologies", help="list named topologies").set_defaults(
        func=_cmd_topologies
    )
    sub.add_parser("adversaries", help="list registered adversary strategies").set_defaults(
        func=_cmd_adversaries
    )

    # Options shared by every subcommand that resolves a scenario spec
    # (consumed by _resolve_spec).
    spec_options = argparse.ArgumentParser(add_help=False)
    spec_options.add_argument("scenario", help="scenario name (see `list`)")
    spec_options.add_argument(
        "--duration", type=float, default=None, help="override duration (s)"
    )
    spec_options.add_argument(
        "--param",
        type=_parse_param,
        action="append",
        metavar="KEY=VALUE",
        help="builder parameter override (repeatable), e.g. --param count=8",
    )

    run = sub.add_parser(
        "run", help="run a registered scenario by name", parents=[spec_options]
    )
    run.add_argument("--seeds", type=int, default=1, help="number of seeds (0..N-1)")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    run.add_argument("--out", default=None, help="directory for JSON results")
    run.add_argument("--cache-dir", default=None, help="per-run result cache directory")
    run.add_argument(
        "--no-warm-start",
        dest="warm_start",
        action="store_false",
        help="disable common-prefix warm starts (always run cells cold)",
    )
    run.add_argument(
        "--verify-warm-start",
        action="store_true",
        help="re-run one warm-started cell per prefix cold and assert "
        "byte-identical results",
    )
    run.set_defaults(func=_cmd_run, warm_start=True)

    cache = sub.add_parser("cache", help="inspect or prune a runner cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="result/checkpoint entry counts and bytes")
    stats.add_argument("--cache-dir", required=True, help="cache directory to inspect")
    stats.set_defaults(func=_cmd_cache)
    prune = cache_sub.add_parser("prune", help="evict oldest entries to fit a byte budget")
    prune.add_argument("--cache-dir", required=True, help="cache directory to prune")
    prune.add_argument(
        "--max-bytes", type=int, required=True, help="target size in bytes"
    )
    prune.set_defaults(func=_cmd_cache)

    profile = sub.add_parser(
        "profile",
        help="run one scenario under cProfile and print the hot spots",
        parents=[spec_options],
    )
    profile.add_argument("--seed", type=int, default=0, help="seed to profile")
    profile.add_argument("--top", type=int, default=20, help="pstats rows to print")
    profile.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls", "time", "calls"],
        help="pstats sort key",
    )
    profile.add_argument("--out", default=None, help="write the raw .prof dump here")
    profile.set_defaults(func=_cmd_profile)

    # Options shared by the subcommands that talk to a running daemon.
    endpoint_options = argparse.ArgumentParser(add_help=False)
    endpoint_options.add_argument(
        "--socket", default=None, help="Unix socket path of the daemon"
    )
    endpoint_options.add_argument(
        "--host", default="127.0.0.1", help="daemon TCP host (with --port)"
    )
    endpoint_options.add_argument(
        "--port", type=int, default=None, help="daemon TCP port"
    )

    serve = sub.add_parser(
        "serve",
        help="run the experiment daemon (async job server over the runner)",
        parents=[endpoint_options],
    )
    serve.add_argument(
        "--cache-dir",
        required=True,
        help="shared result-cache / checkpoint-store directory",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="warm-start blob directory (default: --cache-dir)",
    )
    serve.add_argument("--jobs", type=int, default=1, help="worker processes")
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="bounded retries for a job whose worker crashed",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-job wall-clock budget (s)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, help="pending-cell admission bound"
    )
    serve.add_argument(
        "--no-warm-start",
        dest="warm_start",
        action="store_false",
        help="disable common-prefix warm starts (always run cells cold)",
    )
    serve.set_defaults(func=_cmd_serve, warm_start=True)

    submit = sub.add_parser(
        "submit",
        help="send a scenario sweep to a running daemon and stream results",
        parents=[spec_options, endpoint_options],
    )
    submit.add_argument("--seeds", type=int, default=1, help="number of seeds (0..N-1)")
    submit.add_argument(
        "--timeout", type=float, default=None, help="per-job budget override (s)"
    )
    submit.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="socket timeout for talking to the daemon (s)",
    )
    submit.add_argument(
        "--digest",
        action="store_true",
        help="print each result's canonical metrics SHA-256 (golden-digest form)",
    )
    submit.add_argument("--out", default=None, help="directory for JSON results")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status",
        help="print a running daemon's introspection snapshot",
        parents=[endpoint_options],
    )
    status.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="socket timeout for talking to the daemon (s)",
    )
    status.set_defaults(func=_cmd_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        print()
        return _cmd_list(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
