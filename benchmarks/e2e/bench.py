"""The e2e benchmark's command: measure, check the bytes, print, write.

Two forms share this file.  *One run* — ``--workload NAME --trace 0|1`` —
measures one workload in this process for ``--seconds`` and ends with one
JSON line (the form ``BENCHMARK.json`` names).  *The whole benchmark* — any
other arguments — runs every chosen workload untraced and then traced, each
in a fresh interpreter of the first form, cross-checks their bytes and
writes one document.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.multicast_cc.population import active_backend

from calibrate import SpeedMeter
from traced import PER_LAYER, TRACED_ROUNDS, cli_probes, finish_layers, service_latency, spec_layer
from tracing import Tracer, median_quartiles
from workloads import (
    END_TO_END,
    WORKLOADS,
    Cell,
    Context,
    Round,
    reference_outputs,
    reference_sample,
    stray_processes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 2003
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
QUICK_TIME_SCALE = 0.1


# ----------------------------------------------------------------------
# machine
# ----------------------------------------------------------------------
def parallelism() -> int:
    """``J``: workers and connections this benchmark ever has in flight."""
    return min(max(len(os.sched_getaffinity(0)), 2), 4)


def machine_stamp() -> Dict[str, Any]:
    """What two documents must share before their numbers may be compared."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "J": parallelism(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": active_backend(),
        "platform": platform.platform(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def load_expected(path: Path, seed: int, quick: bool, workload: str) -> Optional[Dict[str, str]]:
    """Committed digests for this workload, or ``None`` if the seed has none."""
    document = json.loads(path.read_text())
    if document["seed"] != seed:
        return None
    return document["quick" if quick else "full"][workload]


def write_expected(path: Path, src: Path) -> None:
    """Regenerate ``expected.json`` from the reference path of this tree."""
    document: Dict[str, Any] = {"seed": DEFAULT_SEED}
    for key, time_scale in (("full", 1.0), ("quick", QUICK_TIME_SCALE)):
        ctx = Context(
            seed=DEFAULT_SEED, jobs=1, meter=SpeedMeter(), workdir=path.parent, src=src,
            time_scale=time_scale,
        )
        document[key] = {
            name: {cell: digest(out) for cell, out in reference_outputs(w.cells(ctx)).items()}
            for name, w in WORKLOADS.items()
        }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


class Checker:
    """Counts cells attempted and cells whose bytes are not what they must be.

    (a) every cell against the committed digest, when the seed has one;
    (b) round *n* against round 0; (c) pooled and served cells against the
    in-process reference; (d) cached replays against the first answer —
    the rounds report those as ``problems``.
    """

    def __init__(self, workload: str, cells: Sequence[Cell], expected: Optional[Dict[str, str]]) -> None:
        self.workload = workload
        self.cells = cells
        self.expected = expected
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"MISMATCH {self.workload} {message}", flush=True)

    def round(self, result: Round) -> None:
        for cell in self.cells:
            self.attempted += 1
            output = result.outputs.get(cell.name)
            if output is None:
                self._fail(f"{cell.name}: no result")
                continue
            found = digest(output)
            if cell.name not in self.first:
                self.first[cell.name] = found
                if self.expected is not None and self.expected.get(cell.name) != found:
                    self._fail(f"{cell.name}: differs from expected.json")
            elif self.first[cell.name] != found:
                self._fail(f"{cell.name}: differs from the first round")
        for problem in dict.fromkeys(result.problems):
            self._fail(problem)

    def reference(self, outputs: Dict[str, str]) -> None:
        for name, output in outputs.items():
            self.attempted += 1
            if self.first.get(name) != digest(output):
                self._fail(f"{name}: differs from the in-process reference")


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def measure_setup(args: argparse.Namespace, ctx: Context, probes: int) -> List[float]:
    """Process start → ready for the first unit of work, in fresh interpreters
    (reference seconds)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload[0], "--seed", str(ctx.seed),
        "--workdir", str(ctx.workdir), "--setup-probe",
    ] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        probe = subprocess.Popen(command, env=ctx.env, stdout=subprocess.PIPE)
        try:
            line = probe.stdout.readline()
            samples.append(ctx.meter.seconds(started, time.perf_counter()))
            if line.strip() != b"ready" or probe.wait(timeout=120) != 0:
                raise RuntimeError(f"set-up probe failed: {line!r}")
        finally:
            probe.kill()
            probe.wait()
            probe.stdout.close()
    return samples


def setup_probe(workload: str, ctx: Context) -> None:
    """The child side of :func:`measure_setup`."""
    WORKLOADS[workload].cells(ctx)
    with WORKLOADS[workload].ready(ctx):
        print("ready", flush=True)


def peak_rss_mb() -> float:
    """Largest resident set among this process and the children it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def untraced_rounds(
    workload: str, ctx: Context, cells: Sequence[Cell], seconds: float, checker: Checker
) -> Tuple[List[Round], float]:
    """Whole rounds until ``seconds`` have passed (always at least one), and
    the peak resident set after the first — how many more rounds fit in
    ``seconds`` depends on the machine's speed, and later rounds add a
    little fragmentation each."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(WORKLOADS[workload].round(ctx, cells))
        checker.round(rounds[-1])
        if len(rounds) == 1:
            peak_mb = peak_rss_mb()
    return rounds, peak_mb


def end_to_end(
    rounds: Sequence[Round], cells: Sequence[Cell], setup_s: Sequence[float], peak_mb: float
) -> Dict[str, Dict[str, Any]]:
    walls = [r.wall_s for r in rounds]
    requests = [sample for r in rounds for sample in r.request_s]
    simulated_s = sum(cell.spec.effective_duration_s for cell in cells)

    def entry(name: str, samples: Sequence[float]) -> Dict[str, Any]:
        median, q1, q3 = median_quartiles(samples)
        return {"value": median, "unit": END_TO_END[name], "n": len(samples), "q1": q1, "q3": q3}

    return {
        "wall_s": entry("wall_s", walls),
        "wall_per_sim_s": entry("wall_per_sim_s", [wall / simulated_s for wall in walls]),
        "cells_per_s": entry("cells_per_s", [len(cells) / wall for wall in walls]),
        "request_p50_s": entry("request_p50_s", requests),
        "peak_rss_mb": entry("peak_rss_mb", [peak_mb]),
        "setup_s": entry("setup_s", setup_s),
    }


def per_layer(args: argparse.Namespace, ctx: Context, cells: Sequence[Cell], checker: Checker, record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """One traced round between two untraced ones (``--quick``: after one)."""
    workload = args.workload[0]
    plain = [WORKLOADS[workload].round(ctx, cells)]
    checker.round(plain[0])
    tracer = Tracer()
    traced, layer = TRACED_ROUNDS[workload](ctx, cells, tracer)
    checker.round(traced)
    if not args.quick:
        plain.append(WORKLOADS[workload].round(ctx, cells))
        checker.round(plain[-1])

    layer["harness.speed_factor"] = traced.speed
    layer["harness.trace_overhead_ratio"] = traced.wall_s / statistics.median(
        r.wall_s for r in plain
    )
    layer.update(cli_probes(ctx, reps=1 if args.quick else 3))
    layer.update(spec_layer(lambda: WORKLOADS[workload].cells(ctx)))
    if workload == "served":
        rounds = plain + [traced]
        layer.update(
            service_latency(
                [s for r in rounds for s in r.request_s], [s for r in rounds for s in r.hit_ms]
            )
        )
        record["tail_samples"] = {
            "request": sum(len(r.request_s) for r in rounds),
            "hit": sum(len(r.hit_ms) for r in rounds),
        }
    record["spans"] = tracer.spans
    record["span_self_s"] = tracer.self_time_by_name()
    complete = finish_layers(layer, traced.outputs)
    return {name: {"value": complete[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_one(args: argparse.Namespace, ctx: Context, machine: Dict[str, Any]) -> int:
    """Measure one workload; the last line printed is the contract's JSON."""
    workload = args.workload[0]
    cells = WORKLOADS[workload].cells(ctx)
    expected = load_expected(args.expected, ctx.seed, args.quick, workload)
    checker = Checker(workload, cells, expected)
    record: Dict[str, Any] = {
        "workload": workload, "seed": ctx.seed, "trace": int(args.trace),
        "quick": args.quick, "machine": machine,
    }
    if args.trace == "1":
        metrics = per_layer(args, ctx, cells, checker, record)
    else:
        setup_s = measure_setup(args, ctx, 1 if args.quick else SETUP_PROBES)
        rounds, peak_mb = untraced_rounds(
            workload, ctx, cells, 0.0 if args.quick else args.seconds, checker
        )
        metrics = end_to_end(rounds, cells, setup_s, peak_mb)
        record["rounds"] = len(rounds)
        record["samples"] = {
            "wall_s": [r.wall_s for r in rounds],
            "speed": [r.speed for r in rounds],
            "request_s": [r.request_s for r in rounds],
            "setup_s": setup_s,
        }
    if expected is None and workload in ("sweep", "served"):
        checker.reference(reference_outputs(reference_sample(ctx, cells)))

    for name, entry in metrics.items():
        spread = f"  n={entry['n']} q1={entry['q1']:.6g} q3={entry['q3']:.6g}" if "n" in entry else ""
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}{spread}")
    failed = len(checker.failures)
    print(f"{workload} failed_frac {failed / checker.attempted:.6g} fraction  n={checker.attempted}")
    record.update(
        metrics=metrics, cells=checker.first, attempted=checker.attempted,
        failed=failed, failures=checker.failures,
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checker.attempted,
                "failed": failed,
                "metrics": {n: {"value": e["value"], "unit": e["unit"]} for n, e in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# the whole benchmark
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, ctx: Context, machine: Dict[str, Any]) -> int:
    """Every workload untraced (``--runs`` times) then traced, one document."""
    names = args.workload or list(WORKLOADS)
    document: Dict[str, Any] = {
        "machine": machine, "seed": ctx.seed, "quick": args.quick,
        "workloads": {name: {"runs": [], "traced": None} for name in names},
    }
    failed = False

    def child(name: str, seed: int, trace: str) -> Dict[str, Any]:
        nonlocal failed
        out = ctx.workdir / f"{name}-{seed}-{trace}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", trace, "--out", str(out),
            "--workdir", str(ctx.workdir), "--expected", str(args.expected),
        ] + (["--quick"] if args.quick else [])
        code = subprocess.run(command, env=ctx.env).returncode
        failed = failed or code != 0
        if not out.exists():
            raise RuntimeError(f"{name}: the run ended with code {code} and wrote no record")
        return json.loads(out.read_text())

    for index in range(args.runs):
        for name in names:
            document["workloads"][name]["runs"].append(child(name, ctx.seed + index, "0"))
    if args.trace in ("1", "both"):
        for name in names:
            document["workloads"][name]["traced"] = child(name, ctx.seed, "1")

    # Check (c) in full: the grid cells must read the same pooled and served.
    if "sweep" in names and "served" in names:
        pooled = document["workloads"]["sweep"]["runs"][0]["cells"]
        for cell, found in document["workloads"]["served"]["runs"][0]["cells"].items():
            if pooled.get(cell) != found:
                failed = True
                print(f"MISMATCH sweep/served {cell}: pooled and served bytes differ")

    out = args.out or HERE / "results" / "e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="End-to-end and per-layer benchmark of the repro simulator."
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), default=[],
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="spec seeds are derived from it (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures (default %(default)s)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics, 1: per-layer ledger, both: the whole benchmark")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, each with the next seed (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one round, every simulated duration ÷ 10")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON document (default results/e2e.json)")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="digest file of the correctness gate")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate --expected from this tree's reference path and exit")
    parser.add_argument("--workdir", type=Path, default=HERE / ".work", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    src = ROOT / "src"
    if args.write_expected:
        write_expected(args.expected, src)
        return 0
    args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="e2e-", dir=args.workdir) as workdir:
        # Anything the program itself puts in a temporary file stays in here too.
        tempfile.tempdir = workdir
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=workdir)
        meter = SpeedMeter()
        ctx = Context(
            seed=args.seed,
            jobs=parallelism(),
            meter=meter,
            workdir=Path(workdir),
            src=src,
            time_scale=QUICK_TIME_SCALE if args.quick else 1.0,
            env=env,
        )
        try:
            if args.setup_probe:
                setup_probe(args.workload[0], ctx)
                code = 0
            elif len(args.workload) == 1 and args.trace != "both":
                with meter.running():
                    code = run_one(args, ctx, machine_stamp())
            else:
                code = run_all(args, ctx, machine_stamp())
        finally:
            strays = stray_processes(Path(workdir).name)
            for pid in strays:
                os.kill(pid, 9)
        if strays:
            print(f"error: processes outlived the run and were killed: {strays}", file=sys.stderr)
            return 1
    return code
