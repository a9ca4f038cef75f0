"""Spans, the sampling profiler and the module → layer map of the e2e benchmark.

Everything here observes the program from outside: spans are recorded by
the benchmark around its own calls into public entry points, and the
sampler attributes interrupted Python frames to layers by the path of the
file they come from.  No file under ``src/`` knows any of this exists.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Every module under ``src/repro/`` belongs to exactly one layer.  The map is
#: explicit on purpose: a module added to the package fails
#: ``test_harness.py`` until someone decides which layer its time counts to.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "cli": ("repro", "repro.__main__"),
    "spec": (
        "repro.experiments",
        "repro.experiments.attacks",
        "repro.experiments.config",
        "repro.experiments.figure1",
        "repro.experiments.figure8",
        "repro.experiments.figure9",
        "repro.experiments.registry",
        "repro.experiments.scale",
        "repro.experiments.spec",
    ),
    "scenario": ("repro.experiments.scenario", "repro.simulator.topology"),
    "engine": ("repro.simulator.engine", "repro.simulator.rng"),
    "forwarding": (
        "repro.simulator",
        "repro.simulator.address",
        "repro.simulator.igmp",
        "repro.simulator.link",
        "repro.simulator.monitors",
        "repro.simulator.multicast",
        "repro.simulator.node",
        "repro.simulator.packet",
        "repro.simulator.queues",
        "repro.simulator.routing",
    ),
    "transport": ("repro.transport", "repro.transport.cbr", "repro.transport.tcp"),
    "flid": (
        "repro.multicast_cc",
        "repro.multicast_cc.decision",
        "repro.multicast_cc.flid_dl",
        "repro.multicast_cc.flid_ds",
        "repro.multicast_cc.headers",
        "repro.multicast_cc.misbehaving",
        "repro.multicast_cc.receiver_base",
        "repro.multicast_cc.replicated",
        "repro.multicast_cc.sender_base",
        "repro.multicast_cc.session",
    ),
    "population": (
        "repro.multicast_cc.churn",
        "repro.multicast_cc.cohort",
        "repro.multicast_cc.population",
        "repro.multicast_cc.receiver_model",
        "repro.multicast_cc.vector",
    ),
    "delta": (
        "repro.core",
        "repro.core.delta",
        "repro.core.delta.base",
        "repro.core.delta.ecn",
        "repro.core.delta.layered",
        "repro.core.delta.replicated",
        "repro.core.delta.threshold",
        "repro.core.overhead",
    ),
    "sigma": (
        "repro.core.sigma",
        "repro.core.sigma.distributor",
        "repro.core.sigma.host_interface",
        "repro.core.sigma.key_table",
        "repro.core.sigma.messages",
        "repro.core.sigma.router_agent",
        "repro.core.timeslot",
    ),
    "fec_crypto": (
        "repro.crypto",
        "repro.crypto.nonce",
        "repro.crypto.shamir",
        "repro.crypto.xorkeys",
        "repro.fec",
        "repro.fec.erasure",
    ),
    "adversary": (
        "repro.adversary",
        "repro.adversary.cohort",
        "repro.adversary.context",
        "repro.adversary.receivers",
        "repro.adversary.registry",
        "repro.adversary.spec",
        "repro.adversary.strategies",
        "repro.adversary.strategy",
        "repro.adversary.vector",
    ),
    "collect": (
        "repro.analysis",
        "repro.analysis.convergence",
        "repro.analysis.fairness",
        "repro.analysis.golden",
        "repro.analysis.protection",
        "repro.analysis.reporting",
    ),
    # runner.py holds four layers in one file; the module counts as planner
    # and RUNNER_QUALNAMES below moves the other three out by function name.
    "planner": ("repro.experiments.runner",),
    "warmstart": ("repro.experiments.warmstart",),
    "shard": ("repro.experiments.shard",),
    "pool": (),
    "cache": (),
    "service": (
        "repro.service",
        "repro.service.client",
        "repro.service.jobs",
        "repro.service.pool",
        "repro.service.protocol",
        "repro.service.server",
    ),
}

#: ``co_qualname`` prefixes inside ``repro.experiments.runner`` that belong
#: to a layer other than the module's own.
RUNNER_QUALNAMES: Tuple[Tuple[str, str], ...] = (
    ("collect_metrics", "collect"),
    ("collect_protection_metrics", "collect"),
    ("_attacker_object_indices", "collect"),
    ("RunResult.", "collect"),
    ("JobExecutor.", "pool"),
    ("ResultCache.", "cache"),
    ("_cache_version_tag", "cache"),
    ("cache_stats", "cache"),
    ("prune_cache", "cache"),
)

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)


def module_layers() -> Dict[str, str]:
    """``{dotted module name: layer}``; raises if a module is mapped twice."""
    flat: Dict[str, str] = {}
    for layer, modules in LAYER_MODULES.items():
        for module in modules:
            if module in flat:
                raise ValueError(f"{module} is in both {flat[module]} and {layer}")
            flat[module] = layer
    return flat


MODULE_LAYER: Dict[str, str] = module_layers()


def layer_of_module(module: str, qualname: str = "") -> Optional[str]:
    """The layer a function of ``module`` counts to, or ``None`` if unmapped."""
    if module == "repro.experiments.runner":
        for prefix, override in RUNNER_QUALNAMES:
            if qualname.startswith(prefix):
                return override
    return MODULE_LAYER.get(module)


def module_of_file(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a file under ``src_root``, else ``None``."""
    try:
        relative = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts and parts[0] == "repro" else None


# ----------------------------------------------------------------------
# statistics the report uses
# ----------------------------------------------------------------------
def median_quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``; both quartiles collapse onto a single sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


#: Percentiles a timing may be reported at, lowest first, each with the
#: share of samples beyond it in per mille (integers keep the rule exact).
TAIL_CANDIDATES: Tuple[Tuple[float, int], ...] = (
    (50.0, 500), (75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1),
)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest percentile the sample supports.

    A percentile is supported when at least ten samples lie beyond it; with
    fewer than twenty samples that is not even true of the median, which is
    then reported anyway (the sample count is printed beside it).
    """
    ordered = sorted(values)
    count = len(ordered)
    percentile, beyond = TAIL_CANDIDATES[0]
    for candidate, per_mille in TAIL_CANDIDATES:
        if count * per_mille >= 10 * 1000:
            percentile, beyond = candidate, per_mille
    if percentile == 50.0:
        return percentile, statistics.median(ordered)
    # Nearest rank: the smallest sample with that share at or below it.
    rank = -(-count * (1000 - beyond) // 1000)
    return percentile, ordered[rank - 1]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: name, start, end, parent and cell id.

    Span names are ``<layer>.<what>``.  Times are ``time.perf_counter()``
    readings, which on Linux is ``CLOCK_MONOTONIC`` and therefore shared by
    the pool workers whose spans :meth:`add` takes over.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        record = self._open(name, cell, time.perf_counter())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(
        self, name: str, start: float, end: float, cell: Optional[str] = None, **extra: Any
    ) -> Dict[str, Any]:
        """Record a finished span measured elsewhere (a pool worker)."""
        record = self._open(name, cell, start)
        record["end"] = end
        record.update(extra)
        return record

    def _open(self, name: str, cell: Optional[str], start: float) -> Dict[str, Any]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": start,
            "parent": self._stack[-1] if self._stack else None,
            "cell": cell,
        }
        self.spans.append(record)
        return record

    # -- arithmetic ------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Per span id: its duration minus what its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_time_by_name(self) -> Dict[str, float]:
        own = self.self_times()
        by_name: Dict[str, float] = {}
        for span in self.spans:
            by_name[span["name"]] = by_name.get(span["name"], 0.0) + own[span["id"]]
        return by_name


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
class Sampler:
    """``ITIMER_PROF`` sampler attributing CPU time to layers.

    Each ``SIGPROF`` lands between two bytecodes of the main thread; the
    interrupted frame — or its nearest ancestor whose file lies under
    ``src/repro/`` — names the layer, so time inside C code (numpy, json,
    pickle, heapq) counts to the Python caller.  The kernel may coalesce
    ticks, so a layer's seconds are its *share* of the samples times the
    process CPU time spent while sampling, not samples × interval.
    """

    INTERVAL_S = 0.002

    def __init__(self, src_root: Path) -> None:
        self._src_root = src_root.resolve()
        self._file_module: Dict[str, Optional[str]] = {}
        self._code_layer: Dict[Any, Optional[str]] = {}
        self.samples: Dict[str, int] = {}
        self.unmapped = 0
        self.cpu_s = 0.0

    def _layer_of_code(self, code: Any) -> Optional[str]:
        try:
            return self._code_layer[code]
        except KeyError:
            pass
        filename = code.co_filename
        if filename not in self._file_module:
            self._file_module[filename] = module_of_file(filename, self._src_root)
        module = self._file_module[filename]
        layer = None
        if module is not None:
            layer = layer_of_module(module, getattr(code, "co_qualname", code.co_name))
        self._code_layer[code] = layer
        return layer

    def _on_tick(self, _signum: int, frame: Any) -> None:
        while frame is not None:
            layer = self._layer_of_code(frame.f_code)
            if layer is not None:
                self.samples[layer] = self.samples.get(layer, 0) + 1
                return
            frame = frame.f_back
        self.unmapped += 1

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        cpu_started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self.cpu_s += time.process_time() - cpu_started
            signal.signal(signal.SIGPROF, previous)

    # -- results ---------------------------------------------------------
    @property
    def total_samples(self) -> int:
        return sum(self.samples.values()) + self.unmapped

    def self_seconds(self) -> Dict[str, float]:
        """CPU seconds per layer (share of samples × sampled CPU time)."""
        total = self.total_samples
        if not total:
            return {}
        return {layer: count / total * self.cpu_s for layer, count in self.samples.items()}

    def hz(self) -> float:
        return self.total_samples / self.cpu_s if self.cpu_s else 0.0

    def unmapped_frac(self) -> float:
        total = self.total_samples
        return self.unmapped / total if total else 0.0
