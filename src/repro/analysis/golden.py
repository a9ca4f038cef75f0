"""Golden-trace digests: compact, byte-stable fingerprints of a scenario run.

A digest captures, per receiver, the *shape* of a run — the per-slot
subscription vector (stored in the clear, so a regression diff is readable)
and a SHA-256 over the full 1-second throughput series — plus a hash over
the complete runner metric document.  Because the simulator is
byte-deterministic for a given :class:`~repro.experiments.spec.ScenarioSpec`
(see ``tests/properties/test_determinism.py``), any behavioural drift in the
protocols, the adversary subsystem or the protection pipeline changes the
digest, which is what the golden regression tests under ``tests/golden/``
lock in.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycle guard)
    from ..experiments.spec import ScenarioSpec

__all__ = ["subscription_vector", "scenario_trace_digest"]


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def subscription_vector(
    level_history: Sequence[Tuple[float, int]], slot_duration_s: float, duration_s: float
) -> List[int]:
    """Subscription level in force at the end of each slot.

    ``level_history`` is the receiver's ``(time, level)`` transition list;
    the vector samples it at every slot boundary, giving the per-slot trace
    the paper's figures plot (and SIGMA enforces).
    """
    vector: List[int] = []
    index = 0
    level = 0
    slots = int(round(duration_s / slot_duration_s))
    history = list(level_history)
    for slot in range(1, slots + 1):
        boundary = slot * slot_duration_s
        while index < len(history) and history[index][0] <= boundary:
            level = history[index][1]
            index += 1
        vector.append(level)
    return vector


def scenario_trace_digest(spec: "ScenarioSpec") -> Dict[str, Any]:
    """Run ``spec`` and fingerprint the result.

    The digest is plain JSON data: per session and receiver the subscription
    vector (explicit) and a hash of the smoothed throughput series, plus a
    hash of the complete metric document (which covers goodputs, SIGMA
    counters and the protection block).
    """
    # Imported here, not at module scope: the experiment runner itself uses
    # the analysis package, so an eager import would cycle through
    # ``analysis/__init__`` during ``repro.experiments`` initialisation.
    from ..experiments.runner import collect_metrics
    from ..experiments.warmstart import run_scenario

    scenario = run_scenario(spec)
    duration = spec.effective_duration_s
    metrics = collect_metrics(scenario, spec)

    sessions: Dict[str, Any] = {}
    for decl, session in zip(spec.sessions, scenario.sessions):
        receivers = []
        for receiver in session.receivers:
            series = [
                [sample.time_s, sample.rate_kbps]
                for sample in receiver.monitor.smoothed_series(
                    window_bins=5, end_time_s=duration
                )
            ]
            receivers.append(
                {
                    "subscription": subscription_vector(
                        receiver.level_history, session.spec.slot_duration_s, duration
                    ),
                    "throughput_sha256": _sha256(series),
                }
            )
        sessions[decl.session_id] = receivers

    return {
        "spec_sha256": hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest(),
        "sessions": sessions,
        "metrics_sha256": _sha256(metrics),
    }
