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
from typing import Any, Dict

from ..analysis.convergence import subscription_vector
from .metrics import collect_metrics
from .runner import run_scenario
from .spec import ScenarioSpec, canonical_json

__all__ = ["scenario_trace_digest"]


def _sha256(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def scenario_trace_digest(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run ``spec`` and fingerprint the result.

    The digest is plain JSON data: per session and receiver the subscription
    vector (explicit) and a hash of the smoothed throughput series, plus a
    hash of the complete metric document (which covers goodputs, SIGMA
    counters and the protection block).
    """
    scenario = run_scenario(spec)
    duration = spec.duration_s
    metrics = collect_metrics(scenario, spec)

    sessions: Dict[str, Any] = {}
    for decl, session in zip(spec.sessions, scenario.sessions):
        receivers = []
        for receiver, _rows in (entry for group in session.declared for entry in group):
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
