"""Experiment service mode: an async job server over the batch runner.

``python -m repro serve`` (:mod:`repro.service.server`) listens on a Unix
socket or TCP port, accepts :class:`~repro.experiments.spec.ScenarioSpec`
documents over a line-delimited JSON protocol (:mod:`repro.service.protocol`),
schedules them across a self-healing process pool
(:mod:`repro.service.jobs`), and streams per-seed results back as they
complete.  The daemon fronts the same SHA-256 result cache and warm-start
checkpoint store the batch runner uses, so cache hits are answered without
touching the pool and every client shares one simulation per distinct spec.

Because the daemon executes cells through the exact job planner and worker
entry points the batch :class:`~repro.experiments.runner.ExperimentRunner`
uses, a result obtained through the service is byte-identical to the batch
result for the same spec — the property ``tests/service/`` proves.

This package root is the client (:class:`ServiceClient` and the protocol
names): importing it loads no daemon, process pool or simulator.  The
daemon's names come from :mod:`repro.service.server` and ``.jobs``.
"""

from .client import ServiceClient, ServiceError
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
)

__all__ = [
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "decode_line",
    "encode_message",
]
