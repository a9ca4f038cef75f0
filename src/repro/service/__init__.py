"""Experiment service mode: an async job server over the batch runner.

The package turns the repository's batch experiment machinery into a
long-lived daemon: ``python -m repro serve`` listens on a Unix socket or
TCP port, accepts :class:`~repro.experiments.spec.ScenarioSpec` documents
over a line-delimited JSON protocol, schedules them across a self-healing
process pool, and streams per-seed results back as they complete.  The
daemon fronts the same SHA-256 result cache and warm-start checkpoint
store the batch runner uses, so cache hits are answered without touching
the pool and every client shares one simulation per distinct spec.

Because the daemon executes cells through the exact job planner and worker
entry points the batch :class:`~repro.experiments.runner.ExperimentRunner`
uses, a result obtained through the service is byte-identical to the batch
result for the same spec — the property ``tests/service/`` proves.
"""

from ..experiments.runner import JobTimeoutError
from .client import ServiceClient, ServiceError
from .jobs import (
    CellOutcome,
    ExperimentScheduler,
    QueueFullError,
    ServiceDrainingError,
)
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
)
from .server import ExperimentService, ServiceConfig, run_daemon

__all__ = [
    "CellOutcome",
    "ExperimentScheduler",
    "ExperimentService",
    "JobTimeoutError",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDrainingError",
    "ServiceError",
    "decode_line",
    "encode_message",
    "run_daemon",
]
