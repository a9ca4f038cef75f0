"""Wire protocol of the experiment service: line-delimited canonical JSON.

Every message — request or event — is one JSON object serialised in the
repository's canonical form (sorted keys, no whitespace) followed by a
single ``\\n``.  The framing is deliberately primitive: any language (or
``nc``) can speak it, and canonical serialisation means two byte-equal
messages are the *same* message, which the determinism suite leans on.

Client → server requests carry an ``op`` field:

========== ===========================================================
op         payload
========== ===========================================================
submit     ``{"op": "submit", "id": str?, "spec": {...}, "seeds": [int]?,``
           ``"timeout_s": float?}`` — run a canonical
           :class:`~repro.experiments.spec.ScenarioSpec` dict over the seed
           sweep (default: the spec's own seed), streaming one ``result``
           event per cell as it completes.
status     ``{"op": "status"}`` — service introspection snapshot.
shutdown   ``{"op": "shutdown"}`` — ask the daemon to drain and exit
           (equivalent to SIGTERM; in-flight jobs finish first).
========== ===========================================================

Server → client messages carry an ``event`` field: ``hello`` (greeting with
protocol/package versions), ``accepted``/``rejected`` (admission verdicts),
``result`` (one cell's :class:`~repro.experiments.metrics.RunResult` dict,
tagged with its seed and whether it was served from cache), ``error``
(per-cell or per-request failure), ``done`` (end of a submission's stream,
with summary counters), ``status`` and ``bye`` (drain notice).  Events
for concurrent submissions on one connection interleave; every event
echoes the request's ``id`` so clients can demultiplex.
"""

from __future__ import annotations

import json
from typing import Any, Dict

__all__ = [
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_line",
    "encode_message",
]

#: Bumped on any incompatible change to the message schema.  The server
#: advertises it in the ``hello`` event; clients refuse to talk to a newer
#: major protocol.  2: the ``submit`` spec lost its two dumbbell-only
#: sizing keys and the config's four link keys (a dumbbell is sized through
#: ``topology_params``), and unknown keys are refused.  3: the two
#: store-inspection ops (result by key, blob size by key) are gone.  4: the
#: ``submit`` spec lost three keys — a session's ``misbehaving`` and
#: ``attack_start_s`` (its attacks are declared in ``attacks``) and the
#: config's ``duration_s`` (the spec's ``duration_s`` is the one run length).
#: 5: the ``submit`` spec lost its ``config``: the seed is the spec's own
#: ``seed``, a session's ``group_count`` and ``key_bits`` are fields of that
#: session, and the other §5.1 settings are constants no spec carries.
PROTOCOL_VERSION = 5

#: Upper bound on one framed message.  Spec documents and result documents
#: with recorded series are large but bounded; 64 MiB leaves headroom while
#: keeping a malformed (newline-less) peer from ballooning server memory.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A line that is not a valid protocol message."""


def encode_message(document: Dict[str, Any]) -> bytes:
    """Frame ``document`` as one canonical-JSON line (UTF-8, ``\\n``-terminated)."""
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Raises :class:`ProtocolError` for anything that is not a single JSON
    object — the server answers those with an ``error`` event instead of
    dropping the connection, so one bad line cannot take down a client's
    other in-flight work.
    """
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from None
    if not isinstance(document, dict):
        raise ProtocolError(
            f"a protocol message must be a JSON object, got {type(document).__name__}"
        )
    return document
