"""Synchronous client for the experiment service.

:class:`ServiceClient` is a thin blocking wrapper over the line protocol:
it connects to a daemon's Unix socket or TCP endpoint, validates the
``hello`` handshake, and exposes one method per protocol op.  The CLI's
``submit``/``status`` subcommands are built on it, and the test harness
uses it directly — there is no async machinery on the client side, so any
script (or REPL) can drive a daemon with a few lines.  It imports nothing
above :mod:`repro.service.protocol`: :meth:`stream` yields event dicts, and
only :meth:`run` loads the experiments layer, to return :class:`RunResult` objects.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Union

from .protocol import PROTOCOL_VERSION, ProtocolError, decode_line, encode_message

if TYPE_CHECKING:  # pragma: no cover - annotation-only (keeps the client light)
    from ..experiments.metrics import RunResult
    from ..experiments.spec import ScenarioSpec

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The daemon rejected a request or the conversation broke down."""


class ServiceClient:
    """One blocking connection to a running experiment daemon."""

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if socket_path is None and (host is None or port is None):
            raise ValueError("need either socket_path or host and port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            self._sock.connect(str(socket_path))
        else:
            self._sock = socket.create_connection(
                (host, int(port)), timeout=timeout_s
            )
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self.hello = self._recv()
        if self.hello.get("event") != "hello":
            raise ServiceError(
                f"expected a hello handshake, got {self.hello.get('event')!r}"
            )
        if self.hello.get("protocol") != PROTOCOL_VERSION:
            raise ServiceError(
                f"daemon speaks protocol {self.hello.get('protocol')}, this "
                f"client speaks {PROTOCOL_VERSION}"
            )

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------
    def _request_id(self) -> str:
        self._next_id += 1
        return f"r{self._next_id}"

    def _send(self, document: Dict[str, Any]) -> None:
        try:
            self._sock.sendall(encode_message(document))
        except OSError as exc:
            raise ServiceError(f"connection to daemon lost: {exc}") from None

    def _recv(self) -> Dict[str, Any]:
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServiceError(f"connection to daemon lost: {exc}") from None
        if not line:
            raise ServiceError("daemon closed the connection")
        try:
            return decode_line(line)
        except ProtocolError as exc:
            raise ServiceError(f"malformed daemon message: {exc}") from None

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def stream(
        self,
        spec: ScenarioSpec,
        seeds: Optional[List[int]] = None,
        timeout_s: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Submit a sweep and yield its raw events through ``done``.

        Yields the ``accepted`` event, then each ``result``/``error`` event
        as the daemon streams them, and finally ``done``.  Raises
        :class:`ServiceError` immediately on a ``rejected`` verdict (queue
        full, draining, or an invalid spec).
        """
        request_id = self._request_id()
        request: Dict[str, Any] = {
            "op": "submit",
            "id": request_id,
            "spec": spec.to_dict(),
        }
        if seeds is not None:
            request["seeds"] = list(seeds)
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        self._send(request)
        while True:
            event = self._recv()
            if event.get("id") != request_id:
                continue
            if event.get("event") == "rejected":
                raise ServiceError(
                    f"submission rejected: {event.get('reason', 'unknown')}"
                )
            yield event
            if event.get("event") == "done":
                return

    def run(
        self,
        spec: ScenarioSpec,
        seeds: Optional[List[int]] = None,
        timeout_s: Optional[float] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[RunResult]:
        """Submit a sweep and return its results in seed order.

        Any per-cell ``error`` event fails the whole call (the partial
        results are in the shared cache regardless).  ``on_event`` observes
        every streamed event — the CLI uses it for progress lines.
        """
        from ..experiments.metrics import RunResult

        results: List[RunResult] = []
        failures: List[str] = []
        for event in self.stream(spec, seeds=seeds, timeout_s=timeout_s):
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "result":
                results.append(RunResult.from_dict(event["result"]))
            elif kind == "error":
                failures.append(
                    f"seed {event.get('seed')}: {event.get('message')}"
                )
        if failures:
            raise ServiceError(
                "the daemon reported cell failures: " + "; ".join(failures)
            )
        return results

    def status(self) -> Dict[str, Any]:
        """The daemon's ``/status`` introspection document."""
        request_id = self._request_id()
        self._send({"op": "status", "id": request_id})
        return self._await_event(request_id, "status")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit; returns its ``bye`` notice."""
        request_id = self._request_id()
        self._send({"op": "shutdown", "id": request_id})
        return self._await_event(request_id, "bye")

    def _await_event(self, request_id: str, kind: str) -> Dict[str, Any]:
        """Read events until our reply arrives (skipping unrelated ones)."""
        while True:
            event = self._recv()
            if event.get("id") != request_id:
                continue
            if event.get("event") == "error":
                raise ServiceError(str(event.get("message")))
            if event.get("event") == kind:
                return event

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
