"""The experiment daemon: an asyncio front-end over the shared runner.

:class:`ExperimentService` listens on a Unix socket or a TCP port, speaks
the line-delimited protocol from :mod:`repro.service.protocol`, and routes
submissions through an :class:`~repro.service.jobs.ExperimentScheduler`
onto the batch runner's own worker pool,
:class:`~repro.experiments.runner.JobExecutor`, awaited one job at a time.
The daemon owns the durable stores — the SHA-256 result cache and the
``ck_*.pkl`` warm-start blobs — so every client shares one cache and one
simulation per distinct spec.

Lifecycle: ``SIGTERM``/``SIGINT`` (or a ``shutdown`` request) begin a
*drain* — the listener closes, new submissions are rejected with a
``draining`` notice, in-flight submissions run to completion and stream
their results, then connections are told ``bye`` and the process exits.
"""

from __future__ import annotations

import asyncio
import concurrent.futures.process  # JobExecutor's pool, loaded before workers fork
import contextlib
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from .. import __version__, code_digest
from ..experiments.runner import JobExecutor, ResultCache, timeout_budget
from ..experiments.spec import MAX_DURATION_S, ScenarioSpec
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

__all__ = ["ExperimentService", "ServiceConfig", "run_daemon"]


@dataclass
class ServiceConfig:
    """Everything the daemon needs to come up.

    Exactly one endpoint is used: ``socket`` (a Unix socket path) when set,
    otherwise TCP on ``host``/``port`` (``port=0`` picks a free port, which
    the startup announcement reports).  Result entries and warm-start
    blobs share ``cache_dir``, exactly like a batch runner pointed at the
    same directory.  A job's default wall-clock budget, ``timeout_s``, is
    :data:`~repro.experiments.spec.MAX_DURATION_S` seconds, so a stuck
    worker cannot hold its slot for as long as the daemon lives.
    """

    cache_dir: Path
    socket: Optional[Path] = None
    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 1
    retries: int = 2
    timeout_s: float = MAX_DURATION_S
    max_queue: int = 256


class ExperimentService:
    """One daemon instance: listener, scheduler, pool and drain logic."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.pool = JobExecutor(
            jobs=config.jobs, retries=config.retries, timeout_s=config.timeout_s
        )
        self.cache = ResultCache(Path(config.cache_dir))
        self.scheduler = ExperimentScheduler(
            pool=self.pool, cache=self.cache, max_queue=config.max_queue
        )
        #: ``("unix", path)`` or ``("tcp", host, port)`` once listening.
        self.endpoint: Optional[Tuple[Any, ...]] = None
        self._drain = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._submissions: Set["asyncio.Task[None]"] = set()
        #: Open connections: handler task -> the writer it answers on.
        self._connections: Dict["asyncio.Task[Any]", asyncio.StreamWriter] = {}
        self._started = time.monotonic()
        self.connections_served = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Begin the drain: reject new work, let in-flight work finish."""
        self.scheduler.draining = True
        self._drain.set()

    async def serve(self, announce: bool = True) -> None:
        """Listen until drained; returns after in-flight work completes.

        With ``announce`` the daemon prints one ``listening`` event line to
        stdout once the endpoint is bound — the hook supervisors (and the
        test harness) wait on before connecting.
        """
        if self.config.socket is not None:
            path = Path(self.config.socket)
            path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(OSError):
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(path), limit=MAX_MESSAGE_BYTES
            )
            self.endpoint = ("unix", str(path))
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                self.config.host,
                self.config.port,
                limit=MAX_MESSAGE_BYTES,
            )
            bound = self._server.sockets[0].getsockname()
            self.endpoint = ("tcp", bound[0], bound[1])
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_drain)
        if announce:
            document: Dict[str, Any] = {"event": "listening"}
            if self.endpoint[0] == "unix":
                document["socket"] = self.endpoint[1]
            else:
                document["host"], document["port"] = self.endpoint[1:]
            sys.stdout.buffer.write(encode_message(document))
            sys.stdout.buffer.flush()
        try:
            await self._drain.wait()
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        """Drain sequence: stop listening, finish work, say bye, tear down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._submissions:
            await asyncio.gather(*self._submissions, return_exceptions=True)
        for writer in list(self._connections.values()):
            with contextlib.suppress(OSError, ConnectionError):
                writer.write(encode_message({"event": "bye", "draining": True}))
                await writer.drain()
            writer.close()
        # The closed writers end the handlers' reads; waiting for them here
        # leaves the loop teardown no pending task to cancel (and log).
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.pool.close()
        if self.config.socket is not None:
            with contextlib.suppress(OSError):
                Path(self.config.socket).unlink()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _send(
        self, writer: asyncio.StreamWriter, document: Dict[str, Any]
    ) -> None:
        writer.write(encode_message(document))
        await writer.drain()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        handler = asyncio.current_task()
        self._connections[handler] = writer
        streams: Set["asyncio.Task[None]"] = set()
        try:
            await self._send(
                writer,
                {
                    "event": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "version": __version__,
                },
            )
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized (newline-less) message: unrecoverable framing.
                    await self._send(
                        writer,
                        {"event": "error", "message": "message too large"},
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                try:
                    await self._dispatch(writer, line, streams)
                except (ConnectionError, OSError):
                    break
                except Exception as exc:
                    # One bad request answers in-band; it must never take
                    # down the connection's other in-flight work.
                    await self._send(
                        writer,
                        {"event": "error", "message": f"internal error: {exc}"},
                    )
        except (ConnectionError, OSError):
            pass
        finally:
            # A vanished client abandons its streams, never its simulations:
            # the scheduler's executions are detached and shielded, so the
            # in-flight cell still completes into the shared cache.
            for task in streams:
                task.cancel()
            del self._connections[handler]
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        line: bytes,
        streams: Set["asyncio.Task[None]"],
    ) -> None:
        """Handle one request line (errors answer in-band, never kill I/O)."""
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            await self._send(writer, {"event": "error", "message": str(exc)})
            return
        op = message.get("op")
        request_id = message.get("id")
        if op == "submit":
            await self._handle_submit(writer, message, streams)
        elif op == "status":
            await self._send(
                writer, {"event": "status", "id": request_id, **self.status()}
            )
        elif op == "shutdown":
            await self._send(
                writer, {"event": "bye", "id": request_id, "draining": True}
            )
            self.request_drain()
        else:
            await self._send(
                writer,
                {
                    "event": "error",
                    "id": request_id,
                    "message": f"unknown op {op!r}",
                },
            )

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    async def _handle_submit(
        self,
        writer: asyncio.StreamWriter,
        message: Dict[str, Any],
        streams: Set["asyncio.Task[None]"],
    ) -> None:
        request_id = message.get("id")

        async def reject(reason: str, **extra: Any) -> None:
            await self._send(
                writer,
                {"event": "rejected", "id": request_id, "reason": reason, **extra},
            )

        try:
            spec = ScenarioSpec.from_dict(message["spec"])
            spec.check_measures()
        except (KeyError, TypeError, ValueError) as exc:
            return await reject(f"invalid spec: {exc}")
        raw_seeds = message.get("seeds")
        if raw_seeds is None:
            seeds: List[int] = [spec.seed]
        elif (
            isinstance(raw_seeds, list)
            and raw_seeds
            and all(isinstance(s, int) and not isinstance(s, bool) for s in raw_seeds)
        ):
            seeds = list(raw_seeds)
        else:
            return await reject("seeds must be a non-empty list of integers")
        try:
            timeout_s = timeout_budget(message.get("timeout_s"))
        except ValueError as exc:
            return await reject(str(exc))
        try:
            self.scheduler.admit(len(seeds))
        except (QueueFullError, ServiceDrainingError) as exc:
            return await reject(
                str(exc), draining=isinstance(exc, ServiceDrainingError)
            )
        # Up to ``jobs`` cells of a submission are outstanding at a time,
        # topped up in seed order: one submission can fill the pool, and
        # another's cells join the pool's FIFO queue between this one's, not
        # behind all of them.
        loop = asyncio.get_running_loop()
        window = asyncio.Semaphore(self.pool.jobs)

        async def answer(seed: int) -> CellOutcome:
            async with window:
                return await self.scheduler.run_cell(spec.with_seed(seed), timeout_s)

        cells = [loop.create_task(answer(seed)) for seed in seeds]
        for cell in cells:
            cell.add_done_callback(self._cell_done)
        await self._send(
            writer,
            {"event": "accepted", "id": request_id, "cells": len(seeds)},
        )
        task = loop.create_task(self._stream(writer, request_id, seeds, cells))
        streams.add(task)
        self._submissions.add(task)
        task.add_done_callback(streams.discard)
        task.add_done_callback(self._submissions.discard)

    def _cell_done(self, cell: "asyncio.Task[CellOutcome]") -> None:
        """Return a cell's queue room once its work is done, reported or not."""
        self.scheduler.release(1)
        if not cell.cancelled():
            cell.exception()  # consumed: an abandoned stream never reads it

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        request_id: Any,
        seeds: List[int],
        cells: List["asyncio.Task[CellOutcome]"],
    ) -> None:
        """Stream the seed sweep's answers in seed order, each as it lands.

        An abandoned stream (client gone or connection torn down) abandons
        no cell: the shield keeps every one of them running into the shared
        cache, and holding its queue room until it has.
        """
        completed = failed = from_cache = 0
        for seed, cell in zip(seeds, cells):
            try:
                outcome = await asyncio.shield(cell)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                failed += 1
                await self._send(
                    writer,
                    {
                        "event": "error",
                        "id": request_id,
                        "seed": seed,
                        "message": str(exc),
                    },
                )
                continue
            completed += 1
            from_cache += 1 if outcome.cached else 0
            await self._send(
                writer,
                {
                    "event": "result",
                    "id": request_id,
                    "seed": seed,
                    "key": outcome.key,
                    "cached": outcome.cached,
                    "deduped": outcome.deduped,
                    "warm": outcome.warm,
                    "result": outcome.result.to_dict(),
                },
            )
        await self._send(
            writer,
            {
                "event": "done",
                "id": request_id,
                "completed": completed,
                "failed": failed,
                "cached": from_cache,
            },
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The ``/status`` document: queue, cache, worker and uptime state."""
        return {
            "protocol": PROTOCOL_VERSION,
            "version": __version__,
            "code": code_digest(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "connections": len(self._connections),
            "connections_served": self.connections_served,
            "scheduler": self.scheduler.stats(),
            "pool": self.pool.stats(),
        }


def run_daemon(config: ServiceConfig, announce: bool = True) -> None:
    """Run an :class:`ExperimentService` until it drains (blocking)."""
    service = ExperimentService(config)
    asyncio.run(service.serve(announce=announce))
