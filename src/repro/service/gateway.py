"""Asyncio HTTP gateway: plan submission, polling, streaming, drains.

The client-facing half of ``repro serve``: a small hand-rolled
HTTP/1.1 server on :func:`asyncio.start_server` (the standard library
has no async HTTP server, and the surface here is six routes — a
framework would be the heavier dependency). One connection carries one
request; every response closes the connection, which sidesteps
keep-alive state exactly the way the fleet protocol's
one-exchange-per-connection rule does.

Routes
------
``POST /plans``
    Submit a plan: a JSON body of either a bare plan payload or
    ``{"plan": ..., "tenant": ..., "priority": ...}``. Replies ``201``
    with the job snapshot, or ``200`` for an idempotent resubmission
    (same tenant + plan → same job id → the existing job). A full
    queue replies ``429`` with ``Retry-After`` derived from the cost
    model's predicted drain time — backpressure that tells the client
    *when* to come back, not just "no".
``GET /plans`` / ``GET /plans/<id>``
    Job snapshots (list and single).
``GET /plans/<id>/records?offset=N``
    The job's results as chunked JSONL, one record per line in the
    store's own serialization, skipping the first ``N`` records. The
    ``X-Repro-Next-Offset`` header names the offset to resume from —
    poll until the plan is ``done`` and the count stops moving, and a
    dropped connection costs re-reading nothing.
``DELETE /plans/<id>``
    Cancel: no further grants; in-flight units finish harmlessly.
``POST /workers/<id>/drain``
    Gracefully retire a worker (the ``drain`` → ``bye`` lifecycle).
``GET /metrics`` / ``GET /healthz`` / ``GET /status``
    The observability trio, answered by
    :func:`repro.obs.http.read_only_route` (the same function behind
    ``--http-port``), so one port serves both control and monitoring.

Blocking work (store reads, queue locks) runs via
:func:`asyncio.to_thread`; the event loop itself never waits on a
lock held by a coordinator handler thread.
"""

from __future__ import annotations

import asyncio
import json
import logging
from urllib.parse import parse_qs, unquote, urlsplit

from repro.distributed.queue import (
    AdmissionError,
    PlanQueue,
    ServiceError,
    UnknownPlanError,
)
from repro.obs import span, telemetry
from repro.obs.http import read_only_route

__all__ = ["ServiceGateway"]

log = logging.getLogger("repro.service.gateway")

#: Submission bodies beyond this are refused (a plan payload is KiB;
#: anything larger is not a plan).
MAX_BODY_BYTES = 8 << 20

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServiceGateway:
    """The HTTP face of a :class:`PlanQueue`.

    Start/stop from whatever event loop hosts it (the
    :class:`~repro.service.app.PredictionService` runs one in a
    background thread); ``port=0`` lets the OS pick, read the bound
    address back from :attr:`address`.
    """

    def __init__(
        self,
        queue: PlanQueue,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], int(sock[1]))
        log.info("service gateway listening on %s:%d", *self.address)
        return self.address

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(
                    reader
                )
            except _HTTPError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            except (asyncio.IncompleteReadError, ValueError, OSError):
                return  # client vanished or sent garbage framing
            try:
                await self._route(writer, method, path, query, body)
            except _HTTPError as exc:
                await self._respond_json(
                    writer,
                    exc.status,
                    {"error": exc.message},
                    headers=exc.headers,
                )
            except Exception as exc:  # a handler bug must not kill serving
                log.exception("gateway handler failed for %s %s", method, path)
                await self._respond_json(
                    writer, 500, {"error": str(exc)}
                )
        except (ConnectionError, OSError):
            pass  # mid-response disconnect; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HTTPError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _HTTPError(400, "malformed Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise _HTTPError(
                413, f"request body over {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        return method.upper(), unquote(split.path), query, body

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: bytes,
    ) -> None:
        segments = [s for s in path.split("/") if s]
        if path == "/plans":
            if method == "POST":
                await self._submit(writer, body)
                return
            if method == "GET":
                jobs = await asyncio.to_thread(
                    lambda: [self.queue.snapshot(j) for j in self.queue.jobs()]
                )
                await self._respond_json(writer, 200, {"plans": jobs})
                return
            raise _HTTPError(405, f"{method} not supported on {path}")
        if len(segments) == 2 and segments[0] == "plans":
            job_id = segments[1]
            if method == "GET":
                snapshot = await asyncio.to_thread(
                    lambda: self.queue.snapshot(self._job(job_id))
                )
                await self._respond_json(writer, 200, snapshot)
                return
            if method == "DELETE":
                snapshot = await asyncio.to_thread(
                    lambda: self.queue.snapshot(self.queue.cancel(job_id))
                )
                await self._respond_json(writer, 200, snapshot)
                return
            raise _HTTPError(405, f"{method} not supported on {path}")
        if (
            len(segments) == 3
            and segments[0] == "plans"
            and segments[2] == "records"
        ):
            if method != "GET":
                raise _HTTPError(405, f"{method} not supported on {path}")
            await self._stream_records(writer, segments[1], query)
            return
        if (
            len(segments) == 3
            and segments[0] == "workers"
            and segments[2] == "drain"
        ):
            if method != "POST":
                raise _HTTPError(405, f"{method} not supported on {path}")
            worker = segments[1]
            await asyncio.to_thread(self.queue.drain_worker, worker)
            await self._respond_json(
                writer, 202, {"draining": worker}
            )
            return
        if method == "GET":
            routed = await asyncio.to_thread(
                read_only_route, path, telemetry, self.queue.status
            )
            if routed is not None:
                await self._respond(writer, 200, *routed)
                return
        raise _HTTPError(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------
    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            raise _HTTPError(
                400, f"submission body is not JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise _HTTPError(400, "submission body must be a JSON object")
        if isinstance(payload.get("plan"), dict):
            plan_payload = payload["plan"]
            tenant = str(payload.get("tenant", "default"))
            priority = payload.get("priority", 1.0)
        else:
            plan_payload, tenant, priority = payload, "default", 1.0
        try:
            priority = float(priority)
        except (TypeError, ValueError) as exc:
            raise _HTTPError(
                400, f"priority must be a number, got {priority!r}"
            ) from exc

        def admit() -> tuple[dict, bool]:
            # the submit span roots the job's trace: the queue's
            # schedule span and the workers' unit spans all parent here
            with span("submit", tenant=tenant) as ev:
                trace = {
                    "trace_id": ev.get("trace_id")
                    or telemetry().new_trace_id(),
                    "parent_span": ev["id"],
                }
                job, created = self.queue.submit(
                    plan_payload,
                    tenant=tenant,
                    priority=priority,
                    trace=trace,
                )
                ev["attrs"]["plan_id"] = job.id
                ev["attrs"]["created"] = created
                return self.queue.snapshot(job), created

        try:
            snapshot, created = await asyncio.to_thread(admit)
        except AdmissionError as exc:
            retry = max(int(round(exc.retry_after)), 1)
            raise _HTTPError(
                429,
                str(exc),
                headers={"Retry-After": str(retry)},
            ) from exc
        except ServiceError as exc:
            raise _HTTPError(400, str(exc)) from exc
        await self._respond_json(
            writer, 201 if created else 200, snapshot
        )

    async def _stream_records(
        self, writer: asyncio.StreamWriter, job_id: str, query: dict
    ) -> None:
        try:
            offset = int(query.get("offset", "0"))
        except ValueError as exc:
            raise _HTTPError(
                400, f"offset must be an integer, got {query['offset']!r}"
            ) from exc
        if offset < 0:
            raise _HTTPError(400, "offset must be >= 0")

        def read() -> tuple[list[dict], str]:
            job = self._job(job_id)
            with job.store_lock:
                records = job.store.records()
            return records[offset:], job.status()

        records, status = await asyncio.to_thread(read)
        headers = [
            ("Content-Type", "application/jsonl; charset=utf-8"),
            ("Transfer-Encoding", "chunked"),
            # resume cursor: ask again from here to get only new records
            ("X-Repro-Next-Offset", str(offset + len(records))),
            ("X-Repro-Plan-Status", status),
            ("Connection", "close"),
        ]
        writer.write(_head(200, headers))
        await writer.drain()
        for record in records:
            # the store's own serialization, so a streamed line is
            # byte-identical to the store file's line for that record
            line = (
                json.dumps(record, sort_keys=True) + "\n"
            ).encode()
            writer.write(
                f"{len(line):x}\r\n".encode() + line + b"\r\n"
            )
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    def _job(self, job_id: str):
        try:
            return self.queue.job(job_id)
        except UnknownPlanError as exc:
            raise _HTTPError(404, str(exc)) from exc

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        headers: dict | None = None,
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True, default=str) + "\n"
        ).encode()
        await self._respond(
            writer, status, body, "application/json", headers
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        ctype: str,
        headers: dict | None = None,
    ) -> None:
        head = [
            ("Content-Type", ctype),
            ("Content-Length", str(len(body))),
            ("Connection", "close"),
        ]
        if headers:
            head.extend(headers.items())
        writer.write(_head(status, head) + body)
        await writer.drain()


class _HTTPError(Exception):
    """A routed failure with its HTTP status (and optional headers)."""

    def __init__(
        self, status: int, message: str, headers: dict | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


def _head(status: int, headers) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode()
