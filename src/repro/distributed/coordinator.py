"""Fleet coordinator: the TCP endpoint of a plan queue.

:class:`FleetCoordinator` speaks the length-prefixed-JSON protocol of
:mod:`repro.distributed.protocol` (framing, mutual HMAC
authentication) and routes every message to a
:class:`~repro.distributed.queue.PlanQueue`, which owns all scheduling
state: each admitted plan's pending units, leases and results store,
and one row of wire and work counters per worker. Every worker-facing
coordinator is this pair — the single-plan
:class:`~repro.distributed.executors.FleetExecutor` (a queue holding
one plan that the executor closes once its store covers every cell)
and the always-on ``repro serve`` service alike. The lease rules —
cost-sized grants, work stealing, expiry and requeue, verified
completion — are documented in :mod:`repro.distributed.queue`.

An idle worker's ask is *held* rather than answered ``wait`` at once:
the coordinator grants it a hold of at most its poll interval, and the
queue keeps the request open until something changes the answer (a
submission, a completion, a requeue, a drain, the end of the plan), so
new work reaches an idle worker as soon as it exists. Records reach
the coordinator only inline on ``complete``, and the reply piggybacks
the next lease, so a steady-state worker pays one round-trip per
unit.

The coordinator never simulates anything itself: it is bookkeeping plus
stores, which is what lets one process oversee a fleet of heavyweight
workers.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time

from repro.obs import telemetry

from repro.distributed.protocol import (
    FleetError,
    auth_mac,
    auth_nonce,
    check_auth_token,
    check_poll_interval,
    recv_message,
    send_message,
    verify_auth,
)
from repro.distributed.queue import PlanQueue

__all__ = ["FleetCoordinator"]

log = logging.getLogger("repro.distributed.coordinator")


class FleetCoordinator:
    """Serve a :class:`~repro.distributed.queue.PlanQueue` to fleet
    workers over TCP.

    Parameters
    ----------
    queue:
        The plan queue every message is routed to.
    host, port:
        Listen address; port ``0`` lets the OS pick (read it back from
        :attr:`address` after :meth:`start`).
    poll_interval:
        The longest an idle lease request is held before it is
        answered ``wait`` (the hold a worker asks for is capped by
        it), advertised on ``welcome`` as the hold a worker asks for
        by default. A positive, finite number of seconds.
    auth_token:
        Shared secret for the mutual challenge–response handshake
        (``None`` disables authentication) — enforced by the connection
        handler before any dispatch.
    """

    def __init__(
        self,
        queue: PlanQueue,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.5,
        auth_token: str | None = None,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        self.poll_interval = check_poll_interval(poll_interval)
        self.auth_token = check_auth_token(auth_token)
        self.address: tuple[str, int] | None = None
        self._server: _FleetServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        server = _FleetServer((self.host, self.port), self)
        self._server = server
        self.address = (
            server.server_address[0],
            int(server.server_address[1]),
        )
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="fleet-coordinator",
        )
        self._thread.start()
        log.info("fleet coordinator listening on %s:%d", *self.address)
        return self.address

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def dispatch(self, message: dict) -> dict:
        """Route one fleet message to the queue (the handler calls this
        after framing and, when configured, authentication)."""
        mtype = message.get("type")
        worker = str(message.get("worker", ""))
        queue = self.queue
        if mtype == "hello":
            queue.touch(worker)
            return {
                "type": "welcome",
                "lease_timeout": queue.lease_timeout,
                "poll_interval": self.poll_interval,
            }
        if mtype == "lease":
            return queue.lease(worker, hold=self._hold(message.get("hold")))
        if mtype == "heartbeat":
            telemetry().fold_snapshot(message.get("metrics"), worker=worker)
            reply = queue.heartbeat(
                worker,
                message.get("plan_id"),
                message.get("lease"),
                message.get("telemetry"),
            )
            return _stamp_clock(message, reply)
        if mtype == "complete":
            telemetry().fold_snapshot(message.get("metrics"), worker=worker)
            reply = queue.complete(
                worker,
                message.get("plan_id"),
                message.get("lease"),
                message.get("telemetry"),
                message.get("records"),
            )
            return _stamp_clock(message, reply)
        if mtype == "drain":
            # operator request: gracefully retire ``target`` (elastic
            # scale-down — finish leased units, no new grants, `bye`)
            target = str(message.get("target", "") or worker)
            if not target:
                raise FleetError("drain message without a target worker")
            queue.drain_worker(target)
            return {"type": "ok", "draining": target}
        if mtype == "status":
            # read-only, never counts as worker contact: a status probe
            # must never register as a worker the shutdown linger then
            # waits to inform
            return queue.status()
        raise FleetError(f"unknown fleet message type {mtype!r}")

    def _hold(self, asked) -> float:
        """The hold granted to a ``lease``: what the worker asked for,
        capped by the poll interval; 0 (answer at once) when the ask
        is missing, malformed or not positive."""
        try:
            asked = float(asked)
        except (TypeError, ValueError):
            return 0.0
        return min(asked, self.poll_interval) if asked > 0 else 0.0


def _stamp_clock(message: dict, reply: dict) -> dict:
    """Answer a ``sent_at`` timestamp with the coordinator-measured
    clock-offset estimate (coordinator time minus worker send time —
    skewed by one-way latency, plenty for timeline alignment)."""
    sent = message.get("sent_at")
    if sent is not None:
        try:
            reply["clock_offset"] = time.time() - float(sent)
        except (TypeError, ValueError):
            pass
    return reply


class _FleetServer(socketserver.ThreadingTCPServer):
    """One-request-per-connection JSON server around a coordinator."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: tuple[str, int], coordinator: FleetCoordinator
    ) -> None:
        super().__init__(address, _CoordinatorHandler)
        self.auth_token = coordinator.auth_token
        self.dispatch = coordinator.dispatch


class _CoordinatorHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        try:
            message = recv_message(self.request)
            if message is None:
                return
            token = self.server.auth_token
            if token is not None:
                # the mutual handshake runs BEFORE dispatch: an
                # unauthenticated peer sees a random nonce (plus a
                # proof it cannot use without the token) and an error
                # — never a byte of the plan or its records
                if message.get("type") != "auth-hello":
                    # a tokenless client sent its request plainly; the
                    # challenge tells it (and its operator) why
                    send_message(
                        self.request,
                        {"type": "challenge", "nonce": auth_nonce()},
                    )
                    return
                nonce = auth_nonce()
                send_message(
                    self.request,
                    {
                        "type": "challenge",
                        "nonce": nonce,
                        "proof": auth_mac(
                            token,
                            str(message.get("nonce", "")),
                            "coordinator",
                        ),
                    },
                )
                auth = recv_message(self.request)
                if (
                    auth is None
                    or auth.get("type") != "auth"
                    or not verify_auth(
                        token, nonce, auth.get("mac"), "worker"
                    )
                ):
                    if auth is not None:
                        # "denied": the structured marker request()
                        # keys FleetAuthError on (never retried) —
                        # dispatch errors cannot carry it
                        send_message(
                            self.request,
                            {
                                "type": "error",
                                "error": "authentication failed",
                                "denied": "auth",
                            },
                        )
                    return
                message = auth.get("request")
                if not isinstance(message, dict):
                    send_message(
                        self.request,
                        {
                            "type": "error",
                            "error": "authenticated exchange without "
                            "a request payload",
                        },
                    )
                    return
            try:
                reply = self.server.dispatch(message)
            except Exception as exc:  # report, don't kill the server
                reply = {"type": "error", "error": str(exc)}
            send_message(self.request, reply)
        except OSError:
            # a worker died mid-exchange; its lease will expire
            pass
