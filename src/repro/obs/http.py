"""Fleet observability over HTTP, on the standard library only.

:func:`read_only_route` answers the three read-only endpoints for both
HTTP servers of this package: :class:`ObsHTTPServer`, a ``http.server``
thread next to whatever command enabled it (``--http-port`` on ``run``,
``compare``, ``sweep``, ``worker``), and the ``repro serve`` gateway
(:mod:`repro.service.gateway`), which has no ``--http-port``:

* ``/metrics`` — the process registry in Prometheus text exposition
  format (:meth:`Telemetry.prometheus_text`). On a coordinator this is
  the *fleet* view, because worker heartbeats fold their metric deltas
  into the coordinator registry labelled by worker.
* ``/healthz`` — liveness, always ``ok`` while the thread runs.
* ``/status`` — a JSON mirror of the read-only ``status`` fleet
  protocol message. A fleet executor registers a status provider while
  serving (:func:`set_status_provider`); outside a fleet run the
  endpoint reports ``{"status": "idle"}``, and the gateway answers its
  own queue's status. Like the protocol message, a scrape never counts
  as worker contact and never mutates leases.

Scrapes are served from their own daemon threads, so a slow or stuck
client cannot stall the coordinator loop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "ObsHTTPServer",
    "clear_status_provider",
    "read_only_route",
    "set_status_provider",
    "status_payload",
]

_provider_lock = threading.Lock()
_status_provider = None


def set_status_provider(provider) -> None:
    """Install the callable answering ``/status`` (a coordinator does
    this for the duration of a fleet run)."""
    global _status_provider
    with _provider_lock:
        _status_provider = provider


def clear_status_provider(provider=None) -> None:
    """Remove the status provider; passing the provider makes the call
    conditional, so a finishing run never clears a newer run's hook.
    (Compared with ``==``: each ``obj.method`` access builds a new
    bound method, equal to but not identical with the installed one.)"""
    global _status_provider
    with _provider_lock:
        if provider is None or _status_provider == provider:
            _status_provider = None


def status_payload() -> dict:
    """What ``/status`` answers right now."""
    with _provider_lock:
        provider = _status_provider
    if provider is None:
        return {"status": "idle"}
    return provider()


def read_only_route(path: str, registry, status) -> tuple[bytes, str] | None:
    """The ``(body, content type)`` a ``GET path`` answers, or ``None``
    when ``path`` is not ``/metrics``, ``/healthz`` or ``/status``.

    ``registry`` and ``status`` are called only by their own route: the
    first returns the :class:`Telemetry` to expose, the second the
    ``/status`` payload.
    """
    if path == "/metrics":
        return (
            registry().prometheus_text().encode(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    if path == "/healthz":
        return b"ok\n", "text/plain; charset=utf-8"
    if path == "/status":
        payload = json.dumps(status(), sort_keys=True, default=str)
        return (payload + "\n").encode(), "application/json"
    return None


class _ObsRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            routed = read_only_route(
                path, self.server.registry, self.server.status
            )
            if routed is None:
                self.send_error(
                    404, "unknown path (serving /metrics, /healthz, /status)"
                )
                return
            body, ctype = routed
        except Exception as exc:  # a broken provider must not kill serving
            self.send_error(500, f"observability handler failed: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes are not log noise


class ObsHTTPServer:
    """A daemon-threaded HTTP exposition server.

    ``registry`` may override the metric source (tests pass a private
    :class:`Telemetry`); it defaults to the process registry resolved
    per request, so a ``repro.obs.reset()`` is picked up live.
    ``status`` likewise overrides the ``/status`` payload; the default
    consults the module-level provider hook.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 registry=None, status=None) -> None:
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._registry = registry
        self._status = status
        self._httpd = None
        self._thread = None

    def registry(self):
        if self._registry is not None:
            return self._registry
        from repro.obs import telemetry

        return telemetry()

    def status(self) -> dict:
        if self._status is not None:
            return self._status()
        return status_payload()

    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, port) —
        with ``port=0`` the OS picks a free one."""
        httpd = ThreadingHTTPServer((self.host, self.port), _ObsRequestHandler)
        httpd.daemon_threads = True
        httpd.registry = self.registry
        httpd.status = self.status
        self._httpd = httpd
        self.address = (httpd.server_address[0], int(httpd.server_address[1]))
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="obs-http",
        )
        self._thread.start()
        return self.address

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)
