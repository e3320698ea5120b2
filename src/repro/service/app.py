"""The assembled prediction service: queue + fleet port + HTTP port.

:class:`PredictionService` wires the three service pieces together and
owns their lifecycles — what ``repro serve`` runs:

* a :class:`~repro.distributed.queue.PlanQueue` holding the spool, the
  shared cost model and the fair-share scheduler state;
* a :class:`~repro.distributed.coordinator.FleetCoordinator` serving
  the fleet wire protocol to ``repro experiments worker`` processes;
* a :class:`~repro.service.gateway.ServiceGateway` serving HTTP to
  clients, hosted on a private event loop in a background thread (the
  service embeds in synchronous callers — the CLI, tests — without
  imposing asyncio on them);
* a housekeeping timer driving :meth:`PlanQueue.housekeep`, so jobs
  whose last records arrived via a worker that then left still flip to
  ``done`` (state must advance without requiring worker traffic).

``close()`` persists the cost-model snapshot — together with the
spool's plans and stores, a restarted service resumes scheduling with
everything the previous process had learned and admitted.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import threading

from repro.distributed.coordinator import FleetCoordinator
from repro.distributed.queue import PlanQueue
from repro.obs.http import clear_status_provider, set_status_provider

from repro.service.gateway import ServiceGateway

__all__ = ["PredictionService"]

log = logging.getLogger("repro.service.app")


class PredictionService:
    """An always-on multi-tenant plan execution service.

    Parameters mirror the pieces they configure: ``spool`` and the
    scheduling knobs go to the :class:`PlanQueue`, ``host``/``port``
    to the HTTP gateway, ``fleet_port``/``auth_token`` to the worker
    coordinator. ``housekeep_interval`` is the timer cadence for
    workerless state advancement.

    Usable as a context manager; :meth:`start` returns the bound
    ``(gateway_address, fleet_address)`` pair so callers (tests, the
    CLI with ``--port 0``) learn the OS-picked ports.
    """

    def __init__(
        self,
        spool: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet_port: int = 0,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.5,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        max_active: int = 8,
        auth_token: str | None = None,
        housekeep_interval: float = 1.0,
    ) -> None:
        self.queue = PlanQueue(
            spool,
            lease_timeout=lease_timeout,
            min_unit_cells=min_unit_cells,
            target_unit_seconds=target_unit_seconds,
            max_active=max_active,
        )
        self.coordinator = FleetCoordinator(
            self.queue,
            host=host,
            port=fleet_port,
            poll_interval=poll_interval,
            auth_token=auth_token,
        )
        self.gateway = ServiceGateway(self.queue, host=host, port=port)
        self.housekeep_interval = float(housekeep_interval)
        self.address: tuple[str, int] | None = None
        self.fleet_address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._housekeeper: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> tuple[tuple[str, int], tuple[str, int]]:
        """Bind both ports; returns ``(gateway, fleet)`` addresses."""
        self.fleet_address = self.coordinator.start()
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever,
            daemon=True,
            name="service-gateway-loop",
        )
        self._loop_thread.start()
        try:
            self.address = asyncio.run_coroutine_threadsafe(
                self.gateway.start(), self._loop
            ).result(timeout=10.0)
        except Exception:
            self.close()
            raise
        self._housekeeper = threading.Thread(
            target=self._housekeep_loop,
            daemon=True,
            name="service-housekeeper",
        )
        self._housekeeper.start()
        # /status on an ObsHTTPServer (if the operator enabled one)
        # mirrors the service snapshot, same as the gateway's /status
        set_status_provider(self.queue.status)
        log.info(
            "prediction service up: http %s:%d, fleet %s:%d, spool %s",
            self.address[0],
            self.address[1],
            self.fleet_address[0],
            self.fleet_address[1],
            self.queue.spool,
        )
        return self.address, self.fleet_address

    def _housekeep_loop(self) -> None:
        while not self._stopping.wait(self.housekeep_interval):
            try:
                self.queue.housekeep()
            except Exception:  # keep the timer alive; next tick retries
                log.exception("service housekeeping failed")

    def close(self) -> None:
        """Stop serving and persist the cost snapshot (idempotent)."""
        self._stopping.set()
        clear_status_provider(self.queue.status)
        housekeeper, self._housekeeper = self._housekeeper, None
        if housekeeper is not None:
            housekeeper.join(timeout=5.0)
        loop, self._loop = self._loop, None
        thread, self._loop_thread = self._loop_thread, None
        if loop is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    self.gateway.stop(), loop
                ).result(timeout=5.0)
            except Exception:
                log.exception("gateway did not stop cleanly")
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)
            loop.close()
        self.coordinator.close()
        self.queue.save_costs()

    def serve_forever(self) -> None:
        """Block until interrupted (the CLI's foreground mode).

        SIGTERM requests the same graceful shutdown as Ctrl-C: finish
        the in-flight HTTP exchanges, persist the cost snapshot, leave
        the spool resumable — what a supervisor (systemd, a container
        runtime) sends before escalating to SIGKILL.
        """
        try:
            signal.signal(
                signal.SIGTERM, lambda *_: self._stopping.set()
            )
        except ValueError:  # not the main thread: close() still works
            pass
        try:
            while not self._stopping.wait(0.5):
                pass
        except KeyboardInterrupt:
            log.info("interrupt: shutting the service down")
        finally:
            self.close()

    def __enter__(self) -> "PredictionService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
