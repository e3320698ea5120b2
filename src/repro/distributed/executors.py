"""Pluggable work executors: who runs a plan's pending work units.

The :class:`~repro.experiments.runner.ExperimentRunner` decides *what*
is pending (resume bookkeeping, config-digest checks, record ordering)
and compiles it into a :class:`~repro.experiments.work.WorkSet` of
:class:`~repro.experiments.work.WorkUnit`\\ s — a ``(case, backend)``
group index plus an explicit cell subset. An executor decides *where*
those units run, and is free to reshape them (split big units across
idle workers, hand out single cells) because unit boundaries never
change any cell's result. There is one serial and one parallel
policy:

* :class:`InlineExecutor` — every unit in the calling process, one
  after another (the default, and the only executor that works without
  a results store).
* :class:`FleetExecutor` — units leased to worker processes over TCP
  with cost-sized leases, cell-level work stealing, lease-timeout
  requeue and first-writer-wins store merging: a
  :class:`~repro.distributed.queue.PlanQueue` holding the one plan,
  served by a :class:`~repro.distributed.coordinator.FleetCoordinator`
  — the same pair ``repro serve`` runs. Idle workers' lease requests
  are held until work exists, and once the plan is recorded the
  executor waits only until every live worker has heard ``done``:
  no step between the last record and the return sleeps on a timer.
  :class:`ProcessShardExecutor` (``--shards N``) is this executor with
  its own workers: it starts ``N`` local
  :func:`~repro.distributed.worker.run_worker` processes on loopback
  and joins them when the plan is recorded.

Executors receive the runner itself: they call back into
:meth:`ExperimentRunner.run_units` (directly, or from a worker process
that rebuilt an equivalent runner) so resume semantics are the store's
``(system, case, seed, backend)`` contract under every policy. An
executor returns the freshly produced records, or ``None`` when its
work reached the store through other processes and the runner should
re-read it.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.errors import ReproError
from repro.experiments.costs import UnitCostModel
from repro.experiments.work import WorkSet
from repro.obs import telemetry
from repro.obs.http import clear_status_provider, set_status_provider

from repro.distributed.coordinator import FleetCoordinator
from repro.distributed.protocol import (
    FleetError,
    check_auth_token,
    check_poll_interval,
)
from repro.distributed.queue import (
    PlanJob,
    PlanQueue,
    check_lease_settings,
)
from repro.distributed.worker import run_worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import ExperimentRunner

__all__ = [
    "FleetExecutor",
    "InlineExecutor",
    "ProcessShardExecutor",
    "WorkExecutor",
]

log = logging.getLogger("repro.distributed.executors")

#: Poll interval of loopback fleets: the longest an idle lease request
#: is held, advertised to their workers as the hold they ask for.
LOOPBACK_POLL_INTERVAL = 0.05


@runtime_checkable
class WorkExecutor(Protocol):
    """Execution policy for a plan's pending work units."""

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        """Run every pending unit; record through the runner.

        Returns the fresh records, or ``None`` when they were appended
        to the runner's store by other processes (the runner re-reads
        the store in that case).
        """


def _check_process_portable(runner: "ExperimentRunner", what: str) -> None:
    """Refuse runner features that cannot cross process boundaries."""
    from repro.engine import EngineSession

    if runner.store is None:
        raise ReproError(
            f"{what} needs a ResultsStore — the executing processes "
            "meet only through the store file"
        )
    if (
        runner.progress is not None
        or runner.session_factory is not EngineSession
    ):
        raise ReproError(
            "progress callbacks and custom session factories do not "
            f"cross process boundaries; use the inline executor for {what}"
        )


class InlineExecutor:
    """Run every pending unit in the calling process (the default)."""

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        # compile already excluded recorded cells, so nothing is done
        return runner.run_units(workset.plan, workset.pending(), set())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "InlineExecutor()"


class FleetExecutor:
    """Serve a plan's work units to TCP workers; the distributed executor.

    The plan is admitted, with the runner's store as its store, into a
    :class:`~repro.distributed.queue.PlanQueue` served by a
    :class:`~repro.distributed.coordinator.FleetCoordinator` — the very
    queue and server of ``repro serve``, holding one plan. Once the
    store records every cell the queue is closed: every further ask is
    answered ``done``, and the executor lingers until each live worker
    has heard it.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` lets the OS pick (read it back from
        :attr:`address`, or via ``on_bound``).
    lease_timeout:
        Seconds of worker silence after which its unit is re-leased,
        finite and > 0. Workers heartbeat at a quarter of this, so it
        bounds both the cost of a worker death and the end-of-run
        linger.
    poll_interval:
        The longest an idle worker's lease request is held before it is
        answered ``wait``; advertised to workers as the hold they ask
        for. A positive, finite number of seconds.
    timeout:
        Optional overall wall-clock bound; :class:`FleetError` when the
        plan is still incomplete after this many seconds (``None``
        waits forever — workers may join at any time).
    min_unit_cells:
        Lease-size floor, at least 1 (see
        :class:`~repro.distributed.queue.PlanQueue`).
    target_unit_seconds:
        Per-lease wall-clock target, finite seconds > 0 (see
        :class:`~repro.distributed.queue.PlanQueue`).
    auth_token:
        Shared secret for the challenge–response handshake (see
        :mod:`repro.distributed.protocol`); defaults to
        ``REPRO_FLEET_TOKEN`` from the environment, and ``None``
        disables authentication.
    cost_snapshot:
        Optional sidecar path for the fleet cost model: a snapshot
        found there is restored on start — measured rates survive
        coordinator restarts, so the first grants of the next run are
        already capacity-informed — and the refined model is written
        back on finish. Missing or unreadable files mean a cold start,
        never an error.
    on_bound:
        Callback invoked with the bound ``(host, port)`` once the
        coordinator accepts connections (tests and the CLI use it to
        launch/announce workers).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.5,
        timeout: float | None = None,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        auth_token: str | None = None,
        cost_snapshot: str | os.PathLike | None = None,
        on_bound: Callable[[tuple[str, int]], None] | None = None,
    ) -> None:
        (
            self.lease_timeout,
            self.target_unit_seconds,
            self.min_unit_cells,
        ) = check_lease_settings(
            lease_timeout, target_unit_seconds, min_unit_cells
        )
        self.host = host
        self.port = port
        self.poll_interval = check_poll_interval(poll_interval)
        self.timeout = timeout
        self.auth_token = check_auth_token(
            auth_token
            if auth_token is not None
            else os.environ.get("REPRO_FLEET_TOKEN")
        )
        self.cost_snapshot = cost_snapshot
        self.on_bound = on_bound
        self.address: tuple[str, int] | None = None
        self.requeues = 0
        self.steals = 0
        # per-worker utilization view of the last execute() (see
        # PlanQueue.worker_stats); also dumped as gauges and a
        # fleet_summary trace event on finish
        self.worker_stats: dict[str, dict] = {}
        # the fleet-wide cost model of the last execute()
        self.cost_model: UnitCostModel | None = None

    # ------------------------------------------------------------------
    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        _check_process_portable(runner, "fleet execution")
        if not workset.pending():
            return []
        queue = PlanQueue(
            lease_timeout=self.lease_timeout,
            min_unit_cells=self.min_unit_cells,
            target_unit_seconds=self.target_unit_seconds,
        )
        if self.cost_snapshot is not None:
            # the snapshot's measured rates win; this plan's budget
            # priors only fill kernels it never saw (at admission)
            queue.use_cost_snapshot(self.cost_snapshot)
        self.cost_model = queue.cost_model
        # the runner's `plan` root span adopted this context just
        # before calling us; stamping it on every grant hangs every
        # worker's spans under that root
        job = queue.admit(
            workset.plan, runner.store, trace=telemetry().trace_context()
        )
        coordinator = FleetCoordinator(
            queue,
            host=self.host,
            port=self.port,
            poll_interval=self.poll_interval,
            auth_token=self.auth_token,
        )
        self.address = coordinator.start()
        # while serving, the observability HTTP endpoint (if any)
        # mirrors the read-only status message for this run
        set_status_provider(queue.status)
        try:
            if self.on_bound is not None:
                self.on_bound(self.address)
            deadline = (
                None
                if self.timeout is None
                else time.monotonic() + self.timeout
            )
            while not queue.wait_done(job, 0.25):
                # expire silent workers' leases even when no request
                # arrives, so their cells reach held asks at once
                queue.housekeep()
                if job.state == "done":
                    break
                self._check_workers(job)
                if deadline is not None and time.monotonic() >= deadline:
                    raise FleetError(
                        f"fleet run timed out after {self.timeout}s: "
                        f"{queue.snapshot(job)['progress']}"
                    )
            queue.finish()
            # linger so idle workers hear "done" instead of a
            # connection error, bounded by the same staleness rule
            # that presumes silent workers dead
            queue.wait_all_informed(self.lease_timeout)
        finally:
            clear_status_provider(queue.status)
            progress = queue.snapshot(job)["progress"]
            self.requeues = progress["requeues"]
            self.steals = progress["steals"]
            self.worker_stats = queue.worker_stats()
            self._export_fleet_telemetry()
            coordinator.close()
            queue.save_costs()
        return None

    def _check_workers(self, job: PlanJob) -> None:
        """Hook run while the plan is incomplete: a plain fleet has no
        workers of its own to watch — remote ones may join any time."""

    def _export_fleet_telemetry(self) -> None:
        """Dump the fleet-wide view into the metric registry and sinks."""
        obs = telemetry()
        for worker, st in self.worker_stats.items():
            obs.gauge("repro_fleet_worker_busy_seconds", worker=worker).set(
                st["busy_seconds"]
            )
            obs.gauge("repro_fleet_worker_idle_seconds", worker=worker).set(
                st["idle_seconds"]
            )
            obs.counter("repro_fleet_worker_units_total", worker=worker).inc(
                st["units"]
            )
        obs.emit(
            {
                "event": "fleet_summary",
                "time": time.time(),
                "requeues": self.requeues,
                "steals": self.steals,
                "workers": self.worker_stats,
            }
        )
        log.info(
            "fleet finished: %d workers, %d requeues, %d steals",
            len(self.worker_stats),
            self.requeues,
            self.steals,
            extra={
                "workers": len(self.worker_stats),
                "requeues": self.requeues,
                "steals": self.steals,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FleetExecutor(host={self.host!r}, port={self.port}, "
            f"lease_timeout={self.lease_timeout}, "
            f"min_unit_cells={self.min_unit_cells})"
        )


class ProcessShardExecutor(FleetExecutor):
    """A loopback fleet that brings its own local workers.

    Once the coordinator is bound it starts ``min(shards, pending
    cells)`` :func:`~repro.distributed.worker.run_worker` processes
    against it, and joins them when the plan is recorded. Scheduling is
    the fleet's: cost-sized leases, work stealing, and requeue of a
    killed worker's lease to a survivor. Each worker keeps a throwaway
    local store, and the runner's store receives every record through
    the coordinator. If every worker exits before the store covers the
    plan, the run fails with the exit codes instead of waiting for
    workers that will never come.

    Parameters
    ----------
    shards:
        Upper bound on the number of worker processes (at least 1).
    min_unit_cells:
        Lease-size floor, at least 1 (see :class:`FleetExecutor`).
    """

    def __init__(self, shards: int, min_unit_cells: int = 1) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        super().__init__(
            poll_interval=LOOPBACK_POLL_INTERVAL,
            min_unit_cells=min_unit_cells,
            on_bound=self._start_workers,
        )
        self.shards = shards
        self._n_workers = 0
        self._workers: list[multiprocessing.Process] = []

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        self._n_workers = min(self.shards, workset.total_cells)
        self._workers = []
        try:
            return super().execute(runner, workset)
        except BaseException:
            # the coordinator is closed: nothing waits for their records
            for worker in self._workers:
                worker.kill()
            raise
        finally:
            for worker in self._workers:
                # workers leave as soon as they hear "done"
                worker.join(timeout=self.lease_timeout)
                if worker.is_alive():
                    worker.kill()
                    worker.join()

    def _start_workers(self, address: tuple[str, int]) -> None:
        for _ in range(self._n_workers):
            worker = multiprocessing.Process(target=run_worker, args=(address,))
            worker.start()
            self._workers.append(worker)

    def _check_workers(self, job: PlanJob) -> None:
        if any(worker.is_alive() for worker in self._workers):
            return
        missing = len(job.plan_cells - job.completed_cells())
        if missing:
            codes = [worker.exitcode for worker in self._workers]
            raise FleetError(
                f"all {len(codes)} local workers exited (exit codes "
                f"{codes}) with {missing} cells unrecorded; re-run to "
                "resume the missing cells"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProcessShardExecutor(shards={self.shards}, "
            f"min_unit_cells={self.min_unit_cells})"
        )
