"""Pluggable work executors: who runs a plan's pending work units.

The :class:`~repro.experiments.runner.ExperimentRunner` decides *what*
is pending (resume bookkeeping, config-digest checks, record ordering)
and compiles it into a :class:`~repro.experiments.work.WorkSet` of
:class:`~repro.experiments.work.WorkUnit`\\ s — a ``(case, backend)``
group index plus an explicit cell subset. An executor decides *where*
those units run, and is free to reshape them (split big units across
idle workers, hand out single cells) because unit boundaries never
change any cell's result. The three built-in policies cover the
scaling ladder:

* :class:`InlineExecutor` — every unit in the calling process, one
  after another (the default, and the only executor that works without
  a results store).
* :class:`ProcessShardExecutor` — units fanned out to local
  ``multiprocessing`` processes that meet only through the shared
  JSONL store; units are pre-split into near-equal-**cost** pieces and
  packed into shard assignments (LPT plus swap/shift local search)
  under a plan-seeded :class:`~repro.experiments.costs.UnitCostModel`,
  so a plan with fewer groups than shards still occupies every shard
  and shards finish together.
* :class:`FleetExecutor` — units leased to remote worker processes
  over TCP with cell-level work stealing, lease-timeout requeue and
  store merging: a :class:`~repro.distributed.queue.PlanQueue` holding
  the one plan, served by a
  :class:`~repro.distributed.coordinator.FleetCoordinator` — the same
  pair ``repro serve`` runs.

Executors receive the runner itself: they call back into
:meth:`ExperimentRunner.run_units` (directly, or from a shard/worker
process that rebuilt an equivalent runner) so resume semantics are the
store's ``(system, case, seed, backend)`` contract under every policy.
An executor returns the freshly produced records, or ``None`` when its
work reached the store through other processes and the runner should
re-read it.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ReproError
from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    plan_cost_model,
)
from repro.experiments.work import (
    WorkSet,
    WorkUnit,
    assign_units_by_cost,
    split_units_by_cost,
)
from repro.obs import telemetry
from repro.obs.http import clear_status_provider, set_status_provider

from repro.distributed.coordinator import FleetCoordinator
from repro.distributed.protocol import FleetError, check_auth_token
from repro.distributed.queue import PlanQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import ExperimentRunner

__all__ = [
    "FleetExecutor",
    "InlineExecutor",
    "ProcessShardExecutor",
    "WorkExecutor",
]

log = logging.getLogger("repro.distributed.executors")


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


class ProcessShardExecutor:
    """Fan pending units out to local shard processes.

    Units are pre-split and packed by *predicted cost* — near-equal-cost
    chunks, LPT assignment plus local swap/shift refinement
    (:func:`repro.experiments.work.split_units_by_cost` /
    :func:`~repro.experiments.work.assign_units_by_cost`) under a
    plan-seeded :class:`~repro.experiments.costs.UnitCostModel` — so
    shards finish together even when groups differ wildly in cost.

    Parameters
    ----------
    shards:
        Upper bound on the number of worker processes; the actual count
        never exceeds the number of schedulable units (empty shards are
        skipped, not spawned).
    min_unit_cells:
        Split floor (at least 1) when dividing big units so every shard
        gets work: no piece is carved smaller than this many cells.
        Splitting moves only *where* cells run, never what they record.
    cost_model:
        Explicit :class:`~repro.experiments.costs.UnitCostModel` (tests,
        or a model saved from a previous run); defaults to one seeded
        from the plan's budgets at execute time.
    """

    def __init__(
        self,
        shards: int,
        min_unit_cells: int = 1,
        cost_model: UnitCostModel | None = None,
    ) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if min_unit_cells < 1:
            raise ReproError(
                f"min_unit_cells must be >= 1, got {min_unit_cells}"
            )
        self.shards = shards
        self.min_unit_cells = min_unit_cells
        self.cost_model = cost_model

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        _check_process_portable(runner, "sharded execution")
        from repro.experiments.store import HAS_APPEND_LOCK

        if not HAS_APPEND_LOCK:
            raise ReproError(
                "sharded execution needs lock-serialised store appends, "
                "unavailable on this platform; use the inline executor"
            )
        model = self.cost_model or plan_cost_model(workset.plan)
        kernels = {
            index: UnitCostModel.kernel_key(case.name, backend)
            for index, ((case, backend), _keys) in enumerate(
                workset.plan.groups()
            )
        }

        def rate_of(group: int) -> float:
            return model.rate(kernels.get(group, ""))

        units = split_units_by_cost(
            workset.pending(), self.shards, rate_of, self.min_unit_cells
        )
        if not units:
            return []
        assignments = assign_units_by_cost(units, self.shards, rate_of)
        trace = telemetry().trace_context()
        workers = [
            multiprocessing.Process(
                target=_run_shard,
                args=(
                    workset.plan.to_dict(),
                    [unit.to_dict() for unit in assignment],
                    str(runner.store.path),
                    runner.share_sessions,
                    trace,
                ),
            )
            for assignment in assignments
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        failed = [w.exitcode for w in workers if w.exitcode != 0]
        if failed:
            raise ReproError(
                f"{len(failed)} of {len(workers)} experiment shards failed "
                f"(exit codes {failed}); re-run to resume the missing cells"
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProcessShardExecutor(shards={self.shards}, "
            f"min_unit_cells={self.min_unit_cells})"
        )


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
        Seconds of worker silence after which its unit is re-leased.
        Workers heartbeat at a quarter of this, so it bounds both the
        cost of a worker death and the end-of-run linger.
    poll_interval:
        Advertised to workers as their idle re-ask cadence.
    timeout:
        Optional overall wall-clock bound; :class:`FleetError` when the
        plan is still incomplete after this many seconds (``None``
        waits forever — workers may join at any time).
    min_unit_cells:
        Lease-size floor, at least 1 (see
        :class:`~repro.distributed.coordinator.UnitLedger`).
    target_unit_seconds:
        Per-lease wall-clock target (see
        :class:`~repro.distributed.coordinator.UnitLedger`).
    slow_unit_factor:
        Residual-monitoring threshold: a completed unit slower than
        ``factor × predicted`` emits a ``slow_unit`` trace event naming
        the worker.
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
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
        auth_token: str | None = None,
        cost_snapshot: str | os.PathLike | None = None,
        on_bound: Callable[[tuple[str, int]], None] | None = None,
    ) -> None:
        if min_unit_cells < 1:
            raise FleetError(
                f"min_unit_cells must be >= 1, got {min_unit_cells}"
            )
        self.host = host
        self.port = port
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self.min_unit_cells = int(min_unit_cells)
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
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
        from repro.engine.backends import kernel_costs

        queue = PlanQueue(
            lease_timeout=self.lease_timeout,
            min_unit_cells=self.min_unit_cells,
            target_unit_seconds=self.target_unit_seconds,
            slow_unit_factor=self.slow_unit_factor,
        )
        if self.cost_snapshot is not None:
            # the snapshot's measured rates win; this plan's budget
            # priors only fill kernels it never saw (at admission)
            queue.use_cost_snapshot(self.cost_snapshot)
        queue.cost_model.fold_engine(kernel_costs().snapshot())
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
            share_sessions=runner.share_sessions,
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
            while not job.ledger.finished.wait(0.25):
                # catch runs whose last worker died after its drain —
                # completion is then visible only from this side
                queue.housekeep()
                if deadline is not None and time.monotonic() >= deadline:
                    raise FleetError(
                        f"fleet run timed out after {self.timeout}s: "
                        f"{job.ledger.progress()}"
                    )
            queue.finish()
            # linger so idle workers polling for work hear "done"
            # instead of a connection error, bounded by the same
            # staleness rule that presumes silent workers dead
            deadline = time.monotonic() + self.lease_timeout
            while (
                not queue.all_live_informed()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
        finally:
            clear_status_provider(queue.status)
            self.requeues = job.ledger.requeues
            self.steals = job.ledger.steals
            self.worker_stats = queue.worker_stats()
            self._export_fleet_telemetry()
            coordinator.close()
            queue.save_costs()
        return None

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


def _run_shard(
    plan_payload: dict,
    unit_payloads: Sequence[dict],
    store_path: str,
    share_sessions: bool,
    trace: dict | None = None,
) -> None:
    """Shard-process entry point: execute a subset of a plan's units.

    ``trace`` is the parent process's trace context (trace id + the
    ``plan`` root span id); adopting it keeps every shard's spans on
    the same cross-process trace tree. Explicit adoption matters under
    the ``spawn`` start method, where nothing is inherited; under
    ``fork`` it also refreshes the span-id prefix so shard span ids
    never collide with the parent's.
    """
    from repro.experiments.plan import ExperimentPlan
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultsStore
    from repro.obs import telemetry

    if isinstance(trace, dict) and trace.get("trace_id"):
        telemetry().adopt_trace(
            trace.get("trace_id"), trace.get("parent_span")
        )
    plan = ExperimentPlan.from_dict(plan_payload)
    units = [WorkUnit.from_dict(payload) for payload in unit_payloads]
    store = ResultsStore(store_path)
    runner = ExperimentRunner(store=store, share_sessions=share_sessions)
    runner.run_units(plan, units, store.completed())
