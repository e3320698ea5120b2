"""Plan scheduling: one queue owns every plan's lease state.

The :class:`PlanQueue` answers one question — *which unit does this
worker run next?* — for any number of plans behind one worker pool.
Every admitted plan becomes a :class:`PlanJob`: its pending
:class:`~repro.experiments.work.WorkUnit`\\ s (cell subsets of
``(case, backend)`` groups) and leases, its own
:class:`~repro.experiments.store.ResultsStore` (the resume/idempotency
contract is per plan), and a keyed job id — the digest of ``(tenant,
plan payload)``, so a client retrying a submission lands on the job it
already created instead of a duplicate.

Two coordinators run on it. The always-on ``repro serve`` service
submits tenants' plans into a spooled queue and never finishes; the
single-plan :class:`~repro.distributed.executors.FleetExecutor` admits
its one plan with the caller's store and, once that store covers every
cell, calls :meth:`PlanQueue.finish` so every further ask is answered
``done``.

**One lock.** All scheduling state — every job's pending units,
leases and per-plan throughput, and one contact row per worker with
its wire and work counters — lives under the queue lock. The only
other lock is each job's store lock, taken inside it around
store reads and merges. One condition on the queue lock is notified on
every change that can alter a lease decision, and when a job turns
``done``.

**Cell-level, cost-aware work stealing.** The queue-wide
:class:`~repro.experiments.costs.UnitCostModel` (seeded from plan
priors, updated online from the cost reports workers attach to
``complete``/heartbeat messages) prices every pending unit; a grant
carves a piece off the costliest unit of the chosen plan, sized
**capacity-aware** — proportional to the asking worker's measured
throughput (cells/second) on that plan among its live workers, so a
slow machine gets proportionally fewer cells. A worker with no
throughput sample yet receives a small probe lease first. Same-group
requeued fragments re-merge before re-lease, and ``min_unit_cells`` is
the *floor* under an adaptive minimum (the cells amounting to
``target_unit_seconds`` of predicted work). While other plans are
active, the size is the asker's share of the *queue's* backlog — every
active plan's pending cells over every live worker of the queue — so a
backlogged service hands a tiny plan out whole instead of splitting it
between workers that have other plans to run, and a large plan still
spreads. A lone plan is sized against its own cells and workers, so a
one-case/many-seeds plan spreads across every worker that asks.
Splitting moves only *where* cells execute: every cell is reproducible
from ``(plan, seed)`` alone, so the store's bytes are identical at any
granularity.

Correctness rests on three rules:

* **Leases expire.** A worker holds a unit only while it heartbeats; a
  worker that dies (or loses the network) stops renewing and its unit
  — the exact cell subset — is re-leased to the next worker that asks.
  Requeued units re-run from the new worker's own store, so cells a
  worker had *partially* recorded before a stale lease resume rather
  than recompute.
* **Records live on the worker until the coordinator has them.**
  Workers stream every completed run into their own crash-safe local
  store and upload it inline with their ``complete`` report; the queue
  folds uploads into the plan's store through
  :meth:`ResultsStore.merge` — first writer wins, so a cell executed
  twice never duplicates a ``(system, case, seed, backend)`` record.
* **Completion is verified, not assumed.** A unit reported complete
  counts only tentatively; a plan is ``done`` when *its store* records
  every expected cell. Cells whose records never arrived (a worker
  died mid-unit, or a ``complete`` uploaded only some of them) are
  found by this coverage check and requeued as fresh units covering
  exactly the missing cells.

**Held leases.** An idle worker's ask need not be answered ``wait`` at
once: :meth:`PlanQueue.lease` with a ``hold`` re-decides every time
the queue changes in a way that could change the answer — a
submission, a completion, a heartbeat or housekeeping tick that
requeues an expired lease, a drain, a cancel, the end of the plan —
and returns as soon as the answer is no longer ``wait``, or with
``wait`` once the hold runs out. The same condition tells
:meth:`PlanQueue.wait_all_informed` when a worker heard ``done`` and
:meth:`PlanQueue.wait_done` when a job finished.

**Fair share.** Grants are arbitrated by cost-model-weighted deficit
round-robin. Every job carries a deficit counter (predicted seconds it
is owed). When a grant of predicted cost ``c`` is issued, ``c`` is
first distributed as credit across the active jobs proportionally to
their ``priority``, then charged in full to the granted job:

* deficits sum to ~zero over time, so a job's deficit *is* its
  deviation from weighted fair share;
* the next grant goes to the job with the highest deficit (ties break
  toward earlier submission), so one huge bulk plan cannot starve an
  interactive tenant: each grant it takes pushes its deficit further
  negative while everyone else's rises;
* a late submission starts at deficit zero — already ahead of
  whatever has been monopolising the pool — and a higher ``priority``
  makes it accrue credit faster, so it overtakes a queued bulk plan
  rather than waiting behind it.

One cost model prices every job's units (and is persisted to a sidecar
across restarts), so a unit's price — and therefore each tenant's
measured share — is consistent across plans.

Scheduling moves only *where and when* cells run, so a plan run
through the queue is bitwise-identical (in the
:func:`~repro.experiments.store.parity_view`) to the same plan run
inline, whatever the interleaving.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.distributed.protocol import FleetError, check_seconds
from repro.errors import ReproError
from repro.experiments.costs import (
    UnitCostModel,
    load_cost_model,
    record_residual,
    save_cost_model,
    seed_plan_priors,
)
from repro.experiments.plan import ExperimentPlan
from repro.experiments.store import ResultsStore, record_key
from repro.experiments.work import WorkSet, WorkUnit, merge_group_units
from repro.obs import telemetry

__all__ = [
    "AdmissionError",
    "PlanJob",
    "PlanQueue",
    "ServiceError",
    "UnknownPlanError",
    "check_lease_settings",
    "plan_job_id",
]

log = logging.getLogger("repro.distributed.queue")


class ServiceError(ReproError):
    """A plan-queue failure (bad submission, unknown plan, ...)."""


class UnknownPlanError(ServiceError):
    """No job under that id (never submitted, or cancelled+restarted)."""


class AdmissionError(ServiceError):
    """Queue full: admission refused with a predicted retry time.

    ``retry_after`` is the cost model's predicted drain time of the
    currently admitted work divided over the live workers — the
    gateway turns it into a 429 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


def check_lease_settings(
    lease_timeout, target_unit_seconds, min_unit_cells
) -> tuple[float, float, int]:
    """Validate the scheduling settings of a queue (and of the fleet
    executor that builds one); returns them normalized.

    Both times must be finite seconds > 0 — a NaN or infinite lease
    timeout would never expire a lease — and the lease-size floor an
    integer >= 1. Raises :class:`FleetError` naming the setting.
    """
    try:
        cells = int(min_unit_cells)
    except (TypeError, ValueError, OverflowError):
        cells = 0
    if cells < 1:
        raise FleetError(
            f"min_unit_cells must be >= 1, got {min_unit_cells!r}"
        )
    return (
        check_seconds(lease_timeout, "lease timeout"),
        check_seconds(target_unit_seconds, "target_unit_seconds"),
        cells,
    )


def plan_job_id(plan_payload: dict, tenant: str) -> str:
    """The keyed job id: a digest of ``(tenant, plan payload)``.

    Deterministic, so resubmitting the same plan is idempotent — the
    client gets its existing job back (and the per-plan store makes
    the re-run a no-op resume even across service restarts). Workers
    name their local per-plan stores after it, too.
    """
    blob = json.dumps(
        {"tenant": tenant, "plan": plan_payload}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _lease_key(lease_id) -> int:
    try:
        return int(lease_id)
    except (TypeError, ValueError):
        return -1


class PlanJob:
    """One admitted plan: lease state + store + fair-share accounting.

    The lease state is plain fields that the owning
    :class:`PlanQueue` reads and writes under its lock; the methods
    that change it take no lock of their own. Only the store has a
    lock (:attr:`store_lock`), taken around reads and merges.
    """

    def __init__(
        self,
        job_id: str,
        tenant: str,
        priority: float,
        plan: ExperimentPlan,
        store: ResultsStore,
        index: int,
        cost_model: UnitCostModel,
        trace: dict | None = None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.priority = float(priority)
        self.plan = plan
        self.plan_payload = plan.to_dict()
        self.plan_cells = {k.as_tuple() for k in plan.runs()}
        self.store = store
        self.store_lock = threading.Lock()
        self.cost_model = cost_model
        self.index = index  # submission order, the fair-share tiebreak
        self.trace = dict(trace) if trace else None
        self.state = "active"  # active | done | cancelled
        self.deficit = 0.0
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        # -- lease state (queue lock) ----------------------------------
        # unit cells refer to plan.groups() order; workers rebuild the
        # same plan from the payload shipped with each grant
        units = WorkSet.compile(plan, self.completed_cells()).pending()
        self.pending: list[WorkUnit] = list(units)
        self.group_of = {
            cell: unit.group for unit in units for cell in unit.cells
        }
        self.expected = set(self.group_of)
        # group index -> cost-model kernel key (a unit is priced by its
        # group's (case, backend) kernel)
        self.kernel_of = {
            idx: UnitCostModel.kernel_key(case.name, backend)
            for idx, ((case, backend), _keys) in enumerate(plan.groups())
        }
        self.leases: dict[int, dict] = {}
        self.lease_ids = itertools.count(1)
        # cells reported complete whose records have not yet been
        # verified in the store (a set: re-completion after a requeue
        # never double-counts)
        self.tentative: set[tuple[str, str, int, str]] = set()
        # per-worker last contact about this plan, and its measured
        # capacity here (EMA cells/second): the inputs of lease sizing
        self.seen: dict[str, float] = {}
        self.throughput: dict[str, float] = {}
        self.requeues = 0
        self.steals = 0

    def status(self) -> str:
        if self.state == "active":
            return "running" if self.started is not None else "queued"
        return self.state

    def completed_cells(self) -> set[tuple[str, str, int, str]]:
        with self.store_lock:
            return self.store.completed()

    def merge(self, records: list) -> None:
        """Merge a worker upload, keeping only this plan's cells — a
        reused worker store may hold cells of other plans."""
        wanted = [r for r in records if record_key(r) in self.plan_cells]
        with self.store_lock:
            self.store.merge(wanted)

    def snapshot(self, progress: dict) -> dict:
        """The job as the gateway and ``status`` report it (JSON-safe);
        ``progress`` is :meth:`progress`, read under the queue lock."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "plan": self.plan.name,
            "status": self.status(),
            "expected_cells": len(self.plan_cells),
            "recorded_cells": len(self.completed_cells() & self.plan_cells),
            "progress": progress,
            "deficit_seconds": self.deficit,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "store": str(self.store.path),
            "trace": dict(self.trace) if self.trace else None,
        }

    # -- lease state (every method below: queue lock held) --------------
    def progress(self) -> dict:
        """Lease progress for snapshots, logs and timeout diagnostics."""
        return {
            "pending_units": len(self.pending),
            "pending_cells": self.pending_cells(),
            "leased": len(self.leases),
            "tentative_cells": len(self.tentative),
            "workers": len(self.seen),
            "requeues": self.requeues,
            "steals": self.steals,
        }

    def pending_cells(self) -> int:
        return sum(u.n_cells for u in self.pending)

    def cost(self, unit: WorkUnit) -> float:
        """The cost model's predicted seconds for ``unit``."""
        return self.cost_model.estimate(
            self.kernel_of.get(unit.group, ""), unit.n_cells
        )

    def predicted_remaining_seconds(self) -> float:
        """Cost-model prediction of the pending plus leased work.

        Admission backpressure derives Retry-After from this; it is a
        prediction, not a promise.
        """
        units = self.pending + [
            lease["unit"] for lease in self.leases.values()
        ]
        return sum(self.cost(unit) for unit in units)

    def holds_lease(self, worker: str, now: float) -> bool:
        """Whether ``worker`` holds a lease that has not yet expired."""
        return any(
            lease["worker"] == worker and lease["deadline"] >= now
            for lease in self.leases.values()
        )

    def expire(self, now: float) -> None:
        """Requeue every lease whose worker stopped heartbeating."""
        for lease_id, lease in list(self.leases.items()):
            if lease["deadline"] < now:
                del self.leases[lease_id]
                self.pending.append(lease["unit"])
                self.requeues += 1
                telemetry().counter("repro_fleet_requeues_total").inc()
                log.warning(
                    "lease %d expired (worker %s silent, group %d, "
                    "%d cells requeued)",
                    lease_id,
                    lease["worker"],
                    lease["unit"].group,
                    lease["unit"].n_cells,
                    extra={
                        "worker": lease["worker"],
                        "lease": lease_id,
                        "group": lease["unit"].group,
                        "cells": lease["unit"].n_cells,
                    },
                )

    def cover(self) -> bool:
        """The end-of-plan check: ``True`` once the store covers every
        expected cell.

        Only decided when nothing is pending or leased; cells then
        found missing requeue as fresh units.
        """
        if self.pending or self.leases:
            return False
        missing = self.expected - self.completed_cells()
        if not missing:
            return True
        self.requeue_missing(missing)
        return False

    def requeue_missing(
        self, missing: set[tuple[str, str, int, str]]
    ) -> None:
        """Requeue cells whose records never reached the store, as one
        fresh unit per affected group."""
        self.tentative -= missing  # their completion was never real
        by_group: dict[int, list] = {}
        for cell in sorted(missing & self.expected):
            by_group.setdefault(self.group_of[cell], []).append(cell)
        for index in sorted(by_group):
            self.pending.append(WorkUnit(index, tuple(by_group[index])))
            self.requeues += 1
            telemetry().counter("repro_fleet_requeues_total").inc()
            log.warning(
                "requeued %d unrecorded cells of group %d (records "
                "never reached the store)",
                len(by_group[index]),
                index,
                extra={"group": index, "cells": len(by_group[index])},
            )

    def grant(
        self,
        worker: str,
        now: float,
        lease_timeout: float,
        floor: int,
        target_seconds: float,
        elsewhere: int,
        peers: list[str],
    ) -> tuple[int, WorkUnit]:
        """Lease a capacity-sized piece of the costliest pending unit;
        returns ``(lease id, unit)``.

        Same-group requeued fragments re-merge first (one carve, one
        engine session, instead of re-leasing slivers); the carve size
        comes from :meth:`_target_cells` — proportional to the asking
        worker's measured share of this plan's throughput, floored by
        the adaptive minimum. Each carve that leaves cells pending is a
        steal: work a single worker would otherwise own mid-group moves
        to the asker.

        ``elsewhere`` is the pending cells of the queue's *other*
        active plans and ``peers`` the queue's live workers (empty when
        no other plan is active). The carve is sized against the
        queue's backlog — this plan's pending cells plus ``elsewhere``,
        shared by the plan's live workers plus ``peers`` — so while
        other plans wait, a unit within the asker's share of the
        backlog goes out whole instead of as slivers, and a larger one
        is still carved to that share. A lone plan (every single-plan
        fleet) is carved exactly as if the plan were the whole queue.

        The carve deliberately does NOT check how many workers exist:
        fleets grow at any moment and hellos race leases, so gating on
        known peers could hand the whole group to the first asker and
        starve everyone who arrives a heartbeat later. The price is
        that a deliberately lone worker drains a group as several
        units (one engine session each, so less cross-system cache
        reuse — never different results); single-worker fleets that
        care should set a coarse ``min_unit_cells`` floor.
        """
        self.pending = merge_group_units(self.pending)
        i = max(
            range(len(self.pending)),
            key=lambda j: (self.cost(self.pending[j]), -j),
        )
        pending_cells = self.pending_cells() + elsewhere
        unit = self.pending.pop(i)
        target = self._target_cells(
            worker, unit, pending_cells, peers, now, lease_timeout, floor,
            target_seconds,
        )
        if target >= floor and unit.n_cells - target >= floor:
            unit, kept = unit.split_at(target)
            self.pending.append(kept)
            self._count_steal(worker, unit, kept)
        lease_id = next(self.lease_ids)
        self.leases[lease_id] = {
            "unit": unit,
            "worker": worker,
            "deadline": now + lease_timeout,
            "granted": now,
        }
        log.info(
            "lease %d granted to %s (group %d, %d cells)",
            lease_id,
            worker,
            unit.group,
            unit.n_cells,
            extra={
                "worker": worker,
                "lease": lease_id,
                "group": unit.group,
                "cells": unit.n_cells,
            },
        )
        return lease_id, unit

    def _target_cells(
        self,
        worker: str,
        unit: WorkUnit,
        pending_cells: int,
        peers: list[str],
        now: float,
        lease_timeout: float,
        floor: int,
        target_seconds: float,
    ) -> int:
        """How many cells this worker's next lease should carry.

        ``pending_cells`` counts the backlog and ``peers`` joins the
        queue's live workers to the plan's own (see :meth:`grant`).
        Proportional capacity sizing: the worker's EMA throughput over
        the summed throughput of the live workers (a worker not yet
        measured on this plan counts at the mean), applied to the
        backlog. A worker with no sample yet gets a small probe (a
        quarter of its fair share of the backlog: capacity-aware sizing
        needs a capacity measurement); no asker ever receives more than
        half of the backlog, for the same reason grants never check
        worker counts — late joiners and hello/lease races must still
        find work. The floor is the adaptive minimum: the cells
        amounting to ``target_seconds`` of predicted work, capped by a
        fair share of the backlog so small workloads still spread when
        nothing else waits, and never below ``floor``.
        """
        live = [
            w for w, seen in self.seen.items() if now - seen <= lease_timeout
        ]
        live += [w for w in peers if w not in live]
        n_live = max(len(live), 1)
        fair = max(pending_cells // n_live, 1)
        throughput = self.throughput.get(worker)
        if throughput is None:
            probe = max(floor, fair // 4)
            return min(probe, unit.n_cells)
        known = [
            self.throughput[w] for w in live if self.throughput.get(w)
        ]
        mean = sum(known) / len(known) if known else throughput
        total = sum(self.throughput.get(w) or mean for w in live)
        share = throughput / total if total > 0 else 1.0 / n_live
        adaptive = self.cost_model.min_cells_for(
            self.kernel_of.get(unit.group, ""), target_seconds, floor
        )
        adaptive = max(min(adaptive, fair), floor)
        half = max(pending_cells // 2, 1)
        target = max(min(round(pending_cells * share), half), adaptive)
        return min(target, unit.n_cells)

    def _count_steal(
        self, worker: str, granted: WorkUnit, kept: WorkUnit
    ) -> None:
        """Account one split-for-an-asker (mid-group work movement)."""
        self.steals += 1
        telemetry().counter("repro_fleet_steals_total").inc()
        log.info(
            "steal: split group %d for %s (%d cells granted, "
            "%d kept pending)",
            granted.group,
            worker,
            granted.n_cells,
            kept.n_cells,
            extra={
                "worker": worker,
                "group": granted.group,
                "cells": granted.n_cells,
                "kept_cells": kept.n_cells,
            },
        )


class PlanQueue:
    """The coordinator state: jobs, workers, fair share.

    Parameters
    ----------
    spool:
        Service state directory: ``plans/<id>.json`` (admitted
        submissions, reloaded on restart), ``stores/<id>.jsonl``
        (per-plan results stores) and ``costs.json`` (the persisted
        cost-model snapshot) live here. ``None`` keeps the queue in
        memory: plans are admitted with caller-owned stores
        (:meth:`admit`) and nothing is spooled.
    lease_timeout:
        Seconds without a heartbeat (or any other contact) after which
        a lease is revoked and its unit re-leased; also the staleness
        bound after which a silent worker is presumed dead.
    min_unit_cells:
        Lease-size floor (at least 1) under the adaptive minimum
        derived from measured per-cell cost.
    target_unit_seconds:
        Grants aim for at least this much predicted work per unit once
        per-cell cost is measured, so tiny sliver leases (one session
        each, all overhead) stop at a wall-clock bound instead of a
        guessed cell count.
    max_active:
        Admission bound: at most this many jobs queued or running at
        once; beyond it :meth:`submit` raises :class:`AdmissionError`
        with the predicted drain time (resubmissions of an existing
        job are always admitted — idempotency must not bounce).
    clock:
        Monotonic time source (tests inject a fake).

    The three scheduling settings are checked here, by
    :func:`check_lease_settings`. Every public method takes the queue
    lock; job store locks nest strictly inside it.
    """

    #: Floor of ``max_active`` (the CLI's ``serve --max-active`` too).
    MIN_ACTIVE = 1

    def __init__(
        self,
        spool: str | os.PathLike | None = None,
        lease_timeout: float = 30.0,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        max_active: int = 8,
        clock=time.monotonic,
    ) -> None:
        if max_active < self.MIN_ACTIVE:
            raise ServiceError(
                f"max_active must be >= {self.MIN_ACTIVE}, got {max_active}"
            )
        (
            self.lease_timeout,
            self.target_unit_seconds,
            self.min_unit_cells,
        ) = check_lease_settings(
            lease_timeout, target_unit_seconds, min_unit_cells
        )
        self.spool = None if spool is None else Path(spool)
        self.max_active = int(max_active)
        self.clock = clock
        # one cost model for the whole queue: rates measured while
        # serving one tenant's plan inform the next tenant's grants
        self.cost_model = UnitCostModel()
        self.cost_snapshot_path: Path | None = None
        self._jobs: dict[str, PlanJob] = {}
        self._order: list[str] = []
        self._draining: set[str] = set()
        # one row per worker: every message it sends counts here
        # exactly once, whichever plan it concerns, next to the work
        # counters of all its plans
        self._contact: dict[str, dict] = {}
        self._finished = False
        self._told_done: set[str] = set()
        self._lock = threading.RLock()
        # notified on every change that can alter a lease decision and
        # on every done transition: held lease requests, the
        # end-of-plan linger and wait_done wait on it
        self._changed = threading.Condition(self._lock)
        if self.spool is not None:
            (self.spool / "plans").mkdir(parents=True, exist_ok=True)
            (self.spool / "stores").mkdir(parents=True, exist_ok=True)
            self.use_cost_snapshot(self.spool / "costs.json")
            self._restore_spool()

    def use_cost_snapshot(self, path: str | os.PathLike) -> None:
        """Restore the shared cost model from the sidecar at ``path``
        (a missing or unreadable file is a cold start) and persist it
        back there from now on. Call before admitting plans."""
        self.cost_snapshot_path = Path(path)
        restored = load_cost_model(self.cost_snapshot_path)
        if restored is not None:
            self.cost_model = restored

    # -- admission -----------------------------------------------------
    def _restore_spool(self) -> None:
        """Re-admit the plans a previous service process left behind.

        Their per-plan stores resume by the usual cell contract:
        whatever was recorded stays recorded, only missing cells are
        served. Fully recorded jobs flip to done on first
        housekeeping.
        """
        for path in sorted((self.spool / "plans").glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                self._submit_locked(
                    data["plan"],
                    str(data.get("tenant", "default")),
                    float(data.get("priority", 1.0)),
                    trace=None,
                    persist=False,
                )
            except (OSError, ValueError, KeyError, ReproError) as exc:
                log.warning(
                    "ignoring unreadable spooled plan %s: %s", path, exc
                )

    def submit(
        self,
        plan_payload: dict,
        tenant: str = "default",
        priority: float = 1.0,
        trace: dict | None = None,
    ) -> tuple[PlanJob, bool]:
        """Admit a plan into the spool; returns ``(job, created)``.

        Resubmitting an identical ``(tenant, plan)`` returns the
        existing job (``created=False``) whatever its state — the
        keyed id makes client retries free. A full queue raises
        :class:`AdmissionError` carrying the predicted drain time.
        """
        if priority <= 0:
            raise ServiceError(
                f"priority must be positive, got {priority}"
            )
        with self._lock:
            self._housekeep_locked()
            job_id = plan_job_id(plan_payload, tenant)
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing, False
            active = [
                j for j in self._jobs.values() if j.state == "active"
            ]
            if len(active) >= self.max_active:
                retry_after = max(self.predicted_drain_seconds(), 1.0)
                telemetry().counter(
                    "repro_service_rejected_total"
                ).inc()
                raise AdmissionError(
                    f"queue full ({len(active)} active plans, "
                    f"max {self.max_active})",
                    retry_after=retry_after,
                )
            job = self._submit_locked(
                plan_payload, tenant, priority, trace, persist=True
            )
            telemetry().counter("repro_service_submissions_total").inc()
            self._changed.notify_all()
            return job, True

    def _submit_locked(
        self,
        plan_payload: dict,
        tenant: str,
        priority: float,
        trace: dict | None,
        persist: bool,
    ) -> PlanJob:
        if self.spool is None:
            raise ServiceError(
                "this queue has no spool; admit plans with their own "
                "stores instead"
            )
        try:
            plan = ExperimentPlan.from_dict(plan_payload)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            # a malformed plan is the submitter's error (HTTP 400),
            # not a service fault
            raise ServiceError(f"invalid plan payload: {exc}") from exc
        job_id = plan_job_id(plan_payload, tenant)
        store = ResultsStore(self.spool / "stores" / f"{job_id}.jsonl")
        if persist:
            path = self.spool / "plans" / f"{job_id}.json"
            path.write_text(
                json.dumps(
                    {
                        "tenant": tenant,
                        "priority": priority,
                        "plan": plan.to_dict(),
                    },
                    sort_keys=True,
                    indent=2,
                )
                + "\n",
                encoding="utf-8",
            )
        return self._admit_locked(
            job_id, plan, store, tenant, priority, trace
        )

    def admit(
        self,
        plan: ExperimentPlan,
        store: ResultsStore,
        trace: dict | None = None,
    ) -> PlanJob:
        """Admit ``plan`` for the default tenant with a caller-owned
        ``store`` (nothing is spooled); its pending work is whatever
        ``store`` does not record yet. ``trace`` is stamped on every
        grant of the plan. Re-admitting the same plan returns the
        existing job."""
        with self._lock:
            job_id = plan_job_id(plan.to_dict(), "default")
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
            job = self._admit_locked(
                job_id, plan, store, "default", 1.0, trace
            )
            self._changed.notify_all()
            return job

    def _admit_locked(
        self,
        job_id: str,
        plan: ExperimentPlan,
        store: ResultsStore,
        tenant: str,
        priority: float,
        trace: dict | None,
    ) -> PlanJob:
        # new kernels get this plan's budget priors; kernels the
        # queue has already measured (or restored) keep their rates
        seed_plan_priors(self.cost_model, plan, overwrite=False)
        job = PlanJob(
            job_id,
            tenant,
            priority,
            plan,
            store,
            index=len(self._order),
            cost_model=self.cost_model,
            trace=trace,
        )
        self._jobs[job_id] = job
        self._order.append(job_id)
        log.info(
            "admitted plan %s (job %s, tenant %s, priority %g, "
            "%d cells pending)",
            plan.name,
            job_id,
            tenant,
            priority,
            job.pending_cells(),
            extra={"plan": plan.name, "job": job_id, "tenant": tenant},
        )
        self._export_gauges_locked()
        return job

    def cancel(self, job_id: str) -> PlanJob:
        """Cancel a job: no further grants; in-flight units finish and
        their records land harmlessly in the job's store. Idempotent;
        cancelling a finished job leaves it ``done``. The spooled
        submission is removed so a restart does not resurrect it."""
        with self._lock:
            job = self.job(job_id)
            if job.state == "active":
                job.state = "cancelled"
                job.finished = time.time()
                log.info(
                    "cancelled job %s (%s)",
                    job.id,
                    job.plan.name,
                    extra={"job": job.id, "plan": job.plan.name},
                )
            if self.spool is not None:
                try:
                    (self.spool / "plans" / f"{job_id}.json").unlink()
                except OSError:
                    pass
            self._export_gauges_locked()
            self._changed.notify_all()
            return job

    def finish(self) -> None:
        """Close the queue: every further ask is answered ``done``.

        The single-plan fleet's end state, set by its executor once
        its plan is fully recorded; an always-on service never calls
        it (new plans may arrive any moment).
        """
        with self._lock:
            self._finished = True
            self._changed.notify_all()

    def wait_done(self, job: PlanJob, timeout: float) -> bool:
        """Block until ``job`` is done (or ``timeout`` seconds pass);
        returns whether it is. Woken by the done transition itself."""
        with self._lock:
            return self._changed.wait_for(
                lambda: job.state == "done", timeout
            )

    def _uninformed_locked(self) -> float | None:
        """``None`` when every live worker has been told ``done``;
        otherwise the clock time at which the first live but uninformed
        worker turns stale (presumed dead, so no longer waited for)."""
        now = self.clock()
        stale_at = [
            contact["last_seen"] + self.lease_timeout
            for worker, contact in self._contact.items()
            if worker not in self._told_done
            and now - contact["last_seen"] <= self.lease_timeout
        ]
        return min(stale_at) if stale_at else None

    def wait_all_informed(self, timeout: float) -> bool:
        """Block until every live worker has been told ``done`` (or
        ``timeout`` seconds pass); returns whether they all have.

        Woken each time a worker hears ``done``; a worker that falls
        silent stops being waited for once it turns stale.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                stale_at = self._uninformed_locked()
                remaining = deadline - time.monotonic()
                if stale_at is None or remaining <= 0:
                    return stale_at is None
                self._changed.wait(
                    min(remaining, max(stale_at - self.clock(), 0.0))
                )

    # -- worker protocol -----------------------------------------------
    def _seen_locked(self, worker: str, counter: str | None = None) -> float:
        """Account one message from ``worker``; returns the time."""
        now = self.clock()
        contact = self._contact.get(worker)
        if contact is None:
            contact = self._contact[worker] = {
                "first_seen": now,
                "round_trips": 0,
                "lease_requests": 0,
                "piggybacked": 0,
                # work counters over all plans, fed by grants and the
                # telemetry payloads of heartbeats and completes
                "leases": 0,
                "units": 0,
                "cells": 0,
                "records": 0,
                "busy_seconds": 0.0,
                "lease_seconds": 0.0,
                "completes": 0,
            }
        contact["last_seen"] = now
        contact["round_trips"] += 1
        if counter is not None:
            contact[counter] += 1
        return now

    def _fold_busy_locked(self, worker: str, info) -> None:
        """Fold a worker-reported ``busy_seconds`` into its row.

        The report is the worker's *cumulative* busy time, so the fold
        is a max over every report, whichever plan it came with — late
        or duplicate reports never inflate (or deflate) utilization.
        The per-worker busy gauge updates live here, so a
        ``/metrics`` scrape mid-run already shows
        ``repro_fleet_worker_busy_seconds{worker=...}``.
        """
        if not isinstance(info, dict):
            return
        try:
            busy = float(info.get("busy_seconds", 0.0))
        except (TypeError, ValueError):
            return
        contact = self._contact[worker]
        contact["busy_seconds"] = max(contact["busy_seconds"], busy)
        telemetry().gauge(
            "repro_fleet_worker_busy_seconds", worker=worker
        ).set(contact["busy_seconds"])

    def touch(self, worker: str) -> None:
        """Record contact from ``worker`` (a ``hello``)."""
        with self._lock:
            self._seen_locked(worker)

    def drain_worker(self, worker: str) -> None:
        """Gracefully retire ``worker``: it finishes leased units and
        is answered ``bye`` once nothing outstanding remains. Nothing
        is requeued — a drain moves zero cells (contrast a kill, where
        the lease expires and its cells re-run elsewhere)."""
        with self._lock:
            self._draining.add(worker)
            self._changed.notify_all()
            telemetry().counter("repro_fleet_drains_total").inc()
            log.info(
                "worker %s draining (finish leased units, no new "
                "grants)",
                worker,
                extra={"worker": worker},
            )

    def lease(self, worker: str, hold: float = 0.0) -> dict:
        """Answer one work request across all plans (the DRR pick).

        With ``hold > 0`` a ``wait`` is not answered at once: the
        decision is re-made on every queue change until it is something
        else, or ``hold`` seconds pass (the longest ``wait`` is late).
        """
        with self._lock:
            self._seen_locked(worker, "lease_requests")
            reply = self._decide_locked(worker)
            deadline = time.monotonic() + (hold if hold > 0 else 0.0)
            while reply["type"] == "wait":
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
                # a held request is live contact, not a fresh round-trip
                self._contact[worker]["last_seen"] = self.clock()
                reply = self._decide_locked(worker)
            return reply

    def heartbeat(
        self, worker: str, plan_id, lease_id, info: dict | None = None
    ) -> dict:
        """Renew a lease; ``expired`` once the unit was re-leased.

        ``info`` is the worker's optional telemetry payload (cumulative
        busy seconds, the unit's elapsed time; other keys are ignored),
        folded into the utilization view and the cost model so
        in-flight work counts, not just completed units. Renewing
        expires any other overdue lease of the plan: requeued work.
        """
        with self._lock:
            now = self._seen_locked(worker)
            job = self._jobs.get(plan_id)
            if job is None:
                return {"type": "expired"}
            job.seen[worker] = now
            self._fold_busy_locked(worker, info)
            job.expire(now)
            lease = job.leases.get(_lease_key(lease_id))
            if lease is None or lease["worker"] != worker:
                reply = {"type": "expired"}
            else:
                lease["deadline"] = now + self.lease_timeout
                if isinstance(info, dict):
                    # an in-flight unit's elapsed time bounds its cost
                    # from below — a unit running long teaches the
                    # model before it completes
                    unit = lease["unit"]
                    try:
                        elapsed = float(info.get("unit_seconds", 0.0))
                    except (TypeError, ValueError):
                        elapsed = 0.0
                    self.cost_model.observe_lower_bound(
                        job.kernel_of.get(unit.group, ""),
                        unit.n_cells,
                        elapsed,
                    )
                reply = {"type": "ok"}
            self._changed.notify_all()
            return reply

    def complete(
        self, worker: str, plan_id, lease_id, info, records
    ) -> dict:
        """Handle a unit completion (``ok``, or ``stale`` once the
        lease was re-leased); the unit's cells count only tentatively
        until the store records them.

        ``records`` is the list of the worker's records of the plan
        that the coordinator has not seen yet; they are merged into the
        plan store first, so the worker owes nothing. Anything but a
        list is refused with :class:`FleetError`. The reply always
        piggybacks the worker's next decision (``next``) — across *all*
        plans, which keeps a steady-state worker at one round-trip per
        unit even when its next unit belongs to another tenant.
        """
        if not isinstance(records, list):
            raise FleetError("complete message without a record list")
        with self._lock:
            now = self._seen_locked(worker, "piggybacked")
            job = self._jobs.get(plan_id)
            if job is None:
                reply = {"type": "stale"}
            else:
                # merge BEFORE the completion is counted so the
                # coverage check already sees these records
                job.merge(records)
                reply = self._complete_locked(
                    job, worker, now, lease_id, info
                )
            reply["next"] = self._decide_locked(worker)
            self._changed.notify_all()
            return reply

    def _complete_locked(
        self,
        job: PlanJob,
        worker: str,
        now: float,
        lease_id,
        info,
    ) -> dict:
        job.seen[worker] = now
        contact = self._contact[worker]
        contact["completes"] += 1
        self._fold_busy_locked(worker, info)
        job.expire(now)
        key = _lease_key(lease_id)
        lease = job.leases.get(key)
        if lease is None or lease["worker"] != worker:
            return {"type": "stale"}
        del job.leases[key]
        unit = lease["unit"]
        job.tentative.update(unit.cells)
        lease_seconds = max(now - lease["granted"], 0.0)
        contact["units"] += 1
        contact["cells"] += unit.n_cells
        contact["lease_seconds"] += lease_seconds
        unit_seconds = lease_seconds
        if isinstance(info, dict):
            try:
                contact["records"] += int(info.get("records", 0))
            except (TypeError, ValueError):
                pass
            try:
                reported = float(info.get("unit_seconds", 0.0))
                if reported > 0.0:
                    # the worker's own measurement excludes network and
                    # queueing — the honest per-unit cost
                    unit_seconds = reported
            except (TypeError, ValueError):
                pass
        if unit_seconds > 0.0:
            # measured capacity on this plan: EMA of cells/second, the
            # input to proportional lease sizing
            throughput = unit.n_cells / unit_seconds
            prev = job.throughput.get(worker)
            job.throughput[worker] = (
                throughput
                if prev is None
                else prev + 0.5 * (throughput - prev)
            )
        kernel = job.kernel_of.get(unit.group, "")
        # residual first: the ratio must judge the prediction the
        # scheduler actually used, before this unit's own timing
        # teaches the model
        record_residual(
            self.cost_model,
            kernel,
            unit.n_cells,
            unit_seconds,
            worker=worker,
            group=unit.group,
        )
        self.cost_model.observe(kernel, unit.n_cells, unit_seconds)
        telemetry().histogram("repro_fleet_unit_seconds").observe(
            lease_seconds
        )
        log.info(
            "unit complete (lease %s, worker %s, group %d, "
            "%d cells, %.3fs)",
            key,
            worker,
            unit.group,
            unit.n_cells,
            lease_seconds,
            extra={
                "worker": worker,
                "lease": key,
                "group": unit.group,
                "cells": unit.n_cells,
                "lease_seconds": lease_seconds,
            },
        )
        return {"type": "ok"}

    # -- the scheduling core -------------------------------------------
    def _decide_locked(self, worker: str) -> dict:
        """The lease decision (queue lock held).

        Order of business: ``done`` once finished, honour drains, then
        the fair-share grant.
        """
        if self._finished:
            self._told_done.add(worker)
            self._changed.notify_all()  # wakes wait_all_informed
            return {"type": "done"}
        self._housekeep_locked()
        if worker in self._draining:
            now = self.clock()
            if any(
                self._jobs[j].holds_lease(worker, now) for j in self._order
            ):
                # only reachable when a retried ask races its own
                # lease; the safe answer is always "come back"
                return {"type": "wait"}
            return {"type": "bye"}
        candidates = [
            self._jobs[j]
            for j in self._order
            if self._jobs[j].state == "active" and self._jobs[j].pending
        ]
        if not candidates:
            # new work may arrive (a submission, a requeue) any moment:
            # a held request waits for the change that brings it, an
            # unheld one is told to ask again
            return {"type": "wait"}
        job = max(candidates, key=lambda j: (j.deficit, -j.index))
        now = self.clock()
        job.seen[worker] = now
        # while other plans are active, size the carve against the
        # queue's backlog and workers, not the chosen plan's alone
        others = [
            j
            for j in self._jobs.values()
            if j.state == "active" and j is not job
        ]
        lease_id, unit = job.grant(
            worker,
            now,
            self.lease_timeout,
            self.min_unit_cells,
            self.target_unit_seconds,
            sum(j.pending_cells() for j in others),
            self._live_workers_locked(now) if others else [],
        )
        self._contact[worker]["leases"] += 1
        self._charge_locked(job, job.cost(unit))
        if job.started is None:
            self._first_grant_locked(job, worker)
        reply = {
            "type": "unit",
            "unit": unit.to_dict(),
            "lease": lease_id,
            "plan_id": job.id,
            "plan": job.plan_payload,
        }
        if job.trace is not None:
            reply["trace"] = dict(job.trace)
        return reply

    def _charge_locked(self, chosen: PlanJob, cost: float) -> None:
        """Surplus-style DRR bookkeeping: the grant's predicted cost is
        credited across active jobs by priority weight, then debited
        from the grantee — deficits track deviation from weighted fair
        share and sum to ~zero."""
        active = [
            j for j in self._jobs.values() if j.state == "active"
        ]
        weight = sum(j.priority for j in active)
        if weight > 0:
            for j in active:
                j.deficit += cost * (j.priority / weight)
        chosen.deficit -= cost

    def _first_grant_locked(self, job: PlanJob, worker: str) -> None:
        """The submit→schedule transition: record the queueing latency
        and close the job's ``schedule`` span (hand-emitted — it
        started at submission, on the gateway's thread, and ends here
        on a coordinator handler thread)."""
        job.started = time.time()
        latency = max(job.started - job.submitted, 0.0)
        registry = telemetry()
        registry.histogram("repro_service_schedule_seconds").observe(
            latency
        )
        if job.trace is not None:
            registry.emit(
                {
                    "event": "span",
                    "span": "schedule",
                    "id": f"svc-{job.id}-schedule",
                    "parent": job.trace.get("parent_span"),
                    "trace_id": job.trace.get("trace_id"),
                    "depth": 1,
                    "start": job.submitted,
                    "seconds": latency,
                    "thread": threading.get_ident(),
                    "status": "ok",
                    "attrs": {
                        "plan_id": job.id,
                        "tenant": job.tenant,
                        "first_worker": worker,
                    },
                }
            )

    # -- housekeeping and introspection --------------------------------
    def housekeep(self) -> None:
        """Advance job states without worker traffic (timer-driven):
        lease expiry, coverage checks, done transitions. Leases of dead
        workers expire even when no request arrives, and a restored
        spool's fully recorded plans turn done; held lease requests
        re-decide afterwards, so work requeued here reaches an idle
        worker at once."""
        with self._lock:
            self._housekeep_locked()
            self._changed.notify_all()

    def _housekeep_locked(self) -> None:
        now = self.clock()
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != "active":
                continue
            job.expire(now)
            if job.cover():
                job.state = "done"
                job.finished = time.time()
                log.info(
                    "job %s (%s) complete: %d cells",
                    job.id,
                    job.plan.name,
                    len(job.plan_cells),
                    extra={"job": job.id, "plan": job.plan.name},
                )
                # each finish refines the shared model; snapshot it so
                # even a crash-stopped service keeps what it learned
                self.save_costs()
                self._export_gauges_locked()
                self._changed.notify_all()  # wakes wait_done

    def _export_gauges_locked(self) -> None:
        counts = {"queued": 0, "running": 0, "done": 0, "cancelled": 0}
        for job in self._jobs.values():
            counts[job.status()] += 1
        registry = telemetry()
        for state, n in counts.items():
            registry.gauge("repro_service_plans", state=state).set(n)
        registry.gauge("repro_service_queue_depth").set(
            counts["queued"] + counts["running"]
        )
        registry.gauge("repro_service_pending_cells").set(
            sum(
                j.pending_cells()
                for j in self._jobs.values()
                if j.state == "active"
            )
        )

    def predicted_drain_seconds(self) -> float:
        """Cost-model prediction of when the admitted work drains,
        spread over the live (non-draining) workers — the Retry-After
        the gateway attaches to a 429."""
        with self._lock:
            total = sum(
                j.predicted_remaining_seconds()
                for j in self._jobs.values()
                if j.state == "active"
            )
            live = self._live_workers_locked(self.clock())
            return total / max(len(live), 1)

    def _live_workers_locked(self, now: float) -> list[str]:
        """Workers heard from within the lease timeout and not
        draining: the ones that can take more work."""
        return [
            w
            for w, contact in self._contact.items()
            if now - contact["last_seen"] <= self.lease_timeout
            and w not in self._draining
        ]

    def job(self, job_id: str) -> PlanJob:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownPlanError(f"unknown plan {job_id!r}")
            return job

    def jobs(self) -> list[PlanJob]:
        with self._lock:
            return [self._jobs[j] for j in self._order]

    def snapshot(self, job: PlanJob) -> dict:
        """``job`` as ``/plans`` reports it: its lease progress read
        under the queue lock, its store read under the store lock
        only."""
        with self._lock:
            progress = job.progress()
        return job.snapshot(progress)

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker view across all plans: work counters, busy/idle
        split over the membership span, utilization, wire round-trips,
        liveness.

        ``busy_seconds`` is the worker's own cumulative report (a max,
        never a sum); ``throughput`` is the mean of its per-plan
        estimates.
        """
        with self._lock:
            now = self.clock()
            jobs = self.jobs()
            out: dict[str, dict] = {}
            for worker, contact in sorted(self._contact.items()):
                busy = contact["busy_seconds"]
                rates = [
                    j.throughput[worker]
                    for j in jobs
                    if worker in j.throughput
                ]
                span = max(contact["last_seen"] - contact["first_seen"], 0.0)
                busy_in_span = min(busy, span) if span > 0 else 0.0
                out[worker] = {
                    "leases": contact["leases"],
                    "units": contact["units"],
                    "cells": contact["cells"],
                    "records": contact["records"],
                    "lease_seconds": contact["lease_seconds"],
                    "completes": contact["completes"],
                    "busy_seconds": busy,
                    "idle_seconds": max(span - busy_in_span, 0.0),
                    "span_seconds": span,
                    "round_trips": contact["round_trips"],
                    "lease_requests": contact["lease_requests"],
                    "piggybacked": contact["piggybacked"],
                    "throughput": sum(rates) / len(rates) if rates else None,
                    "utilization": busy_in_span / span if span > 0 else None,
                    "live": now - contact["last_seen"] <= self.lease_timeout,
                    "draining": worker in self._draining,
                }
            return out

    def status(self) -> dict:
        """The queue-wide snapshot (``status`` message, ``/status``)."""
        with self._lock:
            self._housekeep_locked()
            active = [
                j for j in self._jobs.values() if j.state == "active"
            ]
            return {
                "type": "status",
                "finished": self._finished,
                "plans": [
                    self._jobs[j].snapshot(self._jobs[j].progress())
                    for j in self._order
                ],
                "workers": self.worker_stats(),
                "queue": {
                    "active": len(active),
                    "max_active": self.max_active,
                    "predicted_drain_seconds": (
                        self.predicted_drain_seconds()
                    ),
                },
                "costs": self.cost_model.to_dict(),
            }

    def save_costs(self) -> None:
        """Persist the shared cost model to its sidecar (if any)."""
        if self.cost_snapshot_path is None:
            return
        try:
            save_cost_model(self.cost_model, self.cost_snapshot_path)
        except OSError as exc:  # a hint, never worth failing a run
            log.warning(
                "could not persist cost snapshot %s: %s",
                self.cost_snapshot_path,
                exc,
            )
