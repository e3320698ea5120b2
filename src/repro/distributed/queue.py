"""Plan scheduling: a fair-share queue of independent ledgers.

A :class:`~repro.distributed.coordinator.UnitLedger` answers one
question — *which unit does this worker run next?* — for one plan. The
:class:`PlanQueue` holds any number of them behind one worker pool:
every admitted plan becomes a :class:`PlanJob` with its own ledger, its
own :class:`~repro.experiments.store.ResultsStore` (the
resume/idempotency contract is per plan), and a keyed job id — the
digest of ``(tenant, plan payload)``, so a client retrying a
submission lands on the job it already created instead of a duplicate.

Two coordinators run on it. The always-on ``repro serve`` service
submits tenants' plans into a spooled queue and never finishes; the
single-plan :class:`~repro.distributed.executors.FleetExecutor` admits
its one plan with the caller's store and, once that store covers every
cell, calls :meth:`PlanQueue.finish` so every further ask is answered
``done``.

**Held leases.** An idle worker's ask need not be answered ``wait`` at
once: :meth:`PlanQueue.lease` with a ``hold`` re-decides every time
the queue changes in a way that could change the answer — a
submission, a completion, a heartbeat or housekeeping tick that
requeues an expired lease, a drain, a cancel, the end of the plan —
and returns as soon as the answer is no longer ``wait``, or with
``wait`` once the hold runs out. Every such change notifies one
condition on the queue lock, so new work reaches an idle worker as
soon as it exists rather than at its next poll; the same condition
tells :meth:`PlanQueue.wait_all_informed` when a worker heard
``done``.

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

The costs come from one queue-wide
:class:`~repro.experiments.costs.UnitCostModel` shared by every job's
ledger (and persisted to a sidecar across restarts), so a unit's price
— and therefore each tenant's measured share — is consistent across
plans.

Scheduling moves only *where and when* cells run. Every record is
reproducible from ``(plan, seed)`` alone, so a plan run through the
queue is bitwise-identical (in the
:func:`~repro.experiments.store.parity_view`) to the same plan run
inline, whatever the interleaving.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.distributed.coordinator import UnitLedger
from repro.distributed.protocol import FleetError
from repro.errors import ReproError
from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    load_cost_model,
    save_cost_model,
    seed_plan_priors,
)
from repro.experiments.plan import ExperimentPlan
from repro.experiments.store import ResultsStore, record_key
from repro.experiments.work import WorkSet
from repro.obs import telemetry

__all__ = [
    "AdmissionError",
    "PlanJob",
    "PlanQueue",
    "ServiceError",
    "UnknownPlanError",
    "plan_job_id",
]

log = logging.getLogger("repro.distributed.queue")

#: Per-worker ledger counters that add up across plans.
_SUMMED = (
    "leases",
    "units",
    "cells",
    "records",
    "lease_seconds",
    "completes",
    "drains",
)


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


class PlanJob:
    """One admitted plan: ledger + store + fair-share accounting.

    The queue attaches the job's :class:`UnitLedger` as ``ledger``
    right after construction (the ledger reads the store through
    :meth:`completed_cells`, under the job's store lock).
    """

    def __init__(
        self,
        job_id: str,
        tenant: str,
        priority: float,
        plan: ExperimentPlan,
        store: ResultsStore,
        index: int,
        trace: dict | None = None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.priority = float(priority)
        self.plan = plan
        self.plan_payload = plan.to_dict()
        self.plan_cells = {k.as_tuple() for k in plan.runs()}
        # a unit is priced by its group's (case, backend) kernel —
        # the same mapping the ledger uses, duplicated here because
        # the fair-share charge happens at queue level
        self.kernel_of = {
            idx: UnitCostModel.kernel_key(case.name, backend)
            for idx, ((case, backend), _keys) in enumerate(plan.groups())
        }
        self.store = store
        self.store_lock = threading.Lock()
        self.ledger: UnitLedger
        self.index = index  # submission order, the fair-share tiebreak
        self.trace = dict(trace) if trace else None
        self.state = "active"  # active | done | cancelled
        self.deficit = 0.0
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None

    def status(self) -> str:
        if self.state == "active":
            return "running" if self.started is not None else "queued"
        return self.state

    def completed_cells(self) -> set[tuple[str, str, int, str]]:
        with self.store_lock:
            return self.store.completed()

    def merge(self, records: list) -> dict:
        """Merge a worker upload, keeping only this plan's cells — a
        reused worker store may hold cells of other plans."""
        wanted = [r for r in records if record_key(r) in self.plan_cells]
        with self.store_lock:
            merged = self.store.merge(wanted)
        return {
            "type": "ok",
            "merged": len(wanted),
            "ignored": len(records) - len(wanted),
            "total": merged["records"],
        }

    def snapshot(self) -> dict:
        """The job as the gateway and ``status`` report it (JSON-safe)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "plan": self.plan.name,
            "status": self.status(),
            "expected_cells": len(self.plan_cells),
            "recorded_cells": len(self.completed_cells() & self.plan_cells),
            "progress": self.ledger.progress(),
            "deficit_seconds": self.deficit,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "store": str(self.store.path),
            "trace": dict(self.trace) if self.trace else None,
        }


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
    lease_timeout, min_unit_cells, target_unit_seconds,
    slow_unit_factor:
        Per-plan ledger knobs, identical in meaning to
        :class:`~repro.distributed.coordinator.UnitLedger`.
    max_active:
        Admission bound: at most this many jobs queued or running at
        once; beyond it :meth:`submit` raises :class:`AdmissionError`
        with the predicted drain time (resubmissions of an existing
        job are always admitted — idempotency must not bounce).
    clock:
        Monotonic time source (tests inject a fake).

    Every public method takes the queue lock; per-job ledgers and
    stores have their own locks nested strictly inside it, so the
    shared cost model is only ever mutated under the queue lock.
    """

    def __init__(
        self,
        spool: str | os.PathLike | None = None,
        lease_timeout: float = 30.0,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
        max_active: int = 8,
        clock=time.monotonic,
    ) -> None:
        if max_active < 1:
            raise ServiceError(
                f"max_active must be >= 1, got {max_active}"
            )
        self.spool = None if spool is None else Path(spool)
        self.lease_timeout = float(lease_timeout)
        self.min_unit_cells = int(min_unit_cells)
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
        self.max_active = int(max_active)
        self.clock = clock
        # one cost model for the whole queue: rates measured while
        # serving one tenant's plan inform the next tenant's grants
        self.cost_model = UnitCostModel()
        self.cost_snapshot_path: Path | None = None
        self._jobs: dict[str, PlanJob] = {}
        self._order: list[str] = []
        self._draining: set[str] = set()
        # per-worker wire accounting: every message a worker sends
        # counts here exactly once, whichever plan it concerns
        self._contact: dict[str, dict] = {}
        self._finished = False
        self._told_done: set[str] = set()
        self._lock = threading.RLock()
        # notified on every change that can alter a lease decision:
        # held lease requests and the end-of-plan linger wait on it
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
        job = PlanJob(
            job_id,
            tenant,
            priority,
            plan,
            store,
            index=len(self._order),
            trace=trace,
        )
        workset = WorkSet.compile(plan, job.completed_cells())
        # new kernels get this plan's budget priors; kernels the
        # queue has already measured (or restored) keep their rates
        seed_plan_priors(self.cost_model, plan, overwrite=False)
        job.ledger = UnitLedger(
            workset,
            self.lease_timeout,
            job.completed_cells,
            self.cost_model,
            clock=self.clock,
            min_unit_cells=self.min_unit_cells,
            target_unit_seconds=self.target_unit_seconds,
            slow_unit_factor=self.slow_unit_factor,
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
            workset.total_cells,
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

    def all_live_informed(self) -> bool:
        """Whether every worker still alive has been told ``done``."""
        with self._lock:
            return self._uninformed_locked() is None

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
        ``timeout`` seconds pass); returns :meth:`all_live_informed`.

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
            }
        contact["last_seen"] = now
        contact["round_trips"] += 1
        if counter is not None:
            contact[counter] += 1
        return now

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
        with self._lock:
            self._seen_locked(worker)
            job = self._jobs.get(plan_id)
            if job is None:
                return {"type": "expired"}
            # renewing expires any other overdue lease: requeued work
            reply = job.ledger.heartbeat(worker, lease_id, info)
            self._changed.notify_all()
            return reply

    def complete(
        self,
        worker: str,
        plan_id,
        lease_id,
        info: dict | None = None,
        records: list | None = None,
    ) -> dict:
        """Handle a unit completion; the reply always piggybacks the
        worker's next decision (``next``) — across *all* plans, which
        keeps a steady-state worker at one round-trip per unit even
        when its next unit belongs to another tenant."""
        with self._lock:
            self._seen_locked(worker, "piggybacked")
            job = self._jobs.get(plan_id)
            if job is None:
                reply = {"type": "stale"}
            else:
                drained = isinstance(records, list)
                if drained:
                    # merge BEFORE the ledger sees the completion so
                    # the coverage check already counts these records
                    job.merge(records)
                reply = job.ledger.complete(
                    worker, lease_id, info, drained=drained
                )
            reply["next"] = self._decide_locked(worker)
            self._changed.notify_all()
            return reply

    def merge_records(
        self, worker: str, plan_id, records: list
    ) -> dict:
        """A ``records`` upload routed to one plan's store."""
        if not isinstance(records, list):
            raise FleetError("records message without a record list")
        with self._lock:
            self._seen_locked(worker)
            job = self._jobs.get(plan_id)
            if job is None:
                # e.g. a drain for a plan cancelled out from under the
                # worker; its records have nowhere to go, which is fine
                # — a cancelled plan's store is already best-effort
                return {
                    "type": "ok",
                    "merged": 0,
                    "ignored": len(records),
                    "total": 0,
                }
            # store first, ledger second — never both locks at once
            reply = job.merge(records)
            job.ledger.drained(worker)
            self._changed.notify_all()
            return reply

    # -- the scheduling core -------------------------------------------
    def _decide_locked(self, worker: str) -> dict:
        """The lease decision (queue lock held).

        Order of business: ``done`` once finished, collect owed
        records, honour drains, then the fair-share grant.
        """
        if self._finished:
            self._told_done.add(worker)
            self._changed.notify_all()  # wakes wait_all_informed
            return {"type": "done"}
        self._housekeep_locked()
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != "cancelled" and job.ledger.worker_dirty(
                worker
            ):
                return {"type": "drain", "plan_id": job.id}
        if worker in self._draining:
            if any(
                self._jobs[j].ledger.holds_lease(worker)
                for j in self._order
            ):
                # only reachable when a retried ask races its own
                # lease; the safe answer is always "come back"
                return {"type": "wait"}
            return {"type": "bye"}
        candidates = [
            self._jobs[j]
            for j in self._order
            if self._jobs[j].state == "active"
            and self._jobs[j].ledger.grantable()
        ]
        if not candidates:
            # new work may arrive (a submission, a requeue) any moment:
            # a held request waits for the change that brings it, an
            # unheld one is told to ask again
            return {"type": "wait"}
        job = max(candidates, key=lambda j: (j.deficit, -j.index))
        reply = job.ledger.lease(worker)
        if reply.get("type") != "unit":
            return {"type": "wait"}
        cells = len((reply.get("unit") or {}).get("cells", ()))
        group = (reply.get("unit") or {}).get("group", -1)
        cost = self.cost_model.estimate(
            job.kernel_of.get(group, ""), cells
        )
        self._charge_locked(job, cost)
        if job.started is None:
            self._first_grant_locked(job, worker)
        reply["plan_id"] = job.id
        reply["plan"] = job.plan_payload
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
        lease expiry, coverage checks, done transitions. Held lease
        requests re-decide afterwards, so work requeued here reaches
        an idle worker at once."""
        with self._lock:
            self._housekeep_locked()
            self._changed.notify_all()

    def _housekeep_locked(self) -> None:
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != "active":
                continue
            if job.ledger.poll_completion():
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
                j.ledger.progress()["pending_cells"]
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
                j.ledger.predicted_remaining_seconds()
                for j in self._jobs.values()
                if j.state == "active"
            )
            now = self.clock()
            live = [
                w
                for w, contact in self._contact.items()
                if now - contact["last_seen"] <= self.lease_timeout
                and w not in self._draining
            ]
            return total / max(len(live), 1)

    def job(self, job_id: str) -> PlanJob:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownPlanError(f"unknown plan {job_id!r}")
            return job

    def jobs(self) -> list[PlanJob]:
        with self._lock:
            return [self._jobs[j] for j in self._order]

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker view across all plans: busy/idle split over the
        membership span, utilization, wire round-trips, liveness.

        Work counters add up over the plans' ledgers; ``busy_seconds``
        is the worker's own cumulative report (a max, never a sum);
        ``throughput`` is the mean of its per-plan estimates.
        """
        with self._lock:
            now = self.clock()
            per_plan = [j.ledger.worker_stats() for j in self.jobs()]
            out: dict[str, dict] = {}
            for worker, contact in sorted(self._contact.items()):
                rows = [p[worker] for p in per_plan if worker in p]
                busy = max((r["busy_seconds"] for r in rows), default=0.0)
                rates = [
                    r["throughput"]
                    for r in rows
                    if r["throughput"] is not None
                ]
                span = max(contact["last_seen"] - contact["first_seen"], 0.0)
                busy_in_span = min(busy, span) if span > 0 else 0.0
                out[worker] = {
                    **{k: sum(r[k] for r in rows) for k in _SUMMED},
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
                    self._jobs[j].snapshot() for j in self._order
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
