"""Fleet coordinator: lease work units to TCP workers, merge stores.

Two pieces live here, and every worker-facing coordinator is built from
them — the single-plan :class:`~repro.distributed.executors.FleetExecutor`
and the always-on ``repro serve`` service alike:

* :class:`UnitLedger` — the lease/steal/requeue bookkeeping of *one*
  plan's pending :class:`~repro.experiments.work.WorkUnit`\\ s (cell
  subsets of ``(case, backend)`` groups);
* :class:`FleetCoordinator` — the TCP endpoint speaking the
  length-prefixed-JSON protocol of :mod:`repro.distributed.protocol`
  (framing, mutual HMAC authentication) and routing every message to a
  :class:`~repro.distributed.queue.PlanQueue`, which holds one ledger
  and one results store per admitted plan. A single-plan fleet is a
  queue holding one plan that the executor closes once its store
  covers every cell.

Scheduling is **cell-level, cost-aware work stealing**. A fleet-wide
:class:`~repro.experiments.costs.UnitCostModel` (seeded from plan
priors, updated online from the cost reports workers attach to
``complete``/heartbeat messages) prices every
pending unit; grants carve a near-target-cost piece off the costliest
unit, sized **capacity-aware** — proportional to the asking worker's
measured throughput (cells/second) among the live fleet, so a slow
machine gets proportionally fewer cells. A worker with no throughput
sample yet receives a small probe lease first. Same-group requeued
fragments re-merge before re-lease, the ``min_unit_cells`` constant is
the *floor* under an adaptive minimum (the cells amounting to
``target_unit_seconds`` of predicted work), and the next lease
piggybacks on the ``complete`` reply (with the worker's records
inline), so a steady-state worker pays one round-trip per unit. An
idle worker's ask is *held* rather than answered ``wait`` at once: the
coordinator keeps the request open until the queue changes (a
submission, a completion, a requeue, a drain, the end of the plan) or
its poll interval runs out, so new work reaches an idle worker as
soon as it exists instead of after the worker's next sleep.

A one-case/many-seeds plan (one big group, the shape that used to pin
a whole fleet behind a single worker) spreads across every worker that
asks. Splitting moves only *where* cells execute: every cell is
reproducible from ``(plan, seed)`` alone, so the store's bytes are
identical at any granularity.

Correctness rests on three rules, all enforced by the
:class:`UnitLedger`:

* **Leases expire.** A worker holds a unit only while it heartbeats; a
  worker that dies (or loses the network) stops renewing and its unit
  — the exact cell subset — is re-leased to the next worker that asks.
  Requeued units re-run from the new worker's own store, so cells a
  worker had *partially* recorded before a stale lease resume rather
  than recompute.
* **Records live on the worker until the coordinator has them.**
  Workers stream every completed run into their own crash-safe local
  :class:`~repro.experiments.store.ResultsStore` and upload it with
  their ``complete`` report (or when asked, ``drain``); the coordinator
  folds uploads into the plan's store through
  :meth:`ResultsStore.merge` — first writer wins, so a cell that was
  executed twice (stale lease, re-run after a death) never duplicates a
  ``(system, case, seed, backend)`` record.
* **Completion is verified, not assumed.** A unit reported complete
  counts only tentatively; a plan finishes when *its store* records
  every expected cell. Cells stranded on a dead worker (completed but
  never drained) are detected by this coverage check and requeued as
  fresh units covering exactly the missing cells.

The coordinator never simulates anything itself: it is bookkeeping plus
stores, which is what lets one process oversee a fleet of heavyweight
workers.
"""

from __future__ import annotations

import itertools
import logging
import socketserver
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    record_residual,
)
from repro.experiments.work import WorkSet, WorkUnit, merge_group_units
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.distributed.queue import PlanQueue

__all__ = ["FleetCoordinator", "UnitLedger"]

log = logging.getLogger("repro.distributed.coordinator")


class UnitLedger:
    """Thread-safe lease/steal/requeue bookkeeping for one plan.

    Parameters
    ----------
    workset:
        The pending work, compiled from the plan and the plan's store
        (unit cells refer to :meth:`ExperimentPlan.groups` order;
        workers rebuild the same plan from the payload shipped with
        each grant, so group indices agree — the cells themselves
        travel explicitly).
    lease_timeout:
        Seconds without a heartbeat (or any other contact) after which
        a lease is revoked and its unit re-leased; also the staleness
        bound after which a silent worker is presumed dead.
    completed_cells:
        Callable returning the plan store's recorded run keys — the
        ground truth of the end-of-run coverage check.
    cost_model:
        The :class:`~repro.experiments.costs.UnitCostModel` pricing
        every unit (see the module docstring); a
        :class:`~repro.distributed.queue.PlanQueue` shares one model
        across its ledgers.
    min_unit_cells:
        Lease-size floor (at least 1) under the adaptive minimum
        derived from measured per-cell cost.
    target_unit_seconds:
        Grants aim for at least this much predicted work per unit once
        per-cell cost is measured, so tiny sliver leases (one session
        each, all overhead) stop at a wall-clock bound instead of a
        guessed cell count.
    slow_unit_factor:
        Residual monitoring: every completed unit's observed/predicted
        ratio lands in the ``repro_cost_residual_ratio`` histogram, and
        a unit slower than ``factor × predicted`` emits a ``slow_unit``
        trace event naming the worker.
    """

    def __init__(
        self,
        workset: WorkSet,
        lease_timeout: float,
        completed_cells: Callable[[], set[tuple[str, str, int, str]]],
        cost_model: UnitCostModel,
        clock: Callable[[], float] = time.monotonic,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
    ) -> None:
        if lease_timeout <= 0:
            raise FleetError(
                f"lease timeout must be positive, got {lease_timeout}"
            )
        if min_unit_cells < 1:
            raise FleetError(
                f"min_unit_cells must be >= 1, got {min_unit_cells}"
            )
        if target_unit_seconds <= 0:
            raise FleetError(
                f"target_unit_seconds must be positive, got "
                f"{target_unit_seconds}"
            )
        units = workset.pending()
        self._group_of = {
            cell: unit.group for unit in units for cell in unit.cells
        }
        self._expected = set(self._group_of)
        self._pending: list[WorkUnit] = list(units)
        self._leases: dict[int, dict] = {}
        self._lease_ids = itertools.count(1)
        # cells reported complete whose records have not yet been
        # verified in the plan store (a set: re-completion after a
        # requeue never double-counts)
        self._tentative: set[tuple[str, str, int, str]] = set()
        self._dirty: set[str] = set()
        self._last_seen: dict[str, float] = {}
        # per-worker accounting fed by lease grants plus the telemetry
        # payloads workers attach to heartbeats and complete reports
        self._worker_stats: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.lease_timeout = float(lease_timeout)
        self.min_unit_cells = int(min_unit_cells)
        self.completed_cells = completed_cells
        self.clock = clock
        self.cost_model = cost_model
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
        # group index -> cost-model kernel key (a unit is priced by its
        # group's (case, backend) kernel)
        self._kernel_of: dict[int, str] = {
            index: UnitCostModel.kernel_key(case.name, backend)
            for index, ((case, backend), _keys) in enumerate(
                workset.plan.groups()
            )
        }
        self.finished = threading.Event()
        self.requeues = 0
        self.steals = 0

    # ------------------------------------------------------------------
    def _seen(self, worker: str) -> tuple[float, dict]:
        """Record contact from ``worker``; returns ``(now, stats row)``."""
        now = self.clock()
        self._last_seen[worker] = now
        st = self._worker_stats.get(worker)
        if st is None:
            st = self._worker_stats[worker] = {
                "leases": 0,
                "units": 0,
                "cells": 0,
                "records": 0,
                "busy_seconds": 0.0,
                "lease_seconds": 0.0,
                "completes": 0,
                "drains": 0,
                # measured capacity, EMA cells/second from unit timings
                "throughput": None,
            }
        return now, st

    def _fold_telemetry(self, worker: str, st: dict, info) -> None:
        """Fold a worker-reported telemetry payload into its stats row.

        ``busy_seconds`` arrives as the worker's *cumulative* busy time,
        so the fold is a max — late or duplicate reports never inflate
        utilization. The per-worker busy gauge updates live here (not
        only at fleet finish), so a ``/metrics`` scrape mid-run already
        shows ``repro_fleet_worker_busy_seconds{worker=...}``.
        """
        if not isinstance(info, dict):
            return
        try:
            busy = float(info.get("busy_seconds", 0.0))
        except (TypeError, ValueError):
            return
        st["busy_seconds"] = max(st["busy_seconds"], busy)
        telemetry().gauge(
            "repro_fleet_worker_busy_seconds", worker=worker
        ).set(st["busy_seconds"])

    def worker_stats(self) -> dict[str, dict]:
        """This plan's per-worker work counters: leases, units, cells,
        records, cumulative reported ``busy_seconds``, grant-to-complete
        ``lease_seconds``, completes, drains and the throughput EMA.
        :meth:`PlanQueue.worker_stats
        <repro.distributed.queue.PlanQueue.worker_stats>` sums them over
        plans into the fleet view."""
        with self._lock:
            return {
                worker: dict(st)
                for worker, st in sorted(self._worker_stats.items())
            }

    def lease(self, worker: str) -> dict:
        """Answer one work request: ``unit``, ``drain``, ``wait`` or
        ``done``."""
        with self._lock:
            now, _ = self._seen(worker)
            self._expire(now)
            if worker in self._dirty and not self.finished.is_set():
                # collect this worker's records before handing out more
                # work: the shorter a record's worker-only window, the
                # less a worker death costs
                return {"type": "drain"}
            if self._covered(now):
                return {"type": "done"}
            if self._pending:
                return self._grant(worker, now)
            return {"type": "wait"}

    def heartbeat(self, worker: str, lease_id, info: dict | None = None) -> dict:
        """Renew a lease; ``expired`` once the unit was re-leased.

        ``info`` is the worker's optional telemetry payload (cumulative
        busy seconds, the unit's elapsed time; other keys are ignored),
        folded into the utilization view and the cost model so
        in-flight work counts, not just completed units.
        """
        with self._lock:
            now, st = self._seen(worker)
            self._fold_telemetry(worker, st, info)
            self._expire(now)
            lease = self._leases.get(_lease_key(lease_id))
            if lease is None or lease["worker"] != worker:
                return {"type": "expired"}
            lease["deadline"] = now + self.lease_timeout
            if isinstance(info, dict):
                # an in-flight unit's elapsed time bounds its cost from
                # below — a unit running long teaches the model before
                # it completes
                unit = lease["unit"]
                kernel = self._kernel_of.get(unit.group, "")
                try:
                    elapsed = float(info.get("unit_seconds", 0.0))
                except (TypeError, ValueError):
                    elapsed = 0.0
                self.cost_model.observe_lower_bound(
                    kernel, unit.n_cells, elapsed
                )
            return {"type": "ok"}

    def complete(
        self,
        worker: str,
        lease_id,
        info: dict | None = None,
        drained: bool = False,
    ) -> dict:
        """Mark a leased unit tentatively complete (``ok``/``stale``).

        ``drained=True`` means the worker's records arrived inline with
        this report and were already merged into the plan store — the
        worker owes nothing, so it is not marked dirty.
        """
        with self._lock:
            now, st = self._seen(worker)
            st["completes"] += 1
            self._fold_telemetry(worker, st, info)
            self._expire(now)
            if drained:
                self._dirty.discard(worker)
            key = _lease_key(lease_id)
            lease = self._leases.get(key)
            if lease is None or lease["worker"] != worker:
                return {"type": "stale"}
            del self._leases[key]
            unit = lease["unit"]
            self._tentative.update(unit.cells)
            if not drained:
                self._dirty.add(worker)
            lease_seconds = max(now - lease["granted"], 0.0)
            st["units"] += 1
            st["cells"] += unit.n_cells
            st["lease_seconds"] += lease_seconds
            unit_seconds = lease_seconds
            if isinstance(info, dict):
                try:
                    st["records"] += int(info.get("records", 0))
                except (TypeError, ValueError):
                    pass
                try:
                    reported = float(info.get("unit_seconds", 0.0))
                    if reported > 0.0:
                        # the worker's own measurement excludes network
                        # and queueing — the honest per-unit cost
                        unit_seconds = reported
                except (TypeError, ValueError):
                    pass
            if unit_seconds > 0.0:
                # measured capacity: EMA of cells/second, the input to
                # proportional lease sizing
                throughput = unit.n_cells / unit_seconds
                prev = st["throughput"]
                st["throughput"] = (
                    throughput
                    if prev is None
                    else prev + 0.5 * (throughput - prev)
                )
            kernel = self._kernel_of.get(unit.group, "")
            # residual first: the ratio must judge the prediction the
            # scheduler actually used, before this unit's own timing
            # teaches the model
            record_residual(
                self.cost_model,
                kernel,
                unit.n_cells,
                unit_seconds,
                slow_factor=self.slow_unit_factor,
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

    def drained(self, worker: str) -> None:
        """The worker's local records reached the plan store."""
        with self._lock:
            _, st = self._seen(worker)
            st["drains"] += 1
            self._dirty.discard(worker)

    def worker_dirty(self, worker: str) -> bool:
        """Whether ``worker`` still owes records (an un-drained store)."""
        with self._lock:
            return worker in self._dirty

    def holds_lease(self, worker: str) -> bool:
        """Whether ``worker`` currently holds an active lease."""
        with self._lock:
            self._expire(self.clock())
            return any(
                lease["worker"] == worker
                for lease in self._leases.values()
            )

    def grantable(self) -> bool:
        """Whether a lease request right now would receive a unit.

        The plan queue calls this to shortlist plans before its
        fair-share pick; the end-of-plan coverage/requeue path is
        handled by the :meth:`poll_completion` housekeeping it runs
        first.
        """
        with self._lock:
            self._expire(self.clock())
            return not self.finished.is_set() and bool(self._pending)

    def predicted_remaining_seconds(self) -> float:
        """Cost-model prediction of the work not yet verified complete.

        Pending plus currently-leased units, priced by the ledger's
        cost model. Admission backpressure derives Retry-After from
        this; it is a prediction, not a promise.
        """
        with self._lock:
            if self.finished.is_set():
                return 0.0
            units = list(self._pending) + [
                lease["unit"] for lease in self._leases.values()
            ]
            return sum(
                self.cost_model.estimate(
                    self._kernel_of.get(unit.group, ""), unit.n_cells
                )
                for unit in units
            )

    def poll_completion(self) -> bool:
        """Coordinator-side completion check (needs no worker request).

        ``finished`` is normally set while answering a worker's lease
        request — but if the last worker dies right after draining, no
        request ever arrives even though the store already records
        every cell. Coordinators poll this while they wait, so a
        complete run always terminates; cells found missing requeue as
        units for whichever worker asks next.
        """
        with self._lock:
            now = self.clock()
            self._expire(now)
            return self._covered(now)

    # ------------------------------------------------------------------
    def _covered(self, now: float) -> bool:
        """The end-of-plan check (lock held): ``True`` once the store
        covers every expected cell.

        Only decided when nothing is pending or leased and no live
        worker still owes records; cells then found missing requeue as
        fresh units.
        """
        if self.finished.is_set():
            return True
        if self._pending or self._leases:
            return False
        if any(
            now - self._last_seen.get(w, 0.0) <= self.lease_timeout
            for w in self._dirty
        ):
            return False  # a live worker still owes records
        missing = self._expected - self.completed_cells()
        if not missing:
            self.finished.set()
            return True
        self._requeue_missing(missing)
        return False

    def _grant(self, worker: str, now: float) -> dict:
        """Lease a capacity-sized piece of the costliest pending unit.

        Same-group requeued fragments re-merge first (one carve, one
        engine session, instead of re-leasing slivers); the carve size
        comes from :meth:`_target_cells` — proportional to the asking
        worker's measured share of fleet throughput, floored by the
        adaptive minimum. Each carve that leaves cells pending is a
        steal: work a single worker would otherwise own mid-group moves
        to the asker.

        The carve deliberately does NOT check how many workers exist:
        fleets grow at any moment and hellos race leases, so gating on
        known peers could hand the whole group to the first asker and
        starve everyone who arrives a heartbeat later. The price is
        that a deliberately lone worker drains a group as several
        units (one engine session each, so less cross-system cache
        reuse — never different results); single-worker fleets that
        care should set a coarse ``min_unit_cells`` floor.
        """
        self._pending = merge_group_units(self._pending)

        def cost(unit: WorkUnit) -> float:
            return self.cost_model.estimate(
                self._kernel_of.get(unit.group, ""), unit.n_cells
            )

        i = max(
            range(len(self._pending)),
            key=lambda j: (cost(self._pending[j]), -j),
        )
        pending_cells = sum(u.n_cells for u in self._pending)
        unit = self._pending.pop(i)
        target = self._target_cells(worker, unit, pending_cells, now)
        floor = self.min_unit_cells
        if target >= floor and unit.n_cells - target >= floor:
            unit, kept = unit.split_at(target)
            self._pending.append(kept)
            self._count_steal(worker, unit, kept)
        return self._issue(worker, unit, now)

    def _target_cells(
        self, worker: str, unit: WorkUnit, pending_cells: int, now: float
    ) -> int:
        """How many cells this worker's next lease should carry.

        Proportional capacity sizing: the worker's EMA throughput over
        the summed throughput of the live fleet, applied to the
        remaining pending cells. A worker with no sample yet gets a
        small probe (capacity-aware sizing needs a capacity
        measurement); no asker ever receives more than half of what
        remains, for the same reason grants never check worker counts —
        late joiners and hello/lease races must still find work. The
        floor is the adaptive minimum: the cells amounting to
        ``target_unit_seconds`` of predicted work, capped by a fair
        share so small workloads still spread, and never below the
        configured ``min_unit_cells``.
        """
        floor = self.min_unit_cells
        live = [
            w
            for w, seen in self._last_seen.items()
            if now - seen <= self.lease_timeout
        ]
        n_live = max(len(live), 1)
        fair = max(pending_cells // n_live, 1)
        st = self._worker_stats.get(worker) or {}
        throughput = st.get("throughput")
        if throughput is None:
            probe = max(floor, fair // 4)
            return min(probe, unit.n_cells)
        known = [
            self._worker_stats[w]["throughput"]
            for w in live
            if self._worker_stats.get(w, {}).get("throughput")
        ]
        mean = sum(known) / len(known) if known else throughput
        total = sum(
            self._worker_stats.get(w, {}).get("throughput") or mean
            for w in live
        )
        share = throughput / total if total > 0 else 1.0 / n_live
        kernel = self._kernel_of.get(unit.group, "")
        adaptive = self.cost_model.min_cells_for(
            kernel, self.target_unit_seconds, floor
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

    def _issue(self, worker: str, unit: WorkUnit, now: float) -> dict:
        """Record and serialize one granted lease."""
        lease_id = next(self._lease_ids)
        self._leases[lease_id] = {
            "unit": unit,
            "worker": worker,
            "deadline": now + self.lease_timeout,
            "granted": now,
        }
        self._worker_stats[worker]["leases"] += 1
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
        return {"type": "unit", "unit": unit.to_dict(), "lease": lease_id}

    def _expire(self, now: float) -> None:
        """Requeue every lease whose worker stopped heartbeating."""
        for lease_id, lease in list(self._leases.items()):
            if lease["deadline"] < now:
                del self._leases[lease_id]
                self._pending.append(lease["unit"])
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

    def _requeue_missing(
        self, missing: set[tuple[str, str, int, str]]
    ) -> None:
        """Requeue cells whose records died with their worker, as one
        fresh unit per affected group."""
        self._tentative -= missing  # their completion was never real
        by_group: dict[int, list] = {}
        for cell in sorted(missing & self._expected):
            by_group.setdefault(self._group_of[cell], []).append(cell)
        for index in sorted(by_group):
            self._pending.append(WorkUnit(index, tuple(by_group[index])))
            self.requeues += 1
            telemetry().counter("repro_fleet_requeues_total").inc()
            log.warning(
                "requeued %d unrecorded cells of group %d (records "
                "died with their worker)",
                len(by_group[index]),
                index,
                extra={"group": index, "cells": len(by_group[index])},
            )

    def progress(self) -> dict:
        """Snapshot for logs and timeout diagnostics."""
        with self._lock:
            return {
                "pending_units": len(self._pending),
                "pending_cells": sum(u.n_cells for u in self._pending),
                "leased": len(self._leases),
                "tentative_cells": len(self._tentative),
                "workers": len(self._last_seen),
                "requeues": self.requeues,
                "steals": self.steals,
            }


def _lease_key(lease_id) -> int:
    try:
        return int(lease_id)
    except (TypeError, ValueError):
        return -1


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
        it), and the re-ask cadence advertised on ``welcome`` to
        workers that cannot hold. A positive, finite number of
        seconds.
    auth_token:
        Shared secret for the mutual challenge–response handshake
        (``None`` disables authentication) — enforced by the connection
        handler before any dispatch.
    """

    def __init__(
        self,
        queue: "PlanQueue",
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
                "hold": True,
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
        if mtype == "records":
            return queue.merge_records(
                worker, message.get("plan_id"), message.get("records")
            )
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
        capped by the poll interval; 0 (answer at once) when it asked
        for none — the wire form of a worker that cannot hold."""
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
