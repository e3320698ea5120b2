"""Fleet worker: lease work units, run their cells, upload the records.

``repro experiments worker --connect HOST:PORT`` runs this loop against
any fleet coordinator — a single-plan ``sweep --executor fleet`` or
the always-on ``repro serve`` — since both speak one dialect. A worker
needs no plan file and no shared filesystem: every ``unit`` grant
names its plan (``plan_id``) and ships the plan payload inline, and
the worker keeps one execution context — plan, local store, resume
index — per plan it has served. Every leased
:class:`~repro.experiments.work.WorkUnit` — a ``(case, backend)``
group index plus the *explicit cell subset* to run, possibly a whole
group, possibly one stolen cell — executes through the worker's own
:class:`~repro.experiments.runner.ExperimentRunner` (one shared
:class:`~repro.engine.EngineSession` per unit's group context, exactly
like a local run). Completed runs stream into a worker-local
crash-safe :class:`~repro.experiments.store.ResultsStore`,
``<store>/<plan_id>.jsonl`` under the worker's store directory.

The steady-state loop costs **one round-trip per unit**: every
``complete`` report carries the plan's not-yet-uploaded records inline,
and the reply carries the next lease decision (``next``). Each
``complete`` and heartbeat also ships a cost report (measured unit
seconds), feeding the coordinator's fleet-wide
:class:`~repro.experiments.costs.UnitCostModel`.
The ``complete``/``heartbeat``/``records`` messages echo ``plan_id``
so the coordinator routes them to the right plan and its store.

An idle worker does not sleep between asks when its coordinator holds
lease requests (its ``welcome`` says ``"hold": true``): each ``lease``
asks for a hold of its poll interval (capped at half the request
timeout, so the socket never times out first) and a held ``wait`` is
followed by the next ask at once — the coordinator answers the moment
work exists. Against a coordinator that cannot hold, the worker sleeps
its poll interval after every ``wait``.

While a unit runs, a background thread heartbeats the lease at a
quarter of the coordinator's lease timeout; if the worker dies, the
heartbeats stop and the coordinator re-leases the unit's cells. A
worker that *outlives* its lease (e.g. a long GC pause) keeps its
records — the ``complete`` report comes back ``stale``, the re-run
elsewhere wins the merge, nothing is duplicated.

Re-pointing a worker at the same ``--store`` directory after a crash
resumes: a plan's store keeps the ``(system, case, seed, backend)``
contract and skips the recorded cells of a re-leased unit — the resume
granularity is the *cell*, so a store recorded under one unit split
resumes under any other.

Connection failures retry under capped exponential backoff with
jitter (see :func:`backoff_delay`), so a worker started *before* its
coordinator — or surviving a coordinator restart — reconnects instead
of exiting, and a restarting fleet does not reconnect in lockstep.

With a shared secret configured (``auth_token`` /
``REPRO_FLEET_TOKEN``), every exchange answers the coordinator's HMAC
challenge first (see :mod:`repro.distributed.protocol`).

The worker exits on ``done`` (its coordinator's plans are recorded) or
``bye`` (it was asked to leave — the drain lifecycle — and its leases
are finished and its records merged; the summary then says
``drained: true``). Either way the coordinator then holds every
record, so a worker started without a store directory removes the
temporary one it made.

``REPRO_WORKER_THROTTLE`` (seconds per cell, or the ``throttle``
parameter) artificially slows a worker down — a test/CI knob for
exercising capacity-aware lease sizing on heterogeneous fleets.
"""

from __future__ import annotations

import logging
import os
import random
import shutil
import socket
import tempfile
import threading
import time
from typing import Callable

from repro.distributed.protocol import (
    FleetAuthError,
    FleetError,
    check_auth_token,
    check_poll_interval,
    request,
)
from repro.obs import snapshot_delta, telemetry

__all__ = ["backoff_delay", "parse_address", "run_worker"]

log = logging.getLogger("repro.distributed.worker")


def parse_address(value: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or a ready tuple) → ``(host, port)``."""
    if isinstance(value, tuple):
        return (str(value[0]), int(value[1]))
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise FleetError(
            f"worker address must be HOST:PORT, got {value!r}"
        )
    try:
        return (host, int(port))
    except ValueError as exc:
        raise FleetError(
            f"worker address must be HOST:PORT, got {value!r}"
        ) from exc


def backoff_delay(
    failures: int,
    base: float = 0.5,
    cap: float = 5.0,
    jitter: Callable[[], float] = random.random,
) -> float:
    """Seconds to sleep before retry number ``failures`` (1-based).

    Capped exponential backoff with jitter: the ceiling doubles from
    ``base`` up to ``cap``, and the actual delay is uniform in
    ``[ceiling/2, ceiling]`` — late-started workers hammer a missing
    coordinator less and less, and a whole fleet surviving a
    coordinator restart spreads its reconnections instead of
    stampeding in lockstep. ``jitter`` is injectable for tests.
    """
    if base <= 0 or cap <= 0:
        raise FleetError(
            f"backoff base and cap must be positive, got {base}/{cap}"
        )
    ceiling = min(float(cap), float(base) * (2.0 ** max(failures - 1, 0)))
    return ceiling * (0.5 + 0.5 * jitter())


class _LeaseHeartbeat:
    """Background lease renewal while a unit runs.

    Failures are deliberately swallowed: if the coordinator is gone the
    lease expires by itself, and the worker finds out at its next
    synchronous exchange.
    """

    def __init__(
        self,
        address: tuple[str, int],
        worker: str,
        lease: int,
        interval: float,
        request_timeout: float,
        token: str | None = None,
        busy_base: float = 0.0,
        metrics: Callable[[], list] | None = None,
        plan_id: str | None = None,
    ) -> None:
        self._payload = {
            "type": "heartbeat",
            "worker": worker,
            "lease": lease,
            "plan_id": plan_id,
        }
        self._address = address
        self._interval = interval
        self._request_timeout = request_timeout
        self._token = token
        self._busy_base = busy_base
        self._metrics = metrics
        self._started = time.perf_counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"lease-heartbeat-{lease}"
        )

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self._request_timeout + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            # each beat carries the worker's live busy accounting, so
            # the coordinator's utilization view covers in-flight units
            # (not just completed ones)
            elapsed = time.perf_counter() - self._started
            self._payload["telemetry"] = {
                "busy_seconds": self._busy_base + elapsed,
                "unit_seconds": elapsed,
            }
            if self._metrics is not None:
                # metric delta since the last shipped snapshot; the
                # coordinator folds it worker-labelled into the fleet
                # registry (a delta lost to a failed beat is acceptable
                # monitoring loss, never results loss)
                self._payload["metrics"] = self._metrics()
            # sent_at lets the coordinator answer with a clock-offset
            # estimate (unused here, but it keeps both reply shapes equal)
            self._payload["sent_at"] = time.time()
            try:
                request(
                    self._address,
                    self._payload,
                    timeout=self._request_timeout,
                    token=self._token,
                )
            except (OSError, FleetError):
                continue


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    address: str | tuple[str, int],
    store_path: str | os.PathLike | None = None,
    poll_interval: float | None = None,
    worker_id: str | None = None,
    request_timeout: float = 30.0,
    max_failures: int = 20,
    auth_token: str | None = None,
    on_record: Callable[[dict], None] | None = None,
    after_complete: Callable[[int], None] | None = None,
    throttle: float | None = None,
    backoff_base: float = 0.5,
    backoff_cap: float = 5.0,
) -> dict:
    """Serve one coordinator until it answers ``done`` (or ``bye``).

    Parameters
    ----------
    address:
        Coordinator ``HOST:PORT`` (string or tuple).
    store_path:
        Directory of worker-local results stores, one
        ``<plan_id>.jsonl`` per served plan; created if missing.
        Reusing it across worker restarts resumes interrupted units
        instead of recomputing them. When omitted, a fresh temporary
        directory is used and removed again on ``done``/``bye``.
    poll_interval:
        The hold asked for on each idle ``lease`` (capped at half of
        ``request_timeout``; the coordinator caps it by its own poll
        interval), and the sleep between asks against a coordinator
        that cannot hold requests. Defaults to what the coordinator
        advertises; a positive, finite number of seconds.
    worker_id:
        Stable identity in coordinator bookkeeping (default
        ``hostname-pid``).
    max_failures:
        Consecutive connection failures tolerated (the coordinator may
        start after the workers) before giving up. Retries back off
        exponentially with jitter between ``backoff_base`` and
        ``backoff_cap`` seconds (see :func:`backoff_delay`).
    auth_token:
        Shared secret for coordinators that require authentication;
        defaults to ``REPRO_FLEET_TOKEN`` from the environment. An
        auth rejection raises immediately — retrying cannot help.
    on_record:
        Optional callback per completed run record (test hook).
    after_complete:
        Optional callback after each accepted/stale ``complete``
        exchange, with the unit's group index (test hook — fault
        injection).
    throttle:
        Artificial slowdown in seconds *per cell*, slept after each
        unit executes (inside the heartbeat window, so the reported
        unit timing includes it); defaults to
        ``REPRO_WORKER_THROTTLE`` from the environment. Exists so
        tests and CI can make one fleet member measurably slower and
        assert that capacity-aware scheduling gives it less work.

    Returns a summary dict: ``units``/``records`` executed,
    ``busy_seconds`` spent inside unit execution (the idle-time metric
    of ``benchmarks/bench_executors.py``), the derived
    ``idle_seconds``/``wall_seconds``, the local ``store`` directory
    (already removed if it was a temporary one), and
    ``drained`` — True when the exit was a graceful ``bye`` after a
    drain rather than plan completion.
    The same busy/idle split lands in the process metric registry as
    ``repro_worker_busy_seconds``/``repro_worker_idle_seconds`` gauges,
    and is reported upstream on every heartbeat and ``complete``
    exchange so the coordinator can aggregate fleet-wide utilization.
    """
    # imported here: repro.experiments lazily imports this package's
    # executors, so the worker stays import-cycle-free at module level
    from repro.experiments.plan import ExperimentPlan
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultsStore, record_key
    from repro.experiments.work import WorkUnit

    addr = parse_address(address)
    if poll_interval is not None:
        poll_interval = check_poll_interval(poll_interval)
    worker = worker_id or _default_worker_id()
    if auth_token is None:
        auth_token = os.environ.get("REPRO_FLEET_TOKEN")
    check_auth_token(auth_token)
    if throttle is None:
        raw = os.environ.get("REPRO_WORKER_THROTTLE")
        if raw:
            try:
                throttle = float(raw)
            except ValueError as exc:
                raise FleetError(
                    "REPRO_WORKER_THROTTLE must be seconds per cell "
                    f"(a float), got {raw!r}"
                ) from exc
    if throttle is not None and throttle < 0:
        raise FleetError(
            f"worker throttle must be >= 0, got {throttle}"
        )
    failures = 0

    def rpc(payload: dict) -> dict:
        nonlocal failures
        while True:
            try:
                reply = request(
                    addr, payload, timeout=request_timeout, token=auth_token
                )
            except FleetAuthError:
                raise  # a retry re-fails the same handshake
            except (OSError, FleetError) as exc:
                failures += 1
                if failures >= max_failures:
                    raise FleetError(
                        f"worker {worker}: {failures} consecutive failed "
                        f"exchanges with {addr[0]}:{addr[1]} — giving up "
                        f"({exc})"
                    ) from exc
                time.sleep(
                    backoff_delay(failures, backoff_base, backoff_cap)
                )
                continue
            failures = 0
            if reply.get("type") == "error":
                raise FleetError(
                    f"coordinator rejected {payload.get('type')!r}: "
                    f"{reply.get('error')}"
                )
            return reply

    registry = telemetry()
    # span ids namespace by worker id: traces merged across the fleet
    # stay collision-free and attribute to the right track
    registry.set_span_prefix(worker)

    def adopt_trace(payload: dict) -> None:
        """Join the plan's trace (stamped on every unit grant):
        this worker's spans then carry the fleet-wide trace_id and
        parent onto the coordinator's `plan` root span."""
        trace = payload.get("trace")
        if isinstance(trace, dict) and trace.get("trace_id"):
            registry.adopt_trace(
                trace.get("trace_id"), trace.get("parent_span")
            )

    metrics_lock = threading.Lock()
    # ship only what moves from here on: a forked worker inherits its
    # parent's counters, which are not this worker's work
    last_metrics: list = registry.snapshot()

    def metrics_delta() -> list:
        """Registry movement since the last shipped snapshot (shared by
        the heartbeat thread and the complete path, hence the lock)."""
        nonlocal last_metrics
        with metrics_lock:
            current = registry.snapshot()
            delta = snapshot_delta(last_metrics, current)
            last_metrics = current
            return delta

    clock_offset: float | None = None

    welcome = rpc({"type": "hello", "worker": worker})
    if welcome.get("type") != "welcome":
        raise FleetError(f"expected welcome, got {welcome.get('type')!r}")
    lease_timeout = float(welcome.get("lease_timeout", 30.0))
    if poll_interval is None:
        poll_interval = check_poll_interval(welcome.get("poll_interval", 0.5))
    # a holding coordinator answers an idle ask once work exists (or
    # the hold runs out), so a `wait` is followed by the next ask at
    # once; an older one answers at once and the worker sleeps instead
    lease_ask: dict = {"type": "lease", "worker": worker}
    if welcome.get("hold") is True:
        lease_ask["hold"] = min(poll_interval, request_timeout / 2.0)
    own_store = store_path is None
    if own_store:
        store_path = tempfile.mkdtemp(prefix="repro-fleet-worker-")
    heartbeat_interval = max(lease_timeout / 4.0, 0.05)
    log.info(
        "worker %s joined fleet at %s:%d",
        worker,
        addr[0],
        addr[1],
        extra={"worker": worker},
    )

    class PlanContext:
        """One plan's execution state: the plan, its group table, the
        worker-local store, and the in-memory resume/drain index.

        The store is parsed once; afterwards ``recorded`` tracks it
        (this worker is the store's only writer), in append order —
        cell-level leasing makes leases frequent, and re-reading the
        whole JSONL per lease would be O(units x store size). A reused
        store may hold cells from other plans (or older budgets); only
        this plan's cells are ever resumed or uploaded.
        """

        def __init__(self, plan: "ExperimentPlan", path) -> None:
            self.plan = plan
            self.groups = plan.groups()
            self.plan_cells = {k.as_tuple() for k in plan.runs()}
            self.store = ResultsStore(path)
            self.recorded = {
                record_key(r): r for r in self.store.records()
            }
            self.drained_cells: set[tuple[str, str, int, str]] = set()

        def undrained_records(self) -> list[dict]:
            """This plan's local records the coordinator has not seen
            yet — everything undrained, not just the latest unit's
            fresh runs: a reused store resumes cells locally without
            re-running them, and those records must still reach the
            coordinator or its coverage check would requeue (and
            re-run) them forever."""
            return [
                r
                for key, r in self.recorded.items()
                if key in self.plan_cells and key not in self.drained_cells
            ]

    contexts: dict[str, PlanContext] = {}

    def context_for(plan_id, payload) -> PlanContext:
        """The (cached) execution context of one plan, built from the
        payload its first unit ships; the plan's store lives in its
        own file under the store directory."""
        if plan_id in contexts:
            return contexts[plan_id]
        if not isinstance(payload, dict):
            raise FleetError(
                f"unit for unknown plan {plan_id!r} without a plan payload"
            )
        plan = ExperimentPlan.from_dict(payload)
        os.makedirs(store_path, exist_ok=True)
        path = os.path.join(store_path, f"{plan_id}.jsonl")
        context = contexts[plan_id] = PlanContext(plan, path)
        log.info(
            "worker %s opened plan %s (%s, store %s)",
            worker,
            plan_id,
            plan.name,
            path,
            extra={"worker": worker, "plan": plan.name},
        )
        return context

    units_run = 0
    records_run = 0
    busy_seconds = 0.0
    wall_started = time.perf_counter()

    def drain_to_coordinator(plan_id) -> int:
        """Upload one context's undrained records (incremental: minus
        what earlier drains already delivered — a restart resets the
        set and re-uploads once; the coordinator merge dedupes)."""
        ctx = contexts.get(plan_id)
        if ctx is None:
            return 0
        fresh_records = ctx.undrained_records()
        payload = {
            "type": "records",
            "worker": worker,
            "plan_id": plan_id,
            "records": fresh_records,
        }
        rpc(payload)
        ctx.drained_cells.update(record_key(r) for r in fresh_records)
        return len(fresh_records)

    def summary(drained: bool) -> dict:
        wall_seconds = time.perf_counter() - wall_started
        idle_seconds = max(wall_seconds - busy_seconds, 0.0)
        obs = telemetry()
        obs.gauge("repro_worker_busy_seconds", worker=worker).set(
            busy_seconds
        )
        obs.gauge("repro_worker_idle_seconds", worker=worker).set(
            idle_seconds
        )
        obs.counter("repro_worker_units_total", worker=worker).inc(
            units_run
        )
        if clock_offset is not None:
            # final estimate, so the trace file's last clock_sync
            # is the freshest one timeline export will use
            obs.emit(
                {
                    "event": "clock_sync",
                    "time": time.time(),
                    "worker": worker,
                    "clock_offset": clock_offset,
                }
            )
        log.info(
            "worker %s %s: %d units, %d records, busy %.3fs / idle %.3fs",
            worker,
            "drained" if drained else "done",
            units_run,
            records_run,
            busy_seconds,
            idle_seconds,
            extra={
                "worker": worker,
                "units": units_run,
                "records": records_run,
                "busy_seconds": busy_seconds,
                "idle_seconds": idle_seconds,
            },
        )
        return {
            "worker": worker,
            "units": units_run,
            "records": records_run,
            "busy_seconds": busy_seconds,
            "idle_seconds": idle_seconds,
            "wall_seconds": wall_seconds,
            "clock_offset": clock_offset,
            "drained": drained,
            "store": str(store_path),
        }

    # each `complete` reply carries the next lease decision;
    # `reply = None` means "ask the coordinator"
    reply: dict | None = None
    while True:
        message = reply or rpc(lease_ask)
        reply = None
        kind = message.get("type")
        if kind == "unit":
            adopt_trace(message)
            lease = message.get("lease")
            plan_id = message.get("plan_id")
            ctx = context_for(plan_id, message.get("plan"))
            unit = WorkUnit.from_dict(message.get("unit") or {})
            log.info(
                "worker %s leased unit (lease %s, group %d, %d cells)",
                worker,
                lease,
                unit.group,
                unit.n_cells,
                extra={
                    "worker": worker,
                    "lease": lease,
                    "group": unit.group,
                    "cells": unit.n_cells,
                },
            )
            started = time.perf_counter()
            with _LeaseHeartbeat(
                addr,
                worker,
                lease,
                heartbeat_interval,
                request_timeout,
                token=auth_token,
                busy_base=busy_seconds,
                metrics=metrics_delta,
                plan_id=plan_id,
            ):
                runner = ExperimentRunner(store=ctx.store, progress=on_record)
                # hold the local store to the same resume contract as
                # any other store: a leased unit only resumes cells
                # recorded under this plan's per-system config digest
                (case, _), keys = ctx.groups[unit.group]
                for system in ctx.plan.systems:
                    runner.check_recorded_config(
                        ctx.recorded,
                        [k for k in keys if k.system == system],
                        ctx.plan.config_digest(case, system),
                    )
                fresh = runner.run_units(
                    ctx.plan, [unit], set(ctx.recorded)
                )
                if throttle:
                    # heterogeneity knob: the sleep happens inside the
                    # heartbeat window and before the timing cut, so
                    # the coordinator's throughput EMA sees it
                    time.sleep(throttle * unit.n_cells)
            ctx.recorded.update((record_key(r), r) for r in fresh)
            unit_seconds = time.perf_counter() - started
            busy_seconds += unit_seconds
            units_run += 1
            records_run += len(fresh)
            log.info(
                "worker %s finished unit (lease %s, group %d, "
                "%d records, %.3fs)",
                worker,
                lease,
                unit.group,
                len(fresh),
                unit_seconds,
                extra={
                    "worker": worker,
                    "lease": lease,
                    "group": unit.group,
                    "records": len(fresh),
                    "unit_seconds": unit_seconds,
                },
            )
            # 'stale' just means the lease expired under us; the records
            # are safe in the local store and the merge dedupes
            payload = {
                "type": "complete",
                "worker": worker,
                "plan_id": plan_id,
                "lease": lease,
                # per-unit timing + cumulative busy accounting: the
                # coordinator folds these into its utilization view and
                # cost model
                "telemetry": {
                    "unit_seconds": unit_seconds,
                    "busy_seconds": busy_seconds,
                    "records": len(fresh),
                    "cells": unit.n_cells,
                },
                "metrics": metrics_delta(),
                "sent_at": time.time(),
                # inline drain: the records ride the report, so the
                # worker owes nothing if it dies right after this
                "records": ctx.undrained_records(),
            }
            completion = rpc(payload)
            ctx.drained_cells.update(
                record_key(r) for r in payload["records"]
            )
            offset = completion.get("clock_offset")
            if isinstance(offset, (int, float)):
                # coordinator-measured clock offset: timeline export
                # shifts this worker's timestamps by the last estimate
                first = clock_offset is None
                clock_offset = float(offset)
                if first:
                    registry.emit(
                        {
                            "event": "clock_sync",
                            "time": time.time(),
                            "worker": worker,
                            "clock_offset": clock_offset,
                        }
                    )
            nxt = completion.get("next")
            if isinstance(nxt, dict):
                # the reply already decided our next move — no separate
                # lease round-trip
                reply = nxt
            if after_complete is not None:
                after_complete(unit.group)
        elif kind == "drain":
            plan_ids = (
                [message["plan_id"]]
                if "plan_id" in message
                else list(contexts)
            )
            drained_n = sum(drain_to_coordinator(p) for p in plan_ids)
            log.info(
                "worker %s drained %d records",
                worker,
                drained_n,
                extra={"worker": worker, "records": drained_n},
            )
        elif kind == "wait":
            if "hold" not in lease_ask:
                time.sleep(poll_interval)
        elif kind in ("done", "bye"):
            # "bye" is a graceful leave: every lease finished, every
            # record merged, nothing requeues. After either reply the
            # coordinator holds every record, so a temporary store
            # has nothing left to resume.
            if own_store:
                shutil.rmtree(store_path, ignore_errors=True)
            return summary(drained=kind == "bye")
        else:
            raise FleetError(f"unexpected coordinator reply {kind!r}")
