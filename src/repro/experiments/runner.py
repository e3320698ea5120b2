"""Experiment execution: shared engine sessions, streaming results.

The :class:`ExperimentRunner` turns a declarative
:class:`~repro.experiments.plan.ExperimentPlan` into recorded runs:

* runs are executed as :class:`~repro.experiments.work.WorkUnit` units —
  a ``(case, backend)`` group index plus an explicit cell subset (see
  :meth:`ExperimentPlan.groups` and :mod:`repro.experiments.work`) —
  and every unit runs against **one shared**
  :class:`~repro.engine.EngineSession` — so when ESSIM-EA asks for a
  fitness value ESS already computed for the same step context, the
  shared cross-system cache answers instead of the simulator, and the
  standing worker pool is forked once per unit instead of once per
  run. Unit boundaries never change results: every cell is
  reproducible from ``(plan, seed)`` alone, so a whole-group unit and
  the same cells split across many units record identical bytes;
* every completed run streams one record into a
  :class:`~repro.experiments.store.ResultsStore`; re-running the same
  plan against the same store resumes, computing only the missing
  ``(system, case, seed, backend)`` cells;
* *where* the pending units execute is a pluggable
  :class:`~repro.distributed.executors.WorkExecutor` policy passed to
  :meth:`ExperimentRunner.run` — inline (the default), or a TCP worker
  fleet (:class:`~repro.distributed.executors.FleetExecutor`) that
  leases units cell-by-cell and steals from big groups by splitting
  them; ``--shards N``
  (:class:`~repro.distributed.executors.ProcessShardExecutor`) is that
  fleet with N local workers of its own on loopback.
  Every executor funnels work back through
  :meth:`ExperimentRunner.run_units` so resume semantics stay the
  store's run-key contract.

``run(plan, executor)`` is the one way to run a grid: the CLI, the
fleet, the service and the benchmarks all go through it.

The runner owns every session it creates: a crash mid-group (a raising
system, a dying callback) still closes the shared session before the
exception propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine import EngineSession
from repro.errors import ReproError
from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    plan_cost_model,
    record_residual,
)
from repro.experiments.plan import CaseSpec, ExperimentPlan, RunKey
from repro.experiments.store import (
    ResultsStore,
    backends_by_system,
    record_key,
    system_label,
)
from repro.experiments.work import WorkSet, WorkUnit
from repro.obs import span, telemetry
from repro.systems.results import RunResult
from repro.workloads.synthetic import ReferenceFire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.distributed.executors import WorkExecutor

__all__ = ["ExperimentResult", "ExperimentRunner"]


@dataclass
class ExperimentResult:
    """All records of one experiment execution (fresh + resumed).

    ``records`` follow the plan's grid order regardless of execution
    or resume order; ``n_resumed`` counts cells served from the store
    instead of being re-run.
    """

    plan_name: str
    records: list[dict] = field(default_factory=list)
    n_resumed: int = 0

    def __post_init__(self) -> None:
        self._totals: dict[str, dict] | None = None

    def runs(self) -> list[RunResult]:
        """Rehydrated :class:`RunResult` per record, in record order."""
        return [RunResult.from_dict(r["run"]) for r in self.records]

    def record(self, system: str, case: str, seed: int, backend: str) -> dict:
        """Look up one record by its run key."""
        for r in self.records:
            if record_key(r) == (system, case, seed, backend):
                return r
        raise ReproError(
            f"no record for ({system!r}, {case!r}, {seed}, {backend!r})"
        )

    # ------------------------------------------------------------------
    def per_system_totals(self) -> dict[str, dict]:
        """Aggregate engine/session accounting per system.

        The per-system cache-reuse view of the whole experiment: each
        run's ``session`` payload is that run's scope delta over the
        (possibly shared) session, so summing them per system never
        double-counts shared totals. A system whose records span
        several backends gets one row per backend (``system[backend]``,
        matching the sweep layer) — backends are never merged into one
        total. Computed once and memoised — ``records`` is
        append-complete by construction.
        """
        if self._totals is not None:
            return self._totals
        backends_of = backends_by_system(self.records)
        out: dict[str, dict] = {}
        for record in self.records:
            payload = record.get("run", {})
            totals = out.setdefault(
                system_label(record, backends_of),
                {
                    "runs": 0,
                    "steps": 0,
                    "evaluations": 0,
                    "simulations": 0,
                    "cache_hits": 0,
                    "cross_step_hits": 0,
                    "cross_system_hits": 0,
                    "seconds": 0.0,
                },
            )
            totals["runs"] += 1
            totals["seconds"] += float(record.get("seconds", 0.0))
            # read the step/session payloads directly — no need to
            # rehydrate a full RunResult per record just to sum counters
            for step in payload.get("steps", []):
                engine = step.get("engine") or {}
                totals["evaluations"] += int(engine.get("evaluations", 0))
                totals["simulations"] += int(engine.get("simulations", 0))
            session = payload.get("session") or {}
            totals["steps"] += int(session.get("steps", 0))
            totals["cache_hits"] += int(session.get("cache", {}).get("hits", 0))
            totals["cross_step_hits"] += int(session.get("cross_step_hits", 0))
            totals["cross_system_hits"] += int(
                session.get("cross_system_hits", 0)
            )
        self._totals = out
        return out

    def cross_system_hits(self) -> int:
        """Total cache hits served across system boundaries."""
        return sum(
            t["cross_system_hits"] for t in self.per_system_totals().values()
        )


class ExperimentRunner:
    """Executes experiment grids against shared engine sessions.

    Every work unit runs against one :class:`EngineSession` shared by
    all its cells; records are bitwise-identical to running each cell
    on its own session — sharing only moves cache hits.

    Parameters
    ----------
    store:
        Optional :class:`ResultsStore`; when given, every completed run
        is streamed into it and already-recorded cells are skipped on
        re-execution (crash-safe resume).
    session_factory:
        Constructor for unit sessions (an :class:`EngineSession`
        subclass or an instrumented test double); receives the same
        keyword arguments as :class:`EngineSession`.
    progress:
        Optional callback invoked with each freshly recorded run
        record. Exceptions it raises abort the experiment (after the
        record is persisted) but never leak the group session.
    slow_unit_factor:
        A unit slower than ``factor × predicted`` (against the
        plan-seeded :class:`UnitCostModel`) earns a ``slow_unit`` trace
        event; the observed/predicted ratio always lands in the
        ``repro_cost_residual_ratio`` histogram. Monitoring only —
        never changes what runs or what is recorded.
    """

    def __init__(
        self,
        store: ResultsStore | None = None,
        session_factory: Callable[..., EngineSession] | None = None,
        progress: Callable[[dict], None] | None = None,
        slow_unit_factor: float | None = None,
    ) -> None:
        self.store = store
        self.session_factory = session_factory or EngineSession
        self.progress = progress
        self.slow_unit_factor = (
            DEFAULT_SLOW_UNIT_FACTOR
            if slow_unit_factor is None
            else float(slow_unit_factor)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        plan: ExperimentPlan,
        executor: "WorkExecutor | None" = None,
    ) -> ExperimentResult:
        """Execute (or resume) a plan; returns the full grid's records.

        The plan plus the store's recorded cells compile into a
        :class:`WorkSet` of pending units; ``executor`` chooses *where*
        those units run (see :mod:`repro.distributed`; ``None`` means
        :class:`~repro.distributed.executors.InlineExecutor`). The
        resume bookkeeping here is executor-independent: recorded cells
        are excluded at compile time, configuration digests are checked
        per system, and the returned records follow plan order.
        """
        recorded = self._recorded_by_key()
        for (case, _), keys in plan.groups():
            for system in plan.systems:
                self.check_recorded_config(
                    recorded,
                    [k for k in keys if k.system == system],
                    plan.config_digest(case, system),
                )
        done = set(recorded)
        all_keys = [key.as_tuple() for key in plan.runs()]
        n_resumed = sum(1 for key in all_keys if key in done)
        if executor is None:
            # imported lazily: repro.distributed imports this module
            from repro.distributed.executors import InlineExecutor

            executor = InlineExecutor()
        # one `plan` root span per execution: the registry adopts its
        # trace context so every span below — including those emitted by
        # fleet workers, which receive the context over the wire —
        # hangs off this root under one trace_id
        registry = telemetry()
        previous = registry.trace_context()
        trace_id = (previous or {}).get("trace_id") or registry.new_trace_id()
        registry.adopt_trace(trace_id, (previous or {}).get("parent_span"))
        try:
            with span(
                "plan",
                plan=plan.name,
                runs=len(all_keys),
                resumed=n_resumed,
                executor=type(executor).__name__,
            ) as plan_span:
                registry.adopt_trace(trace_id, plan_span["id"])
                fresh = executor.execute(self, WorkSet.compile(plan, done))
        finally:
            registry.adopt_trace(
                (previous or {}).get("trace_id"),
                (previous or {}).get("parent_span"),
            )
        if fresh is None:
            # the executor's processes wrote through the store; re-read
            by_key = self._recorded_by_key()
        else:
            by_key = {**recorded, **{record_key(r): r for r in fresh}}
        records = [by_key[key] for key in all_keys if key in by_key]
        return ExperimentResult(
            plan_name=plan.name, records=records, n_resumed=n_resumed
        )

    def _recorded_by_key(self) -> dict[tuple, dict]:
        """One parse of the store's records, keyed for resume lookups."""
        if self.store is None:
            return {}
        return {record_key(r): r for r in self.store.records()}

    def check_recorded_config(
        self,
        recorded: dict[tuple, dict],
        keys: Sequence[RunKey],
        digest: str,
    ) -> None:
        """Refuse to resume cells recorded under another configuration.

        The run key names a cell but not its shape: without this check,
        re-running a grid with a changed case size/steps or budget
        against an old store would silently serve the stale results.
        Part of the executor SPI alongside :meth:`run_units` — fleet
        workers apply it to their *local* store before resuming a
        leased group, so a reused worker store is held to the same
        contract as a coordinator store.
        """
        for key in keys:
            stored = (recorded.get(key.as_tuple()) or {}).get("config")
            if stored is not None and stored != digest:
                raise ReproError(
                    f"results store {self.store.path} already records "
                    f"{key.as_tuple()} under a different configuration "
                    "(case size/steps or budget changed since it was "
                    "written); use a fresh store path or the original "
                    "invocation"
                )

    def run_units(
        self,
        plan: ExperimentPlan,
        units: Sequence[WorkUnit],
        done: set[tuple[str, str, int, str]],
    ) -> list[dict]:
        """Execute the pending cells of the given work units, in order.

        The executor SPI: every execution policy — inline or a fleet
        worker — ultimately calls this with the units
        it is responsible for, so the session-sharing and
        store-streaming semantics are identical everywhere. Each unit
        runs against one shared :class:`EngineSession` built for its
        group's ``(case, backend)`` context; cells in ``done`` are
        skipped (the resume contract, applied identically at every
        granularity); the session kwargs come from the plan-level
        budget (per-system budget overrides never touch the session
        shape, see :class:`ExperimentPlan`). A cell's record is
        independent of which unit delivered it — splitting or merging
        units never changes a byte of the store.
        """
        groups = plan.groups()
        records: list[dict] = []
        cost_model: UnitCostModel | None = None
        for unit in units:
            if not 0 <= unit.group < len(groups):
                raise ReproError(
                    f"work unit names group {unit.group}, but plan "
                    f"{plan.name!r} has {len(groups)} groups"
                )
            (case, backend), keys = groups[unit.group]
            by_cell = {k.as_tuple(): k for k in keys}
            foreign = [c for c in unit.cells if c not in by_cell]
            if foreign:
                raise ReproError(
                    f"work unit for group {unit.group} names cells outside "
                    f"that group: {foreign}"
                )
            pending = [
                by_cell[c] for c in unit.cells if c not in done
            ]
            if not pending:
                continue
            fire = case.build()
            obs = telemetry()
            obs.counter("repro_units_total", plan=plan.name).inc()
            obs.counter("repro_unit_cells_total", plan=plan.name).inc(
                len(pending)
            )
            if cost_model is None:
                cost_model = plan_cost_model(plan)
            kernel = UnitCostModel.kernel_key(case.name, backend)
            with span(
                "unit",
                plan=plan.name,
                group=unit.group,
                cells=unit.n_cells,
                pending=len(pending),
                case=case.name,
                backend=backend,
            ) as unit_span:
                records += self._run_cells(
                    plan, unit, case, backend, fire, pending
                )
            # judge the prediction the model held *before* this unit,
            # then teach it — later units in the same batch get
            # measured rates instead of plan priors
            record_residual(
                cost_model,
                kernel,
                len(pending),
                unit_span["seconds"],
                slow_factor=self.slow_unit_factor,
                plan=plan.name,
                group=unit.group,
            )
            cost_model.observe(kernel, len(pending), unit_span["seconds"])
        return records

    def _run_cells(
        self,
        plan: ExperimentPlan,
        unit: WorkUnit,
        case: CaseSpec,
        backend: str,
        fire: ReferenceFire,
        keys: Sequence[RunKey],
    ) -> list[dict]:
        """Run one unit's pending cells against one shared session.

        The ``finally`` is the lifecycle guarantee: whatever dies inside
        the loop — a system run, a store append, a progress callback —
        the unit's session is closed before the exception escapes the
        runner.
        """
        budget = plan.budget
        session = self.session_factory(
            backend=backend,
            n_workers=budget.n_workers,
            cache_size=budget.cache_size,
            session_cache_size=budget.session_cache_size,
        )
        # scheduling provenance (which unit delivered each cell) —
        # execution-dependent by definition, stripped by parity_view
        provenance = {"unit_group": unit.group, "unit_cells": unit.n_cells}
        records: list[dict] = []
        try:
            for key in keys:
                system = plan.build_system(key.system, backend)
                start = time.perf_counter()
                with span(
                    "run",
                    system=key.system,
                    case=key.case,
                    seed=key.seed,
                    backend=key.backend,
                ):
                    run = system.run(
                        fire,
                        rng=key.seed,
                        session=session,
                        scope_label=key.system,
                    )
                record = self._record(
                    key,
                    run,
                    time.perf_counter() - start,
                    plan.name,
                    plan.config_digest(case, key.system),
                    provenance,
                )
                if self.store is not None:
                    self.store.append(record)
                records.append(record)
                if self.progress is not None:
                    self.progress(record)
        finally:
            session.close()
        return records

    @staticmethod
    def _record(
        key: RunKey,
        run: RunResult,
        seconds: float,
        plan_name: str,
        config: str,
        provenance: dict,
    ) -> dict:
        quality = run.mean_quality()
        return {
            "plan": plan_name,
            "system": key.system,
            "case": key.case,
            "seed": key.seed,
            "backend": key.backend,
            "config": config,
            "quality": None if quality != quality else quality,
            "evaluations": run.total_evaluations(),
            # wall-clock of the whole run (experiment accounting) and
            # the summed stage timings (the sweep-table metric) are both
            # persisted so store round-trips reproduce either view
            "seconds": seconds,
            "run_seconds": run.total_time(),
            # constant record-format field: every run shares its unit's
            # session, and pinned record digests include the key
            "shared_session": True,
            "run": run.to_dict(),
            "telemetry": dict(provenance),
        }
