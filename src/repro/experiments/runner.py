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
  :class:`~repro.distributed.executors.WorkExecutor` policy — inline
  (the default), local shard processes (``shards=N``), or a TCP worker
  fleet (:class:`~repro.distributed.coordinator.FleetExecutor`) that
  leases units cell-by-cell and steals from big groups by splitting
  them. Every executor funnels work back through
  :meth:`ExperimentRunner.run_units` so resume semantics stay the
  store's run-key contract.

The runner owns every session it creates: a crash mid-group (a raising
system, a dying callback) still closes the shared session before the
exception propagates.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.engine import EngineSession
from repro.errors import ReproError
from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    plan_cost_model,
    record_residual,
)
from repro.experiments.plan import ExperimentPlan, RunKey
from repro.experiments.store import (
    ResultsStore,
    backends_by_system,
    record_key,
    system_label,
)
from repro.experiments.work import WorkSet, WorkUnit
from repro.obs import span, telemetry
from repro.systems.base import PredictionSystem
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

    Parameters
    ----------
    store:
        Optional :class:`ResultsStore`; when given, every completed run
        is streamed into it and already-recorded cells are skipped on
        re-execution (crash-safe resume).
    share_sessions:
        When true (the default), each ``(case, backend)`` group runs
        against one shared :class:`EngineSession`; when false every run
        builds its own session (the pre-experiment-layer behaviour,
        kept for A/B comparisons and bitwise-equivalence tests).
    session_factory:
        Constructor for group sessions (an :class:`EngineSession`
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
        share_sessions: bool = True,
        session_factory: Callable[..., EngineSession] | None = None,
        progress: Callable[[dict], None] | None = None,
        slow_unit_factor: float | None = None,
    ) -> None:
        self.store = store
        self.share_sessions = share_sessions
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
        shards: int = 1,
        executor: "WorkExecutor | None" = None,
    ) -> ExperimentResult:
        """Execute (or resume) a plan; returns the full grid's records.

        The plan plus the store's recorded cells compile into a
        :class:`WorkSet` of pending units; ``executor`` chooses *where*
        those units run (see :mod:`repro.distributed`); ``shards=N`` is
        sugar for ``executor=ProcessShardExecutor(N)`` and the two are
        mutually exclusive. The resume bookkeeping here is
        executor-independent: recorded cells are excluded at compile
        time, configuration digests are checked per system, and the
        returned records follow plan order.
        """
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if executor is not None and shards != 1:
            raise ReproError(
                "pass either shards=N or an executor, not both — "
                "shards=N is shorthand for ProcessShardExecutor(N)"
            )
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
            from repro.distributed.executors import (
                InlineExecutor,
                ProcessShardExecutor,
            )

            executor = (
                InlineExecutor()
                if shards == 1
                else ProcessShardExecutor(shards)
            )
        # one `plan` root span per execution: the registry adopts its
        # trace context so every span below — including those emitted by
        # shard processes and fleet workers, which receive the context
        # over the wire — hangs off this root under one trace_id
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
                    "written — note plan-based and run_grid invocations "
                    "use different digest schemes, so a store is resumable "
                    "by the entry point that wrote it); use a fresh store "
                    "path or the original invocation"
                )

    def run_units(
        self,
        plan: ExperimentPlan,
        units: Sequence[WorkUnit],
        done: set[tuple[str, str, int, str]],
    ) -> list[dict]:
        """Execute the pending cells of the given work units, in order.

        The executor SPI: every execution policy — inline, a shard
        process, a fleet worker — ultimately calls this with the units
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
            budget = plan.budget
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
                records += self._execute_group(
                    fire=fire,
                    keys=pending,
                    make_system=lambda key, b=backend: plan.build_system(
                        key.system, b
                    ),
                    session_kwargs=dict(
                        backend=backend,
                        n_workers=budget.n_workers,
                        cache_size=budget.cache_size,
                        session_cache_size=budget.session_cache_size,
                    ),
                    plan_name=plan.name,
                    config={
                        system: plan.config_digest(case, system)
                        for system in plan.systems
                    },
                    unit_meta={
                        "unit_group": unit.group,
                        "unit_cells": unit.n_cells,
                    },
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

    # ------------------------------------------------------------------
    def run_grid(
        self,
        system_factories: Mapping[str, Callable[[], PredictionSystem]],
        cases: Mapping[str, ReferenceFire],
        seeds: Sequence[int],
        seed_offset: int = 0,
        name: str = "sweep",
    ) -> ExperimentResult:
        """Execute a pre-built grid (the :func:`run_sweep` contract).

        Unlike :meth:`run`, the systems arrive as opaque factories and
        the cases as materialised fires, so grouping reads each
        factory's engine configuration off a probe instance: factories
        with identical ``(backend, workers, cache sizes)`` share one
        session per case, mismatched ones get their own group. Resume
        digests are likewise probe-derived (:func:`_grid_digest`), a
        different scheme than :meth:`ExperimentPlan.config_digest` — a
        store written here resumes here, not through :meth:`run`, and
        vice versa.
        """
        if not system_factories:
            raise ReproError("need at least one system")
        if not cases:
            raise ReproError("need at least one case")
        if not seeds:
            raise ReproError("need at least one seed")
        recorded = self._recorded_by_key()
        done = set(recorded)
        probes = {label: factory() for label, factory in system_factories.items()}
        configs = {
            label: _engine_signature(probe) for label, probe in probes.items()
        }
        # search-config reprs (dataclass configs render deterministically)
        # fold the EA budget into the per-label resume digest
        search = {
            label: repr(getattr(probe, "config", None))
            for label, probe in probes.items()
        }
        by_signature: dict[tuple, list[str]] = {}
        for label in system_factories:
            by_signature.setdefault(configs[label], []).append(label)
        records: list[dict] = []
        n_resumed = 0
        for case_label, fire in cases.items():
            for signature, labels in by_signature.items():
                backend, n_workers, cache_size, session_cache_size = signature
                digests = {
                    label: _grid_digest(fire, signature, search[label])
                    for label in labels
                }
                keys = [
                    RunKey(label, case_label, seed_offset + seed, backend)
                    for label in labels
                    for seed in seeds
                ]
                for label in labels:
                    self.check_recorded_config(
                        recorded,
                        [k for k in keys if k.system == label],
                        digests[label],
                    )
                pending = [k for k in keys if k.as_tuple() not in done]
                n_resumed += len(keys) - len(pending)
                if not pending:
                    continue
                records += self._execute_group(
                    fire=fire,
                    keys=pending,
                    make_system=lambda key: system_factories[key.system](),
                    session_kwargs=dict(
                        backend=backend,
                        n_workers=n_workers,
                        cache_size=cache_size,
                        session_cache_size=session_cache_size,
                    ),
                    plan_name=name,
                    config=digests,
                )
        # grid order (system-major) regardless of execution/resume order,
        # matching ExperimentResult's documented ordering contract
        by_key = {**recorded, **{record_key(r): r for r in records}}
        wanted = [
            RunKey(label, case_label, seed_offset + seed, configs[label][0])
            for label in system_factories
            for case_label in cases
            for seed in seeds
        ]
        records = [
            by_key[k.as_tuple()] for k in wanted if k.as_tuple() in by_key
        ]
        return ExperimentResult(
            plan_name=name, records=records, n_resumed=n_resumed
        )

    # ------------------------------------------------------------------
    def _execute_group(
        self,
        fire: ReferenceFire,
        keys: Sequence[RunKey],
        make_system: Callable[[RunKey], PredictionSystem],
        session_kwargs: dict,
        plan_name: str,
        config: str | Mapping[str, str] | None = None,
        unit_meta: dict | None = None,
    ) -> list[dict]:
        """Run one group's pending cells against one shared session.

        The ``finally`` is the lifecycle guarantee: whatever dies inside
        the loop — a system run, a store append, a progress callback —
        the group's shared session is closed before the exception
        escapes the runner. ``unit_meta`` is the scheduling provenance
        attached to each record's ``telemetry`` block (and stripped by
        :func:`~repro.experiments.store.parity_view`).
        """
        session = (
            self.session_factory(**session_kwargs)
            if self.share_sessions
            else None
        )
        records: list[dict] = []
        try:
            for key in keys:
                system = make_system(key)
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
                seconds = time.perf_counter() - start
                digest = (
                    config.get(key.system)
                    if isinstance(config, Mapping)
                    else config
                )
                record = self._record(
                    key, run, seconds, plan_name, digest, unit_meta
                )
                if self.store is not None:
                    self.store.append(record)
                records.append(record)
                if self.progress is not None:
                    self.progress(record)
        finally:
            if session is not None:
                session.close()
        return records

    def _record(
        self,
        key: RunKey,
        run: RunResult,
        seconds: float,
        plan_name: str,
        config: str | None,
        unit_meta: dict | None = None,
    ) -> dict:
        quality = run.mean_quality()
        record = {
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
            "shared_session": self.share_sessions,
            "run": run.to_dict(),
        }
        if unit_meta is not None:
            # scheduling provenance (which unit delivered this cell) —
            # execution-dependent by definition, stripped by parity_view
            record["telemetry"] = dict(unit_meta)
        return record


def _engine_signature(system: PredictionSystem) -> tuple:
    """The session-compatibility key of one system instance."""
    return (
        system.backend,
        system.n_workers,
        system.cache_size,
        system.session_cache_size,
    )


def _grid_digest(fire: ReferenceFire, signature: tuple, search: str) -> str:
    """Configuration digest of a pre-built grid cell (``run_grid``).

    Factories are opaque, so the digest covers what is observable: the
    fire's actual shape (terrain dimensions, cell size, step count —
    not the free-form description, which need not encode any of it),
    the engine signature and the probe system's search-config repr
    (the EA budget). Coarser than
    :meth:`ExperimentPlan.config_digest` but it catches the common
    resume foot-guns of re-pointing an old store at a differently
    shaped grid or a re-budgeted factory.
    """
    terrain = fire.terrain
    payload = json.dumps(
        {
            "fire": fire.description,
            "shape": [int(terrain.rows), int(terrain.cols)],
            "cell_size": float(terrain.cell_size),
            "n_steps": int(fire.n_steps),
            "engine": list(signature),
            "search": search,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
