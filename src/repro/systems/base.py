"""The shared per-step prediction driver (the skeleton of Figs. 1–3).

Every system in the lineage runs the same loop over prediction steps;
only the Optimization Stage differs. :class:`PredictionSystem`
implements the loop; subclasses provide :meth:`_optimize`, returning one
or more *solution sets* (one per island — ESS and ESS-NS have exactly
one, the ESSIM systems one per island Master).

Per step *i* (paper §II-A):

1. **OS** — search scenarios against RFL_{i−1} → RFL_i (Workers
   simulate & evaluate).
2. **SS** — simulate the solution set(s) and aggregate into ignition-
   probability matrices.
3. **PS** — if a Kign from step *i−1* exists, threshold the current
   (Monitor-selected) matrix with it → PFL_i, scored against RFL_i.
4. **CS** — search Kign_i on the current matrix (per island; the
   Monitor keeps the best candidate for the next step).

The PS runs *before* the CS in code so the prediction never peeks at
the current step's calibration, matching the paper's data flow ("the
prediction cannot start at the first time instant").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.scenario import ParameterSpace
from repro.ea.termination import Termination
from repro.engine import EngineSession, backend_names
from repro.errors import ReproError
from repro.obs import span
from repro.parallel.timing import StageTimings
from repro.rng import ensure_rng, spawn
from repro.stages.calibration import search_kign
from repro.stages.prediction import predict
from repro.stages.statistical import aggregate_scenarios
from repro.systems.problem import PredictionStepProblem
from repro.systems.results import RunResult, StepResult
from repro.workloads.synthetic import ReferenceFire

__all__ = ["OSOutput", "PredictionSystem"]


@dataclass
class OSOutput:
    """What an Optimization Stage hands to the Statistical Stage.

    Attributes
    ----------
    solution_sets:
        One genome matrix per island (a single-element list for the
        one-level systems). Each matrix feeds one SS aggregation.
    best_fitness:
        Best single-scenario fitness found.
    evaluations:
        Simulator runs spent.
    """

    solution_sets: list[np.ndarray]
    best_fitness: float
    evaluations: int


class PredictionSystem(ABC):
    """Base class of ESS / ESS-NS / ESSIM-EA / ESSIM-DE / ESSNS-IM.

    A subclass declares its ``config_type`` (and ``name``) and
    implements :meth:`_optimize`; construction, the stopping rule and
    the per-step loop are shared.

    Parameters
    ----------
    config:
        The system's hyper-parameters, an instance of the subclass's
        ``config_type`` (``None`` → that type's defaults). Every config
        carries the per-step stopping rule (``max_generations``,
        ``fitness_threshold``) that :meth:`_termination` builds.
    n_workers:
        Worker processes for the fitness evaluation (1 = serial; the
        paper's Master/Worker parallelism kicks in above 1).
    space:
        Scenario space (defaults to Table I).
    backend:
        Simulation-engine kernel evaluating the genome batches
        (``reference`` / ``vectorized``); ``n_workers`` decides whether
        it runs in-process or in a worker pool.
    cache_size:
        LRU capacity of the per-step scenario-result cache (0 = off;
        ignored while the session cache is on).
    session_cache_size:
        Capacity of the run-scoped cross-step result cache shared by
        every step of a run (0 = off).
    """

    #: Subclass display name (used in result records and reports).
    name: str = "base"
    #: Subclass config dataclass; called with no arguments for defaults.
    config_type: ClassVar[type]

    def __init__(
        self,
        config: Any = None,
        n_workers: int = 1,
        space: ParameterSpace | None = None,
        backend: str = "reference",
        cache_size: int = 0,
        session_cache_size: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in backend_names():
            raise ReproError(
                f"unknown engine backend {backend!r}; choose from {backend_names()}"
            )
        if cache_size < 0:
            raise ReproError(f"cache_size must be >= 0, got {cache_size}")
        if session_cache_size < 0:
            raise ReproError(
                f"session_cache_size must be >= 0, got {session_cache_size}"
            )
        self.config = config or self.config_type()
        self.n_workers = n_workers
        self.space = space or ParameterSpace()
        self.backend = backend
        self.cache_size = cache_size
        self.session_cache_size = session_cache_size

    def _termination(self) -> Termination:
        """The per-step stopping rule (Algorithm 1 line 6: maxGen,
        fThreshold), global across islands for the island systems."""
        return Termination(
            max_generations=self.config.max_generations,
            fitness_threshold=self.config.fitness_threshold,
        )

    # ------------------------------------------------------------------
    @abstractmethod
    def _optimize(
        self,
        evaluate,
        space: ParameterSpace,
        rng: np.random.Generator,
        step: int,
    ) -> OSOutput:
        """Run the system's Optimization Stage for one step."""

    # ------------------------------------------------------------------
    def run(
        self,
        fire: ReferenceFire,
        rng: np.random.Generator | int | None = None,
        session: EngineSession | None = None,
        scope_label: str | None = None,
    ) -> RunResult:
        """Execute the full predictive process over a reference fire.

        Engine state whose lifetime is the run — the worker pool, the
        cross-step result cache — lives in one
        :class:`~repro.engine.EngineSession`; each step only borrows a
        view, so nothing expensive is rebuilt inside the hot loop.

        ``session`` optionally supplies an *externally owned* session
        (the experiment layer shares one across all systems of a
        ``(case, backend)`` group, so repeats of the same step context
        hit the shared cache across systems). The session then decides
        the engine configuration: every step evaluates on the
        *session's* backend, worker pool and caches — each step's
        problem mirrors the session's backend/cache settings — and the
        system's own
        ``backend``/``n_workers``/cache settings are not consulted
        (the step records report what actually ran — the session's
        engine). Callers sharing a session across systems should build
        matching systems, as the experiment runner does. A borrowed
        session is never closed here — ownership stays with the caller
        — and the run's ``session`` payload then carries this system's
        counter deltas only (its :class:`~repro.engine.SessionScope`
        view), not the whole shared session's totals. ``scope_label``
        names that scope (default: the system's display name); the
        experiment layer passes its own per-system label so two
        differently-configured instances of one system class are
        counted as distinct consumers.
        """
        root = ensure_rng(rng)
        step_rngs = spawn(root, fire.n_steps)
        result = RunResult(system=self.name)
        kign_prev: float | None = None
        owns_session = session is None
        if owns_session:
            session = EngineSession(
                backend=self.backend,
                n_workers=self.n_workers,
                cache_size=self.cache_size,
                session_cache_size=self.session_cache_size,
            )
        elif session.closed:
            raise ReproError(
                f"{self.name}: the provided engine session is already closed"
            )
        scope = session.scoped(scope_label or self.name)

        try:
            for step in range(1, fire.n_steps + 1):
                with span("step", system=self.name, step=step):
                    timings = StageTimings()
                    start = fire.start_mask(step)
                    real = fire.real_mask(step)
                    # the session decides the engine configuration;
                    # mirroring it into the problem makes a copy taken
                    # without the session (pickling drops it) evaluate
                    # as the session does, even when a borrowed session
                    # differs from the system's own settings
                    problem = PredictionStepProblem(
                        terrain=fire.terrain,
                        start_burned=start,
                        real_burned=real,
                        horizon=fire.step_horizon(step),
                        space=self.space,
                        backend=session.backend,
                        cache_size=session.cache_size,
                        session=session,
                    )
                    engine = problem.engine  # session.for_step(...) view
                    try:
                        with timings.measure("os"):
                            os_out = self._optimize(
                                engine, self.space, step_rngs[step - 1], step
                            )

                        # SS: one probability matrix per island
                        # (Master-side), simulated through the same
                        # engine so the step's accounting covers the
                        # solution-set maps too.
                        with timings.measure("ss"):
                            matrices = []
                            for genomes in os_out.solution_sets:
                                if genomes.size == 0:
                                    raise ReproError(
                                        f"{self.name}: empty solution set "
                                        f"at step {step}"
                                    )
                                matrices.append(
                                    aggregate_scenarios(engine, genomes)
                                )
                    finally:
                        # Snapshot *before* close: closing freezes the
                        # engine stats, and the shared session cache
                        # keeps mutating in later steps.
                        engine_stats = engine.stats.to_dict()
                        engine.close()

                    # CS per island; the Monitor keeps the best candidate.
                    with timings.measure("cs"):
                        calibrations = [
                            search_kign(m, real, pre_burned=start)
                            for m in matrices
                        ]
                        chosen = int(
                            np.argmax([c.fitness for c in calibrations])
                        )
                        calibration = calibrations[chosen]
                        matrix = matrices[chosen]

                    # PS with the previous step's Kign on the chosen
                    # matrix.
                    quality = float("nan")
                    if kign_prev is not None:
                        with timings.measure("ps"):
                            prediction = predict(
                                matrix,
                                kign_prev,
                                real_burned=real,
                                pre_burned=start,
                            )
                            quality = prediction.quality

                    kign_prev = calibration.kign
                    result.steps.append(
                        StepResult(
                            step=step,
                            kign=calibration.kign,
                            calibration_fitness=calibration.fitness,
                            prediction_quality=quality,
                            best_scenario_fitness=os_out.best_fitness,
                            n_solutions=int(
                                sum(g.shape[0] for g in os_out.solution_sets)
                            ),
                            evaluations=os_out.evaluations,
                            timings=timings,
                            engine=engine_stats,
                        )
                    )
        finally:
            scope.close()
            if owns_session:
                session.close()
        result.session = scope.stats.to_dict()
        return result
