"""The :class:`SimulationEngine` facade — one call per genome batch.

The engine is the single entry point the prediction systems use on the
hot path. It composes three layers:

1. an optional result-cache view (a
   :class:`~repro.engine.cache.SessionCacheView` onto a
   :class:`~repro.engine.cache.SessionResultCache`) keyed on quantized
   genomes, so repeated individuals (GA elitism, DE restarts) skip
   simulation entirely;
2. an :class:`~repro.engine.backends.EngineBackend` kernel selected
   by name (``reference`` / ``vectorized``), run in-process or, with
   ``n_workers > 1``, in a worker pool;
3. evaluation accounting (requests vs. actual simulations) surfaced to
   the per-step results and the reporting layer.

The engine satisfies the ``FitnessFunction`` contract of the
evolutionary algorithms (callable ``(n, d) → (n,)`` with
``evaluations`` and ``close()``), so it drops in wherever a
:class:`~repro.parallel.executor.SerialEvaluator` was used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.backends import (
    ProcessBackend,
    StepSpec,
    backend_names,
    create_backend,
)
from repro.engine.cache import CacheStats
from repro.errors import ParallelError, ReproError
from repro.obs import telemetry

__all__ = ["EngineStats", "SimulationEngine"]


@dataclass
class EngineStats:
    """Per-engine accounting, embedded in each step's result record.

    ``evaluations`` counts genomes requested through the engine;
    ``simulations`` counts genomes actually handed to the backend — the
    difference is work the cache (and backend-level deduplication)
    saved. ``map_simulations`` counts genomes simulated for burned-map
    batches (the Statistical Stage), which never touch the cache.
    """

    backend: str = "reference"
    n_workers: int = 1
    evaluations: int = 0
    simulations: int = 0
    map_simulations: int = 0
    cache: CacheStats = field(default_factory=CacheStats)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "evaluations": self.evaluations,
            "simulations": self.simulations,
            "map_simulations": self.map_simulations,
            "cache": self.cache.to_dict(),
        }


class SimulationEngine:
    """Evaluates whole genome batches for one prediction step.

    Parameters
    ----------
    spec:
        The step description (terrain, start/real burned regions,
        horizon, parameter space, stencil).
    backend:
        Kernel name (``reference`` or ``vectorized``).
    n_workers:
        Worker processes: 1 evaluates in-process; above 1 the kernel
        runs inside each worker of a
        :class:`~repro.engine.backends.ProcessBackend` pool.
    cache:
        Optional result-cache view (a
        :class:`~repro.engine.cache.SessionCacheView`, handed out by
        :meth:`~repro.engine.session.EngineSession.for_step`); ``None``
        (the default) evaluates without a cache — cached runs are not
        bitwise-reproducible, see :mod:`repro.engine.cache`.
    pool:
        Optional externally-owned
        :class:`~repro.parallel.executor.ProcessPoolEvaluator` reused
        when ``n_workers > 1``; the engine then never forks its own
        workers and ``close()`` leaves the pool running.
    """

    def __init__(
        self,
        spec: StepSpec,
        backend: str = "reference",
        n_workers: int = 1,
        cache=None,
        pool=None,
    ) -> None:
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in backend_names():
            raise ReproError(
                f"unknown engine backend {backend!r}; choose from {backend_names()}"
            )
        self.spec = spec
        if n_workers > 1:
            self._backend = ProcessBackend(
                spec, inner=backend, n_workers=n_workers, pool=pool
            )
        else:
            self._backend = create_backend(backend, spec)
        self._cache = cache if cache is not None and cache.enabled else None
        self.stats = EngineStats(
            backend=backend,
            n_workers=getattr(self._backend, "n_workers", 1),
            cache=cache.stats if cache is not None else CacheStats(),
        )
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem,
        backend: str = "reference",
        n_workers: int = 1,
    ) -> "SimulationEngine":
        """Build an engine from anything shaped like a step problem.

        ``problem`` must expose ``terrain``, ``start_burned``,
        ``real_burned``, ``horizon``, ``space`` and ``n_neighbors`` —
        :class:`repro.systems.problem.PredictionStepProblem` does. The
        engine has no cache; :meth:`~repro.engine.session.EngineSession.
        for_step` builds cached ones.
        """
        return cls(
            StepSpec.from_problem(problem), backend=backend, n_workers=n_workers
        )

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The selected kernel's name."""
        return self.stats.backend

    @property
    def evaluations(self) -> int:
        """Genomes requested through the engine (evaluator contract)."""
        return self.stats.evaluations

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the scenario-result cache."""
        return self.stats.cache

    # ------------------------------------------------------------------
    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        return self.evaluate_batch(genomes)

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Fitness vector of a genome matrix, cache-first."""
        if self._closed:
            raise ParallelError("engine already closed")
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        n = genomes.shape[0]
        self.stats.evaluations += n
        if n == 0:
            return np.zeros(0)
        obs = telemetry()
        obs.counter(
            "repro_engine_evaluations_total", backend=self.backend_name
        ).inc(n)

        if self._cache is None:
            values = self._timed_fitness(genomes, n, obs)
            self.stats.simulations += n
            obs.counter(
                "repro_engine_cache_misses_total", backend=self.backend_name
            ).inc(n)
            return values

        out = np.empty(n, dtype=np.float64)
        pending: dict[bytes, list[int]] = {}
        for i, g in enumerate(genomes):
            key = self._cache.key(g)
            hit = self._cache.get(key)
            if hit is None:
                pending.setdefault(key, []).append(i)
            else:
                out[i] = hit
        misses = sum(len(indices) for indices in pending.values())
        obs.counter(
            "repro_engine_cache_hits_total", backend=self.backend_name
        ).inc(n - misses)
        obs.counter(
            "repro_engine_cache_misses_total", backend=self.backend_name
        ).inc(misses)
        if pending:
            rows = [indices[0] for indices in pending.values()]
            values = self._timed_fitness(genomes[rows], len(rows), obs)
            self.stats.simulations += len(rows)
            for (key, indices), value in zip(pending.items(), values):
                self._cache.put(key, float(value))
                out[indices] = value
        return out

    def burned_maps(self, genomes: np.ndarray) -> np.ndarray:
        """Simulated burned masks (the Statistical Stage input).

        Maps bypass the cache — only fitness values are cached — so the
        SS always aggregates freshly simulated maps.
        """
        if self._closed:
            raise ParallelError("engine already closed")
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        self.stats.map_simulations += genomes.shape[0]
        return self._backend.burned_map_batch(genomes)

    def _timed_fitness(self, genomes, expected: int, obs) -> np.ndarray:
        """Backend fitness batch, timed into the engine-batch histogram."""
        started = time.perf_counter()
        values = self._fitness(genomes, expected)
        elapsed = time.perf_counter() - started
        obs.histogram(
            "repro_engine_batch_seconds", backend=self.backend_name
        ).observe(elapsed)
        obs.counter(
            "repro_engine_simulations_total", backend=self.backend_name
        ).inc(expected)
        return values

    def _fitness(self, genomes: np.ndarray, expected: int) -> np.ndarray:
        values = np.asarray(
            self._backend.fitness_batch(genomes), dtype=np.float64
        ).reshape(-1)
        if values.shape != (expected,):
            raise ParallelError(
                f"backend {self.backend_name!r} returned {values.shape[0]} "
                f"fitness values for {expected} genomes"
            )
        return values

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources and freeze the stats (idempotent).

        After closing, :attr:`stats` is a detached snapshot: later
        mutation of the (possibly shared, session-owned) cache counters
        can no longer alter what this engine reports. Externally-owned
        pools are left running.
        """
        if not self._closed:
            self._backend.close()
            self.stats = EngineStats(
                backend=self.stats.backend,
                n_workers=self.stats.n_workers,
                evaluations=self.stats.evaluations,
                simulations=self.stats.simulations,
                map_simulations=self.stats.map_simulations,
                cache=CacheStats(**self.stats.cache.to_dict()),
            )
            self._closed = True

    def __enter__(self) -> "SimulationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
