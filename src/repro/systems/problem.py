"""The OS-Worker job: simulate a scenario and score it (Eq. 3).

:class:`PredictionStepProblem` describes one prediction step: it carries
the terrain, the burned region at the step start (RFL_{i−1}), the real
burned region at the step end (RFL_i) and the step duration.
``evaluate_batch`` decodes genomes into scenarios, restarts the fire
simulator from the start region and returns the Jaccard fitness of each
simulated map — exactly the ``FS`` + ``FF`` box of Figs. 1/3.

The problem does not loop over the simulator itself: every batch goes
through a :class:`~repro.engine.SimulationEngine` holding the configured
backend (``reference`` by default) and result cache, built on first
use. Engines come from one place, ``EngineSession.for_step(...)``:
with a run-scoped :class:`~repro.engine.EngineSession` attached, the
engine is a view sharing the run's worker pool and cross-step cache;
without one, a throwaway in-process session builds it with a per-step
cache of ``cache_size`` entries. The problem itself stays in the
process that runs the system: island models run in-process
(:mod:`repro.parallel.islands`), and a pooled engine ships only the
step's rasters to its workers (see :mod:`repro.engine.backends`).
Pickling a problem drops its engine and session, which are rebuilt on
first use.
"""

from __future__ import annotations

import numpy as np

from repro.core.scenario import ParameterSpace
from repro.engine import EngineSession, SimulationEngine
from repro.errors import SimulationError
from repro.grid.terrain import Terrain

__all__ = ["PredictionStepProblem"]


class PredictionStepProblem:
    """Batch fitness problem for one prediction step.

    Parameters
    ----------
    terrain:
        The landscape.
    start_burned:
        Burned region at the step start (the region enclosed by
        RFL_{i−1}); the simulation restarts from it.
    real_burned:
        Really burned region at the step end (RFL_i); the Eq. 3
        reference. Pre-burned cells (= ``start_burned``) are excluded
        from the fitness per the paper.
    horizon:
        Step duration in minutes (t_i − t_{i−1}).
    space:
        Genome ↔ scenario codec (defaults to the Table I space).
    n_neighbors:
        Propagation stencil for the simulator.
    backend:
        Engine kernel evaluating this problem's batches. The problem's
        own engine is always in-process; pool fan-out happens one level
        up, in a :class:`~repro.engine.SimulationEngine` with
        ``n_workers > 1``.
    cache_size:
        LRU capacity of the per-step result cache used when no session
        is attached (0 = off). Each process holds its own cache.
    session:
        Optional run-scoped :class:`~repro.engine.EngineSession`; when
        given, :attr:`engine` is a ``session.for_step(self)`` view
        instead of a privately constructed engine. Dropped on pickling.
    """

    def __init__(
        self,
        terrain: Terrain,
        start_burned: np.ndarray,
        real_burned: np.ndarray,
        horizon: float,
        space: ParameterSpace | None = None,
        n_neighbors: int = 8,
        backend: str = "reference",
        cache_size: int = 0,
        session=None,
    ) -> None:
        self.terrain = terrain
        self.start_burned = np.asarray(start_burned, dtype=bool)
        self.real_burned = np.asarray(real_burned, dtype=bool)
        if self.start_burned.shape != terrain.shape:
            raise SimulationError(
                f"start_burned shape {self.start_burned.shape} != terrain "
                f"{terrain.shape}"
            )
        if self.real_burned.shape != terrain.shape:
            raise SimulationError(
                f"real_burned shape {self.real_burned.shape} != terrain "
                f"{terrain.shape}"
            )
        if not self.start_burned.any():
            raise SimulationError("start_burned must contain at least one cell")
        if horizon <= 0 or not np.isfinite(horizon):
            raise SimulationError(
                f"horizon must be a positive finite time: {horizon}"
            )
        self.horizon = float(horizon)
        self.space = space or ParameterSpace()
        self.n_neighbors = n_neighbors
        self.backend = backend
        self.cache_size = cache_size
        self._session = session
        self._engine: SimulationEngine | None = None

    # ------------------------------------------------------------------
    # Pickling: drop the engine and session (process-local; the session
    # owns the run's worker pool) — the engine is rebuilt on first use.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_engine"] = None
        state["_session"] = None
        return state

    def attach_session(self, session) -> None:
        """Route this problem's engine through a run-scoped session."""
        self._session = session
        self._engine = None

    @property
    def engine(self) -> SimulationEngine:
        """Process-local simulation engine (built on first use)."""
        if self._engine is None:
            session = self._session or EngineSession(
                backend=self.backend, cache_size=self.cache_size
            )
            self._engine = session.for_step(self)
        return self._engine

    def with_backend(self, backend: str) -> "PredictionStepProblem":
        """Copy of this problem evaluating through another backend."""
        return PredictionStepProblem(
            terrain=self.terrain,
            start_burned=self.start_burned,
            real_burned=self.real_burned,
            horizon=self.horizon,
            space=self.space,
            n_neighbors=self.n_neighbors,
            backend=backend,
            cache_size=self.cache_size,
        )

    # ------------------------------------------------------------------
    def burned_map(self, genome: np.ndarray) -> np.ndarray:
        """Simulated burned region at the step end for one genome."""
        return self.engine.burned_maps(np.asarray(genome, dtype=np.float64))[0]

    def burned_maps(self, genomes: np.ndarray) -> np.ndarray:
        """Stack of burned maps for a genome matrix — the SS input."""
        return self.engine.burned_maps(genomes)

    def evaluate_one(self, genome: np.ndarray) -> float:
        """Eq. 3 fitness of a single genome (cache-aware, like batches)."""
        return float(
            self.engine.evaluate_batch(np.asarray(genome, dtype=np.float64))[0]
        )

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Fitness vector of a genome matrix (the Worker loop)."""
        return self.engine.evaluate_batch(genomes)
