"""Epoch-based island model — the ESSIM two-level hierarchy.

ESSIM-EA and ESSIM-DE organise the search as islands: a Monitor
coordinates several Masters, each evolving its own population with its
own Workers (§II-B). This module reproduces that topology logically: the
caller (the Monitor) advances every island by ``migration_interval``
generations (an *epoch*), then migration exchanges individuals, until a
shared generation budget or fitness threshold is met.

Any algorithm from :mod:`repro.ea` with the common
``run(evaluate, space, termination, rng, initial_population)``
interface can serve as the per-island engine: GA for ESSIM-EA, DE for
ESSIM-DE, and Algorithm 1 for ESSNS-IM (each island keeping its
archive and bestSet across epochs).

Migration topologies:

* ``"ring"`` — island *i* sends copies of its best individuals to
  island *(i+1) mod n*, replacing that island's worst (the classic
  unidirectional ring of the ESSIM papers).
* ``"broadcast"`` — the globally best island sends its top individuals
  to every other island.
* ``"none"`` — isolated islands (ablation baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.core.scenario import ParameterSpace
from repro.ea.history import EvolutionHistory
from repro.ea.termination import Termination
from repro.errors import ParallelError
from repro.rng import ensure_rng, spawn

__all__ = ["IslandAlgorithm", "IslandModelConfig", "IslandResult", "IslandModel"]


class IslandAlgorithm(Protocol):
    """Structural type of a per-island evolutionary engine."""

    def run(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        space: ParameterSpace,
        termination: Termination,
        rng: np.random.Generator | int | None = None,
        initial_population: Sequence[Individual] | None = None,
    ):  # -> result with .population, .best, .history, .evaluations
        ...


@dataclass(frozen=True)
class IslandModelConfig:
    """Topology and migration policy of the island model."""

    n_islands: int = 4
    migration_interval: int = 5
    n_migrants: int = 2
    topology: str = "ring"

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ParallelError(f"n_islands must be >= 1, got {self.n_islands}")
        if self.migration_interval < 1:
            raise ParallelError(
                f"migration_interval must be >= 1, got {self.migration_interval}"
            )
        if self.n_migrants < 0:
            raise ParallelError(f"n_migrants must be >= 0, got {self.n_migrants}")
        if self.topology not in ("ring", "broadcast", "none"):
            raise ParallelError(f"unknown topology {self.topology!r}")


@dataclass
class IslandResult:
    """Outcome of an island-model run.

    ``populations[i]`` is island *i*'s final population; ``best`` is the
    globally best individual; ``histories[i]`` the per-island evolution
    records (generation numbers are global across epochs).
    """

    populations: list[list[Individual]]
    best: Individual
    histories: list[EvolutionHistory]
    evaluations: int
    generations: int
    stop_reason: str


#: Between-epoch intervention hook (used by the ESSIM-DE tuning): takes
#: (epoch index, list of island populations) and returns possibly
#: modified populations.
Intervention = Callable[[int, list[list[Individual]]], list[list[Individual]]]


class IslandModel:
    """Monitor-level coordination of several island engines."""

    def __init__(
        self,
        algorithm_factory: Callable[[], IslandAlgorithm],
        config: IslandModelConfig | None = None,
    ) -> None:
        self._factory = algorithm_factory
        self.config = config or IslandModelConfig()

    def run(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        space: ParameterSpace,
        termination: Termination,
        rng: np.random.Generator | int | None = None,
        intervention: Intervention | None = None,
    ) -> IslandResult:
        """Evolve all islands to the shared termination condition.

        The generation budget of ``termination`` is global: with a
        budget of G and an interval of g, ⌈G/g⌉ epochs run, the last one
        possibly shortened. The fitness threshold is checked between
        epochs on the global best (the Monitor's view).
        """
        cfg = self.config
        root = ensure_rng(rng)
        island_rngs = spawn(root, cfg.n_islands)
        engines = [self._factory() for _ in range(cfg.n_islands)]

        populations: list[list[Individual] | None] = [None] * cfg.n_islands
        histories = [EvolutionHistory() for _ in range(cfg.n_islands)]
        evaluations = 0
        generations = 0
        best: Individual | None = None
        epoch = 0

        while termination.should_continue(
            generations, best.fitness if best is not None else 0.0  # type: ignore[arg-type]
        ):
            remaining = termination.max_generations - generations
            epoch_gens = min(cfg.migration_interval, remaining)
            epoch_term = Termination(
                max_generations=epoch_gens,
                fitness_threshold=termination.fitness_threshold,
            )
            for i, engine in enumerate(engines):
                result = engine.run(
                    evaluate,
                    space,
                    epoch_term,
                    rng=island_rngs[i],
                    initial_population=populations[i],
                )
                populations[i] = result.population
                evaluations += result.evaluations
                for record in result.history:
                    histories[i].append(
                        _offset_record(record, generations)
                    )
                if best is None or (result.best.fitness or 0.0) > (best.fitness or 0.0):
                    best = result.best.copy()
            generations += epoch_gens

            if intervention is not None:
                populations = list(
                    intervention(epoch, [list(p) for p in populations])  # type: ignore[arg-type]
                )

            if cfg.n_migrants > 0 and cfg.n_islands > 1 and cfg.topology != "none":
                self._migrate(populations)  # type: ignore[arg-type]
            epoch += 1

        assert best is not None  # at least one epoch always runs
        return IslandResult(
            populations=[list(p) for p in populations],  # type: ignore[arg-type]
            best=best,
            histories=histories,
            evaluations=evaluations,
            generations=generations,
            stop_reason=termination.reason(generations, best.fitness or 0.0),
        )

    # ------------------------------------------------------------------
    def _migrate(self, populations: list[list[Individual]]) -> None:
        cfg = self.config
        n = len(populations)

        def top(pop: list[Individual], k: int) -> list[Individual]:
            return sorted(
                pop, key=lambda ind: ind.fitness or 0.0, reverse=True
            )[:k]

        def replace_worst(pop: list[Individual], migrants: list[Individual]) -> None:
            pop.sort(key=lambda ind: ind.fitness or 0.0)
            for j, migrant in enumerate(migrants):
                if j < len(pop):
                    pop[j] = migrant.copy()

        if cfg.topology == "ring":
            emigrants = [top(pop, cfg.n_migrants) for pop in populations]
            for i in range(n):
                replace_worst(populations[(i + 1) % n], emigrants[i])
        elif cfg.topology == "broadcast":
            scores = [
                max((ind.fitness or 0.0) for ind in pop) for pop in populations
            ]
            source = int(np.argmax(scores))
            migrants = top(populations[source], cfg.n_migrants)
            for i in range(n):
                if i != source:
                    replace_worst(populations[i], migrants)


def _offset_record(record, offset: int):
    """Shift a GenerationRecord's counter into the global timeline."""
    from dataclasses import replace

    return replace(record, generation=record.generation + offset)
