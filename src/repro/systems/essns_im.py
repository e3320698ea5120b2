"""ESSNS-IM — island-model ESS-NS (the §III-A/§IV future-work variant).

The paper simplifies ESS-NS to one level "to be able to analyse the
impact of NS alone", explicitly deferring "the implementation of
parallel and/or distributed methods such as an island model, which may
incorporate hybridization with fitness-based strategies" to future
work. This module implements that variant as the ESSIM Monitor
(:class:`repro.parallel.islands.IslandModel`) with Algorithm 1 on each
island:

* each island keeps a **persistent** archive and bestSet (the
  accumulators survive across migration epochs — losing the archive
  would reset each island's notion of novelty);
* the island model's ring or broadcast migration of the fittest
  individuals between islands;
* optional **hybrid guidance** on every island via
  :attr:`repro.ea.nsga.NoveltyGAConfig.fitness_weight` (the weighted
  fitness/novelty sum of the paper's ref [31]);
* the Monitor (the shared base driver) receives one bestSet per island
  and selects the best calibration candidate, exactly as in ESSIM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.archive import BestSet, NoveltyArchive
from repro.core.individual import Individual
from repro.core.scenario import ParameterSpace
from repro.ea.nsga import NoveltyGA, NoveltyGAConfig, NoveltyGAResult
from repro.ea.termination import Termination
from repro.parallel.islands import IslandModel, IslandModelConfig
from repro.rng import spawn
from repro.systems.base import OSOutput, PredictionSystem

__all__ = ["ESSNSIMConfig", "ESSNSIM"]


@dataclass(frozen=True)
class ESSNSIMConfig:
    """Island ESS-NS hyper-parameters.

    Every island runs Algorithm 1 with ``nsga``; ``nsga.fitness_weight
    > 0`` turns each island into a hybrid novelty/fitness searcher.
    ``islands`` is the :class:`~repro.parallel.islands.IslandModel`
    topology the islands run under.
    """

    nsga: NoveltyGAConfig = field(
        default_factory=lambda: NoveltyGAConfig(population_size=25)
    )
    islands: IslandModelConfig = field(default_factory=IslandModelConfig)
    max_generations: int = 15
    fitness_threshold: float = 1.0


@dataclass
class _NoveltyIsland:
    """One island: Algorithm 1 whose archive and bestSet outlive epochs."""

    nsga: NoveltyGA
    archive: NoveltyArchive
    best_set: BestSet

    def run(
        self,
        evaluate,
        space: ParameterSpace,
        termination: Termination,
        rng: np.random.Generator | int | None = None,
        initial_population: Sequence[Individual] | None = None,
    ) -> NoveltyGAResult:
        return self.nsga.run(
            evaluate,
            space,
            termination,
            rng=rng,
            initial_population=initial_population,
            archive=self.archive,
            best_set=self.best_set,
        )


class ESSNSIM(PredictionSystem):
    """Evolutionary Statistical System — Novelty Search, Island Model."""

    config_type = ESSNSIMConfig

    @property
    def name(self) -> str:
        """``ESSNS-IM``, suffixed ``(w=…)`` for hybrid guidance."""
        weight = self.config.nsga.fitness_weight
        return f"ESSNS-IM(w={weight:g})" if weight > 0 else "ESSNS-IM"

    def _optimize(
        self,
        evaluate,
        space: ParameterSpace,
        rng: np.random.Generator,
        step: int,
    ) -> OSOutput:
        nsga = self.config.nsga
        islands: list[_NoveltyIsland] = []
        archive_rngs: list[np.random.Generator] = []

        def island() -> _NoveltyIsland:
            # IslandModel.run spawns the island streams (children
            # 0..n-1 of ``rng``) before it builds the engines, so the
            # next child, n, parents the n archive streams.
            if not archive_rngs:
                archive_rngs.extend(
                    spawn(spawn(rng, 1)[0], self.config.islands.n_islands)
                )
            archive = NoveltyArchive(
                nsga.archive_capacity,
                policy=nsga.archive_policy,
                rng=archive_rngs[len(islands)],
            )
            islands.append(
                _NoveltyIsland(
                    NoveltyGA(nsga), archive, BestSet(nsga.best_set_capacity)
                )
            )
            return islands[-1]

        result = IslandModel(island, self.config.islands).run(
            evaluate, space, self._termination(), rng=rng
        )
        return OSOutput(
            solution_sets=[isl.best_set.genomes() for isl in islands],
            best_fitness=float(result.best.fitness or 0.0),
            evaluations=result.evaluations,
        )
