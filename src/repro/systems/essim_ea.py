"""ESSIM-EA — two-level island Genetic Algorithm (§II-B).

Monitor / Masters / Workers: each island Master evolves its own GA
population; the Monitor receives every island's probability matrix,
Kign and calibration fitness and keeps the best candidate for the
prediction. Migration between islands combats per-island convergence.

In this reproduction the islands are logical
(:class:`repro.parallel.islands.IslandModel`) and the Monitor role is
played by the shared per-step driver
(:class:`repro.systems.base.PredictionSystem`), which already selects
the best (matrix, Kign) among the solution sets it receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.individual import genomes_matrix
from repro.core.scenario import ParameterSpace
from repro.ea.ga import GAConfig, GeneticAlgorithm
from repro.parallel.islands import IslandModel, IslandModelConfig
from repro.systems.base import OSOutput, PredictionSystem

__all__ = ["ESSIMEAConfig", "ESSIMEA"]


@dataclass(frozen=True)
class ESSIMEAConfig:
    """ESSIM-EA hyper-parameters: per-island GA + island topology."""

    ga: GAConfig = field(default_factory=lambda: GAConfig(population_size=25))
    islands: IslandModelConfig = field(default_factory=IslandModelConfig)
    max_generations: int = 15
    fitness_threshold: float = 1.0


class ESSIMEA(PredictionSystem):
    """Evolutionary Statistical System with Island Model (GA)."""

    name = "ESSIM-EA"
    config_type = ESSIMEAConfig

    def _optimize(
        self,
        evaluate,
        space: ParameterSpace,
        rng: np.random.Generator,
        step: int,
    ) -> OSOutput:
        model = IslandModel(
            lambda: GeneticAlgorithm(self.config.ga), self.config.islands
        )
        result = model.run(evaluate, space, self._termination(), rng=rng)
        return OSOutput(
            # One solution set per island: the Monitor (base driver)
            # aggregates, calibrates and selects among them.
            solution_sets=[genomes_matrix(pop) for pop in result.populations],
            best_fitness=float(result.best.fitness or 0.0),
            evaluations=result.evaluations,
        )
