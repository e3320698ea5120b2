"""ESS — the Evolutionary Statistical System baseline (Fig. 1).

One-level Master/Worker; the OS is a classical fitness-guided GA whose
**final evolved population** is the solution set handed to the
Statistical Stage — the design whose convergence to similar genotypes
§II-B identifies as the core limitation ESS-NS removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.individual import genomes_matrix
from repro.core.scenario import ParameterSpace
from repro.ea.ga import GAConfig, GeneticAlgorithm
from repro.systems.base import OSOutput, PredictionSystem

__all__ = ["ESSConfig", "ESS"]


@dataclass(frozen=True)
class ESSConfig:
    """ESS hyper-parameters: the GA plus the per-step stopping rule."""

    ga: GAConfig = field(default_factory=GAConfig)
    max_generations: int = 15
    fitness_threshold: float = 1.0


class ESS(PredictionSystem):
    """Evolutionary Statistical System (GA-driven OS)."""

    name = "ESS"
    config_type = ESSConfig

    def _optimize(
        self,
        evaluate,
        space: ParameterSpace,
        rng: np.random.Generator,
        step: int,
    ) -> OSOutput:
        result = GeneticAlgorithm(self.config.ga).run(
            evaluate, space, self._termination(), rng=rng
        )
        return OSOutput(
            solution_sets=[genomes_matrix(result.population)],
            best_fitness=float(result.best.fitness or 0.0),
            evaluations=result.evaluations,
        )
