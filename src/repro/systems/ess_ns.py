"""ESS-NS — the paper's proposal (Fig. 3).

Identical skeleton to ESS with the two §III-A modifications:

1. the OS metaheuristic is the **NS-based GA** (Algorithm 1) — search
   guided by the novelty score ρ(x), red block of Fig. 3;
2. the OS output is the **bestSet** — the high-fitness individuals
   accumulated during the whole search — instead of the final evolved
   population, which lets the Statistical Stage combine scenarios from
   completely different regions of the search space.

The hierarchy is deliberately one-level Master/Worker (the paper
simplifies away the ESSIM islands to isolate the effect of NS; the
island variant lives in :mod:`repro.systems.essns_im`).

§IV variants implemented here:

* ``novel_fraction`` / ``random_fraction`` — "build a solution set not
  only according to fitness values but also by some criterion, like
  the addition of a percentage of novel or random solutions";
* ``archive_kind="threshold"`` — the dynamic novelty-threshold archive
  of Lehman & Stanley (the paper's ref [15]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.archive import ThresholdArchive
from repro.core.scenario import ParameterSpace
from repro.ea.nsga import NoveltyGA, NoveltyGAConfig
from repro.errors import EvolutionError
from repro.systems.base import OSOutput, PredictionSystem

__all__ = ["ESSNSConfig", "ESSNS"]


@dataclass(frozen=True)
class ESSNSConfig:
    """ESS-NS hyper-parameters: Algorithm 1 plus the stopping rule.

    ``novel_fraction`` and ``random_fraction`` divert that share of the
    solution set from the bestSet to (respectively) the most novel
    archive members and fresh uniform scenarios; their sum must stay
    below 1 so high-fitness solutions always anchor the prediction.
    ``archive_kind`` selects the fixed-capacity archive (``"bounded"``,
    the paper's first version) or the dynamic ``"threshold"`` archive.
    """

    nsga: NoveltyGAConfig = field(default_factory=NoveltyGAConfig)
    max_generations: int = 15
    fitness_threshold: float = 1.0
    novel_fraction: float = 0.0
    random_fraction: float = 0.0
    archive_kind: str = "bounded"

    def __post_init__(self) -> None:
        for name in ("novel_fraction", "random_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise EvolutionError(f"{name} must be in [0, 1), got {v}")
        if self.novel_fraction + self.random_fraction >= 1.0:
            raise EvolutionError(
                "novel_fraction + random_fraction must be < 1 so the "
                "solution set keeps a high-fitness core"
            )
        if self.archive_kind not in ("bounded", "threshold"):
            raise EvolutionError(
                f"archive_kind must be 'bounded' or 'threshold', got "
                f"{self.archive_kind!r}"
            )


class ESSNS(PredictionSystem):
    """Evolutionary Statistical System — Novelty Search."""

    name = "ESS-NS"
    config_type = ESSNSConfig

    def _optimize(
        self,
        evaluate,
        space: ParameterSpace,
        rng: np.random.Generator,
        step: int,
    ) -> OSOutput:
        cfg = self.config
        archive = (
            ThresholdArchive(max_size=cfg.nsga.archive_capacity)
            if cfg.archive_kind == "threshold"
            else None  # NoveltyGA builds the bounded archive itself
        )
        result = NoveltyGA(cfg.nsga).run(
            evaluate,
            space,
            self._termination(),
            rng=rng,
            archive=archive,
        )
        solution = self._compose_solution_set(result, space, rng)
        return OSOutput(
            # Fig. 3: the OS output is (rooted in) the bestSet, not the
            # final population.
            solution_sets=[solution],
            best_fitness=result.best_set.max_fitness(),
            evaluations=result.evaluations,
        )

    # ------------------------------------------------------------------
    def _compose_solution_set(
        self, result, space: ParameterSpace, rng: np.random.Generator
    ) -> np.ndarray:
        """§IV solution-set mixing: bestSet core + novel% + random%."""
        cfg = self.config
        best = result.best_genomes()
        total = max(len(result.best_set), 1)
        n_novel = int(round(cfg.novel_fraction * total))
        n_random = int(round(cfg.random_fraction * total))
        parts = [best]
        if n_novel > 0 and len(result.archive):
            novel = sorted(
                result.archive.members(),
                key=lambda ind: ind.novelty or 0.0,
                reverse=True,
            )[:n_novel]
            parts.append(np.stack([ind.genome for ind in novel]))
        if n_random > 0:
            parts.append(space.sample(n_random, rng))
        return np.vstack([p for p in parts if p.size])
