"""Algorithm 1 — the Novelty-based Genetic Algorithm with Multiple Solutions.

This is the paper's contribution: a classical GA re-targeted by the
Novelty Search paradigm. Exploration is guided *exclusively* by the
novelty score ρ(x) (Eq. 1 over the Eq. 2 fitness-difference behaviour
distance); the fitness function is only used to harvest results into
``bestSet``, which is the algorithm's output (Algorithm 1 line 21).

Line-by-line correspondence with the paper's pseudocode::

    1  population ← initializePopulation(N)        run(): space.sample
    2  archive ← ∅                                  NoveltyArchive(...)
    3  bestSet ← ∅                                  BestSet(...)
    4  generations ← 0
    5  maxFitness ← 0
    6  while generations < maxGen and maxFitness < fThreshold
    7      offspring ← generateOffspring(...)       roulette on novelty
    8-10   fitness for population ∪ offspring       cached, Workers
    11     noveltySet ← population∪offspring∪archive
    12-14  novelty for population ∪ offspring       novelty_scores(...)
    15     archive ← updateArchive(archive, offspring)
    16     population ← replaceByNovelty(...)       top-N by novelty
    17     bestSet ← updateBest(bestSet, offspring)
    18     maxFitness ← getMaxFitness(bestSet)
    19     generations ← generations + 1
    21 return bestSet

Deviations (all configurable, defaults faithful):

* Fitness evaluations are cached per individual; re-simulating an
  unchanged genome every generation would only waste Workers.
* In the first iteration the population has no novelty yet, so the
  roulette degenerates to uniform parent choice (see
  :func:`repro.ea.operators.roulette_wheel`).
* ``best_include_population=True`` additionally feeds the *initial*
  population into bestSet (the literal line 17 only ever adds
  offspring, silently discarding a lucky initial individual); default
  ``False`` = literal pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.archive import BestSet, NoveltyArchive
from repro.core.individual import Individual, fitness_vector, genomes_matrix
from repro.core.novelty import novelty_scores
from repro.core.scenario import ParameterSpace
from repro.ea.ga import (
    FitnessFunction,
    GAConfig,
    _evaluate_missing,
    generate_offspring,
    population_stats,
)
from repro.ea.history import EvolutionHistory, GenerationRecord
from repro.ea.termination import Termination
from repro.errors import EvolutionError
from repro.obs import span
from repro.rng import ensure_rng, spawn

__all__ = ["NoveltyGAConfig", "NoveltyGAResult", "NoveltyGA"]


@dataclass(frozen=True)
class NoveltyGAConfig:
    """Inputs of Algorithm 1 (plus the archive/bestSet capacities).

    Parameters
    ----------
    population_size:
        ``N`` — population size.
    n_offspring:
        ``m`` — offspring per generation (``None`` → same as ``N``).
    mutation_rate, crossover_rate:
        ``mR`` and ``cR``.
    k_neighbors:
        ``k`` — nearest neighbours in Eq. 1. ``None`` uses the whole
        reference set (the "entire population" variant, refs [14][28]).
    archive_capacity, best_set_capacity:
        Fixed sizes of the two accumulators (§III-B "fixed size archive
        and solution set").
    archive_policy:
        ``"novelty"`` (paper) or ``"random"`` (Doncieux-style ablation).
    signed_distance:
        Use the literal signed Eq. 2 (ablation; default absolute).
    best_include_population:
        See module docstring.
    fitness_weight:
        §IV "hybridization with fitness-based strategies" (Cuccu &
        Gomez 2011, the paper's ref [31]): selection and replacement
        use ``(1−w)·ρ̂(x) + w·fitness`` where ρ̂ is novelty normalised
        to [0, 1] per generation. 0 (default) is the paper's pure NS;
        1 degenerates to a fitness-guided GA that still maintains the
        archive and bestSet.
    selection / crossover / mutation:
        Operator choices, as :class:`repro.ea.ga.GAConfig`.
    """

    population_size: int = 50
    n_offspring: int | None = None
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    k_neighbors: int | None = 15
    archive_capacity: int = 100
    best_set_capacity: int = 25
    archive_policy: str = "novelty"
    signed_distance: bool = False
    best_include_population: bool = False
    fitness_weight: float = 0.0
    selection: str = "roulette"
    crossover: str = "one_point"
    mutation: str = "uniform_reset"

    def __post_init__(self) -> None:
        if self.k_neighbors is not None and self.k_neighbors < 1:
            raise EvolutionError(
                f"k_neighbors must be >= 1 or None, got {self.k_neighbors}"
            )
        if self.archive_policy not in ("novelty", "random"):
            raise EvolutionError(
                f"unknown archive policy {self.archive_policy!r}"
            )
        if not (0.0 <= self.fitness_weight <= 1.0):
            raise EvolutionError(
                f"fitness_weight must be in [0, 1], got {self.fitness_weight}"
            )
        # Delegate the common validations to GAConfig.
        self.as_ga_config()

    def as_ga_config(self) -> GAConfig:
        """The reproduction-operator subset, shared with the classical GA."""
        return GAConfig(
            population_size=self.population_size,
            n_offspring=self.n_offspring,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            elitism=0,  # replacement is novelty-elitist, handled here
            selection=self.selection,
            crossover=self.crossover,
            mutation=self.mutation,
        )

    @property
    def offspring_count(self) -> int:
        """Effective ``m``."""
        return self.n_offspring or self.population_size


@dataclass
class NoveltyGAResult:
    """Outcome of an Algorithm 1 run.

    ``best_set`` (the pseudocode's return value) is what the prediction
    systems feed to the Statistical Stage; the final ``population`` and
    ``archive`` are exposed for analysis.
    """

    best_set: BestSet
    population: list[Individual]
    archive: NoveltyArchive
    history: EvolutionHistory
    evaluations: int
    stop_reason: str

    @property
    def best(self) -> Individual:
        """The bestSet's fittest member (what an island Monitor reads)."""
        return self.best_set.members()[0]

    def best_genomes(self) -> np.ndarray:
        """Genome matrix of the bestSet (the OS output of Fig. 3)."""
        return self.best_set.genomes()


#: Observer signature: (generation, population, offspring, archive, best_set).
NoveltyObserver = Callable[
    [int, list[Individual], list[Individual], NoveltyArchive, BestSet], None
]


def _guidance_scores(
    individuals: Sequence[Individual], fitness_weight: float
) -> np.ndarray:
    """Search-guidance score: ρ(x), optionally blended with fitness.

    Novelty is shifted non-negative (the signed Eq. 2 variant can go
    below zero) and, when blending, normalised to [0, 1] per call so
    the two objectives share a scale (Cuccu & Gomez 2011).
    """
    rho = np.asarray([ind.novelty for ind in individuals], dtype=np.float64)
    if rho.size and rho.min() < 0:
        rho = rho - rho.min()
    if fitness_weight <= 0.0:
        return rho
    peak = rho.max()
    rho_hat = rho / peak if peak > 0 else rho
    fit = np.asarray([ind.fitness for ind in individuals], dtype=np.float64)
    return (1.0 - fitness_weight) * rho_hat + fitness_weight * fit


class NoveltyGA:
    """Executable form of Algorithm 1."""

    def __init__(self, config: NoveltyGAConfig | None = None) -> None:
        self.config = config or NoveltyGAConfig()

    def run(
        self,
        evaluate: FitnessFunction,
        space: ParameterSpace,
        termination: Termination,
        rng: np.random.Generator | int | None = None,
        initial_population: Sequence[Individual] | None = None,
        observer: NoveltyObserver | None = None,
        archive: NoveltyArchive | None = None,
        best_set: BestSet | None = None,
    ) -> NoveltyGAResult:
        """Run Algorithm 1 to termination (see class docstring).

        ``archive`` / ``best_set`` allow continuing accumulators across
        calls — the island ESS-NS variant advances each island in
        epochs and must not lose its memory between them. When omitted,
        fresh accumulators are created (Algorithm 1 lines 2–3).
        """
        cfg = self.config
        ga_cfg = cfg.as_ga_config()
        gen_rng = ensure_rng(rng)

        # Lines 1-5. The initial population is the *first* draw from the
        # caller's stream — the common-random-numbers alignment shared
        # by every EA core (GA and DE sample the same way), so matched-
        # budget systems compared under one seed start from the
        # identical sample and a shared experiment session can serve
        # their overlapping evaluations from its cross-system cache.
        # (spawn() derives children from the seed sequence, not the
        # generator state, so the auxiliary streams are unaffected.)
        if initial_population is None:
            genomes = space.sample(cfg.population_size, gen_rng)
            population = [Individual(genome=g) for g in genomes]
        else:
            if len(initial_population) != cfg.population_size:
                raise EvolutionError(
                    f"initial population size {len(initial_population)} != "
                    f"configured {cfg.population_size}"
                )
            population = [ind.copy() for ind in initial_population]
        archive_rng, loop_rng = spawn(gen_rng, 2)
        if archive is None:
            archive = NoveltyArchive(
                cfg.archive_capacity, policy=cfg.archive_policy, rng=archive_rng
            )
        if best_set is None:
            best_set = BestSet(cfg.best_set_capacity)
        history = EvolutionHistory()
        generations = 0
        evaluations = 0

        if cfg.best_include_population:
            evaluations += _evaluate_missing(population, evaluate)
            best_set.update(population)

        # Line 6.
        while termination.should_continue(generations, best_set.max_fitness()):
            # Line 7: parents chosen by novelty (uniform before any
            # exists), optionally blended with fitness (§IV hybrid).
            if all(ind.novelty is not None for ind in population):
                scores = _guidance_scores(population, cfg.fitness_weight)
            else:
                scores = np.ones(len(population))
            offspring = generate_offspring(
                population,
                scores,
                cfg.offspring_count,
                ga_cfg,
                space,
                loop_rng,
                generations + 1,
            )

            # Lines 8-10: fitness for population ∪ offspring (cached).
            combined = population + offspring
            with span("generation", algo="ns", generation=generations + 1):
                evaluations += _evaluate_missing(combined, evaluate)

            # Line 11: noveltySet = population ∪ offspring ∪ archive.
            combined_fitness = fitness_vector(combined)
            reference = (
                np.concatenate([combined_fitness, archive.fitness_values()])
                if len(archive)
                else combined_fitness
            )

            # Lines 12-14: novelty of population ∪ offspring.
            k = cfg.k_neighbors if cfg.k_neighbors is not None else reference.size
            rho = novelty_scores(
                combined_fitness,
                reference,
                k=k,
                exclude_self=True,
                signed=cfg.signed_distance,
            )
            for ind, value in zip(combined, rho):
                ind.novelty = float(value)

            # Line 15: archive update with the new offspring.
            archive.update(offspring)

            # Line 16: novelty-elitist replacement over the whole pool
            # (hybrid-blended when fitness_weight > 0).
            pool_scores = _guidance_scores(combined, cfg.fitness_weight)
            order = np.argsort(pool_scores)[::-1]
            population = [combined[i] for i in order[: cfg.population_size]]

            # Lines 17-19.
            best_set.update(offspring)
            generations += 1

            mx, mean, iqr, div = population_stats(population, space)
            history.append(
                GenerationRecord(
                    generation=generations,
                    max_fitness=best_set.max_fitness(),
                    mean_fitness=mean,
                    fitness_iqr=iqr,
                    mean_novelty=float(
                        np.mean([ind.novelty for ind in population])
                    ),
                    genotypic_diversity=div,
                    archive_size=len(archive),
                    best_set_size=len(best_set),
                    evaluations=evaluations,
                )
            )
            if observer is not None:
                observer(generations, population, offspring, archive, best_set)

        # Line 21.
        return NoveltyGAResult(
            best_set=best_set,
            population=population,
            archive=archive,
            history=history,
            evaluations=evaluations,
            stop_reason=termination.reason(generations, best_set.max_fitness()),
        )
