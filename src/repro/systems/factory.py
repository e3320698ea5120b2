"""Declarative construction of prediction systems by name.

The experiment layer (and the CLI on top of it) refers to systems by
their lineage names — ``ess``, ``ess-ns``, ``essim-ea``, ``essim-de``,
``essns-im`` — plus a small budget (population, generations, workers).
:func:`build_system` turns that declarative description into a
configured :class:`~repro.systems.base.PredictionSystem`, with the
matched-budget conventions of the papers' comparisons baked in: the
island systems split the population across two islands, novelty search
derives its neighbourhood and bestSet sizes from the population.

Moved here from ``repro.cli`` so experiment plans (and their fleet
worker processes) can rebuild systems without importing the CLI.
"""

from __future__ import annotations

from repro.ea.de import DEConfig
from repro.ea.ga import GAConfig
from repro.ea.nsga import NoveltyGAConfig
from repro.errors import ReproError
from repro.parallel.islands import IslandModelConfig
from repro.systems.base import PredictionSystem
from repro.systems.ess import ESS, ESSConfig
from repro.systems.ess_ns import ESSNS, ESSNSConfig
from repro.systems.essim_de import ESSIMDE, ESSIMDEConfig
from repro.systems.essim_ea import ESSIMEA, ESSIMEAConfig
from repro.systems.essns_im import ESSNSIM, ESSNSIMConfig

__all__ = ["SYSTEM_NAMES", "build_system"]

#: The five systems of the lineage, in paper order.
SYSTEM_NAMES = ("ess", "ess-ns", "essim-ea", "essim-de", "essns-im")


def build_system(
    name: str,
    population: int = 16,
    generations: int = 6,
    n_workers: int = 1,
    tuning: str = "both",
    backend: str = "reference",
    cache_size: int = 0,
    session_cache_size: int = 0,
) -> PredictionSystem:
    """Construct a prediction system by name with matched budgets."""
    islands = IslandModelConfig(n_islands=2, migration_interval=2, n_migrants=2)
    half = max(4, population // 2)
    engine_opts = dict(
        n_workers=n_workers,
        backend=backend,
        cache_size=cache_size,
        session_cache_size=session_cache_size,
    )
    if name == "ess":
        return ESS(
            ESSConfig(ga=GAConfig(population_size=population),
                      max_generations=generations),
            **engine_opts,
        )
    if name == "ess-ns":
        return ESSNS(
            ESSNSConfig(
                nsga=NoveltyGAConfig(
                    population_size=population,
                    k_neighbors=max(2, population // 2),
                    best_set_capacity=max(4, (3 * population) // 4),
                ),
                max_generations=generations,
            ),
            **engine_opts,
        )
    if name == "essim-ea":
        return ESSIMEA(
            ESSIMEAConfig(
                ga=GAConfig(population_size=half),
                islands=islands,
                max_generations=generations,
            ),
            **engine_opts,
        )
    if name == "essim-de":
        return ESSIMDE(
            ESSIMDEConfig(
                de=DEConfig(population_size=half),
                islands=islands,
                max_generations=generations,
                tuning=tuning,
            ),
            **engine_opts,
        )
    if name == "essns-im":
        return ESSNSIM(
            ESSNSIMConfig(
                nsga=NoveltyGAConfig(
                    population_size=half,
                    k_neighbors=max(2, half // 2),
                    best_set_capacity=max(4, (3 * half) // 4),
                ),
                islands=islands,
                max_generations=generations,
            ),
            **engine_opts,
        )
    raise ReproError(
        f"unknown system {name!r}; choose from {SYSTEM_NAMES}"
    )
