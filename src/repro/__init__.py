"""ESS-NS: a parallel Novelty Search metaheuristic for wildfire prediction.

Reproduction of *Strappa, Caymes-Scutari & Bianchini (2022), "A Parallel
Novelty Search Metaheuristic Applied to a Wildfire Prediction System"*
(arXiv:2207.11646), including every substrate the paper depends on:

* :mod:`repro.firelib` — a from-scratch Rothermel/NFFL fire simulator
  (the fireLib equivalent);
* :mod:`repro.core` — scenarios (Table I), Jaccard fitness (Eq. 3),
  novelty score (Eqs. 1–2), archive and bestSet;
* :mod:`repro.ea` — Algorithm 1 (novelty-search GA) plus the GA/DE
  baselines;
* :mod:`repro.parallel` — Master/Worker and island runtimes;
* :mod:`repro.stages` / :mod:`repro.systems` — the DDM-MOS pipeline
  and the four predictive systems (ESS, ESS-NS, ESSIM-EA, ESSIM-DE);
* :mod:`repro.tuning`, :mod:`repro.workloads`, :mod:`repro.analysis`.

Quickstart::

    from repro import ESSNS, grassland_case

    fire = grassland_case(size=60, n_steps=4)
    result = ESSNS(n_workers=4).run(fire, rng=42)
    print(result.mean_quality())
"""

from repro.version import __version__, PAPER
from repro.errors import (
    ReproError,
    ScenarioError,
    TerrainError,
    SimulationError,
    FitnessError,
    NoveltyError,
    EvolutionError,
    ParallelError,
    CalibrationError,
    WorkloadError,
)
from repro.grid import Terrain, IgnitionMap, fire_line
from repro.firelib import FireSimulator, Moisture
from repro.core import (
    ParameterSpace,
    Scenario,
    Individual,
    jaccard_fitness,
    novelty_scores,
    BestSet,
    NoveltyArchive,
    ThresholdArchive,
)
from repro.ea import (
    Termination,
    GAConfig,
    GeneticAlgorithm,
    NoveltyGAConfig,
    NoveltyGA,
    DEConfig,
    DifferentialEvolution,
)
from repro.parallel import (
    SerialEvaluator,
    ProcessPoolEvaluator,
    IslandModel,
    IslandModelConfig,
)
from repro.stages import aggregate_burned_maps, search_kign, predict
from repro.systems import (
    PredictionStepProblem,
    ESS,
    ESSConfig,
    ESSNS,
    ESSNSConfig,
    ESSIMEA,
    ESSIMEAConfig,
    ESSIMDE,
    ESSIMDEConfig,
    ESSNSIM,
    ESSNSIMConfig,
)
from repro.workloads import (
    ReferenceFire,
    make_reference_fire,
    grassland_case,
    heterogeneous_case,
    dynamic_wind_case,
    river_gap_case,
    DeceptiveLandscape,
)
from repro.analysis import compare_runs, format_run, format_comparison

__all__ = [
    "__version__",
    "PAPER",
    # errors
    "ReproError",
    "ScenarioError",
    "TerrainError",
    "SimulationError",
    "FitnessError",
    "NoveltyError",
    "EvolutionError",
    "ParallelError",
    "CalibrationError",
    "WorkloadError",
    # substrate
    "Terrain",
    "IgnitionMap",
    "fire_line",
    "FireSimulator",
    "Moisture",
    # core
    "ParameterSpace",
    "Scenario",
    "Individual",
    "jaccard_fitness",
    "novelty_scores",
    "BestSet",
    "NoveltyArchive",
    "ThresholdArchive",
    # ea
    "Termination",
    "GAConfig",
    "GeneticAlgorithm",
    "NoveltyGAConfig",
    "NoveltyGA",
    "DEConfig",
    "DifferentialEvolution",
    # parallel
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "IslandModel",
    "IslandModelConfig",
    # stages & systems
    "aggregate_burned_maps",
    "search_kign",
    "predict",
    "PredictionStepProblem",
    "ESS",
    "ESSConfig",
    "ESSNS",
    "ESSNSConfig",
    "ESSIMEA",
    "ESSIMEAConfig",
    "ESSIMDE",
    "ESSIMDEConfig",
    "ESSNSIM",
    "ESSNSIMConfig",
    # workloads & analysis
    "ReferenceFire",
    "make_reference_fire",
    "grassland_case",
    "heterogeneous_case",
    "dynamic_wind_case",
    "river_gap_case",
    "DeceptiveLandscape",
    "compare_runs",
    "format_run",
    "format_comparison",
]
