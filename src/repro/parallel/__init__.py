"""Parallel runtime: Master/Worker evaluation and the island hierarchy.

The paper's first version parallelises "only ... the evaluation of the
scenarios, i.e., in the simulation process and subsequent computation of
the fitness function" under a one-level Master/Worker design (§III-A).
This package provides that runtime plus the two-level Monitor/Masters/
Workers hierarchy the ESSIM systems use:

* :mod:`~repro.parallel.executor` — batch fitness evaluators: the
  one worker pool (:class:`ProcessPoolEvaluator`, which the engine
  runs on whenever ``n_workers > 1``) and its in-process reference
  (:class:`SerialEvaluator`). Both are drop-in ``FitnessFunction``
  callables for the algorithms in :mod:`repro.ea`.
* :mod:`~repro.parallel.islands` — epoch-based island model with
  migration (ring/broadcast topologies) used by ESSIM-EA / ESSIM-DE.
* :mod:`~repro.parallel.timing` — wall-clock instrumentation, speedup
  and efficiency metrics (experiment E3).
"""

from repro.parallel.executor import (
    BatchProblem,
    SerialEvaluator,
    ProcessPoolEvaluator,
)
from repro.parallel.islands import IslandModel, IslandModelConfig, IslandResult
from repro.parallel.timing import StageTimings, speedup, efficiency

__all__ = [
    "BatchProblem",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "IslandModel",
    "IslandModelConfig",
    "IslandResult",
    "StageTimings",
    "speedup",
    "efficiency",
]
