"""The five predictive systems of the ESS lineage.

Every system runs the same per-step DDM-MOS pipeline (OS → SS → CS →
PS, Figs. 1–3) over a reference fire; they differ in the Optimization
Stage:

* :class:`~repro.systems.ess.ESS` — classical GA, final population as
  the solution set (Fig. 1).
* :class:`~repro.systems.ess_ns.ESSNS` — **the paper's proposal**:
  Algorithm 1 (novelty-search GA), ``bestSet`` as the solution set,
  one-level Master/Worker (Fig. 3).
* :class:`~repro.systems.essim_ea.ESSIMEA` — two-level island GA
  (Monitor/Masters/Workers).
* :class:`~repro.systems.essim_de.ESSIMDE` — two-level island DE, with
  optional dynamic tuning (population restart, IQR).
* :class:`~repro.systems.essns_im.ESSNSIM` — two-level island ESS-NS,
  Algorithm 1 on each island (the paper's future-work variant).
"""

from repro.systems.problem import PredictionStepProblem
from repro.systems.results import StepResult, RunResult
from repro.systems.base import PredictionSystem
from repro.systems.ess import ESS, ESSConfig
from repro.systems.ess_ns import ESSNS, ESSNSConfig
from repro.systems.essim_ea import ESSIMEA, ESSIMEAConfig
from repro.systems.essim_de import ESSIMDE, ESSIMDEConfig
from repro.systems.essns_im import ESSNSIM, ESSNSIMConfig
from repro.systems.factory import SYSTEM_NAMES, build_system

__all__ = [
    "SYSTEM_NAMES",
    "build_system",
    "PredictionStepProblem",
    "StepResult",
    "RunResult",
    "PredictionSystem",
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
]
