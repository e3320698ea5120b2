"""Experiment orchestration: declarative plans, shared sessions, streams.

The layer between the CLI and the prediction systems. A declarative
:class:`ExperimentPlan` (systems × cases × seeds × backends × budget,
JSON-shareable) is executed by an :class:`ExperimentRunner` that groups
runs by ``(case, backend)`` and drives each group through **one shared**
:class:`~repro.engine.EngineSession` — cross-system repeats of the same
step context hit the shared cache — while streaming one record per
completed run into a crash-safe :class:`ResultsStore` (JSONL; re-running
the same plan resumes by skipping recorded cells). Execution's currency
is the sliceable :class:`WorkUnit` — a group plus an explicit cell
subset (:mod:`repro.experiments.work`); *where* the pending units
execute is a pluggable :mod:`repro.distributed` executor policy:
inline, or a TCP worker fleet (remote workers, or local ones on
loopback) with cell-level leasing and within-group work stealing —
resume stays the store's run-key contract under both.

See :mod:`repro.experiments.plan`, :mod:`repro.experiments.runner`,
:mod:`repro.experiments.work`, :mod:`repro.experiments.store` and
:mod:`repro.distributed` for the pieces.
"""

from repro.experiments.costs import UnitCostModel
from repro.experiments.plan import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    RunKey,
)
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.store import ResultsStore, record_key
from repro.experiments.work import WorkSet, WorkUnit

__all__ = [
    "BudgetSpec",
    "CaseSpec",
    "ExperimentPlan",
    "RunKey",
    "ExperimentResult",
    "ExperimentRunner",
    "ResultsStore",
    "UnitCostModel",
    "WorkSet",
    "WorkUnit",
    "record_key",
]
