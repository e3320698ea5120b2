"""Batched simulation engine with pluggable backends and a result cache.

The engine layer sits between the evolutionary systems and the fire
simulator: a :class:`SimulationEngine` evaluates an entire ``(n, 9)``
genome batch in one call through one of two kernels (``reference`` or
``vectorized``), in-process or in a worker pool when ``n_workers > 1``,
with an optional LRU result-cache view in front. An
:class:`EngineSession` scopes the expensive parts — worker pool,
cross-step result cache — to a whole multi-step run, handing out
per-step engine views. See :mod:`repro.engine.core` for the facade,
:mod:`repro.engine.backends` for the kernels,
:mod:`repro.engine.cache` for the cache semantics and
:mod:`repro.engine.session` for the run-scoped lifetime.
"""

from repro.engine.backends import (
    EngineBackend,
    ProcessBackend,
    ReferenceBackend,
    StepSpec,
    VectorizedBackend,
    backend_names,
    create_backend,
)
from repro.engine.cache import (
    CacheStats,
    SessionCacheView,
    SessionResultCache,
)
from repro.engine.core import EngineStats, SimulationEngine
from repro.engine.session import (
    EngineSession,
    SessionScope,
    SessionStats,
    step_context_digest,
)

__all__ = [
    "SimulationEngine",
    "EngineStats",
    "EngineSession",
    "SessionScope",
    "SessionStats",
    "step_context_digest",
    "StepSpec",
    "EngineBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "backend_names",
    "create_backend",
    "SessionResultCache",
    "SessionCacheView",
    "CacheStats",
]
