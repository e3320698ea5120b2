"""Run-scoped engine session: persistent backends across prediction steps.

The predictive loop (OS → SS → PS → CS per step) used to rebuild the
whole :class:`~repro.engine.core.SimulationEngine` — process pool, LRU
cache, precomputed tables — inside the hot loop, once per step. An
:class:`EngineSession` owns everything whose lifetime is really the
*run*:

* the **worker pool** (whenever ``n_workers > 1``): forked once, then each step's terrain reaches the
  standing workers as a lightweight update message
  (:meth:`~repro.parallel.executor.ProcessPoolEvaluator.update_problem`)
  instead of a re-fork;
* the **cross-step result cache**
  (:class:`~repro.engine.cache.SessionResultCache`), keyed on
  ``(step-context digest, quantized genome)`` so results survive step
  boundaries and repeated step contexts — re-calibration, comparing
  systems on the same fire, sweep repeats — skip the simulator
  entirely. With it off, a positive ``cache_size`` gives each step a
  throwaway instance of the same class that dies with the step;
* run-level accounting (:class:`SessionStats`) threaded into
  :class:`~repro.systems.results.RunResult` and the reporting layer.

Per step, :meth:`EngineSession.for_step` hands out an ordinary
:class:`~repro.engine.core.SimulationEngine` view wired to the shared
pool and cache; closing the view is cheap and never tears down the
session-owned resources. It is the one place cached engines are built:
a :class:`~repro.systems.problem.PredictionStepProblem` without a
session gets its engine from a throwaway session too.

Sessions can also be shared *across systems* (the experiment layer's
``(case, backend)`` groups): each
:meth:`~repro.systems.base.PredictionSystem.run` borrowing the session
enters a :class:`SessionScope`, whose ``stats`` are the counter deltas
of that system alone — per-system views over the one shared cache.
Hits served from entries another scope inserted are counted as
``cross_system_hits``: the reuse only session sharing can provide.
Ownership stays with whoever constructed the session — borrowing a
session through ``run(..., session=...)`` never closes it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.engine.backends import StepSpec, backend_names
from repro.engine.cache import CacheStats, SessionResultCache
from repro.engine.core import SimulationEngine
from repro.errors import ReproError
from repro.obs import telemetry

__all__ = [
    "EngineSession",
    "SessionScope",
    "SessionStats",
    "step_context_digest",
]


def step_context_digest(spec: StepSpec) -> bytes:
    """Stable digest of everything that determines a step's fitness.

    Two specs share a digest exactly when a genome's Eq. 3 fitness is
    guaranteed identical under both: terrain geometry and rasters, the
    start/real burned regions, the horizon, the stencil and the
    parameter space all feed the hash.
    """
    h = hashlib.sha256()
    terrain = spec.terrain
    h.update(np.asarray([terrain.rows, terrain.cols], dtype=np.int64).tobytes())
    h.update(np.float64(terrain.cell_size).tobytes())
    for name in ("fuel", "slope", "aspect", "unburnable"):
        arr = getattr(terrain, name)
        if arr is None:
            h.update(b"\x00")
        else:
            h.update(b"\x01")
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.packbits(spec.start_burned).tobytes())
    h.update(np.packbits(spec.real_burned).tobytes())
    h.update(np.float64(spec.horizon).tobytes())
    h.update(np.int64(spec.n_neighbors).tobytes())
    for p in spec.space.specs:
        h.update(
            f"{p.name}:{p.low}:{p.high}:{int(p.integer)}:{int(p.circular)}".encode()
        )
    return h.digest()


@dataclass
class SessionStats:
    """Run-level engine accounting (the ``session`` block of a run).

    ``cache`` aggregates the cross-step store's hit/miss/eviction
    counters over the whole run; ``cross_step_hits`` is the subset of
    hits served from an entry inserted by an *earlier* step view — the
    reuse a per-step engine could never provide. ``cross_system_hits``
    is the subset served from an entry a *different scope* (another
    system sharing the session; repeat runs of one system share a
    scope) inserted — the reuse only session sharing provides.
    ``systems`` counts the distinct scope labels entered;
    ``pool_reuses`` counts steps that reused the standing worker pool
    instead of forking one.
    """

    backend: str = "reference"
    n_workers: int = 1
    steps: int = 0
    contexts: int = 0
    systems: int = 0
    pool_reuses: int = 0
    cross_step_hits: int = 0
    cross_system_hits: int = 0
    cache: CacheStats = field(default_factory=CacheStats)

    def minus(self, earlier: "SessionStats") -> "SessionStats":
        """Counter-wise difference against an earlier snapshot.

        The per-scope stat view over a shared session: everything that
        happened between two snapshots of one monotonically growing
        stats stream.
        """
        return SessionStats(
            backend=self.backend,
            n_workers=self.n_workers,
            steps=self.steps - earlier.steps,
            contexts=self.contexts - earlier.contexts,
            systems=self.systems - earlier.systems,
            pool_reuses=self.pool_reuses - earlier.pool_reuses,
            cross_step_hits=self.cross_step_hits - earlier.cross_step_hits,
            cross_system_hits=(
                self.cross_system_hits - earlier.cross_system_hits
            ),
            cache=CacheStats(
                hits=self.cache.hits - earlier.cache.hits,
                misses=self.cache.misses - earlier.cache.misses,
                evictions=self.cache.evictions - earlier.cache.evictions,
            ),
        )

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "steps": self.steps,
            "contexts": self.contexts,
            "systems": self.systems,
            "pool_reuses": self.pool_reuses,
            "cross_step_hits": self.cross_step_hits,
            "cross_system_hits": self.cross_system_hits,
            "cache": self.cache.to_dict(),
        }


class SessionScope:
    """One consumer's window onto a shared :class:`EngineSession`.

    A scope is entered per system run borrowing the session
    (:meth:`EngineSession.scoped`); its :attr:`stats` are the session's
    counter deltas between scope entry and exit — what *this* system
    contributed and reused, even though the cache and pool are shared.
    Exiting the scope freezes the delta; reading :attr:`stats` while
    the scope is active returns a live delta.

    Scopes are sequential by design (one active scope per session);
    they never own session resources — closing/exiting a scope never
    touches the pool or the cache.
    """

    def __init__(self, session: "EngineSession", label: str, serial: int) -> None:
        self._session = session
        self.label = label
        self.serial = serial
        self._entry = session.stats
        self._frozen: SessionStats | None = None

    @property
    def active(self) -> bool:
        """Whether the scope is still accumulating (not yet exited)."""
        return self._frozen is None

    @property
    def stats(self) -> SessionStats:
        """This scope's counter deltas (frozen once the scope exits)."""
        current = self._frozen if self._frozen is not None else self._session.stats
        return current.minus(self._entry)

    def close(self) -> None:
        """Freeze the delta and release the session's active-scope slot.

        The frozen delta is also folded into the process metric
        registry (``repro_session_*`` counters labelled by scope), so
        session-reuse effectiveness is observable without parsing run
        records.
        """
        if self._frozen is None:
            self._frozen = self._session.stats
            self._session._scope_exited(self)
            self._export_metrics()

    def _export_metrics(self) -> None:
        delta = self.stats
        obs = telemetry()
        labels = {"scope": self.label, "backend": delta.backend}
        for name, value in (
            ("repro_session_steps_total", delta.steps),
            ("repro_session_contexts_total", delta.contexts),
            ("repro_session_pool_reuses_total", delta.pool_reuses),
            ("repro_session_cross_step_hits_total", delta.cross_step_hits),
            (
                "repro_session_cross_system_hits_total",
                delta.cross_system_hits,
            ),
            ("repro_session_cache_hits_total", delta.cache.hits),
            ("repro_session_cache_misses_total", delta.cache.misses),
            ("repro_session_cache_evictions_total", delta.cache.evictions),
        ):
            if value > 0:
                obs.counter(name, **labels).inc(value)

    def __enter__(self) -> "SessionScope":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EngineSession:
    """Owns engine resources for one full multi-step run.

    Parameters
    ----------
    backend:
        Kernel name (``reference`` or ``vectorized``), applied to every
        step view.
    n_workers:
        Worker processes; above 1 one pool is forked lazily and reused
        by every step.
    cache_size:
        Per-step LRU capacity used only when the session cache is off
        (``session_cache_size == 0``); each step view then reads its own
        throwaway :class:`~repro.engine.cache.SessionResultCache`.
    session_cache_size:
        Capacity of the run-scoped cross-step cache; when positive it
        replaces the per-step cache entirely (one lookup path).
    """

    def __init__(
        self,
        backend: str = "reference",
        n_workers: int = 1,
        cache_size: int = 0,
        session_cache_size: int = 0,
    ) -> None:
        if backend not in backend_names():
            raise ReproError(
                f"unknown engine backend {backend!r}; choose from {backend_names()}"
            )
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        if cache_size < 0:
            raise ReproError(f"cache_size must be >= 0, got {cache_size}")
        if session_cache_size < 0:
            raise ReproError(
                f"session_cache_size must be >= 0, got {session_cache_size}"
            )
        self.backend = backend
        self.n_workers = n_workers
        self.cache_size = cache_size
        self._store = (
            SessionResultCache(capacity=session_cache_size)
            if session_cache_size > 0
            else None
        )
        self._pool = None
        self._steps = 0
        self._pool_reuses = 0
        self._scope: SessionScope | None = None
        self._scope_labels: dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def cache(self) -> SessionResultCache | None:
        """The cross-step store (``None`` when disabled)."""
        return self._store

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def stats(self) -> SessionStats:
        """Current run-level accounting snapshot."""
        return SessionStats(
            backend=self.backend,
            n_workers=(
                self._pool.n_workers if self._pool is not None else self.n_workers
            ),
            steps=self._steps,
            contexts=self._store.n_contexts if self._store is not None else 0,
            systems=len(self._scope_labels),
            pool_reuses=self._pool_reuses,
            cross_step_hits=(
                self._store.cross_step_hits if self._store is not None else 0
            ),
            cross_system_hits=(
                self._store.cross_scope_hits if self._store is not None else 0
            ),
            cache=(
                CacheStats(**self._store.stats.to_dict())
                if self._store is not None
                else CacheStats()
            ),
        )

    # ------------------------------------------------------------------
    def scoped(self, label: str) -> SessionScope:
        """Enter a per-consumer stat scope (one system of a shared run).

        Scopes are keyed by ``label``: two runs of the *same* system
        (repeat seeds of one sweep cell) share a scope identity, so
        cache hits between them count as cross-step reuse but not as
        ``cross_system_hits`` — that counter is reserved for hits
        served across genuinely different systems.

        Scopes are sequential: entering a new scope while another is
        active raises, because interleaved consumers would make the
        per-scope deltas meaningless.
        """
        if self._closed:
            raise ReproError(
                "engine session already closed; create a new session per run"
            )
        if self._scope is not None and self._scope.active:
            raise ReproError(
                f"session scope {self._scope.label!r} is still active; "
                "scopes must be sequential"
            )
        serial = self._scope_labels.get(label, len(self._scope_labels) + 1)
        scope = SessionScope(self, label, serial)  # snapshot before register
        self._scope_labels[label] = serial
        self._scope = scope
        return scope

    def _scope_exited(self, scope: SessionScope) -> None:
        if self._scope is scope:
            self._scope = None

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The session's persistent worker pool (forked on first use)."""
        if self._pool is None:
            # imported here: keep pool-less sessions import-light
            from repro.parallel.executor import ProcessPoolEvaluator

            self._pool = ProcessPoolEvaluator(None, n_workers=self.n_workers)
        else:
            self._pool_reuses += 1
        return self._pool

    def for_step(self, problem) -> SimulationEngine:
        """A per-step engine view wired to the session's resources.

        ``problem`` is anything shaped like a step problem (``terrain``,
        ``start_burned``, ``real_burned``, ``horizon``, ``space``,
        ``n_neighbors`` — or an actual :class:`StepSpec`). The returned
        engine is a full :class:`SimulationEngine`; its ``close()``
        releases only per-step state, never the pool or the cross-step
        cache. With the session cache off and ``cache_size > 0`` the
        engine reads a one-step :class:`SessionResultCache` of that
        capacity, so both tiers share one cache class.
        """
        if self._closed:
            raise ReproError(
                "engine session already closed; create a new session per run"
            )
        spec = StepSpec.from_problem(problem)
        self._steps += 1
        cache = None
        if self._store is not None:
            scope = self._scope.serial if self._scope is not None else 0
            cache = self._store.view(
                step_context_digest(spec), self._steps, scope
            )
        elif self.cache_size > 0:
            # the store lives as long as this step's engine: one
            # context, so no digest is needed to tell steps apart
            cache = SessionResultCache(capacity=self.cache_size).view(
                b"", self._steps
            )
        pool = None
        if self.n_workers > 1:
            pool = self._ensure_pool()
        return SimulationEngine(
            spec,
            backend=self.backend,
            n_workers=self.n_workers,
            cache=cache,
            pool=pool,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent); stats stay readable."""
        if self._closed:
            return
        if self._pool is not None:
            self._pool.close()
        self._closed = True

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
