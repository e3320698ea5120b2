"""LRU scenario-result cache keyed on quantized genomes.

GA elitism and DE restarts re-submit identical (or near-identical)
individuals across generations; each re-submission would otherwise
re-run a full fire simulation. The cache maps a *quantized* genome —
every coordinate rounded to ``decimals`` decimal places — to its Eq. 3
fitness, so exact repeats and sub-resolution perturbations both skip
the simulator.

There is one cache class, :class:`SessionResultCache`, and the engine
reads it through a per-step :class:`SessionCacheView`. Both tiers are
instances of it: an :class:`~repro.engine.session.EngineSession`'s
run-scoped cache (``session_cache_size``) keeps entries across steps,
and without one each step gets a throwaway instance of
``cache_size`` entries that dies with the step.

Quantization semantics: two genomes that round to the same key share
one fitness value. At the default ``decimals=8`` the merged genomes
differ by less than 5·10⁻⁹ in every Table I coordinate — far below any
physically meaningful resolution — but a cached run is *not* guaranteed
bitwise-equal to an uncached one. Backends are only bitwise-verified
against each other with the cache disabled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

__all__ = [
    "CacheStats",
    "SessionResultCache",
    "SessionCacheView",
    "DEFAULT_CACHE_DECIMALS",
]

#: Default quantization, decimal places per genome coordinate.
DEFAULT_CACHE_DECIMALS = 8


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (all counters monotonic)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats record into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class SessionResultCache:
    """Bounded LRU keyed on ``(step-context digest, quantized genome)``.

    Every step engine reads it through a :class:`SessionCacheView` that
    bakes in the step's context digest. When one instance lives for a
    whole :class:`~repro.engine.session.EngineSession`, entries inserted
    by one step survive into later steps, so repeated evaluations of the
    same step context (re-calibration, system comparison on the same
    fire, sweep repeats) skip the simulator across step boundaries.

    Parameters
    ----------
    capacity:
        Maximum number of entries across *all* contexts; 0 disables
        (every lookup misses, nothing is stored).
    decimals:
        Quantization applied to every genome coordinate before keying.
    """

    capacity: int = 0
    decimals: int = DEFAULT_CACHE_DECIMALS
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ReproError(
                f"cache capacity must be >= 0, got {self.capacity}"
            )
        if self.decimals < 0:
            raise ReproError(
                f"cache decimals must be >= 0, got {self.decimals}"
            )
        # (context digest, genome key)
        #   -> (fitness, inserting step serial, inserting scope serial)
        self._data: OrderedDict[
            tuple[bytes, bytes], tuple[float, int, int]
        ] = OrderedDict()
        self._contexts: set[bytes] = set()
        self.cross_step_hits = 0
        self.cross_scope_hits = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether the cache can store anything."""
        return self.capacity > 0

    @property
    def n_contexts(self) -> int:
        """Distinct step-context digests seen so far."""
        return len(self._contexts)

    def __len__(self) -> int:
        return len(self._data)

    def key(self, genome: np.ndarray) -> bytes:
        """Quantized byte key of one genome.

        Adding ``0.0`` after rounding folds ``-0.0`` into ``+0.0`` so the
        two byte patterns of zero share one cache entry.
        """
        q = np.round(np.asarray(genome, dtype=np.float64), self.decimals) + 0.0
        return q.tobytes()

    def keys(self, genomes: np.ndarray) -> list[bytes]:
        """:meth:`key` of every row of a genome matrix, rounded in one
        pass (rounding is elementwise, so each key has the same bytes)."""
        q = np.round(np.asarray(genomes, dtype=np.float64), self.decimals) + 0.0
        return [row.tobytes() for row in q]

    def view(self, context: bytes, step: int, scope: int = 0) -> "SessionCacheView":
        """Per-step facade bound to one context digest.

        ``scope`` identifies the consumer sharing the store — one scope
        per system when several systems share a session — so hits served
        from an entry another scope inserted are counted separately
        (``cross_scope_hits``, the cross-system reuse).
        """
        self._contexts.add(context)
        return SessionCacheView(self, context, step, scope)

    # ------------------------------------------------------------------
    def lookup(
        self, context: bytes, key: bytes, step: int, scope: int = 0
    ) -> float | None:
        """Cached fitness for ``(context, key)``; counts cross-step/scope hits."""
        entry = self._data.get((context, key))
        if entry is None:
            self.stats.misses += 1
            return None
        self._data.move_to_end((context, key))
        self.stats.hits += 1
        if entry[1] != step:
            self.cross_step_hits += 1
        if entry[2] != scope:
            self.cross_scope_hits += 1
        return entry[0]

    def insert(
        self, context: bytes, key: bytes, fitness: float, step: int, scope: int = 0
    ) -> int:
        """Insert one entry; returns how many entries were evicted."""
        if not self.enabled:
            return 0
        full_key = (context, key)
        if full_key in self._data:
            self._data.move_to_end(full_key)
        self._data[full_key] = (float(fitness), step, scope)
        evicted = 0
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1
            evicted += 1
        return evicted

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._data.clear()


class SessionCacheView:
    """One step's window onto a :class:`SessionResultCache`.

    Exposes the interface the engine consumes (``enabled`` / ``keys`` /
    ``get`` / ``put`` / ``stats``);
    ``stats`` counts this step's traffic only, while the shared store
    accumulates the run totals.
    """

    def __init__(
        self,
        store: SessionResultCache,
        context: bytes,
        step: int,
        scope: int = 0,
    ) -> None:
        self._store = store
        self._context = context
        self._step = step
        self._scope = scope
        self.stats = CacheStats()

    @property
    def enabled(self) -> bool:
        """Whether the underlying session store can hold entries."""
        return self._store.enabled

    @property
    def context(self) -> bytes:
        """The step-context digest this view is bound to."""
        return self._context

    def key(self, genome: np.ndarray) -> bytes:
        """Quantized byte key of one genome."""
        return self._store.key(genome)

    def keys(self, genomes: np.ndarray) -> list[bytes]:
        """Quantized byte key of every row of a genome matrix."""
        return self._store.keys(genomes)

    def get(self, key: bytes) -> float | None:
        """Cached fitness for ``key`` in this step's context."""
        value = self._store.lookup(self._context, key, self._step, self._scope)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: bytes, fitness: float) -> None:
        """Insert one entry under this step's context."""
        self.stats.evictions += self._store.insert(
            self._context, key, float(fitness), self._step, self._scope
        )
