"""Declarative experiment plans: systems × cases × seeds × backends.

The paper's deliverable is a *grid* — every prediction system run on
every case over repeated seeds — yet ad-hoc loops hide the grid inside
code. An :class:`ExperimentPlan` makes it a value: a JSON-serializable
description of which systems run on which cases under which seeds,
engine backends and search budgets. Plans are shareable artifacts
(``save_json`` / ``load_json``), and together with the per-run seed
recorded in every :mod:`~repro.experiments.store` record they make any
archived result reproducible without the code that produced it.

:meth:`ExperimentPlan.groups` is the scheduling contract the runner
relies on: runs are grouped by ``(case, backend)``, because every run
in such a group evaluates genomes against the *same* step contexts —
the unit that can share one :class:`~repro.engine.EngineSession` (and
its cross-system result cache) — while distinct groups are fully
independent and can execute in separate worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterator, Mapping

from repro.engine import backend_names
from repro.errors import ReproError
from repro.systems.factory import SYSTEM_NAMES, build_system
from repro.workloads.cases import CASE_BUILDERS
from repro.workloads.synthetic import ReferenceFire

__all__ = ["BudgetSpec", "CaseSpec", "ExperimentPlan", "RunKey"]


@dataclass(frozen=True)
class CaseSpec:
    """One benchmark case of a plan: builder name + shape knobs."""

    #: Floors of the shape knobs (the CLI's ``--size``/``--steps`` too).
    MIN_SIZE: ClassVar[int] = 8
    MIN_STEPS: ClassVar[int] = 2

    name: str
    size: int = 44
    steps: int = 3

    def __post_init__(self) -> None:
        if self.name not in CASE_BUILDERS:
            raise ReproError(
                f"unknown case {self.name!r}; choose from "
                f"{sorted(CASE_BUILDERS)}"
            )
        if self.size < self.MIN_SIZE:
            raise ReproError(
                f"case size must be >= {self.MIN_SIZE}, got {self.size}"
            )
        if self.steps < self.MIN_STEPS:
            # make_reference_fire requires >= 2 steps; failing here keeps
            # the error at plan validation instead of mid-run
            raise ReproError(
                f"case steps must be >= {self.MIN_STEPS}, got {self.steps}"
            )

    def build(self) -> ReferenceFire:
        """The reference fire this spec describes, built once per process.

        Building runs the reference simulator, and every work unit of a
        ``(case, backend)`` group needs the same fire, so equal specs
        share one cached object (the last 16 distinct specs are kept;
        case builders draw no random numbers, so a rebuild would be
        identical). The shared fire's burned masks and terrain rasters
        are read-only: a consumer that writes to them raises
        ``ValueError`` instead of corrupting every later run.
        """
        return _build_case(self.name, self.size, self.steps)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {"name": self.name, "size": self.size, "steps": self.steps}

    @classmethod
    def from_dict(cls, data: dict) -> "CaseSpec":
        """Inverse of :meth:`to_dict` (bare strings name a default case)."""
        if isinstance(data, str):
            return cls(name=data)
        return cls(
            name=str(data["name"]),
            size=int(data.get("size", 44)),
            steps=int(data.get("steps", 3)),
        )


@functools.lru_cache(maxsize=16)
def _build_case(name: str, size: int, steps: int) -> ReferenceFire:
    fire = CASE_BUILDERS[name](size=size, n_steps=steps)
    terrain = fire.terrain
    rasters = (terrain.fuel, terrain.slope, terrain.aspect, terrain.unburnable)
    for array in (*fire.burned_masks, *rasters):
        if array is not None:
            array.setflags(write=False)
    return fire


@dataclass(frozen=True)
class BudgetSpec:
    """Search/engine budget applied to every run of a plan."""

    #: Floors of the budget knobs (the CLI's budget flags too).
    MIN_POPULATION: ClassVar[int] = 4
    MIN_GENERATIONS: ClassVar[int] = 1
    MIN_WORKERS: ClassVar[int] = 1
    MIN_CACHE_SIZE: ClassVar[int] = 0

    population: int = 16
    generations: int = 6
    n_workers: int = 1
    tuning: str = "both"
    cache_size: int = 0
    session_cache_size: int = 0

    def __post_init__(self) -> None:
        if self.population < self.MIN_POPULATION:
            raise ReproError(
                f"population must be >= {self.MIN_POPULATION}, "
                f"got {self.population}"
            )
        if self.generations < self.MIN_GENERATIONS:
            raise ReproError(
                f"generations must be >= {self.MIN_GENERATIONS}, "
                f"got {self.generations}"
            )
        if self.n_workers < self.MIN_WORKERS:
            raise ReproError(
                f"n_workers must be >= {self.MIN_WORKERS}, got {self.n_workers}"
            )
        if self.tuning not in ("none", "restart", "iqr", "both"):
            # ESSIMDEConfig's modes, checked here so a typo fails at
            # plan validation instead of mid-sweep at system build time
            raise ReproError(
                f"unknown tuning mode {self.tuning!r}; choose from "
                "('none', 'restart', 'iqr', 'both')"
            )
        if min(self.cache_size, self.session_cache_size) < self.MIN_CACHE_SIZE:
            raise ReproError(f"cache sizes must be >= {self.MIN_CACHE_SIZE}")

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "population": self.population,
            "generations": self.generations,
            "n_workers": self.n_workers,
            "tuning": self.tuning,
            "cache_size": self.cache_size,
            "session_cache_size": self.session_cache_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetSpec":
        """Inverse of :meth:`to_dict` (missing keys take defaults)."""
        defaults = cls()
        return cls(
            population=int(data.get("population", defaults.population)),
            generations=int(data.get("generations", defaults.generations)),
            n_workers=int(data.get("n_workers", defaults.n_workers)),
            tuning=str(data.get("tuning", defaults.tuning)),
            cache_size=int(data.get("cache_size", defaults.cache_size)),
            session_cache_size=int(
                data.get("session_cache_size", defaults.session_cache_size)
            ),
        )


@dataclass(frozen=True)
class RunKey:
    """Identity of one run: the resume/dedup key of the results store."""

    system: str
    case: str
    seed: int
    backend: str

    def as_tuple(self) -> tuple[str, str, int, str]:
        """The hashable form used against ``ResultsStore.completed()``."""
        return (self.system, self.case, self.seed, self.backend)


@dataclass(frozen=True)
class ExperimentPlan:
    """A full experiment grid as one shareable, validated value.

    Parameters
    ----------
    name:
        Plan label, recorded in every result record.
    systems:
        Lineage system names (see
        :data:`repro.systems.factory.SYSTEM_NAMES`).
    cases:
        Benchmark cases; plain strings are accepted and coerced to
        default-shaped :class:`CaseSpec` entries.
    seeds:
        Root RNG seed per repeat; a run is reproducible from its
        ``(plan, seed)`` alone.
    backends:
        Engine backends to cross with the grid.
    budget:
        Search/engine budget shared by every run.
    budgets:
        Optional per-system *search budget* overrides for
        unmatched-budget studies: ``{system: {"population": ...,
        "generations": ..., "tuning": ...}}`` (partial dicts or full
        :class:`BudgetSpec` values), applied on top of ``budget``.
        Engine-session knobs (``n_workers``, ``cache_size``,
        ``session_cache_size``) cannot be overridden per system — every
        system of a ``(case, backend)`` group shares one engine
        session, whose shape is the plan-level budget's. Overrides
        participate in :meth:`config_digest`, so resuming a store under
        a rebudgeted plan is refused.
    """

    name: str = "experiment"
    systems: tuple[str, ...] = ("ess", "ess-ns")
    cases: tuple[CaseSpec, ...] = (CaseSpec("grassland"),)
    seeds: tuple[int, ...] = (0,)
    backends: tuple[str, ...] = ("reference",)
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    budgets: Mapping[str, BudgetSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(
            self,
            "cases",
            tuple(
                c if isinstance(c, CaseSpec) else CaseSpec.from_dict(c)
                for c in self.cases
            ),
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "backends", tuple(self.backends))
        if not self.systems:
            raise ReproError("plan needs at least one system")
        if not self.cases:
            raise ReproError("plan needs at least one case")
        if not self.seeds:
            raise ReproError("plan needs at least one seed")
        if min(self.seeds) < 0:
            # every seed roots a NumPy stream, which takes no negative
            # seed; refused here, a plan never reaches a worker
            raise ReproError(f"plan seeds must be >= 0, got {min(self.seeds)}")
        if not self.backends:
            raise ReproError("plan needs at least one backend")
        for system in self.systems:
            if system not in SYSTEM_NAMES:
                raise ReproError(
                    f"unknown system {system!r}; choose from {SYSTEM_NAMES}"
                )
        for backend in self.backends:
            if backend not in backend_names():
                raise ReproError(
                    f"unknown engine backend {backend!r}; choose from "
                    f"{backend_names()}"
                )
        if len(set(self.systems)) != len(self.systems):
            raise ReproError("duplicate systems in plan")
        if len({c.name for c in self.cases}) != len(self.cases):
            raise ReproError("duplicate cases in plan")
        if len(set(self.seeds)) != len(self.seeds):
            raise ReproError("duplicate seeds in plan")
        if len(set(self.backends)) != len(self.backends):
            raise ReproError("duplicate backends in plan")
        object.__setattr__(
            self, "budgets", self._normalize_budgets(self.budgets)
        )

    def _normalize_budgets(self, budgets) -> dict[str, BudgetSpec]:
        """Validate and coerce per-system overrides to full specs."""
        out: dict[str, BudgetSpec] = {}
        for system, override in dict(budgets or {}).items():
            if system not in self.systems:
                raise ReproError(
                    f"budget override for {system!r}, which is not one of "
                    f"the plan's systems {self.systems}"
                )
            if isinstance(override, BudgetSpec):
                spec = override
            elif isinstance(override, Mapping):
                known = set(BudgetSpec().to_dict())
                unknown = set(override) - known
                if unknown:
                    raise ReproError(
                        f"unknown budget override keys for {system!r}: "
                        f"{sorted(unknown)}; choose from {sorted(known)}"
                    )
                spec = BudgetSpec.from_dict(
                    {**self.budget.to_dict(), **dict(override)}
                )
            else:
                raise ReproError(
                    f"budget override for {system!r} must be a mapping or "
                    f"a BudgetSpec, got {type(override).__name__}"
                )
            for knob in ("n_workers", "cache_size", "session_cache_size"):
                if getattr(spec, knob) != getattr(self.budget, knob):
                    raise ReproError(
                        f"budget override for {system!r} changes {knob!r} — "
                        "engine-session knobs are shared by every system "
                        "of a (case, backend) group and can only be set "
                        "on the plan-level budget"
                    )
            out[system] = spec
        return out

    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Total grid size (systems × cases × seeds × backends)."""
        return (
            len(self.systems)
            * len(self.cases)
            * len(self.seeds)
            * len(self.backends)
        )

    def case(self, name: str) -> CaseSpec:
        """Look up one case spec by name."""
        for c in self.cases:
            if c.name == name:
                return c
        raise ReproError(f"plan has no case {name!r}")

    def runs(self) -> Iterator[RunKey]:
        """Every run of the grid, in group order (case, backend major)."""
        for _, keys in self.groups():
            yield from keys

    def groups(self) -> list[tuple[tuple[CaseSpec, str], list[RunKey]]]:
        """Runs grouped by ``(case, backend)`` — the session-sharing unit.

        Every run inside a group replays the same step contexts on the
        same backend, so one shared :class:`~repro.engine.EngineSession`
        serves the whole group and cross-system repeats hit its cache.
        Groups touch disjoint run keys, so they are independent — the
        runner may execute them in separate worker processes.
        """
        out: list[tuple[tuple[CaseSpec, str], list[RunKey]]] = []
        for case in self.cases:
            for backend in self.backends:
                keys = [
                    RunKey(system, case.name, seed, backend)
                    for system in self.systems
                    for seed in self.seeds
                ]
                out.append(((case, backend), keys))
        return out

    def budget_for(self, system: str) -> BudgetSpec:
        """The effective search budget of one system (override or plan)."""
        return self.budgets.get(system, self.budget)

    def build_system(self, name: str, backend: str):
        """Construct one of the plan's systems under its effective budget."""
        b = self.budget_for(name)
        return build_system(
            name,
            population=b.population,
            generations=b.generations,
            n_workers=b.n_workers,
            tuning=b.tuning,
            backend=backend,
            cache_size=b.cache_size,
            session_cache_size=b.session_cache_size,
        )

    def with_seeds(self, seeds) -> "ExperimentPlan":
        """Copy of the plan over a different seed set."""
        return replace(self, seeds=tuple(int(s) for s in seeds))

    def config_digest(self, case: CaseSpec, system: str | None = None) -> str:
        """Digest of everything beyond the run key that shapes a result.

        A :class:`RunKey` names a cell ``(system, case, seed,
        backend)``; the digest covers the rest — the case's grid
        size/step count and the system's *effective* search budget
        (per-system overrides included, so a rebudgeted resume is
        refused) — so a results store can refuse to resume cells that
        were recorded under a different configuration instead of
        silently serving stale results. Without a ``system`` the
        plan-level budget is digested, which matches every system of a
        plan without overrides.
        """
        budget = self.budget if system is None else self.budget_for(system)
        payload = json.dumps(
            {"case": case.to_dict(), "budget": budget.to_dict()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation (the shareable plan artifact)."""
        payload = {
            "name": self.name,
            "systems": list(self.systems),
            "cases": [c.to_dict() for c in self.cases],
            "seeds": list(self.seeds),
            "backends": list(self.backends),
            "budget": self.budget.to_dict(),
        }
        if self.budgets:
            # emitted only when present, so pre-override plan artifacts
            # stay byte-identical
            payload["budgets"] = {
                system: spec.to_dict()
                for system, spec in self.budgets.items()
            }
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        """Inverse of :meth:`to_dict`, with full validation."""
        try:
            return cls(
                name=str(data.get("name", "experiment")),
                systems=tuple(str(s) for s in data["systems"]),
                cases=tuple(CaseSpec.from_dict(c) for c in data["cases"]),
                seeds=tuple(int(s) for s in data["seeds"]),
                backends=tuple(
                    str(b) for b in data.get("backends", ("reference",))
                ),
                budget=BudgetSpec.from_dict(data.get("budget", {})),
                budgets=dict(data.get("budgets", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed experiment plan: {exc}") from exc

    def save_json(self, path: str | os.PathLike) -> None:
        """Write the plan to ``path`` (sorted keys: byte-stable artifact)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(cls, path: str | os.PathLike) -> "ExperimentPlan":
        """Read a plan previously written by :meth:`save_json`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
