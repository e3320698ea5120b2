"""Units of work: the sliceable currency of experiment execution.

The paper's grids are sets of fully independent ``(system, case, seed,
backend)`` cells, yet execution used to be handed around as whole
``(case, backend)`` *groups* — so a plan with one big group (one case,
many seeds/systems: the common comparison shape) could occupy exactly
one worker no matter how large the fleet. This module makes the
schedulable unit as small as a single cell while keeping the group as
the *context* that decides which cells may share one
:class:`~repro.engine.EngineSession`:

* a :class:`WorkUnit` is a group index plus an **explicit cell
  subset** of that group — splittable in half, mergeable with its
  sibling, JSON-serializable (the payload a fleet lease ships);
* a :class:`WorkSet` compiles an
  :class:`~repro.experiments.plan.ExperimentPlan` plus the already
  recorded cells into the pending units — the single source of truth
  for "what remains", consumed by every executor.

Because every cell's run is reproducible from ``(plan, seed)`` alone
(systems draw their initial population as the first consumption of the
seeded stream — common random numbers) and shared sessions are caches
that never change results, **a cell's record is independent of which
unit delivered it**: units can split, migrate between workers and
re-run after stale leases without changing a byte of the results store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.plan import ExperimentPlan

__all__ = ["WorkUnit", "WorkSet", "merge_group_units"]

#: One results-store cell: ``(system, case, seed, backend)``.
Cell = tuple[str, str, int, str]


def _as_cell(value) -> Cell:
    """Coerce one wire-form cell (a 4-list/tuple) to the tuple key."""
    try:
        system, case, seed, backend = value
        return (str(system), str(case), int(seed), str(backend))
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"malformed work-unit cell {value!r} (want "
            "[system, case, seed, backend])"
        ) from exc


@dataclass(frozen=True)
class WorkUnit:
    """A group index plus the explicit cell subset to execute.

    The atom of scheduling. ``group`` names an entry of
    :meth:`ExperimentPlan.groups` (the session-sharing context: every
    cell of a unit replays the same case on the same backend), and
    ``cells`` lists exactly which of that group's cells this unit
    covers — possibly all of them (the classic whole-group hand-off),
    possibly one.
    """

    group: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", int(self.group))
        object.__setattr__(
            self, "cells", tuple(_as_cell(c) for c in self.cells)
        )
        if self.group < 0:
            raise ReproError(f"work-unit group must be >= 0, got {self.group}")
        if not self.cells:
            raise ReproError("a work unit needs at least one cell")
        if len(set(self.cells)) != len(self.cells):
            raise ReproError(f"duplicate cells in work unit {self}")

    @property
    def n_cells(self) -> int:
        """Number of cells this unit covers."""
        return len(self.cells)

    # ------------------------------------------------------------------
    def split(self) -> tuple["WorkUnit", "WorkUnit"]:
        """Halve the unit (first half no smaller), preserving cell order.

        The work-stealing primitive: the two halves cover exactly this
        unit's cells, disjointly, and merging them back
        (:meth:`merge`) round-trips to the original unit.
        """
        return self.split_at((self.n_cells + 1) // 2)

    def split_at(self, cut: int) -> tuple["WorkUnit", "WorkUnit"]:
        """Split after the first ``cut`` cells, preserving cell order.

        The cost-aware generalisation of :meth:`split`: a scheduler that
        knows how many cells amount to one lease's worth of work carves
        exactly that many off the front. Both sides must keep at least
        one cell.
        """
        if self.n_cells < 2:
            raise ReproError("cannot split a single-cell work unit")
        if not 1 <= cut < self.n_cells:
            raise ReproError(
                f"split point must be in [1, {self.n_cells - 1}], got {cut}"
            )
        return (
            WorkUnit(self.group, self.cells[:cut]),
            WorkUnit(self.group, self.cells[cut:]),
        )

    def merge(self, other: "WorkUnit") -> "WorkUnit":
        """Concatenate two disjoint units of the same group."""
        if other.group != self.group:
            raise ReproError(
                f"cannot merge units of different groups "
                f"({self.group} vs {other.group})"
            )
        if set(self.cells) & set(other.cells):
            raise ReproError("cannot merge overlapping work units")
        return WorkUnit(self.group, self.cells + other.cells)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable JSON wire form (the payload a fleet lease ships)."""
        return {"group": self.group, "cells": [list(c) for c in self.cells]}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        """Inverse of :meth:`to_dict`, with full validation."""
        try:
            return cls(
                group=int(data["group"]),
                cells=tuple(_as_cell(c) for c in data["cells"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed work unit: {exc}") from exc


@dataclass(frozen=True)
class WorkSet:
    """A plan's pending work, expressed as validated units.

    The single source of truth for "what remains": executors receive a
    work set (not a plan plus a done-set) and are free to reshape its
    units — split for idle workers, merge for locality — because unit
    boundaries never change any cell's result. Construction validates
    that every unit's cells belong to its group and that no cell
    appears in two units.
    """

    plan: "ExperimentPlan"
    units: tuple[WorkUnit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        groups = self.plan.groups()
        seen: set[Cell] = set()
        for unit in self.units:
            if not 0 <= unit.group < len(groups):
                raise ReproError(
                    f"work unit names group {unit.group}, but the plan "
                    f"has {len(groups)} groups"
                )
            group_cells = {k.as_tuple() for k in groups[unit.group][1]}
            foreign = [c for c in unit.cells if c not in group_cells]
            if foreign:
                raise ReproError(
                    f"work unit for group {unit.group} names cells outside "
                    f"that group: {foreign}"
                )
            overlap = [c for c in unit.cells if c in seen]
            if overlap:
                raise ReproError(
                    f"cells appear in more than one work unit: {overlap}"
                )
            seen.update(unit.cells)

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls, plan: "ExperimentPlan", done: Iterable[Cell] = ()
    ) -> "WorkSet":
        """Pending units of ``plan``: one whole-group unit per group
        that still has unrecorded cells, in group order.

        ``done`` is the recorded-cell set (usually
        :meth:`ResultsStore.completed`); recorded cells are excluded
        from the compiled units, so a unit's cells are exactly the work
        left to do.
        """
        done = set(done)
        units = []
        for index, (_, keys) in enumerate(plan.groups()):
            cells = tuple(
                k.as_tuple() for k in keys if k.as_tuple() not in done
            )
            if cells:
                units.append(WorkUnit(index, cells))
        return cls(plan=plan, units=tuple(units))

    def pending(self) -> list[WorkUnit]:
        """The units still to execute (every unit — cells are pending
        by construction)."""
        return list(self.units)

    @property
    def total_cells(self) -> int:
        """Pending cell count across all units."""
        return sum(unit.n_cells for unit in self.units)

    def __len__(self) -> int:
        return len(self.units)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable JSON wire form: the plan plus its pending units."""
        return {
            "plan": self.plan.to_dict(),
            "units": [unit.to_dict() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkSet":
        """Inverse of :meth:`to_dict`, with full validation."""
        from repro.experiments.plan import ExperimentPlan

        try:
            plan = ExperimentPlan.from_dict(data["plan"])
            units = tuple(WorkUnit.from_dict(u) for u in data["units"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed work set: {exc}") from exc
        return cls(plan=plan, units=units)


def merge_group_units(units: Sequence[WorkUnit]) -> list[WorkUnit]:
    """Re-merge same-group fragments into one unit per group.

    Requeued splits of one group (a dead worker's leases trickling
    back) are worth re-leasing as a whole: one engine session instead
    of several, and the cost model sizes one carve instead of many
    slivers. Fragments concatenate in input order under the
    first-seen group order; disjointness is enforced by
    :meth:`WorkUnit.merge`.
    """
    by_group: dict[int, WorkUnit] = {}
    order: list[int] = []
    for unit in units:
        if unit.group in by_group:
            by_group[unit.group] = by_group[unit.group].merge(unit)
        else:
            by_group[unit.group] = unit
            order.append(unit.group)
    return [by_group[group] for group in order]
