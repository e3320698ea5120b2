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
  sibling, JSON-serializable (the fleet wire form and the shard-process
  hand-off are the same payload);
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
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.plan import ExperimentPlan

__all__ = [
    "WorkUnit",
    "WorkSet",
    "assign_units_by_cost",
    "improve_assignment",
    "merge_group_units",
    "split_units",
    "split_units_by_cost",
]

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
        """Stable JSON wire form (the fleet/shard hand-off payload)."""
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


# ----------------------------------------------------------------------
# Unit scheduling helpers (shared by the shard executor and the fleet
# ledger, so "how work divides" has one implementation).
# ----------------------------------------------------------------------
def _check_split_args(parts: int, min_unit_cells: int) -> None:
    if parts < 1:
        raise ReproError(f"parts must be >= 1, got {parts}")
    if min_unit_cells < 1:
        raise ReproError(
            f"min_unit_cells must be >= 1, got {min_unit_cells}"
        )


def split_units(
    units: Sequence[WorkUnit], parts: int, min_unit_cells: int = 1
) -> list[WorkUnit]:
    """Split the largest unit, repeatedly, until there are ``parts``
    units or nothing may split further.

    ``min_unit_cells`` (at least 1) is the split floor: a unit only
    splits while both halves would keep at least that many cells.
    Deterministic: ties break toward the earliest unit.
    """
    _check_split_args(parts, min_unit_cells)
    out = list(units)
    while len(out) < parts:
        i = max(range(len(out)), key=lambda j: out[j].n_cells)
        if out[i].n_cells < 2 * min_unit_cells:
            break  # even the largest unit is at the floor
        first, second = out.pop(i).split()
        out += [first, second]
    return out


# ----------------------------------------------------------------------
# Cost-aware scheduling: the same split/assign decisions driven by a
# predicted per-cell cost instead of raw cell counts. Rates arrive as a
# ``rate_of(group) -> seconds-per-cell`` callable (usually a
# :class:`~repro.experiments.costs.UnitCostModel` bound to the plan's
# kernel keys) so this module stays free of model dependencies.
# ----------------------------------------------------------------------
def _carve(unit: WorkUnit, parts: int) -> list[WorkUnit]:
    """Carve a unit into ``parts`` contiguous near-equal-cell chunks."""
    parts = max(1, min(int(parts), unit.n_cells))
    base, extra = divmod(unit.n_cells, parts)
    out: list[WorkUnit] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(WorkUnit(unit.group, unit.cells[start : start + size]))
        start += size
    return out


def split_units_by_cost(
    units: Sequence[WorkUnit],
    parts: int,
    rate_of: Callable[[int], float],
    min_unit_cells: int = 1,
) -> list[WorkUnit]:
    """Pre-split units into near-equal-*cost* pieces, ``parts`` total.

    Each unit is carved into contiguous chunks whose count is its share
    of the total predicted cost (LPT-friendly: expensive groups yield
    more pieces, cheap ones stay whole), so downstream assignment can
    balance *time*, not cell counts. ``min_unit_cells`` keeps the same
    floor semantics as :func:`split_units`; deterministic for a given
    rate function. Splitting never changes what any cell records — only
    where it may run.
    """
    _check_split_args(parts, min_unit_cells)
    total = sum(rate_of(u.group) * u.n_cells for u in units)
    if total <= 0.0:
        return split_units(units, parts, min_unit_cells)
    target = total / parts
    out: list[WorkUnit] = []
    for unit in units:
        cost = rate_of(unit.group) * unit.n_cells
        pieces = max(1, round(cost / target))
        pieces = min(pieces, max(unit.n_cells // min_unit_cells, 1))
        out.extend(_carve(unit, pieces))
    return out


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


def improve_assignment(
    buckets: Sequence[Sequence[WorkUnit]],
    cost_of: Callable[[WorkUnit], float],
    max_rounds: int = 32,
) -> list[list[WorkUnit]]:
    """Cheap neighborhood search over an assignment: shift and swap.

    Classic bin-packing local moves applied to the makespan (the
    most-loaded bucket): each round considers *shifting* one unit from
    the most- to the least-loaded bucket and *swapping* a unit pair
    between the two most-loaded buckets, applies the best strictly
    improving move, and stops when none exists (or after
    ``max_rounds``). Bounded and deterministic — a polish pass over the
    greedy LPT seed, not an exact solver.
    """
    out = [list(bucket) for bucket in buckets]
    if len(out) < 2:
        return out
    loads = [sum(cost_of(u) for u in bucket) for bucket in out]
    for _ in range(max_rounds):
        order = sorted(range(len(out)), key=lambda i: (-loads[i], i))
        hi, lo = order[0], order[-1]
        pair_max = loads[hi]
        best: tuple | None = None
        for j, unit in enumerate(out[hi]):
            cost = cost_of(unit)
            new_max = max(loads[hi] - cost, loads[lo] + cost)
            if new_max < pair_max and (best is None or new_max < best[0]):
                best = (new_max, "shift", j, -1)
        second = order[1]
        for j, unit in enumerate(out[hi]):
            cost_u = cost_of(unit)
            for k, other in enumerate(out[second]):
                cost_v = cost_of(other)
                if cost_u <= cost_v:
                    continue
                new_max = max(
                    loads[hi] - cost_u + cost_v,
                    loads[second] - cost_v + cost_u,
                )
                if new_max < pair_max and (
                    best is None or new_max < best[0]
                ):
                    best = (new_max, "swap", j, k)
        if best is None:
            break
        _, kind, j, k = best
        if kind == "shift":
            unit = out[hi].pop(j)
            out[lo].append(unit)
            loads[hi] -= cost_of(unit)
            loads[lo] += cost_of(unit)
        else:
            unit, other = out[hi][j], out[second][k]
            out[hi][j], out[second][k] = other, unit
            delta = cost_of(unit) - cost_of(other)
            loads[hi] -= delta
            loads[second] += delta
    return out


def assign_units_by_cost(
    units: Sequence[WorkUnit],
    parts: int,
    rate_of: Callable[[int], float],
) -> list[list[WorkUnit]]:
    """Cost-balanced assignment: LPT by predicted cost, then polish.

    Greedy longest-processing-time on ``rate_of``-predicted unit cost
    (units placed costliest-first into the least-loaded bucket),
    followed by the :func:`improve_assignment` neighborhood pass — the
    shift/swap moves of colored-bin-packing local search. Never yields
    an empty bucket (fewer units than ``parts`` produce fewer buckets
    instead of idle workers); deterministic (ties break toward the
    earlier unit and the lower bucket).
    """
    if parts < 1:
        raise ReproError(f"parts must be >= 1, got {parts}")

    def cost_of(unit: WorkUnit) -> float:
        return rate_of(unit.group) * unit.n_cells

    buckets: list[list[WorkUnit]] = [
        [] for _ in range(min(parts, len(units)))
    ]
    loads = [0.0] * len(buckets)
    ranked = sorted(
        range(len(units)), key=lambda i: (-cost_of(units[i]), i)
    )
    for i in ranked:
        k = min(range(len(buckets)), key=lambda j: (loads[j], j))
        buckets[k].append(units[i])
        loads[k] += cost_of(units[i])
    return [b for b in improve_assignment(buckets, cost_of) if b]
