"""Seed/case sweeps: run systems repeatedly and aggregate statistics.

The lineage papers report means over repeated runs; this module is the
aggregation layer for that: one :class:`SweepCell` per (system, case)
pair, mean ± std over seeds, JSON archival. It runs nothing: a grid is
an :class:`~repro.experiments.plan.ExperimentPlan` executed by
:meth:`ExperimentRunner.run <repro.experiments.runner.ExperimentRunner.run>`,
and :meth:`SweepResult.from_records` aggregates the records it returns
(or :meth:`SweepResult.from_store` those of a
:class:`~repro.experiments.store.ResultsStore`, without re-running
anything).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ReproError

__all__ = ["SweepCell", "SweepResult"]


@dataclass(frozen=True)
class SweepCell:
    """Aggregated outcome of one (system, case) pair over seeds."""

    system: str
    case: str
    qualities: tuple[float, ...]
    evaluations: int
    seconds: float

    @property
    def mean(self) -> float:
        """Mean of the per-seed mean qualities."""
        return float(np.mean(self.qualities))

    @property
    def std(self) -> float:
        """Standard deviation over seeds (0 for a single seed)."""
        return float(np.std(self.qualities))


@dataclass
class SweepResult:
    """All cells of a sweep, with table/JSON export."""

    cells: list[SweepCell] = field(default_factory=list)

    def cell(self, system: str, case: str) -> SweepCell:
        """Look up one (system, case) cell."""
        for c in self.cells:
            if c.system == system and c.case == case:
                return c
        raise ReproError(f"no sweep cell for ({system!r}, {case!r})")

    def systems(self) -> list[str]:
        """Distinct system names, in first-seen order."""
        seen: list[str] = []
        for c in self.cells:
            if c.system not in seen:
                seen.append(c.system)
        return seen

    def cases(self) -> list[str]:
        """Distinct case names, in first-seen order."""
        seen: list[str] = []
        for c in self.cells:
            if c.case not in seen:
                seen.append(c.case)
        return seen

    def table_rows(self) -> list[list]:
        """Rows ``[system, case, mean±std, evals, seconds]`` for reporting."""
        return [
            [
                c.system,
                c.case,
                f"{c.mean:.4f} ± {c.std:.4f}",
                c.evaluations,
                round(c.seconds, 2),
            ]
            for c in self.cells
        ]

    def winner(self, case: str) -> str:
        """System with the best mean quality on ``case``.

        Cells whose mean is NaN (no valid prediction quality) never
        win — ``max`` over raw floats would keep a NaN candidate, since
        every comparison against NaN is false — and a case where *no*
        cell has a valid mean has no winner at all (raises).
        """
        candidates = [
            c for c in self.cells if c.case == case and not np.isnan(c.mean)
        ]
        if not candidates:
            if any(c.case == case for c in self.cells):
                raise ReproError(
                    f"no cell for case {case!r} has a valid mean quality"
                )
            raise ReproError(f"no cells for case {case!r}")
        return max(candidates, key=lambda c: c.mean).system

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation.

        Cells are emitted sorted by ``(system, case)`` so the payload —
        and everything derived from a round-trip, like
        :meth:`systems`/:meth:`cases` first-seen order — is identical
        across Python versions and construction orders.
        """
        return {
            "cells": [
                {
                    "system": c.system,
                    "case": c.case,
                    "qualities": list(c.qualities),
                    "evaluations": c.evaluations,
                    "seconds": c.seconds,
                }
                for c in sorted(self.cells, key=lambda c: (c.system, c.case))
            ]
        }

    @classmethod
    def from_records(
        cls,
        records: Sequence[dict],
        systems: Sequence[str] | None = None,
        cases: Sequence[str] | None = None,
    ) -> "SweepResult":
        """Aggregate experiment-layer result records into sweep cells.

        ``records`` are :class:`~repro.experiments.store.ResultsStore`
        payloads (one per completed run). Cell order follows
        ``systems`` × ``cases`` when given, first-seen record order
        otherwise; per-cell quality order follows record order, so a
        resumed store reproduces the original cell contents. Cell
        seconds sum the runs' stage timings (``run_seconds``, the
        pre-experiment-layer sweep metric), falling back to runner
        wall-clock for hand-made records.

        When one system's records span several engine backends (a
        multi-backend plan), that system keeps one cell per backend —
        its label is decorated as ``system[backend]`` so backends are
        never silently merged into one mean. Systems pinned to a
        single backend keep their plain labels.
        """
        from repro.experiments.store import (
            backends_by_system,
            record_key,
            system_label,
        )

        # concatenated or racing stores can hold one key twice; keep the
        # last record per key so duplicates never double-count a seed
        records = list(
            {record_key(r): r for r in records}.values()
        )
        backends_of = backends_by_system(records)

        def decorated(system: str) -> bool:
            return len(backends_of.get(system, {})) > 1

        grouped: dict[tuple[str, str], dict] = {}
        for record in records:
            key = (system_label(record, backends_of), str(record["case"]))
            cell = grouped.setdefault(
                key,
                {"qualities": [], "evaluations": 0, "seconds": 0.0,
                 "config": None},
            )
            # records carry the runner's config digest; one cell must
            # never average runs recorded under different budgets or
            # case shapes (disjoint seeds slip past the store's
            # per-key resume check)
            config = record.get("config")
            if config is not None:
                if cell["config"] is None:
                    cell["config"] = config
                elif cell["config"] != config:
                    raise ReproError(
                        f"records for ({key[0]!r}, {key[1]!r}) mix "
                        "different configurations (budget or case shape "
                        "changed between recordings); aggregate them "
                        "separately instead of into one cell"
                    )
            quality = record.get("quality")
            cell["qualities"].append(
                float("nan") if quality is None else float(quality)
            )
            cell["evaluations"] += int(record.get("evaluations", 0))
            cell["seconds"] += float(
                record.get("run_seconds", record.get("seconds", 0.0))
            )
        if systems is None:
            systems = list(dict.fromkeys(k[0] for k in grouped))
        else:
            systems = [
                name
                for system in systems
                for name in (
                    [f"{system}[{b}]" for b in backends_of[system]]
                    if decorated(system)
                    else [system]
                )
            ]
        if cases is None:
            cases = list(dict.fromkeys(k[1] for k in grouped))
        result = cls()
        for system in systems:
            for case in cases:
                cell = grouped.get((system, case))
                if cell is None:
                    continue
                result.cells.append(
                    SweepCell(
                        system=system,
                        case=case,
                        qualities=tuple(cell["qualities"]),
                        evaluations=cell["evaluations"],
                        seconds=cell["seconds"],
                    )
                )
        return result

    @classmethod
    def from_store(
        cls,
        store,
        systems: Sequence[str] | None = None,
        cases: Sequence[str] | None = None,
    ) -> "SweepResult":
        """Rebuild a sweep from a streaming results store, no re-runs."""
        return cls.from_records(store.records(), systems=systems, cases=cases)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        try:
            cells = [
                SweepCell(
                    system=str(c["system"]),
                    case=str(c["case"]),
                    qualities=tuple(float(q) for q in c["qualities"]),
                    evaluations=int(c["evaluations"]),
                    seconds=float(c["seconds"]),
                )
                for c in data["cells"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed sweep payload: {exc}") from exc
        return cls(cells=cells)

    def save_json(self, path: str | os.PathLike) -> None:
        """Write the sweep to ``path`` as JSON (sorted keys, byte-stable)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load_json(cls, path: str | os.PathLike) -> "SweepResult":
        """Read a sweep previously written by :meth:`save_json`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
