"""Predictive unit cost model: what will this WorkUnit cost to run?

Scheduling a :class:`~repro.experiments.work.WorkUnit` well needs a
*prediction* of its runtime before anyone has run it. All cells of a
unit share one ``(case, backend)`` kernel context (the group), so the
model estimates a unit as ``cells × per-cell rate`` with one
EMA-smoothed per-cell rate per kernel key:

* **measured** rates come from completed units — the coordinator folds
  every ``(kernel, cells, seconds)`` cost report a worker attaches to
  its ``complete``/heartbeat messages, so the model is fleet-wide, not
  per-process;
* before a kernel has a sample, the estimate falls back to a
  **scaled prior**: each kernel carries a ``prior_work`` magnitude
  derived from the plan's budget, and the kernels measured so far say
  how many seconds one unit of prior work costs (their summed rates
  over their summed priors), which gives a relative ordering across
  groups of different shapes; before any measurement, a fixed
  ``default_engine_rate`` scales the prior instead;
* with no prior, the mean of the measured rates of *other* kernels, and
  finally a fixed default, so an estimate always exists.

The model is plain serializable state (:meth:`to_dict` /
:meth:`from_dict`): two schedulers built from identical snapshots make
identical decisions, which is what makes cost-aware splitting testable
for determinism. Nothing here touches results — cost estimates decide
*where and in what chunks* cells run, never what they record.

Prediction quality is itself observable: :func:`record_residual` folds
each completed unit's observed-vs-predicted ratio into the
``repro_cost_residual_ratio`` histogram (labelled by kernel) and emits
a ``slow_unit`` trace event when a unit blows past its prediction —
so a drifting or mis-seeded model shows up on ``/metrics`` instead of
silently degrading the schedule.
"""

from __future__ import annotations

import json
import logging
import os
import time

from repro.errors import ReproError

__all__ = [
    "DEFAULT_SLOW_UNIT_FACTOR",
    "RESIDUAL_BUCKETS",
    "RESIDUAL_METRIC",
    "UnitCostModel",
    "load_cost_model",
    "plan_cost_model",
    "record_residual",
    "save_cost_model",
    "seed_plan_priors",
]

log = logging.getLogger("repro.experiments.costs")

#: Histogram of observed/predicted unit seconds, labelled by kernel.
RESIDUAL_METRIC = "repro_cost_residual_ratio"

#: Ratio-oriented bounds: 1.0 means a perfect prediction, the low end
#: catches over-predictions, the high end runaway under-predictions.
RESIDUAL_BUCKETS: tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    0.75,
    1.0,
    1.5,
    2.0,
    3.0,
    5.0,
    10.0,
)

#: A unit slower than ``factor × predicted`` earns a ``slow_unit``
#: trace event.
DEFAULT_SLOW_UNIT_FACTOR = 3.0


class UnitCostModel:
    """EMA per-cell cost rates per kernel key, with layered fallbacks.

    Parameters
    ----------
    alpha:
        EMA smoothing factor for measured per-cell rates:
        ``rate += alpha * (sample - rate)``.
    default_rate:
        Per-cell seconds assumed when nothing at all is known.
    default_engine_rate:
        Seconds per unit of prior work assumed when priors exist but no
        kernel with a prior has been measured yet.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        default_rate: float = 1e-3,
        default_engine_rate: float = 1e-8,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError(f"EMA alpha must be in (0, 1], got {alpha}")
        if default_rate <= 0 or default_engine_rate <= 0:
            raise ReproError("default cost rates must be positive")
        self.alpha = float(alpha)
        self.default_rate = float(default_rate)
        self.default_engine_rate = float(default_engine_rate)
        #: measured per-cell seconds, EMA per kernel key
        self.rates: dict[str, float] = {}
        #: number of measured unit timings folded per kernel key
        self.samples: dict[str, int] = {}
        #: per-kernel prior work magnitude (engine work units per cell)
        self.prior_work: dict[str, float] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def kernel_key(case_name: str, backend: str) -> str:
        """The model's kernel identity of a ``(case, backend)`` group."""
        return f"{case_name}:{backend}"

    def set_prior_work(self, kernel: str, work: float) -> None:
        """Seed a kernel's pre-measurement work magnitude (per cell)."""
        if work <= 0:
            raise ReproError(f"prior work must be positive, got {work}")
        self.prior_work[str(kernel)] = float(work)

    # ------------------------------------------------------------------
    def observe(self, kernel: str, cells: int, seconds: float) -> None:
        """Fold one measured unit timing into the kernel's rate EMA."""
        if cells <= 0 or seconds <= 0.0:
            return
        rate = float(seconds) / int(cells)
        prev = self.rates.get(kernel)
        self.rates[kernel] = (
            rate if prev is None else prev + self.alpha * (rate - prev)
        )
        self.samples[kernel] = self.samples.get(kernel, 0) + 1

    def observe_lower_bound(
        self, kernel: str, cells: int, seconds: float
    ) -> None:
        """Fold an *in-flight* cost report (heartbeat of a running unit).

        The elapsed seconds of an unfinished unit bound its true cost
        from below, so only estimate-*raising* reports update the EMA —
        a unit running longer than predicted teaches the model before it
        even completes, while a half-done unit never drags rates down.
        """
        if cells <= 0 or seconds <= 0.0:
            return
        if float(seconds) / int(cells) > self.rate(kernel):
            self.observe(kernel, cells, seconds)

    # ------------------------------------------------------------------
    def rate(self, kernel: str) -> float:
        """Per-cell seconds for ``kernel``: measured, else the scaled
        prior, else the mean measured rate, else the default — never
        zero.

        The scaled prior is ``prior_work[kernel] × Σ rates / Σ
        prior_work`` over the kernels measured so far that have priors:
        the fleet's pooled seconds per unit of prior work. With no such
        kernel it is ``prior_work[kernel] × default_engine_rate``.
        """
        measured = self.rates.get(kernel)
        if measured is not None:
            return measured
        prior = self.prior_work.get(kernel)
        if prior is not None:
            pooled = [k for k in self.rates if k in self.prior_work]
            if not pooled:
                return prior * self.default_engine_rate
            return prior * (
                sum(self.rates[k] for k in pooled)
                / sum(self.prior_work[k] for k in pooled)
            )
        if self.rates:
            return sum(self.rates.values()) / len(self.rates)
        return self.default_rate

    def estimate(self, kernel: str, cells: int) -> float:
        """Predicted seconds for ``cells`` cells of ``kernel`` work."""
        return max(int(cells), 0) * self.rate(kernel)

    def min_cells_for(
        self, kernel: str, target_seconds: float, floor: int = 1
    ) -> int:
        """Cells of ``kernel`` work amounting to ``target_seconds``.

        The adaptive ``min_unit_cells``: lease sizes chase a wall-clock
        target instead of a fixed cell count, so a floor tuned for one
        workload does not produce absurd unit sizes on another. Never
        below ``floor`` (the operator's configured constant) and never
        below one cell.
        """
        floor = max(int(floor), 1)
        rate = self.rate(kernel)
        if target_seconds <= 0.0 or rate <= 0.0:
            return floor
        return max(int(target_seconds / rate), floor)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable JSON form (status payloads, determinism tests)."""
        return {
            "alpha": self.alpha,
            "default_rate": self.default_rate,
            "default_engine_rate": self.default_engine_rate,
            "rates": dict(sorted(self.rates.items())),
            "samples": dict(sorted(self.samples.items())),
            "prior_work": dict(sorted(self.prior_work.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitCostModel":
        """Inverse of :meth:`to_dict`, with validation.

        Unknown keys are ignored, so sidecars that still carry an
        ``engine`` map of kernel rates load as before.
        """
        try:
            model = cls(
                alpha=float(data.get("alpha", 0.3)),
                default_rate=float(data.get("default_rate", 1e-3)),
                default_engine_rate=float(
                    data.get("default_engine_rate", 1e-8)
                ),
            )
            model.rates = {
                str(k): float(v)
                for k, v in dict(data.get("rates", {})).items()
            }
            model.samples = {
                str(k): int(v)
                for k, v in dict(data.get("samples", {})).items()
            }
            model.prior_work = {
                str(k): float(v)
                for k, v in dict(data.get("prior_work", {})).items()
            }
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed cost model: {exc}") from exc
        return model

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UnitCostModel(rates={self.rates!r}, "
            f"samples={self.samples!r})"
        )


def record_residual(
    model: UnitCostModel,
    kernel: str,
    cells: int,
    seconds: float,
    registry=None,
    **attrs,
) -> float | None:
    """Record one completed unit's observed-vs-predicted ratio.

    Call *before* folding the observation into ``model`` so the ratio
    judges the prediction the scheduler actually used. The ratio lands
    in :data:`RESIDUAL_METRIC` labelled by kernel; a ``slow_unit``
    event (carrying ``attrs``, e.g. the worker) is emitted only when
    the kernel already has a *measured* sample and the ratio exceeds
    :data:`DEFAULT_SLOW_UNIT_FACTOR` — a unit can't meaningfully be "slow" against a
    never-measured prior. Returns the ratio, or None when it is
    undefined (zero prediction, zero cells, or non-positive timing).
    """
    if registry is None:
        from repro.obs import telemetry

        registry = telemetry()
    predicted = model.estimate(kernel, cells)
    if predicted <= 0.0 or seconds <= 0.0 or cells <= 0:
        return None
    ratio = float(seconds) / predicted
    registry.histogram(
        RESIDUAL_METRIC, buckets=RESIDUAL_BUCKETS, kernel=kernel
    ).observe(ratio)
    if ratio > DEFAULT_SLOW_UNIT_FACTOR and model.samples.get(kernel, 0) > 0:
        registry.emit(
            {
                "event": "slow_unit",
                "time": time.time(),
                "kernel": kernel,
                "cells": int(cells),
                "seconds": float(seconds),
                "predicted": predicted,
                "ratio": ratio,
                **attrs,
            }
        )
    return ratio


def plan_cost_model(plan) -> UnitCostModel:
    """A :class:`UnitCostModel` seeded from a plan's budgets.

    Before any unit has run, the only cost signal is the plan itself:
    a cell of a ``(case, backend)`` group runs one system's search for
    ``population × generations`` evaluations, each simulating
    ``steps`` steps of a ``size²`` grid with an 8-cell neighborhood.
    That product — averaged over the plan's systems, whose budgets may
    differ — seeds each kernel's ``prior_work``, so groups order
    correctly by *relative* cost from the first grant. Measured unit
    timings later scale those priors to seconds
    (:meth:`UnitCostModel.rate`).
    """
    model = UnitCostModel()
    seed_plan_priors(model, plan)
    return model


def seed_plan_priors(model: UnitCostModel, plan, overwrite: bool = True) -> None:
    """Seed ``model`` with a plan's budget-derived ``prior_work``.

    ``overwrite=False`` only fills kernels the model has never heard
    of — how a long-lived scheduler (a restored snapshot, or a service
    admitting its Nth plan) takes new work on board without clobbering
    priors it already refined.
    """
    for (case, backend), _keys in plan.groups():
        kernel = UnitCostModel.kernel_key(case.name, backend)
        if not overwrite and kernel in model.prior_work:
            continue
        per_system = [
            plan.budget_for(system).population
            * plan.budget_for(system).generations
            for system in plan.systems
        ]
        work = (
            (sum(per_system) / len(per_system))
            * case.steps
            * case.size**2
            * 8
        )
        model.set_prior_work(kernel, work)


def save_cost_model(model: UnitCostModel, path) -> None:
    """Persist ``model`` as a JSON sidecar (atomic replace).

    A coordinator writes this on shutdown so the *next* run's first
    grants are already informed: two schedulers built from identical
    snapshots make identical decisions, so restoring one only moves
    scheduling toward measured reality — never results.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_cost_model(path) -> UnitCostModel | None:
    """Restore a :func:`save_cost_model` sidecar; ``None`` when the
    file is missing or unreadable (a cold start, never an error — the
    snapshot is a scheduling hint, not state the run depends on)."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ReproError("cost snapshot is not a JSON object")
        return UnitCostModel.from_dict(data)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, ReproError) as exc:
        log.warning("ignoring unreadable cost snapshot %s: %s", path, exc)
        return None
