"""Wall-clock instrumentation and parallel-performance metrics.

Used by the per-stage timing of the pipeline benchmarks (F1–F3) and the
speedup/efficiency experiment (E3).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ParallelError
from repro.obs.spans import span

__all__ = ["StageTimings", "speedup", "efficiency"]


@dataclass
class StageTimings:
    """Named wall-clock accumulators (e.g. one per pipeline stage)."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds under ``stage``."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    @contextmanager
    def measure(self, stage: str):
        """Time a block into ``stage`` (also when it raises), traced as
        a ``stage`` span."""
        with span("stage", stage=stage):
            started = time.perf_counter()
            try:
                yield
            finally:
                self.add(stage, time.perf_counter() - started)

    def total(self) -> float:
        """Sum over all stages."""
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Share of the total per stage (empty dict when nothing timed)."""
        total = self.total()
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.seconds.items()}

    def merge(self, other: "StageTimings") -> None:
        """Accumulate another timing set into this one."""
        for k, v in other.seconds.items():
            self.add(k, v)


def speedup(serial_seconds: float, parallel_seconds: float) -> float:
    """Classic speedup S = T₁ / T_p."""
    if serial_seconds < 0 or parallel_seconds <= 0:
        raise ParallelError(
            f"invalid timings: serial={serial_seconds}, parallel={parallel_seconds}"
        )
    return serial_seconds / parallel_seconds


def efficiency(serial_seconds: float, parallel_seconds: float, n_workers: int) -> float:
    """Parallel efficiency E = S / p."""
    if n_workers < 1:
        raise ParallelError(f"n_workers must be >= 1, got {n_workers}")
    return speedup(serial_seconds, parallel_seconds) / n_workers
