"""Analysis utilities: diversity metrics, run comparisons, reporting.

* :mod:`~repro.analysis.diversity` — genotypic and behavioural
  diversity of populations over generations (experiment E2: the
  premature-convergence story of §II-B).
* :mod:`~repro.analysis.metrics` — cross-system comparisons: quality
  per step, response times, speedup tables (experiments E1/E3).
* :mod:`~repro.analysis.reporting` — plain-text/markdown tables for
  examples, benchmarks and EXPERIMENTS.md.
"""

from repro.analysis.diversity import (
    genotypic_diversity,
    behavioural_diversity,
    diversity_series,
)
from repro.analysis.metrics import (
    QualityComparison,
    compare_runs,
    speedup_table,
)
from repro.analysis.reporting import format_table, format_run, format_comparison
from repro.analysis.sweeps import SweepCell, SweepResult

__all__ = [
    "genotypic_diversity",
    "behavioural_diversity",
    "diversity_series",
    "QualityComparison",
    "compare_runs",
    "speedup_table",
    "format_table",
    "format_run",
    "format_comparison",
    "SweepCell",
    "SweepResult",
]
