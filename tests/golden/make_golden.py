"""Regenerate the golden sweep records beside this script.

The goldens pin the science of the E1 grid: one line per record of

    repro sweep --systems ess,ess-ns,essim-ea,essim-de,essns-im \\
        --cases grassland,heterogeneous --size 40 --steps 3 --seeds 0,1 \\
        --population 16 --generations 6 --backend vectorized

reduced to its :func:`~repro.experiments.store.parity_view` (wall-clock,
cache accounting and telemetry stripped) and serialised with sorted
keys, in run-key order. ``tests/test_golden.py`` asserts that the
vectorized and the reference kernels reproduce them bitwise.

Regenerate them only when the science is meant to move (a new RNG
consumption order, an edited Rothermel term), and record in CHANGES.md
why it moved::

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.experiments.store import ResultsStore, parity_view, record_key

#: The golden grid's ``repro sweep`` flags (the kernel is added per run).
GRID = (
    "--systems", "ess,ess-ns,essim-ea,essim-de,essns-im",
    "--cases", "grassland,heterogeneous",
    "--size", "40",
    "--steps", "3",
    "--seeds", "0,1",
    "--population", "16",
    "--generations", "6",
)

#: The committed records, one canonical JSON line each.
GOLDEN = Path(__file__).with_name("sweep_records.jsonl")


def canonical_records(results: str | Path) -> list[str]:
    """A results store's records as canonical golden lines."""
    return [
        json.dumps(parity_view(record), sort_keys=True)
        for record in sorted(ResultsStore(results).records(), key=record_key)
    ]


def regenerate() -> int:
    """Run the golden grid on the vectorized kernel and rewrite GOLDEN."""
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "golden.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            main(
                ["sweep", *GRID, "--backend", "vectorized",
                 "--results", str(results)]
            )
        lines = canonical_records(results)
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} golden records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
