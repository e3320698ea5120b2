"""Tier-1 smoke wiring for the engine-backend benchmark.

The full ``benchmarks/bench_engine_backends.py`` harness runs at
realistic sizes under pytest-benchmark; these tests import its smoke
mode (tiny grids, 2 generations, no timing assertions) so a backend
regression — a bitwise divergence or a broken pipeline rewire — fails
the ordinary test run fast. The smoke bodies write their report
sections to a temporary directory: only an explicit bench command
writes the committed ``benchmarks/reports/``.
"""

from __future__ import annotations

import os
import sys

import pytest

_BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

bench = pytest.importorskip("bench_engine_backends")
import _report  # noqa: E402  (the bench helper, importable once bench is)


@pytest.fixture(autouse=True)
def _reports_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(_report, "_REPORT_DIR", str(tmp_path))


class TestEngineBenchSmoke:
    def test_backends_agree_on_tiny_workloads(self):
        rows = bench.smoke_backends()
        # one row per backend per workload, all with sane timings
        assert len(rows) == 9
        assert all(r["seconds"] > 0 for r in rows)
        workloads = {r["workload"] for r in rows}
        assert len(workloads) == 3  # synthetic + mosaic + ridge

    def test_pipeline_backend_invariant(self):
        bench.smoke_pipeline()

    def test_session_agrees_with_per_step_engines(self):
        rows = bench.smoke_session()
        assert {r["mode"] for r in rows} == {"per-step engines", "session"}
        assert all(r["seconds"] > 0 for r in rows)

    def test_shared_sweep_agrees_and_reuses_across_systems(self):
        rows = bench.smoke_shared_sweep()
        assert {r["mode"] for r in rows} == {
            "per-system sessions",
            "shared session",
        }
        assert "x-sys hits" in bench.sweep_session_table(rows)

    def test_tables_render(self):
        rows = bench.smoke_backends()
        table = bench.backend_table(rows)
        assert "vectorized" in table and "vectorized x2" in table
        crows = bench.cache_rows(
            bench.grassland_case(size=24, n_steps=2), population=12
        )
        assert "hit rate" in bench.cache_table(crows)
        assert "session" in bench.session_table(bench.smoke_session())
