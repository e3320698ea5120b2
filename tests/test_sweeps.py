"""Tests for sweep aggregation and the ESSIM-DE solution policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweeps import SweepResult
from repro.ea.de import DEConfig
from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
)
from repro.parallel.islands import IslandModelConfig
from repro.systems import ESSIMDE, ESSIMDEConfig


def _plan(**overrides) -> ExperimentPlan:
    values = dict(
        name="sweep",
        systems=("ess",),
        cases=(CaseSpec("grassland", size=20, steps=2),),
        seeds=(0, 1),
        budget=BudgetSpec(population=8, generations=2),
    )
    values.update(overrides)
    return ExperimentPlan(**values)


def _sweep(records, plan: ExperimentPlan) -> SweepResult:
    return SweepResult.from_records(
        records,
        systems=list(plan.systems),
        cases=[c.name for c in plan.cases],
    )


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    """One tiny plan run, aggregated: ESS on grassland over seeds 0, 1."""
    plan = _plan()
    return _sweep(ExperimentRunner().run(plan).records, plan)


class TestRunSweep:
    def test_cells_cover_grid(self, sweep):
        assert len(sweep.cells) == 1
        cell = sweep.cell("ess", "grassland")
        assert len(cell.qualities) == 2
        assert 0.0 <= cell.mean <= 1.0
        assert cell.std >= 0.0
        assert cell.evaluations > 0

    def test_labels(self, sweep):
        assert sweep.systems() == ["ess"]
        assert sweep.cases() == ["grassland"]
        assert sweep.winner("grassland") == "ess"

    def test_missing_cell_raises(self, sweep):
        with pytest.raises(ReproError):
            sweep.cell("ess", "other")
        with pytest.raises(ReproError):
            sweep.winner("other")

    def test_table_rows_schema(self, sweep):
        rows = sweep.table_rows()
        assert rows[0][0] == "ess"
        assert "±" in rows[0][2]

    def test_json_roundtrip(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        sweep.save_json(path)
        back = SweepResult.load_json(path)
        assert back.cell("ess", "grassland").qualities == sweep.cell(
            "ess", "grassland"
        ).qualities

    def test_malformed_payload_raises(self):
        with pytest.raises(ReproError):
            SweepResult.from_dict({"cells": [{"system": "x"}]})

    def test_serialization_order_is_deterministic(self):
        """Regression: cell order in the payload must not depend on
        construction (dict/iteration) order — serialize sorts by
        (system, case) so round-trips agree across Python versions."""
        from repro.analysis.sweeps import SweepCell

        cells = [
            SweepCell("B", "y", (0.1,), 1, 0.1),
            SweepCell("A", "z", (0.2,), 1, 0.1),
            SweepCell("B", "x", (0.3,), 1, 0.1),
            SweepCell("A", "x", (0.4,), 1, 0.1),
        ]
        forward = SweepResult(cells=list(cells))
        shuffled = SweepResult(cells=list(reversed(cells)))
        assert forward.to_dict() == shuffled.to_dict()
        ordered = [
            (c["system"], c["case"]) for c in forward.to_dict()["cells"]
        ]
        assert ordered == sorted(ordered)
        back = SweepResult.from_dict(forward.to_dict())
        assert back.to_dict() == forward.to_dict()
        assert back.systems() == ["A", "B"]  # first-seen == sorted now
        for cell in cells:
            assert (
                back.cell(cell.system, cell.case).qualities == cell.qualities
            )

    def test_save_json_bytes_stable(self, sweep, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sweep.save_json(a)
        SweepResult.load_json(a).save_json(b)
        assert a.read_text() == b.read_text()


class TestSweepExperimentIntegration:
    def test_sweep_matches_pre_experiment_layer_execution(self, sweep):
        """Aggregating runner records must not change the numbers: the
        same seeds run directly, each on its own session, give the
        same per-run qualities."""
        plan = _plan()
        (case,) = plan.cases
        expected = tuple(
            plan.build_system("ess", "reference")
            .run(case.build(), rng=seed)
            .mean_quality()
            for seed in plan.seeds
        )
        assert sweep.cell("ess", "grassland").qualities == expected

    def test_sweep_streams_and_resumes_through_store(self, tmp_path):
        store = ResultsStore(tmp_path / "sweep.jsonl")
        plan = _plan()
        first = _sweep(ExperimentRunner(store=store).run(plan).records, plan)
        assert len(store.records()) == 2
        again = ExperimentRunner(store=store).run(plan)
        assert again.n_resumed == 2  # nothing re-ran
        assert len(store.records()) == 2
        assert (
            _sweep(again.records, plan).cell("ess", "grassland").qualities
            == first.cell("ess", "grassland").qualities
        )
        rebuilt = SweepResult.from_store(store)
        assert (
            rebuilt.cell("ess", "grassland").qualities
            == first.cell("ess", "grassland").qualities
        )

    def test_multi_backend_records_keep_separate_cells(self):
        """Regression: records from different backends must not merge
        into one cell (duplicated qualities, halved std)."""
        records = [
            {
                "system": "ess", "case": "c", "seed": s, "backend": b,
                "quality": q, "evaluations": 10, "run_seconds": 1.0,
            }
            for b, q in (("reference", 0.5), ("vectorized", 0.5))
            for s in (0, 1)
        ]
        sweep = SweepResult.from_records(records, systems=["ess"], cases=["c"])
        assert sweep.systems() == ["ess[reference]", "ess[vectorized]"]
        for cell in sweep.cells:
            assert len(cell.qualities) == 2  # one entry per seed, not four
            assert cell.evaluations == 20
        single = SweepResult.from_records(
            [r for r in records if r["backend"] == "reference"]
        )
        assert single.systems() == ["ess"]  # no decoration for one backend

    def test_duplicate_records_count_once(self):
        """Regression: concatenated stores can repeat a run key; each
        seed must contribute exactly one quality to its cell."""
        record = {
            "system": "ess", "case": "c", "seed": 0, "backend": "reference",
            "quality": 0.5, "evaluations": 10, "run_seconds": 1.0,
        }
        sweep = SweepResult.from_records([record, dict(record)])
        cell = sweep.cell("ess", "c")
        assert cell.qualities == (0.5,)
        assert cell.evaluations == 10

    def test_winner_skips_nan_cells(self):
        """Regression: a NaN-mean cell listed first must not beat a
        cell with a real quality (max over raw floats keeps NaN)."""
        from repro.analysis.sweeps import SweepCell

        sweep = SweepResult(
            cells=[
                SweepCell("bad", "c", (float("nan"),), 1, 0.1),
                SweepCell("good", "c", (0.9,), 1, 0.1),
            ]
        )
        assert sweep.winner("c") == "good"
        all_nan = SweepResult(
            cells=[SweepCell("bad", "c", (float("nan"),), 1, 0.1)]
        )
        with pytest.raises(ReproError, match="valid mean"):
            all_nan.winner("c")
        from repro.analysis.reporting import format_sweep

        assert "c: —" in format_sweep(all_nan)  # report, don't crash

    def test_distinct_single_backend_labels_stay_plain(self):
        """Labels each pinned to one backend keep their names even when
        the record set spans several backends overall."""
        records = [
            {
                "system": sys_, "case": "c", "seed": 0, "backend": b,
                "quality": 0.5, "evaluations": 10, "run_seconds": 1.0,
            }
            for sys_, b in (("ESS-ref", "reference"), ("ESS-vec", "vectorized"))
        ]
        sweep = SweepResult.from_records(
            records, systems=["ESS-ref", "ESS-vec"], cases=["c"]
        )
        assert sweep.systems() == ["ESS-ref", "ESS-vec"]
        assert len(sweep.cell("ESS-ref", "c").qualities) == 1

    def test_mixed_config_records_refuse_one_cell(self):
        """Regression: disjoint-seed records from different budgets
        share no resume key, so aggregation is the last line of defence
        against silently averaging incomparable runs."""
        records = [
            {
                "system": "ess", "case": "c", "seed": s, "backend": "reference",
                "config": cfg, "quality": 0.5, "evaluations": 10,
                "run_seconds": 1.0,
            }
            for cfg, s in (("aaaa", 0), ("bbbb", 1))
        ]
        with pytest.raises(ReproError, match="mix different configurations"):
            SweepResult.from_records(records)


class TestESSIMDESolutionPolicy:
    def _system(self, policy):
        return ESSIMDE(
            ESSIMDEConfig(
                de=DEConfig(population_size=8),
                islands=IslandModelConfig(n_islands=2, migration_interval=2),
                max_generations=2,
                solution_policy=policy,
            )
        )

    def test_best_only_halves_solution_set(self, small_fire):
        full = self._system("population").run(small_fire, rng=3)
        half = self._system("best_only").run(small_fire, rng=3)
        for f, h in zip(full.steps, half.steps):
            assert h.n_solutions == f.n_solutions // 2

    def test_bad_policy_raises(self):
        with pytest.raises(ValueError):
            ESSIMDEConfig(solution_policy="bogus")

    def test_both_policies_produce_predictions(self, small_fire):
        for policy in ("population", "best_only"):
            run = self._system(policy).run(small_fire, rng=1)
            q = run.qualities()
            assert np.isfinite(q[1:]).all()
