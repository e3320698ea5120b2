"""Tests for the predictive unit cost model (`repro.experiments.costs`).

The scheduling contract under test: cost estimates decide *where and
in what chunks* cells run — never what they record — so every
split/merge must preserve the exact cell multiset, the model must
round-trip through its snapshot (two schedulers built from identical
state make identical decisions), and unit boundaries must produce
bitwise-identical stores in the parity view at any granularity.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
    UnitCostModel,
    WorkSet,
    WorkUnit,
    record_key,
)
from repro.experiments.costs import (
    load_cost_model,
    plan_cost_model,
    save_cost_model,
    seed_plan_priors,
)
from repro.experiments.store import parity_view
from repro.experiments.work import merge_group_units


def _plan(**overrides) -> ExperimentPlan:
    values = dict(
        name="costs-test",
        systems=("ess", "ess-ns"),
        cases=(
            CaseSpec("grassland", size=20, steps=2),
            CaseSpec("river_gap", size=20, steps=2),
        ),
        seeds=(0, 1),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=8, generations=2, session_cache_size=2048
        ),
    )
    values.update(overrides)
    return ExperimentPlan(**values)


# ----------------------------------------------------------------------
# The model itself
# ----------------------------------------------------------------------
class TestUnitCostModel:
    def test_validation(self):
        with pytest.raises(ReproError, match="alpha"):
            UnitCostModel(alpha=0.0)
        with pytest.raises(ReproError, match="alpha"):
            UnitCostModel(alpha=1.5)
        with pytest.raises(ReproError, match="positive"):
            UnitCostModel(default_rate=0.0)
        with pytest.raises(ReproError, match="prior work"):
            UnitCostModel().set_prior_work("k", 0.0)

    def test_observe_ema(self):
        model = UnitCostModel(alpha=0.5)
        model.observe("k", 4, 2.0)  # 0.5 s/cell
        assert model.rate("k") == pytest.approx(0.5)
        model.observe("k", 2, 2.0)  # 1.0 s/cell sample
        assert model.rate("k") == pytest.approx(0.75)
        assert model.samples["k"] == 2
        # degenerate reports are dropped, not folded as zeros
        model.observe("k", 0, 1.0)
        model.observe("k", 4, 0.0)
        assert model.samples["k"] == 2

    def test_observe_lower_bound_only_raises_the_estimate(self):
        """An in-flight unit's elapsed time bounds its cost from below:
        a long-running unit teaches the model early, a half-done unit
        never drags the rate down."""
        model = UnitCostModel(alpha=0.5)
        model.observe("k", 1, 1.0)
        model.observe_lower_bound("k", 1, 0.1)  # half-done: ignored
        assert model.rate("k") == pytest.approx(1.0)
        model.observe_lower_bound("k", 1, 3.0)  # running long: folded
        assert model.rate("k") == pytest.approx(2.0)

    def test_rate_fallback_chain(self):
        model = UnitCostModel(
            default_rate=7.0, default_engine_rate=1e-6
        )
        # nothing known at all: the fixed default
        assert model.rate("k") == pytest.approx(7.0)
        # a prior magnitude without engine rates: default engine rate
        model.set_prior_work("k", 2_000_000.0)
        assert model.rate("k") == pytest.approx(2.0)
        # folded engine rates rescale the prior
        model.fold_engine({"kernel": 2e-6})
        assert model.rate("k") == pytest.approx(4.0)
        # measured beats everything
        model.observe("k", 10, 5.0)
        assert model.rate("k") == pytest.approx(0.5)
        # an unknown kernel without a prior borrows the measured mean
        assert model.rate("other") == pytest.approx(0.5)

    def test_fold_engine_ignores_malformed_wire_input(self):
        model = UnitCostModel()
        model.fold_engine(None)
        model.fold_engine("garbage")
        model.fold_engine({"k": "soon", "j": -1.0, "ok": 2e-6})
        assert model.engine == {"ok": pytest.approx(2e-6)}

    def test_min_cells_for_tracks_measured_rate(self):
        model = UnitCostModel()
        model.observe("k", 10, 1.0)  # 0.1 s/cell
        assert model.min_cells_for("k", 1.0) == 10
        assert model.min_cells_for("k", 1.0, floor=16) == 16
        assert model.min_cells_for("k", 0.0, floor=3) == 3
        assert model.min_cells_for("k", 1e-9) == 1

    def test_dict_round_trip(self):
        model = UnitCostModel(alpha=0.4)
        model.observe("a:ref", 4, 2.0)
        model.set_prior_work("b:ref", 100.0)
        model.fold_engine({"kernel": 3e-7})
        clone = UnitCostModel.from_dict(model.to_dict())
        assert clone.to_dict() == model.to_dict()
        assert clone.rate("a:ref") == model.rate("a:ref")
        assert clone.rate("b:ref") == model.rate("b:ref")

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ReproError, match="malformed cost model"):
            UnitCostModel.from_dict({"rates": {"k": "soon"}})

    def test_plan_cost_model_seeds_priors_per_group(self):
        plan = _plan()
        model = plan_cost_model(plan)
        keys = {
            UnitCostModel.kernel_key(case.name, backend)
            for (case, backend), _ in plan.groups()
        }
        assert set(model.prior_work) == keys
        # a bigger case must carry a bigger prior (relative ordering is
        # the whole point of plan seeding)
        big = _plan(
            cases=(
                CaseSpec("grassland", size=20, steps=2),
                CaseSpec("river_gap", size=40, steps=2),
            )
        )
        big_model = plan_cost_model(big)
        assert (
            big_model.prior_work["river_gap:vectorized"]
            > big_model.prior_work["grassland:vectorized"]
        )


# ----------------------------------------------------------------------
# Re-merging requeued fragments
# ----------------------------------------------------------------------
def _units(*sizes: int) -> list[WorkUnit]:
    return [
        WorkUnit(g, tuple(("s", f"c{g}", i, "b") for i in range(n)))
        for g, n in enumerate(sizes)
    ]


class TestCostScheduling:
    def test_merge_group_units(self):
        units = _units(6, 2)
        a, b = units[0].split()
        merged = merge_group_units([a, units[1], b])
        assert [u.group for u in merged] == [0, 1]  # first-seen order
        assert sorted(merged[0].cells) == sorted(units[0].cells)
        assert merged[1] == units[1]


# ----------------------------------------------------------------------
# Parity: cost-driven unit boundaries never change any record
# ----------------------------------------------------------------------
class TestCostSplitParity:
    def test_forced_uneven_cost_split_is_results_inert(self, tmp_path):
        """Property: run the same plan whole and carved unevenly, the
        way a cost-sized lease carves an expensive group; the stores
        agree bitwise in the parity view, cell for cell."""
        plan = _plan(seeds=(0, 1))
        whole = ResultsStore(tmp_path / "whole.jsonl")
        ExperimentRunner(store=whole).run(plan)

        expensive, cheap = WorkSet.compile(plan, set()).pending()
        probe, rest = expensive.split_at(1)
        carved = ResultsStore(tmp_path / "carved.jsonl")
        runner = ExperimentRunner(store=carved)
        # one cell, then a whole group, then the rest: same records
        # must land regardless of the carve or the delivery order
        for unit in (probe, cheap, rest):
            runner.run_units(plan, [unit], carved.completed())

        def normalized(store: ResultsStore) -> list[dict]:
            return [
                parity_view(r)
                for r in sorted(store.records(), key=record_key)
            ]

        assert normalized(carved) == normalized(whole)


# ----------------------------------------------------------------------
# Snapshot persistence: the sidecar a coordinator leaves for its heir
# ----------------------------------------------------------------------
class TestCostSnapshotPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = UnitCostModel()
        model.observe("grassland:vectorized", 10, 2.0)
        model.observe("river_gap:vectorized", 4, 1.0)
        model.fold_engine({"spread": 1e-7})
        model.set_prior_work("forest:vectorized", 123.0)
        path = tmp_path / "costs.json"
        save_cost_model(model, path)
        restored = load_cost_model(path)
        assert restored is not None
        assert restored.to_dict() == model.to_dict()
        # identical snapshots make identical scheduling decisions
        assert restored.estimate("grassland:vectorized", 7) == (
            model.estimate("grassland:vectorized", 7)
        )

    def test_missing_snapshot_is_a_cold_start(self, tmp_path):
        assert load_cost_model(tmp_path / "absent.json") is None

    def test_corrupt_snapshot_is_a_cold_start(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_cost_model(path) is None
        path.write_text('["a", "list"]', encoding="utf-8")
        assert load_cost_model(path) is None

    def test_seed_plan_priors_overwrite_modes(self):
        plan = _plan()
        model = UnitCostModel()
        seed_plan_priors(model, plan)
        kernel = UnitCostModel.kernel_key("grassland", "vectorized")
        assert kernel in model.prior_work
        original = model.prior_work[kernel]
        model.prior_work[kernel] = original * 10
        # overwrite=False respects the refined prior...
        seed_plan_priors(model, plan, overwrite=False)
        assert model.prior_work[kernel] == original * 10
        # ...overwrite=True resets it to the plan's budget estimate
        seed_plan_priors(model, plan, overwrite=True)
        assert model.prior_work[kernel] == original

    def test_fleet_executor_restores_and_persists_snapshot(self, tmp_path):
        """A FleetExecutor pointed at a sidecar restores its measured
        rates before serving and writes the refined model on finish."""
        import threading

        from repro.distributed import FleetExecutor, run_worker

        snapshot = tmp_path / "fleet-costs.json"
        primed = UnitCostModel()
        primed.observe("grassland:vectorized", 100, 5.0)
        save_cost_model(primed, snapshot)

        plan = _plan(
            seeds=(0,), cases=(CaseSpec("grassland", size=20, steps=2),)
        )
        store = ResultsStore(tmp_path / "results.jsonl")
        threads: list[threading.Thread] = []

        def on_bound(address):
            thread = threading.Thread(
                target=run_worker,
                args=(address,),
                kwargs={
                    "store_path": tmp_path / "worker",
                    "worker_id": "snapshot-w0",
                },
            )
            thread.start()
            threads.append(thread)

        executor = FleetExecutor(
            lease_timeout=10.0,
            poll_interval=0.05,
            timeout=120.0,
            cost_snapshot=snapshot,
            on_bound=on_bound,
        )
        result = ExperimentRunner(store=store).run(plan, executor=executor)
        for thread in threads:
            thread.join(timeout=60)
        assert len(result.records) == plan.n_runs
        assert executor.cost_model is not None
        # the restored measured rate was live while serving (it was
        # then refined by this run's own unit timings)
        assert "grassland:vectorized" in executor.cost_model.rates
        # and the refined model was written back on finish
        rewritten = load_cost_model(snapshot)
        assert rewritten is not None
        assert rewritten.samples["grassland:vectorized"] >= 1
