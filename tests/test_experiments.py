"""Tests for the experiment orchestration layer.

Covers the declarative plan (validation, JSON artifact round-trip), the
streaming results store (crash-tolerant parsing, resume keys), the
runner (shared-session groups, bitwise equivalence to direct per-cell
runs, cross-system cache reuse, crash-safe resume, session lifecycle,
sharding) and the per-system stat scopes the shared sessions
hand out.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distributed import ProcessShardExecutor
from repro.engine import EngineSession
from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
    RunKey,
    record_key,
)


def _tiny_plan(**overrides) -> ExperimentPlan:
    values = dict(
        name="tiny",
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("grassland", size=20, steps=2),),
        seeds=(0,),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=8, generations=2, session_cache_size=2048
        ),
    )
    values.update(overrides)
    return ExperimentPlan(**values)


class TestExperimentPlan:
    def test_grid_size_and_groups(self):
        plan = _tiny_plan(
            cases=(
                CaseSpec("grassland", size=20, steps=2),
                CaseSpec("river_gap", size=20, steps=2),
            ),
            seeds=(0, 1),
        )
        assert plan.n_runs == 2 * 2 * 2
        groups = plan.groups()
        assert len(groups) == 2  # one per (case, backend)
        (case, backend), keys = groups[0]
        assert case.name == "grassland" and backend == "vectorized"
        # all runs of a group replay the same case on the same backend
        assert {(k.case, k.backend) for k in keys} == {
            ("grassland", "vectorized")
        }
        assert len(keys) == 4
        assert [k.as_tuple() for k in plan.runs()] == [
            k.as_tuple() for _, ks in groups for k in ks
        ]

    def test_json_roundtrip_is_lossless_and_stable(self, tmp_path):
        plan = _tiny_plan(seeds=(3, 1, 2))
        path = tmp_path / "plan.json"
        plan.save_json(path)
        back = ExperimentPlan.load_json(path)
        assert back == plan
        back.save_json(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"systems": ()},
            {"systems": ("warp-drive",)},
            {"systems": ("ess", "ess")},
            {"cases": ()},
            {"seeds": ()},
            {"seeds": (1, 1)},
            {"backends": ("quantum",)},
            {"backends": ("process",)},
        ],
    )
    def test_invalid_plans_raise(self, overrides):
        with pytest.raises(ReproError):
            _tiny_plan(**overrides)

    def test_negative_seed_raises(self, tmp_path):
        """Every seed roots a NumPy stream, which takes no negative
        seed: a plan holding one is refused when it is built or loaded,
        and ``sweep --plan`` ends in one line, not in a worker."""
        from repro.cli import main

        with pytest.raises(ReproError, match="seeds must be >= 0"):
            _tiny_plan(seeds=(0, -1))
        with pytest.raises(ReproError, match="seeds must be >= 0"):
            _tiny_plan().with_seeds([-3])
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({**_tiny_plan().to_dict(), "seeds": [-1]}))
        with pytest.raises(ReproError, match="seeds must be >= 0"):
            ExperimentPlan.load_json(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--plan", str(path),
                  "--results", str(tmp_path / "r.jsonl")])
        assert excinfo.value.code == "plan seeds must be >= 0, got -1"

    def test_unknown_case_raises(self):
        with pytest.raises(ReproError):
            CaseSpec("atlantis")

    def test_malformed_payload_raises(self):
        with pytest.raises(ReproError):
            ExperimentPlan.from_dict({"systems": ["ess"]})

    def test_build_system_applies_budget(self):
        plan = _tiny_plan()
        system = plan.build_system("ess", "vectorized")
        assert system.backend == "vectorized"
        assert system.session_cache_size == 2048


class TestReferenceFireCache:
    """``CaseSpec.build`` runs the reference simulator once per distinct
    spec per process; the shared fire cannot be written to."""

    def test_equal_specs_share_one_fire(self):
        fire = CaseSpec("grassland", size=20, steps=2).build()
        assert CaseSpec("grassland", size=20, steps=2).build() is fire
        payload = {"name": "grassland", "size": 20, "steps": 2}
        assert CaseSpec.from_dict(payload).build() is fire
        # any differing field is a different fire
        assert CaseSpec("grassland", size=20, steps=3).build() is not fire
        assert CaseSpec("grassland", size=24, steps=2).build() is not fire

    @pytest.mark.parametrize("case", ["grassland", "heterogeneous"])
    def test_cached_masks_are_read_only(self, case):
        fire = CaseSpec(case, size=20, steps=2).build()
        for mask in fire.burned_masks:
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = True

    def test_cached_terrain_rasters_are_read_only(self):
        terrain = CaseSpec("heterogeneous", size=20, steps=2).build().terrain
        with pytest.raises(ValueError, match="read-only"):
            terrain.fuel[0, 0] = 1
        terrain = CaseSpec("river_gap", size=20, steps=2).build().terrain
        with pytest.raises(ValueError, match="read-only"):
            terrain.unburnable[0, 0] = False


class TestResultsStore:
    def _record(self, seed: int = 0, system: str = "ess") -> dict:
        return {
            "plan": "t",
            "system": system,
            "case": "grassland",
            "seed": seed,
            "backend": "vectorized",
            "quality": 0.5,
            "evaluations": 1,
            "seconds": 0.1,
            "run": {"system": "ESS", "steps": [], "session": {}},
        }

    def test_append_stream_and_completed(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        assert not store.exists() and store.records() == []
        store.append(self._record(0))
        store.append(self._record(1))
        assert len(store) == 2
        assert store.completed() == {
            ("ess", "grassland", 0, "vectorized"),
            ("ess", "grassland", 1, "vectorized"),
        }

    def test_truncated_final_line_is_ignored(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append(self._record(0))
        with open(store.path, "a") as fh:
            fh.write('{"system": "ess", "case": "gr')  # crash mid-append
        records = store.records()
        assert len(records) == 1
        assert record_key(records[0]) == ("ess", "grassland", 0, "vectorized")

    def test_unterminated_but_parseable_tail_is_not_complete(self, tmp_path):
        """Regression: a crash can persist a record's full JSON minus
        the trailing newline; counting it complete and then letting the
        next append truncate it would silently lose the cell."""
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append(self._record(0))
        with open(store.path, "a") as fh:
            fh.write(json.dumps(self._record(1)))  # crash before "\n"
        assert store.completed() == {("ess", "grassland", 0, "vectorized")}
        store.append(self._record(2))  # repairs the tail, then appends
        assert store.completed() == {
            ("ess", "grassland", 0, "vectorized"),
            ("ess", "grassland", 2, "vectorized"),
        }

    def test_interior_corruption_raises(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append(self._record(0))
        with open(store.path, "a") as fh:
            fh.write("not json\n")
        store.append(self._record(1))
        with pytest.raises(ReproError, match="corrupt"):
            store.records()

    def test_record_without_key_rejected(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        with pytest.raises(ReproError):
            store.append({"system": "ess"})
        assert not store.exists()

    def test_append_repairs_a_truncated_tail(self, tmp_path):
        """Regression: a crash's partial final line must be dropped by
        the next append, not merged into it (which would silently lose
        one record and poison every later read)."""
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append(self._record(0))
        with open(store.path, "a") as fh:
            fh.write('{"system": "ess", "case": "gr')  # crash mid-append
        store.append(self._record(1))
        store.append(self._record(2))
        records = store.records()
        assert [record_key(r)[2] for r in records] == [0, 1, 2]
        assert store.completed() == {
            ("ess", "grassland", s, "vectorized") for s in (0, 1, 2)
        }


class TestStoreMerge:
    def _record(self, seed: int, system: str = "ess", quality: float = 0.5):
        return {
            "plan": "t",
            "system": system,
            "case": "grassland",
            "seed": seed,
            "backend": "vectorized",
            "quality": quality,
            "evaluations": 1,
            "seconds": 0.1,
            "run": {"system": "ESS", "steps": [], "session": {}},
        }

    def test_merge_dedupes_first_writer_wins_sorted(self, tmp_path):
        dest = ResultsStore(tmp_path / "dest.jsonl")
        dest.append(self._record(5, quality=0.9))
        a = ResultsStore(tmp_path / "a.jsonl")
        a.append(self._record(5, quality=0.1))  # duplicate of dest's cell
        a.append(self._record(3))
        b = ResultsStore(tmp_path / "b.jsonl")
        b.append(self._record(3, quality=0.2))  # duplicate of a's cell
        b.append(self._record(1))
        summary = dest.merge(a, b)
        assert summary == {"records": 3, "duplicates": 2, "sources": 2}
        records = dest.records()
        # sorted by run key, so merge output is byte-comparable
        assert [record_key(r)[2] for r in records] == [1, 3, 5]
        by_seed = {record_key(r)[2]: r for r in records}
        assert by_seed[5]["quality"] == 0.9  # dest wrote first
        assert by_seed[3]["quality"] == 0.5  # source a beat source b

    def test_merge_accepts_record_iterables(self, tmp_path):
        dest = ResultsStore(tmp_path / "dest.jsonl")
        summary = dest.merge([self._record(2), self._record(0)])
        assert summary["records"] == 2
        assert [record_key(r)[2] for r in dest.records()] == [0, 2]

    def test_merge_compacts_partial_tails(self, tmp_path):
        dest = ResultsStore(tmp_path / "dest.jsonl")
        dest.append(self._record(0))
        src = ResultsStore(tmp_path / "src.jsonl")
        src.append(self._record(1))
        for store in (dest, src):
            with open(store.path, "a") as fh:
                fh.write('{"system": "ess", "case": "gr')  # crash tails
        dest.merge(src)
        with open(dest.path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2
        assert {record_key(r)[2] for r in dest.records()} == {0, 1}

    def test_merge_is_idempotent_and_stable(self, tmp_path):
        dest = ResultsStore(tmp_path / "dest.jsonl")
        dest.append(self._record(1))
        dest.append(self._record(0))
        src = ResultsStore(tmp_path / "src.jsonl")
        src.append(self._record(2))
        dest.merge(src)
        first = dest.path.read_bytes()
        summary = dest.merge(src)
        assert summary["duplicates"] == 1  # src is already folded in
        assert dest.path.read_bytes() == first

    def test_merge_cli(self, tmp_path, capsys):
        from repro.cli import main

        a = ResultsStore(tmp_path / "a.jsonl")
        a.append(self._record(0))
        b = ResultsStore(tmp_path / "b.jsonl")
        b.append(self._record(0, quality=0.0))
        b.append(self._record(1))
        out = tmp_path / "merged.jsonl"
        assert (
            main(
                [
                    "experiments",
                    "merge-stores",
                    "--into",
                    str(out),
                    str(a.path),
                    str(b.path),
                ]
            )
            == 0
        )
        assert "2 records" in capsys.readouterr().out
        assert len(ResultsStore(out).records()) == 2
        with pytest.raises(SystemExit, match="no such results store"):
            main(
                [
                    "experiments",
                    "merge-stores",
                    "--into",
                    str(out),
                    str(tmp_path / "missing.jsonl"),
                ]
            )


class TestBudgetOverrides:
    def test_budget_for_and_build_system(self):
        plan = _tiny_plan(budgets={"ess-ns": {"population": 12}})
        assert plan.budget_for("ess").population == 8
        assert plan.budget_for("ess-ns").population == 12
        assert plan.budget_for("ess-ns").generations == 2  # inherited
        system = plan.build_system("ess-ns", "vectorized")
        assert system.config.nsga.population_size == 12

    def test_json_roundtrip_with_budgets(self, tmp_path):
        plan = _tiny_plan(budgets={"ess": {"generations": 4}})
        path = tmp_path / "plan.json"
        plan.save_json(path)
        back = ExperimentPlan.load_json(path)
        assert back == plan
        assert back.budget_for("ess").generations == 4
        # plans without overrides keep the pre-override artifact shape
        assert "budgets" not in _tiny_plan().to_dict()

    @pytest.mark.parametrize(
        "budgets",
        [
            {"warp-drive": {"population": 12}},  # not a plan system
            {"ess": {"n_workers": 4}},  # session knob is per-group
            {"ess": {"session_cache_size": 1}},
            {"ess": {"flux": 1}},  # unknown key
            {"ess": 12},  # not a mapping
        ],
    )
    def test_invalid_overrides_raise(self, budgets):
        with pytest.raises(ReproError):
            _tiny_plan(budgets=budgets)

    def test_digest_covers_effective_budget(self):
        base = _tiny_plan()
        rebudgeted = _tiny_plan(budgets={"ess": {"population": 12}})
        case = base.cases[0]
        assert base.config_digest(case, "ess") == base.config_digest(
            case, "ess-ns"
        )
        assert rebudgeted.config_digest(case, "ess") != base.config_digest(
            case, "ess"
        )
        # the untouched system's digest is unchanged by the override
        assert rebudgeted.config_digest(case, "ess-ns") == base.config_digest(
            case, "ess-ns"
        )

    def test_rebudgeted_resume_is_refused_per_system(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        ExperimentRunner(store=store).run(_tiny_plan())
        rebudgeted = _tiny_plan(budgets={"ess": {"generations": 3}})
        with pytest.raises(ReproError, match="different configuration"):
            ExperimentRunner(store=store).run(rebudgeted)
        # an override that matches the recorded budget still resumes
        same = _tiny_plan(
            budgets={"ess": {"population": 8, "generations": 2}}
        )
        assert ExperimentRunner(store=store).run(same).n_resumed == 2

    def test_overridden_budget_changes_the_run(self):
        plan = _tiny_plan(budgets={"ess": {"generations": 3}})
        result = ExperimentRunner().run(plan)
        evals = {
            r["system"]: r["evaluations"] for r in result.records
        }
        assert evals["ess"] > evals["ess-ns"]


class TestSharedSessionEquivalence:
    """Acceptance: shared-session grids are bitwise-identical to running
    every cell directly on its own session, while reusing strictly more
    from the cache."""

    def test_shared_equals_isolated_with_more_hits(self):
        plan = _tiny_plan()
        shared = ExperimentRunner().run(plan)
        # each cell run directly: system.run builds its own session
        isolated = [
            plan.build_system(k.system, k.backend).run(
                plan.cases[0].build(), rng=k.seed
            )
            for k in plan.runs()
        ]
        assert len(shared.records) == len(isolated) == plan.n_runs
        for a, b in zip(shared.runs(), isolated):
            assert a.system == b.system
            assert np.array_equal(a.qualities(), b.qualities(), equal_nan=True)
            assert [s.kign for s in a.steps] == [s.kign for s in b.steps]
            assert [s.best_scenario_fitness for s in a.steps] == [
                s.best_scenario_fitness for s in b.steps
            ]
        shared_hits = sum(
            r["run"]["session"]["cache"]["hits"] for r in shared.records
        )
        isolated_hits = sum(run.session["cache"]["hits"] for run in isolated)
        assert shared_hits > isolated_hits
        # the reuse only a shared session can provide, and the summary
        # totals that report it
        assert shared.cross_system_hits() > 0
        assert all(run.session["cross_system_hits"] == 0 for run in isolated)
        totals = shared.per_system_totals()
        assert totals["ess-ns"]["cross_system_hits"] > 0

    def test_per_system_scope_stats_are_deltas(self):
        plan = _tiny_plan()
        result = ExperimentRunner().run(plan)
        sessions = [r["run"]["session"] for r in result.records]
        # each run reports its own scope: 2 steps each, not cumulative
        assert [s["steps"] for s in sessions] == [2, 2]
        assert all(s["systems"] == 1 for s in sessions)

    def test_same_system_repeats_count_no_cross_system_hits(self, small_fire):
        """Regression: repeat seeds of ONE system share a scope label,
        so reuse between them is cross-step, never 'cross-system'."""
        system = _tiny_plan().build_system("ess", "vectorized")
        with EngineSession(
            backend="vectorized", session_cache_size=4096
        ) as session:
            system.run(small_fire, rng=0, session=session)
            again = _tiny_plan().build_system("ess", "vectorized").run(
                small_fire, rng=0, session=session
            )
            stats = session.stats
        # identical seed → every evaluation of the repeat hits the cache
        assert again.session["cache"]["hits"] > 0
        assert again.session["cross_step_hits"] > 0
        assert again.session["cross_system_hits"] == 0
        assert stats.systems == 1  # one distinct label entered twice


class TestRunnerLifecycle:
    def test_crash_mid_group_closes_shared_session(self):
        created: list[EngineSession] = []

        def factory(**kwargs):
            session = EngineSession(**kwargs)
            created.append(session)
            return session

        def boom(record):
            raise RuntimeError("mid-group crash")

        runner = ExperimentRunner(session_factory=factory, progress=boom)
        with pytest.raises(RuntimeError, match="mid-group crash"):
            runner.run(_tiny_plan())
        assert len(created) == 1
        assert created[0].closed

    def test_sessions_closed_on_success_too(self):
        created: list[EngineSession] = []

        def factory(**kwargs):
            session = EngineSession(**kwargs)
            created.append(session)
            return session

        plan = _tiny_plan(
            cases=(
                CaseSpec("grassland", size=20, steps=2),
                CaseSpec("river_gap", size=20, steps=2),
            )
        )
        ExperimentRunner(session_factory=factory).run(plan)
        assert len(created) == 2  # one shared session per (case, backend)
        assert all(s.closed for s in created)

    def test_invalid_shards_raise(self):
        with pytest.raises(ReproError):
            ProcessShardExecutor(0)
        with pytest.raises(ReproError, match="ResultsStore"):
            ExperimentRunner().run(
                _tiny_plan(), executor=ProcessShardExecutor(2)
            )


class TestResume:
    def test_killed_sweep_resumes_only_missing_cells(self, tmp_path):
        """Acceptance: re-invoking with the same store completes only
        the missing (system, case, seed) cells."""
        plan = _tiny_plan(seeds=(0, 1))
        store = ResultsStore(tmp_path / "r.jsonl")
        seen: list[tuple] = []

        def die_after_two(record):
            seen.append(record_key(record))
            if len(seen) == 2:
                raise RuntimeError("killed")

        with pytest.raises(RuntimeError):
            ExperimentRunner(store=store, progress=die_after_two).run(plan)
        assert len(store.records()) == 2

        executed: list[tuple] = []
        result = ExperimentRunner(
            store=store, progress=lambda r: executed.append(record_key(r))
        ).run(plan)
        assert len(executed) == plan.n_runs - 2
        assert set(executed).isdisjoint(seen)
        assert result.n_resumed == 2
        # the full grid comes back, in plan order
        assert [record_key(r) for r in result.records] == [
            k.as_tuple() for k in plan.runs()
        ]

    def test_resume_rejects_changed_configuration(self, tmp_path):
        """Regression: the run key alone does not identify a result —
        resuming with a changed case shape or budget must refuse the
        store instead of serving the stale cells."""
        store = ResultsStore(tmp_path / "r.jsonl")
        ExperimentRunner(store=store).run(_tiny_plan())
        bigger_case = _tiny_plan(
            cases=(CaseSpec("grassland", size=28, steps=3),)
        )
        with pytest.raises(ReproError, match="different configuration"):
            ExperimentRunner(store=store).run(bigger_case)
        bigger_budget = _tiny_plan(
            budget=BudgetSpec(
                population=16, generations=2, session_cache_size=2048
            )
        )
        with pytest.raises(ReproError, match="different configuration"):
            ExperimentRunner(store=store).run(bigger_budget)
        # the unchanged plan still resumes cleanly
        assert ExperimentRunner(store=store).run(_tiny_plan()).n_resumed == 2

    def test_fully_recorded_plan_runs_nothing(self, tmp_path):
        plan = _tiny_plan()
        store = ResultsStore(tmp_path / "r.jsonl")
        first = ExperimentRunner(store=store).run(plan)
        executed: list[dict] = []
        second = ExperimentRunner(store=store, progress=executed.append).run(
            plan
        )
        assert executed == []
        assert second.n_resumed == plan.n_runs
        assert [record_key(r) for r in second.records] == [
            record_key(r) for r in first.records
        ]
        for a, b in zip(first.records, second.records):
            assert a["run"] == b["run"]

    def test_resumed_results_match_uninterrupted(self, tmp_path):
        plan = _tiny_plan(seeds=(0, 1))
        straight = ExperimentRunner().run(plan)
        store = ResultsStore(tmp_path / "r.jsonl")
        crash = [0]

        def die_after_one(record):
            crash[0] += 1
            if crash[0] == 1:
                raise RuntimeError("killed")

        with pytest.raises(RuntimeError):
            ExperimentRunner(store=store, progress=die_after_one).run(plan)
        resumed = ExperimentRunner(store=store).run(plan)
        for a, b in zip(straight.runs(), resumed.runs()):
            assert a.system == b.system
            assert np.array_equal(a.qualities(), b.qualities(), equal_nan=True)


class TestSharding:
    def test_sharded_run_covers_the_grid(self, tmp_path):
        plan = _tiny_plan(
            cases=(
                CaseSpec("grassland", size=20, steps=2),
                CaseSpec("river_gap", size=20, steps=2),
            )
        )
        store = ResultsStore(tmp_path / "r.jsonl")
        result = ExperimentRunner(store=store).run(
            plan, executor=ProcessShardExecutor(2)
        )
        assert len(result.records) == plan.n_runs
        assert {record_key(r) for r in result.records} == {
            k.as_tuple() for k in plan.runs()
        }
        serial = ExperimentRunner().run(plan)
        for a, b in zip(result.runs(), serial.runs()):
            assert np.array_equal(a.qualities(), b.qualities(), equal_nan=True)


class TestRunBorrowedSession:
    def test_borrowed_session_is_not_closed(self, small_fire):
        plan = _tiny_plan()
        system = plan.build_system("ess", "vectorized")
        with EngineSession(
            backend="vectorized", session_cache_size=256
        ) as session:
            run = system.run(small_fire, rng=0, session=session)
            assert not session.closed
            assert run.session["systems"] == 1
            # a second borrower reuses what the first computed
            other = plan.build_system("ess-ns", "vectorized")
            run2 = other.run(small_fire, rng=0, session=session)
            assert run2.session["cross_system_hits"] > 0

    def test_closed_session_rejected(self, small_fire):
        system = _tiny_plan().build_system("ess", "vectorized")
        session = EngineSession(backend="vectorized")
        session.close()
        with pytest.raises(ReproError, match="closed"):
            system.run(small_fire, rng=0, session=session)

    def test_overlapping_scopes_rejected(self):
        session = EngineSession()
        scope = session.scoped("a")
        with pytest.raises(ReproError, match="still active"):
            session.scoped("b")
        scope.close()
        session.scoped("b").close()
        session.close()


class TestExperimentResult:
    def test_record_lookup_and_json_stream(self, tmp_path):
        plan = _tiny_plan()
        store = ResultsStore(tmp_path / "r.jsonl")
        result = ExperimentRunner(store=store).run(plan)
        record = result.record("ess", "grassland", 0, "vectorized")
        assert record["plan"] == "tiny"
        with pytest.raises(ReproError):
            result.record("ess", "grassland", 99, "vectorized")
        # every stored line is valid standalone JSON (the streaming
        # contract external tools rely on)
        with open(store.path) as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)

    def test_run_key_tuple(self):
        key = RunKey("ess", "grassland", 3, "reference")
        assert key.as_tuple() == ("ess", "grassland", 3, "reference")
