"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_system, main
from repro.systems import ESS, ESSIMDE, ESSIMEA, ESSNS, ESSNSIM
from repro.systems.results import RunResult


class TestBuildSystem:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ess", ESS),
            ("ess-ns", ESSNS),
            ("essim-ea", ESSIMEA),
            ("essim-de", ESSIMDE),
            ("essns-im", ESSNSIM),
        ],
    )
    def test_all_names(self, name, cls):
        system = build_system(name, population=8, generations=2)
        assert isinstance(system, cls)

    def test_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            build_system("bogus")

    def test_workers_forwarded(self):
        assert build_system("ess", n_workers=3).n_workers == 3

    def test_engine_options_forwarded(self):
        system = build_system("ess", backend="vectorized", cache_size=64)
        assert system.backend == "vectorized"
        assert system.cache_size == 64

    def test_engine_defaults_preserve_behavior(self):
        system = build_system("ess-ns")
        assert system.backend == "reference"
        assert system.cache_size == 0


class TestSimulateCommand:
    def test_prints_stats(self, capsys):
        rc = main(["simulate", "--size", "30", "--minutes", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "burned cells:" in out
        assert "ft/min" in out

    def test_wet_inputs(self, capsys):
        rc = main(
            ["simulate", "--size", "30", "--minutes", "20", "--m1", "55",
             "--mherb", "290", "--wind-speed", "0"]
        )
        assert rc == 0
        assert "burned cells: 1 /" in capsys.readouterr().out


class TestRunCommand:
    def test_run_table(self, capsys):
        rc = main(
            ["run", "ess-ns", "--size", "28", "--steps", "2",
             "--population", "8", "--generations", "2", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ESS-NS" in out
        assert "Kign" in out

    def test_run_with_backend_and_cache(self, capsys):
        rc = main(
            ["run", "ess", "--size", "28", "--steps", "2",
             "--population", "8", "--generations", "2",
             "--backend", "vectorized", "--cache-size", "128"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=vectorized" in out
        assert "cache-hits=" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "ess", "--backend", "quantum"])

    def test_run_saves_json(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        rc = main(
            ["run", "ess", "--size", "28", "--steps", "2",
             "--population", "8", "--generations", "2", "--output", str(path)]
        )
        assert rc == 0
        loaded = RunResult.load_json(path)
        assert loaded.system == "ESS"
        assert len(loaded.steps) == 2


class TestCompareCommand:
    def test_compare_table(self, capsys):
        rc = main(
            ["compare", "--systems", "ess,ess-ns", "--size", "28",
             "--steps", "2", "--population", "8", "--generations", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "ESS" in out and "ESS-NS" in out
        assert "experiment:" in out  # the shared-session summary block

    def test_compare_shared_session_reports_cross_system_hits(self, capsys):
        rc = main(
            ["compare", "--systems", "ess,ess-ns", "--size", "24",
             "--steps", "2", "--population", "8", "--generations", "2",
             "--backend", "vectorized", "--session-cache-size", "2048"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        cross = [
            line for line in out.splitlines()
            if line.startswith("experiment:")
        ]
        assert cross and "cross-system-hits=" in cross[0]
        hits = int(cross[0].split("cross-system-hits=")[1].split()[0])
        assert hits > 0

    def test_compare_isolated_sessions_flag(self, capsys):
        rc = main(
            ["compare", "--systems", "ess,ess-ns", "--size", "24",
             "--steps", "2", "--population", "8", "--generations", "2",
             "--session-cache-size", "2048", "--isolated-sessions"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-system-hits=0" in out

    def test_compare_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["compare", "--systems", "ess,warp-drive", "--size", "24"])

    def test_compare_results_store_resumes(self, capsys, tmp_path):
        """compare is routed through the executor seam: it streams into
        a results store and resumes from it like any experiment."""
        store = tmp_path / "cmp.jsonl"
        args = [
            "compare", "--systems", "ess,ess-ns", "--size", "20",
            "--steps", "2", "--population", "8", "--generations", "2",
            "--results", str(store),
        ]
        assert main(args) == 0
        assert "(resumed 0)" in capsys.readouterr().out
        assert main(args) == 0
        assert "(resumed 2)" in capsys.readouterr().out

    def test_compare_executor_process_needs_results(self, capsys):
        with pytest.raises(SystemExit, match="ResultsStore"):
            main(
                ["compare", "--systems", "ess,ess-ns", "--size", "20",
                 "--steps", "2", "--population", "8", "--generations", "2",
                 "--executor", "process"]
            )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["compare"],
            ["experiments", "serve-coordinator", "--plan", "p.json",
             "--results", "r.jsonl"],
            ["serve", "--spool", "spool"],
        ],
        ids=["sweep", "compare", "serve-coordinator", "serve"],
    )
    def test_min_unit_cells_below_one_is_a_usage_error(self, argv, capsys):
        """The lease floor is at least one cell: 0 (the retired
        whole-group mode) is refused by argparse, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--min-unit-cells", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestSweepCommand:
    _ARGS = [
        "sweep", "--systems", "ess,ess-ns", "--cases", "grassland",
        "--size", "20", "--steps", "2", "--seeds", "0,1",
        "--population", "8", "--generations", "2",
        "--backend", "vectorized", "--session-cache-size", "1024",
    ]

    def test_sweep_table_and_summary(self, capsys):
        rc = main(self._ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "winners —" in out
        assert "experiment:" in out and "cross-system-hits=" in out

    def test_sweep_saves_plan_results_and_output(self, capsys, tmp_path):
        from repro.experiments import ExperimentPlan, ResultsStore

        plan_path = tmp_path / "plan.json"
        results_path = tmp_path / "results.jsonl"
        out_path = tmp_path / "sweep.json"
        rc = main(
            self._ARGS
            + ["--save-plan", str(plan_path), "--results", str(results_path),
               "--output", str(out_path)]
        )
        assert rc == 0
        plan = ExperimentPlan.load_json(plan_path)
        assert plan.systems == ("ess", "ess-ns")
        assert plan.seeds == (0, 1)
        store = ResultsStore(results_path)
        assert len(store.records()) == plan.n_runs
        from repro.analysis.sweeps import SweepResult

        sweep = SweepResult.load_json(out_path)
        assert len(sweep.cell("ess", "grassland").qualities) == 2

    def test_sweep_resumes_from_results(self, capsys, tmp_path):
        results_path = tmp_path / "results.jsonl"
        assert main(self._ARGS + ["--results", str(results_path)]) == 0
        first = capsys.readouterr().out
        assert "resumed 0" in first
        assert main(self._ARGS + ["--results", str(results_path)]) == 0
        second = capsys.readouterr().out
        assert "resumed 4" in second
        # the resumed table reports the identical grid
        table = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("ess", "ess-ns"))
        ]
        assert table(first)[:2] == table(second)[:2]

    def test_sweep_seed_offset_shifts_plan_seeds(self, tmp_path):
        from repro.experiments import ExperimentPlan

        plan_path = tmp_path / "plan.json"
        rc = main(
            ["sweep", "--systems", "ess", "--cases", "grassland",
             "--size", "20", "--steps", "2", "--seeds", "0,1",
             "--seed", "100", "--population", "8", "--generations", "2",
             "--save-plan", str(plan_path)]
        )
        assert rc == 0
        assert ExperimentPlan.load_json(plan_path).seeds == (100, 101)

    def test_sweep_runs_a_loaded_plan(self, capsys, tmp_path):
        from repro.experiments import BudgetSpec, CaseSpec, ExperimentPlan

        plan = ExperimentPlan(
            name="from-file",
            systems=("ess",),
            cases=(CaseSpec("grassland", size=20, steps=2),),
            seeds=(7,),
            budget=BudgetSpec(population=8, generations=2),
        )
        path = tmp_path / "plan.json"
        plan.save_json(path)
        rc = main(["sweep", "--plan", str(path)])
        assert rc == 0
        assert "plan=from-file" in capsys.readouterr().out

    def test_sweep_unknown_case_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--systems", "ess", "--cases", "atlantis"])

    def test_sweep_bad_seed_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--systems", "ess", "--seeds", "0,x"])

    def test_sweep_missing_plan_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--plan", "/nonexistent/plan.json"])

    def test_sweep_unwritable_results_exits_cleanly(self, tmp_path):
        target = tmp_path / "blocker"
        target.write_text("a file, not a directory")
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--systems", "ess", "--cases", "grassland",
                 "--size", "20", "--steps", "2", "--seeds", "0",
                 "--population", "8", "--generations", "2",
                 "--results", str(target / "r.jsonl")]
            )


class TestSerializationRoundtrip:
    def test_run_result_roundtrip(self, tmp_path, small_fire):
        from repro.ea.ga import GAConfig
        from repro.systems import ESSConfig

        run = ESS(
            ESSConfig(ga=GAConfig(population_size=8), max_generations=2)
        ).run(small_fire, rng=0)
        path = tmp_path / "r.json"
        run.save_json(path)
        back = RunResult.load_json(path)
        assert back.system == run.system
        assert np.array_equal(back.qualities(), run.qualities(), equal_nan=True)
        assert back.total_evaluations() == run.total_evaluations()
        for a, b in zip(run.steps, back.steps):
            assert a.kign == b.kign
            assert a.timings.seconds == pytest.approx(b.timings.seconds)

    def test_malformed_payload_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            RunResult.from_dict({"no": "steps"})
