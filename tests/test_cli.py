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


    @pytest.mark.parametrize("case", ["heterogeneous", "river_gap"])
    def test_simulate_on_a_cached_case(self, case, capsys):
        """The case's fire comes from the shared read-only cache; the
        simulator only reads its terrain."""
        for _ in range(2):
            rc = main(["simulate", "--case", case, "--size", "24",
                       "--minutes", "20"])
            assert rc == 0
        assert f"terrain: {case} (24, 24)" in capsys.readouterr().out


class TestRunCommand:
    @pytest.mark.parametrize("case", ["heterogeneous", "river_gap"])
    def test_run_on_a_cached_case(self, case, capsys):
        argv = ["run", "ess", "--case", case, "--size", "20", "--steps",
                "2", "--population", "8", "--generations", "2",
                "--backend", "vectorized"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # the second run reads the cached, read-only fire
        assert main(argv) == 0
        assert capsys.readouterr().out.count("Kign") == first.count("Kign")

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
        for name in ("quantum", "process"):
            with pytest.raises(SystemExit):
                main(["run", "ess", "--backend", name])

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

    def test_compare_unknown_system_exits(self):
        """Bad grid values end in a one-line exit, not a traceback —
        on compare and on the commands that build one fire."""
        for argv in (
            ["compare", "--systems", "ess,warp-drive", "--size", "24"],
            ["run", "ess", "--size", "0"],
            ["run", "ess", "--steps", "0"],
            ["run", "ess", "--generations", "0"],
            ["simulate", "--size", "0"],
            ["simulate", "--minutes", "-5"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert isinstance(excinfo.value.code, str), argv

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
            ["serve", "--spool", "spool"],
        ],
        ids=["sweep", "compare", "serve"],
    )
    def test_min_unit_cells_below_one_is_a_usage_error(self, argv, capsys):
        """The lease floor is at least one cell: 0 (the retired
        whole-group mode) is refused by argparse, not a traceback —
        as are ``--shards 0`` and the retired ``--isolated-sessions``."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--min-unit-cells", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        if argv[0] in ("sweep", "compare"):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--shards", "0"])
            assert excinfo.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--isolated-sessions"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "soon"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["serve", "--spool", "spool"],
            ["experiments", "worker", "--connect", "127.0.0.1:9"],
        ],
        ids=["sweep", "serve", "worker"],
    )
    def test_non_positive_poll_interval_is_a_usage_error(
        self, argv, bad, capsys
    ):
        """0 would make an idle worker re-ask in a busy loop; negative
        or non-finite values are refused before anything starts."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--poll-interval", bad])
        assert excinfo.value.code == 2
        assert "poll interval must be a finite number of seconds > 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv, flag, bad, name",
        [
            (["serve", "--spool", "spool"], "--lease-timeout", "0",
             "lease timeout"),
            (["sweep"], "--target-unit-seconds", "nan",
             "target_unit_seconds"),
            (["compare"], "--target-unit-seconds", "-1",
             "target_unit_seconds"),
            (["experiments", "status", "--connect", "127.0.0.1:9"],
             "--request-timeout", "nan", "request timeout"),
            (["experiments", "drain", "--connect", "127.0.0.1:9",
              "--worker", "w1"], "--request-timeout", "0",
             "request timeout"),
            (["experiments", "worker", "--connect", "127.0.0.1:9"],
             "--backoff-base", "nan", "backoff base"),
            (["experiments", "worker", "--connect", "127.0.0.1:9"],
             "--backoff-cap", "-1", "backoff cap"),
        ],
        ids=["serve", "sweep", "compare", "status", "drain",
             "worker-backoff-base", "worker-backoff-cap"],
    )
    def test_lease_times_are_checked_by_argparse(
        self, argv, flag, bad, name, capsys
    ):
        """A zero, negative or non-finite lease time — or client
        timeout, or retry backoff — is a usage error before anything
        starts (or is spooled)."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, bad])
        assert excinfo.value.code == 2
        assert f"{name} must be a finite number of seconds > 0" in (
            capsys.readouterr().err
        )

    def test_serve_has_no_http_port(self, capsys):
        """``repro serve``'s gateway answers /metrics, /healthz and
        /status itself, so a second HTTP server is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spool", "spool", "--http-port", "0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --http-port" in (
            capsys.readouterr().err
        )

    def test_serve_coordinator_is_gone(self, capsys):
        """``sweep --plan P --results R --executor fleet`` is the one
        way to run a saved plan on a fleet."""
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "serve-coordinator", "--plan", "p.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve-coordinator'" in (
            capsys.readouterr().err
        )

    def test_fleet_error_is_a_one_line_exit(self, monkeypatch):
        """A dead loopback fleet or a spent fleet --timeout raises
        FleetError; compare/sweep end it in one line, not a traceback."""
        from repro import cli
        from repro.distributed import FleetError, InlineExecutor

        class DeadFleet(InlineExecutor):
            def execute(self, runner, workset):
                raise FleetError(
                    "every loopback worker died; re-run to resume"
                )

        monkeypatch.setattr(cli, "_make_executor", lambda args: DeadFleet())
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--systems", "ess", "--size", "20", "--steps",
                  "2", "--seeds", "0", "--population", "8",
                  "--generations", "2"])
        assert excinfo.value.code == (
            "every loopback worker died; re-run to resume"
        )


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


class TestSweepWithCachedFires:
    _ARGS = [
        "sweep", "--systems", "ess,ess-ns", "--cases",
        "grassland,river_gap", "--size", "20", "--steps", "2",
        "--seeds", "0", "--population", "8", "--generations", "2",
        "--backend", "vectorized",
    ]

    def test_store_equal_cold_warm_and_sharded(self, tmp_path, capsys):
        """A 2x2 sweep's store is the same whether the reference fires
        are built fresh, read from this process's cache, or inherited
        by forked --shards workers."""
        from repro.experiments import ResultsStore, record_key
        from repro.experiments.plan import _build_case
        from repro.experiments.store import parity_view

        def store_of(name, *extra):
            path = tmp_path / f"{name}.jsonl"
            assert main([*self._ARGS, "--results", str(path), *extra]) == 0
            return [
                parity_view(r)
                for r in sorted(ResultsStore(path).records(), key=record_key)
            ]

        _build_case.cache_clear()
        cold = store_of("cold")
        assert _build_case.cache_info().currsize >= 2
        warm = store_of("warm")
        sharded = store_of("sharded", "--shards", "2")
        capsys.readouterr()
        assert len(cold) == 4
        assert cold == warm == sharded

    def test_fleet_sweep_of_a_saved_plan(self, tmp_path, capsys, monkeypatch):
        """``sweep --plan P --results R --executor fleet`` takes the
        fleet's --poll-interval/--timeout/--cost-snapshot, prints the
        fleet summary, and records the inline run's store."""
        import threading

        from repro import cli
        from repro.distributed import run_worker
        from repro.experiments import ResultsStore, record_key
        from repro.experiments.store import parity_view

        def parity(path):
            records = sorted(ResultsStore(path).records(), key=record_key)
            return [parity_view(r) for r in records]

        plan = tmp_path / "plan.json"
        inline = tmp_path / "inline.jsonl"
        assert main([*self._ARGS, "--save-plan", str(plan),
                     "--results", str(inline)]) == 0
        workers = []

        def start_worker(address):
            worker = threading.Thread(
                target=run_worker,
                args=(address,),
                kwargs={"worker_id": "cli-w0", "poll_interval": 0.05},
            )
            worker.start()
            workers.append(worker)

        monkeypatch.setattr(cli, "_announce_coordinator", start_worker)
        capsys.readouterr()
        fleet = tmp_path / "fleet.jsonl"
        snapshot = tmp_path / "costs.json"
        rc = main(["sweep", "--plan", str(plan), "--results", str(fleet),
                   "--executor", "fleet", "--poll-interval", "0.05",
                   "--timeout", "300", "--cost-snapshot", str(snapshot)])
        for worker in workers:
            worker.join(timeout=60)
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet complete: 4 records (0 resumed, 0 unit requeues" in out
        assert "fleet workers (busy/idle over membership span):" in out
        assert "  cli-w0: util " in out
        assert "unit seconds: p50 " in out
        assert snapshot.exists()
        assert parity(fleet) == parity(inline)


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
