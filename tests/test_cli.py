"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import inspect
import math

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.distributed.protocol import check_seconds
from repro.distributed.worker import check_throttle
from repro.errors import ReproError
from repro.systems import ESS, ESSIMDE, ESSIMEA, ESSNS, ESSNSIM
from repro.systems.factory import build_system
from repro.systems.results import RunResult


class TestBuildSystem:
    """The factory behind ``repro run`` and every experiment plan."""

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

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="bogus"):
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


def _leaves(parser, path=()):
    """Every leaf command of ``parser``: (its argv prefix, its parser)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
            return
    yield list(path), parser


def _options(parser):
    """A leaf's arguments, without ``-h/--help``."""
    return [
        a for a in parser._actions if not isinstance(a, argparse._HelpAction)
    ]


def _inert_required(parser):
    """Values for a leaf's required arguments that parse but are never
    used: every test below fails the parse on another argument."""
    positionals, options = [], []
    for action in _options(parser):
        if action.required:
            value = next(iter(action.choices)) if action.choices else "x"
            if action.option_strings:
                options += [action.option_strings[0], value]
            else:
                positionals.append(value)
    return positionals + options


#: The domains of the library checks the CLI uses as argparse types.
_LIBRARY_DOMAINS = {
    check_seconds: {"kind": float, "low": 0, "high": None, "above": True},
    check_throttle: {"kind": float, "low": 0, "high": None, "above": False},
}


def _domain(parse):
    """The domain a ``_checked`` type declares: kind, low, high, above."""
    if parse.check in _LIBRARY_DOMAINS:
        return _LIBRARY_DOMAINS[parse.check]
    bound = inspect.signature(parse.check).bind("0", *parse.args)
    bound.apply_defaults()
    return {k: bound.arguments[k] for k in ("kind", "low", "high", "above")}


def _outside(domain, text):
    """Whether ``text`` lies outside ``domain``."""
    try:
        value = domain["kind"](text)
    except ValueError:
        return True
    low, high = domain["low"], domain["high"]
    return (
        not math.isfinite(value)
        or (low is not None and (value <= low if domain["above"]
                                 else value < low))
        or (high is not None and value > high)
    )


def _numeric_options():
    """(leaf argv prefix, required argv, action) of every typed option."""
    for path, leaf in _leaves(build_parser()):
        for action in _options(leaf):
            if action.type is not None:
                yield path, _inert_required(leaf), action


class TestFlagTable:
    """The parser built from the flag table, walked leaf by leaf."""

    def test_every_number_has_a_checked_type(self):
        unchecked = [
            (" ".join(path), "/".join(action.option_strings))
            for path, _, action in _numeric_options()
            if not hasattr(action.type, "check")
        ]
        assert unchecked == []

    def test_leaf_option_count(self):
        count = sum(
            len(_options(leaf)) for _, leaf in _leaves(build_parser())
        )
        assert count == 96

    def test_every_leaf_renders_its_help(self):
        parser = build_parser()
        assert "simulate" in parser.format_help()
        for path, leaf in _leaves(parser):
            assert leaf.format_help().startswith(
                f"usage: repro {' '.join(path)}"
            )

    def test_values_outside_each_domain_are_usage_errors(
        self, monkeypatch, capsys
    ):
        """nan, inf, -1, 0, 65536 and the floor - 1, wherever the
        declared domain excludes them, exit 2 with one usage line
        before telemetry is set up or the command runs."""

        def never(*args, **kwargs):
            raise AssertionError("the command started")

        parser = build_parser()
        for _, leaf in _leaves(parser):
            leaf.set_defaults(func=never)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(cli, "_setup_obs", never)
        fed = 0
        for path, required, action in _numeric_options():
            domain = _domain(action.type)
            candidates = ["nan", "inf", "-1", "0", "65536"]
            if domain["low"] is not None:
                candidates.append(str(domain["low"] - 1))
            bad = [v for v in candidates if _outside(domain, v)]
            assert bad, action.option_strings
            flag = action.option_strings[0]
            name = "/".join(action.option_strings)
            for value in bad:
                with pytest.raises(argparse.ArgumentTypeError):
                    action.type(value)
                with pytest.raises(SystemExit) as excinfo:
                    main([*path, *required, f"{flag}={value}"])
                assert excinfo.value.code == 2, (path, flag, value)
                errors = [
                    line for line in capsys.readouterr().err.splitlines()
                    if "error:" in line
                ]
                assert len(errors) == 1, (path, flag, value)
                assert f"error: argument {name}: " in errors[0]
                fed += 1
        assert fed > 100

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "ess", "--http-port", "-1"],
            ["sweep", "--http-port", "-1"],
            ["serve", "--spool", "spool", "--port", "-1"],
            ["serve", "--spool", "spool", "--port", "70000"],
            ["serve", "--spool", "spool", "--fleet-port", "-1"],
            ["run", "ess", "--seed", "-5"],
            ["sweep", "--seed", "-5"],
            ["sweep", "--port", "-1"],
            ["run", "ess", "--population", "2"],
            ["sweep", "--population", "3"],
        ],
    )
    def test_ports_seeds_and_populations_are_checked(
        self, argv, monkeypatch, capsys
    ):
        """Ports are 0..65535, seeds >= 0, and run and sweep share
        the plan's population floor of 4."""

        def never(args):
            raise AssertionError("telemetry was set up")

        monkeypatch.setattr(cli, "_setup_obs", never)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: must be" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--slope", "nan"),
            ("--wind-dir", "nan"),
            ("--aspect", "inf"),
            ("--wind-speed", "inf"),
            ("--m1", "nan"),
            ("--mherb", "inf"),
            ("--minutes", "inf"),
            ("--minutes", "nan"),
            ("--minutes", "0"),
            ("--minutes", "-5"),
        ],
    )
    def test_non_finite_flags_are_usage_errors(self, flag, value, capsys):
        """A NaN or infinite scenario value, or a horizon that is not a
        finite time > 0, is refused by argparse (exit 2) instead of
        printing a NaN rate or ending in a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--size", "20", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--model", "99", "fuel model"),
            ("--m1", "-5", "moisture fraction m1"),
            ("--wind-speed", "-3", "wind speed"),
        ],
    )
    def test_bad_domain_values_exit_in_one_line(self, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--size", "20", flag, value])
        assert isinstance(excinfo.value.code, str)
        assert message in excinfo.value.code

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
    """The E1 comparison — a one-seed ``sweep`` prints every system's
    per-step quality on the same fire, then the winner — and the CLI's
    usage checks."""

    def test_compare_table(self, capsys):
        rc = main(
            ["sweep", "--systems", "ess,ess-ns", "--size", "28",
             "--steps", "2", "--seeds", "0", "--population", "8",
             "--generations", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "ESS" in out and "ESS-NS" in out
        assert "experiment:" in out  # the shared-session summary block

    def test_compare_shared_session_reports_cross_system_hits(self, capsys):
        rc = main(
            ["sweep", "--systems", "ess,ess-ns", "--size", "24",
             "--steps", "2", "--seeds", "0", "--population", "8",
             "--generations", "2", "--backend", "vectorized",
             "--session-cache-size", "2048"]
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
        on sweep and on the commands that build one fire. A shape or
        budget below the library's floor is a usage error (exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--systems", "ess,warp-drive", "--size", "24",
                  "--seeds", "0"])
        assert isinstance(excinfo.value.code, str)
        for argv in (
            ["run", "ess", "--size", "0"],
            ["run", "ess", "--steps", "0"],
            ["run", "ess", "--generations", "0"],
            ["simulate", "--size", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv

    def test_compare_results_store_resumes(self, capsys, tmp_path):
        """A one-seed sweep streams into a results store and resumes
        from it like any experiment."""
        store = tmp_path / "cmp.jsonl"
        args = [
            "sweep", "--systems", "ess,ess-ns", "--size", "20",
            "--steps", "2", "--seeds", "0", "--population", "8",
            "--generations", "2", "--results", str(store),
        ]
        assert main(args) == 0
        assert "(resumed 0)" in capsys.readouterr().out
        assert main(args) == 0
        assert "(resumed 2)" in capsys.readouterr().out

    def test_compare_executor_process_needs_results(self, capsys):
        with pytest.raises(SystemExit, match="ResultsStore"):
            main(
                ["sweep", "--systems", "ess,ess-ns", "--size", "20",
                 "--steps", "2", "--seeds", "0", "--population", "8",
                 "--generations", "2", "--executor", "process"]
            )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["serve", "--spool", "spool"],
        ],
        ids=["sweep", "serve"],
    )
    def test_min_unit_cells_below_one_is_a_usage_error(self, argv, capsys):
        """The lease floor is at least one cell: 0 (the retired
        whole-group mode) is refused by argparse, not a traceback —
        as are ``--shards 0`` and the retired ``--isolated-sessions``."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--min-unit-cells", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        if argv[0] == "sweep":
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
            (["sweep"], "--target-unit-seconds", "-1",
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
        ids=["serve", "sweep", "sweep-negative", "status", "drain",
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    def test_watch_interval_is_checked_by_argparse(
        self, bad, capsys, monkeypatch
    ):
        """``status --watch`` takes finite seconds > 0: a bad interval
        is a usage error before the coordinator is contacted, not a
        ``time.sleep`` crash after the first snapshot."""
        from repro import cli

        def no_contact(args):
            raise AssertionError("the coordinator was contacted")

        monkeypatch.setattr(cli, "_probe_status", no_contact)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "status", "--connect", "127.0.0.1:9",
                  "--watch", bad])
        assert excinfo.value.code == 2
        assert "watch interval must be a finite number of seconds > 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5", "slow"])
    def test_worker_throttle_is_checked_by_argparse(
        self, bad, capsys, monkeypatch
    ):
        """``--throttle`` takes finite seconds per cell >= 0: NaN or inf
        would crash the worker's ``time.sleep`` after its first unit."""
        from repro import cli

        def no_worker(*args, **kwargs):
            raise AssertionError("the worker was started")

        monkeypatch.setattr(cli, "run_worker", no_worker)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "worker", "--connect", "127.0.0.1:9",
                  f"--throttle={bad}"])
        assert excinfo.value.code == 2
        assert "worker throttle must be a finite number of seconds" in (
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

    def test_compare_is_gone(self, capsys):
        """``sweep --seeds S`` prints the per-step comparison itself."""
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--systems", "ess,ess-ns"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    def test_fleet_error_is_a_one_line_exit(self, monkeypatch):
        """A dead loopback fleet or a spent fleet --timeout raises
        FleetError; sweep ends it in one line, not a traceback."""
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

    def test_one_seed_sweep_prints_each_cases_comparison(self, capsys):
        """With one seed, every case's per-step E1 table and winner come
        first, above the usual sweep and experiment tables."""
        argv = [*self._ARGS, "--cases", "grassland,heterogeneous",
                "--seeds", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("case:")]
        assert [lines[i] for i in heads] == [
            "case: grassland 20x20, 2 steps",
            "case: heterogeneous 20x20, 2 steps",
        ]
        for i in heads:
            assert lines[i + 1].split() == [
                "system", "step", "2", "mean", "evals", "sec"
            ]
            assert [row.split()[0] for row in lines[i + 3:i + 5]] == [
                "ESS", "ESS-NS"
            ]
            assert lines[i + 5].startswith("winner: ")
        sweep_table = next(
            i for i, line in enumerate(lines) if line.startswith("winners —")
        )
        assert heads[-1] + 5 < sweep_table

    def test_multi_seed_sweep_prints_no_comparison(self, capsys):
        """Two seeds: the sweep table, then the experiment summary."""
        assert main(self._ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["system", "case", "quality", "evals", "sec"]
        assert lines[4].startswith("winners — grassland: ")
        assert lines[5].startswith("experiment: plan=sweep runs=4 ")
        assert not any(line.startswith(("case:", "winner:")) for line in lines)

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-5"])
    def test_fleet_timeout_is_checked_by_argparse(self, bad, capsys):
        """A fleet ``--timeout`` that could never fire (nan, inf) or
        fires at once (0, negative) is a usage error before the plan
        is read; leaving the flag out still means "wait forever"."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--plan", "plan.json", "--results", "r.jsonl",
                  "--executor", "fleet", "--timeout", bad])
        assert excinfo.value.code == 2
        assert "fleet timeout must be a finite number of seconds > 0" in (
            capsys.readouterr().err
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
