"""Command-line interface: ``python -m repro <command>``.

Six commands cover the common workflows without writing a script:

* ``simulate`` — run one fire simulation on a canonical case terrain
  and print burned-area statistics (the fireLib-style use).
* ``run`` — run one prediction system on a case and print the per-step
  table; optionally save the result as JSON.
* ``sweep`` — run a systems × cases × seeds grid and print the
  aggregated table; a one-seed grid first prints the E1
  quality-per-step comparison of each case. ``--executor`` picks where
  the grid's pending work units execute (inline, or a TCP worker fleet
  — ``--shards N`` starts N local workers for it). ``sweep --plan P
  --results R --executor fleet`` is the one way to run a saved plan on
  a fleet.
* ``experiments`` — fleet utilities: ``worker`` (join a coordinator's
  fleet), ``status`` (read-only fleet snapshot, optionally re-polled
  with ``--watch``), ``drain`` (gracefully retire a worker — it
  finishes its lease, uploads its records and exits with nothing
  requeued) and ``merge-stores`` (aggregate several JSONL results
  stores into one).
* ``serve`` — the always-on prediction service
  (:mod:`repro.service`): an HTTP gateway accepting plan submissions
  from many tenants plus the fleet coordinator (the same one
  ``--executor fleet`` runs) feeding one elastic worker pool under
  cost-weighted fair-share scheduling.
* ``obs`` — observability utilities: ``timeline`` merges the fleet's
  ``--trace`` JSONL files into one Perfetto-loadable Chrome
  trace-event timeline.

``sweep`` is a thin *plan builder*: it assembles a
declarative :class:`~repro.experiments.plan.ExperimentPlan` from the
flags (or loads one from ``--plan``) and hands execution to the
experiment layer, which shares one engine session per (case, backend)
group and can stream results into a resumable ``--results`` store.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from repro import obs
from repro.analysis.metrics import compare_runs
from repro.analysis.reporting import (
    format_comparison,
    format_experiment,
    format_run,
    format_sweep,
)
from repro.analysis.sweeps import SweepResult
from repro.core.scenario import Scenario
from repro.distributed import (
    FleetError,
    FleetExecutor,
    InlineExecutor,
    PlanQueue,
    ProcessShardExecutor,
    run_worker,
)
from repro.distributed.protocol import (
    check_seconds,
    request as _fleet_request,
)
from repro.distributed.worker import check_throttle, parse_address
from repro.engine import backend_names
from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentResult,
    ExperimentRunner,
    ResultsStore,
)
from repro.firelib.simulator import FireSimulator
from repro.obs.http import ObsHTTPServer
from repro.obs.timeline import export_timeline
from repro.rng import make_rng
from repro.systems.factory import SYSTEM_NAMES as _SYSTEM_NAMES
from repro.systems.factory import build_system
from repro.systems.results import RunResult
from repro.workloads.cases import CASE_BUILDERS

__all__ = ["build_parser", "main"]


#: The live observability HTTP server, when ``--http-port`` asked for
#: one (started in :func:`_setup_obs`, closed in :func:`_teardown_obs`).
_http_server: ObsHTTPServer | None = None


def _setup_obs(args: argparse.Namespace) -> None:
    """Wire the parsed telemetry flags into the process registry."""
    global _http_server
    level = getattr(args, "log_level", None)
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper()),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    trace = getattr(args, "trace", None)
    if trace:
        obs.configure(trace_path=trace)
    http_port = getattr(args, "http_port", None)
    if http_port is not None:
        server = ObsHTTPServer(port=http_port)
        try:
            host, port = server.start()
        except OSError as exc:
            raise SystemExit(
                f"could not bind the observability HTTP server on port "
                f"{http_port}: {exc}"
            ) from exc
        _http_server = server
        print(f"observability http on {host}:{port}", flush=True)


def _teardown_obs(args: argparse.Namespace) -> None:
    """Snapshot metrics (if asked) and close the trace sinks."""
    global _http_server
    if _http_server is not None:
        _http_server.close()
        _http_server = None
    metrics = getattr(args, "metrics", None)
    if metrics:
        try:
            obs.dump_metrics(metrics)
        except OSError as exc:
            print(f"could not write metrics snapshot: {exc}", file=sys.stderr)
    obs.shutdown()


def _number(text: str, kind: type = float, low=None, high=None, above=False):
    """``text`` as a finite ``kind`` (``int`` or ``float``) that is
    ``>= low`` (``> low`` when ``above``) and ``<= high``; either bound
    may be ``None``. The one message names the bound that failed."""
    try:
        value = kind(text)
    except ValueError:
        raise ReproError(f"invalid {kind.__name__} value: {text!r}") from None
    if not math.isfinite(value):
        bound = "finite"
    elif low is not None and (value <= low if above else value < low):
        bound = f"{'>' if above else '>='} {low}"
    elif high is not None and value > high:
        bound = f"<= {high}"
    else:
        return value
    raise ReproError(f"must be {bound}, got {text}")


def _checked(check, *args):
    """argparse type that runs ``check(text, *args)`` and turns its
    :class:`ReproError` into a clean usage error (exit 2). ``check`` and
    ``args`` stay readable on the returned function: they declare the
    option's domain."""

    def parse(text: str):
        try:
            return check(text, *args)
        except ReproError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    parse.check, parse.args = check, args
    return parse


_FINITE = _checked(_number)
_PORT = _checked(_number, int, 0, 65535)


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        fire = CaseSpec(args.case, size=args.size, steps=2).build()
        scenario = Scenario(
            model=args.model,
            wind_speed=args.wind_speed,
            wind_dir=args.wind_dir,
            m1=args.m1,
            m10=args.m1 + 1,
            m100=args.m1 + 2,
            mherb=args.mherb,
            slope=args.slope,
            aspect=args.aspect,
        )
        result = FireSimulator(fire.terrain).simulate(
            scenario, [fire.terrain.center()], horizon=args.minutes
        )
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    burned = result.burned()
    print(f"terrain: {args.case} {fire.terrain.shape}")
    print(f"scenario: {scenario}")
    print(f"horizon: {args.minutes:g} min")
    print(f"burned cells: {int(burned.sum())} / {fire.terrain.n_cells}")
    print(f"max head-fire rate: {result.ros_max_ftmin:.2f} ft/min")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        fire = CaseSpec(args.case, size=args.size, steps=args.steps).build()
        system = build_system(
            args.system,
            population=args.population,
            generations=args.generations,
            n_workers=args.workers,
            backend=args.backend,
            cache_size=args.cache_size,
            session_cache_size=args.session_cache_size,
        )
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    # the whole run is reproducible from this one seeded repro.rng stream
    run = system.run(fire, rng=make_rng(args.seed))
    print(f"case: {fire.description}")
    print(format_run(run))
    if args.output:
        run.save_json(args.output)
        print(f"saved: {args.output}")
    return 0


def _budget(args: argparse.Namespace) -> BudgetSpec:
    """The plan budget encoded by the common CLI flags."""
    return BudgetSpec(
        population=args.population,
        generations=args.generations,
        n_workers=args.workers,
        cache_size=args.cache_size,
        session_cache_size=args.session_cache_size,
    )


#: User-input failures worth a clean one-line exit: bad plan payloads,
#: non-numeric seeds, unreadable/unwritable artifact paths. Runtime
#: failures inside the experiment itself keep their tracebacks.
_USER_ERRORS = (ReproError, OSError, ValueError)


def _exit_on_user_error(exc: ReproError) -> None:
    """Convert exactly :class:`ReproError` into a clean one-line exit.

    Its runtime subclasses (``SimulationError``, ``EvolutionError``,
    ``ParallelError``) are failures *inside* the experiment and keep
    their tracebacks — a cell dying hours into a sweep must stay
    diagnosable.
    """
    if type(exc) is ReproError:
        raise SystemExit(str(exc)) from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.plan:
            plan = ExperimentPlan.load_json(args.plan)
            print(
                f"plan loaded: {args.plan} (the plan file governs "
                "systems/cases/seeds/backend/budget; the corresponding "
                "grid flags are ignored)"
            )
        else:
            seeds = tuple(
                args.seed + int(s) for s in args.seeds.split(",") if s.strip()
            )
            plan = ExperimentPlan(
                name=args.name,
                systems=tuple(s.strip() for s in args.systems.split(",")),
                cases=tuple(
                    CaseSpec(c.strip(), size=args.size, steps=args.steps)
                    for c in args.cases.split(",")
                ),
                seeds=seeds,
                backends=(args.backend,),
                budget=_budget(args),
            )
        if args.save_plan:
            plan.save_json(args.save_plan)
            print(f"plan saved: {args.save_plan}")
        store = None
        if args.results:
            store = _open_results_store(args.results)
        if args.output:
            # same eager check for --output: without a --results store
            # an unwritable path here would discard the whole sweep
            with open(args.output, "a"):
                pass
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    result = _run_plan(args, plan, store)
    if len(plan.seeds) == 1:
        _print_comparisons(plan, result)
    sweep = SweepResult.from_records(
        result.records,
        systems=list(plan.systems),
        cases=[c.name for c in plan.cases],
    )
    print(format_sweep(sweep))
    print(format_experiment(result))
    if args.output:
        try:
            sweep.save_json(args.output)
        except OSError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"saved: {args.output}")
    return 0


def _print_comparisons(plan: ExperimentPlan, result: ExperimentResult) -> None:
    """The E1 quality-per-step table of each (case, backend) group of a
    one-seed plan: every system on the same fire, step by step."""
    for (case, backend), keys in plan.groups():
        label = f" [{backend}]" if len(plan.backends) > 1 else ""
        print(
            f"case: {case.name} {case.size}x{case.size}, "
            f"{case.steps} steps{label}"
        )
        runs = [
            RunResult.from_dict(result.record(*key.as_tuple())["run"])
            for key in keys
        ]
        print(format_comparison(compare_runs(runs)))


def _run_plan(
    args: argparse.Namespace, plan: ExperimentPlan, store: ResultsStore | None
) -> ExperimentResult:
    """Run ``plan`` under the ``--executor``/``--shards`` flags.

    A plain :class:`ReproError` or a :class:`FleetError` (every
    loopback worker dead, the fleet ``--timeout`` spent) becomes a
    clean one-line exit (see
    :func:`_exit_on_user_error`). A fleet run ends with its summary:
    requeues, steals, per-worker utilization and unit-time quantiles.
    """
    try:
        executor = _make_executor(args)
        result = ExperimentRunner(store=store).run(plan, executor=executor)
    except FleetError as exc:
        raise SystemExit(str(exc)) from exc
    except ReproError as exc:
        _exit_on_user_error(exc)
        raise
    if isinstance(executor, FleetExecutor):
        print(
            f"fleet complete: {len(result.records)} records "
            f"({result.n_resumed} resumed, {executor.requeues} unit "
            f"requeues, {executor.steals} unit steals) -> {store.path}"
        )
        if executor.worker_stats:
            print("fleet workers (busy/idle over membership span):")
            print(_format_worker_stats(executor.worker_stats))
        quantiles = _format_unit_seconds_quantiles()
        if quantiles:
            print(quantiles)
    return result


def _make_executor(args: argparse.Namespace):
    """The work executor the ``--executor``/``--shards`` flags describe:
    fleet, process (also for ``--shards N > 1``), else inline."""
    if args.executor == "fleet":
        return FleetExecutor(
            host=args.host,
            port=args.port,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            min_unit_cells=args.min_unit_cells,
            target_unit_seconds=args.target_unit_seconds,
            auth_token=args.auth_token,
            cost_snapshot=args.cost_snapshot,
            on_bound=_announce_coordinator,
        )
    if args.executor == "process" or args.shards > 1:
        return ProcessShardExecutor(
            args.shards, min_unit_cells=args.min_unit_cells
        )
    return InlineExecutor()


def _announce_coordinator(address: tuple[str, int]) -> None:
    """Print the bound coordinator address (workers need it to join)."""
    print(f"coordinator listening on {address[0]}:{address[1]}", flush=True)


def _open_results_store(path: str) -> ResultsStore:
    """A results store whose path is verified writable *now*."""
    store = ResultsStore(path)
    # surface an unwritable results path immediately, as a clean exit,
    # rather than as a traceback after the first completed run
    store.path.parent.mkdir(parents=True, exist_ok=True)
    with open(store.path, "a"):
        pass
    return store


def _format_unit_seconds_quantiles() -> str | None:
    """One-line p50/p95/max summary of completed-unit wall times.

    Reads the coordinator's ``repro_fleet_unit_seconds`` histogram from
    the process registry; ``None`` when no unit completed in-process.
    """
    for entry in obs.telemetry().snapshot():
        if (
            entry.get("name") == "repro_fleet_unit_seconds"
            and entry.get("type") == "histogram"
            and entry.get("count")
        ):
            p50 = obs.histogram_quantile(entry, 0.5)
            p95 = obs.histogram_quantile(entry, 0.95)
            return (
                f"unit seconds: p50 {p50:.2f}s, p95 {p95:.2f}s, "
                f"max {entry.get('max', 0.0):.2f}s "
                f"over {entry['count']} units"
            )
    return None


def _format_worker_stats(workers: dict[str, dict]) -> str:
    """Per-worker utilization lines (fleet summary + status command)."""
    lines = []
    for worker in sorted(workers):
        st = workers[worker]
        util = st.get("utilization")
        util_text = "util n/a" if util is None else f"util {util:6.1%}"
        live = " [live]" if st.get("live") else ""
        throughput = st.get("throughput")
        rate_text = (
            "" if throughput is None else f", {throughput:.1f} cells/s"
        )
        trips = st.get("round_trips")
        trips_text = "" if trips is None else f", {trips} round-trips"
        lines.append(
            f"  {worker}: {util_text} "
            f"(busy {st['busy_seconds']:.1f}s / "
            f"idle {st['idle_seconds']:.1f}s), "
            f"{st['units']} units, {st['cells']} cells, "
            f"{st['leases']} leases{rate_text}{trips_text}{live}"
        )
    return "\n".join(lines)


def _coordinator_request(
    args: argparse.Namespace, message: dict, expect: str, action: str
) -> dict:
    """One request/reply exchange with the coordinator at ``--connect``.

    Raises :class:`SystemExit` with a clean one-line message on any
    failure — no coordinator listening, auth mismatch, or a reply whose
    type is not ``expect`` (``action`` names the request in it).
    """
    try:
        reply = _fleet_request(
            parse_address(args.connect),
            message,
            timeout=args.request_timeout,
            token=args.auth_token,
        )
    except FleetError as exc:
        raise SystemExit(str(exc)) from exc
    except OSError as exc:
        raise SystemExit(
            f"no coordinator answering at {args.connect}: {exc}"
        ) from exc
    if reply.get("type") != expect:
        raise SystemExit(
            f"coordinator rejected the {action}: "
            f"{reply.get('error', reply.get('type'))}"
        )
    return reply


def _probe_status(args: argparse.Namespace) -> dict:
    """One read-only ``status`` exchange with a coordinator."""
    return _coordinator_request(
        args, {"type": "status"}, expect="status", action="status probe"
    )


def _print_status(reply: dict) -> None:
    """Render one status snapshot (shared by one-shot and --watch)."""
    plans = reply.get("plans") or []
    for job in plans:
        progress = job.get("progress") or {}
        print(
            f"plan {job.get('plan')!r} ({job.get('id')}, "
            f"{job.get('status')}): {job.get('recorded_cells')}/"
            f"{job.get('expected_cells')} cells recorded"
        )
        print(
            f"  pending units: {progress.get('pending_units')} "
            f"({progress.get('pending_cells')} cells), "
            f"leased: {progress.get('leased')}, "
            f"requeues: {progress.get('requeues')}, "
            f"steals: {progress.get('steals')}"
        )
    if not plans:
        print("plans: none admitted yet")
    if reply.get("finished"):
        print("coordinator finished: every plan is recorded")
    workers = reply.get("workers") or {}
    if workers:
        print("workers:")
        print(_format_worker_stats(workers))
    else:
        print("workers: none seen yet")
    costs = reply.get("costs")
    if isinstance(costs, dict):
        rates = costs.get("rates") or {}
        samples = costs.get("samples") or {}
        if rates:
            print("cost model (measured per-cell rates):")
            for kernel in sorted(rates):
                print(
                    f"  {kernel}: {rates[kernel] * 1000.0:.2f} ms/cell "
                    f"(n={samples.get(kernel, 0)})"
                )
        else:
            print("cost model: no measured rates yet (priors only)")


def _cmd_experiments_status(args: argparse.Namespace) -> int:
    """Read-only coordinator snapshot(s): one-shot, or --watch loop."""
    if args.watch is None:
        _print_status(_probe_status(args))
        return 0
    interval = max(args.watch, 0.2)  # protect the coordinator's accept loop
    probed_once = False
    try:
        while True:
            try:
                reply = _probe_status(args)
            except SystemExit:
                if not probed_once:
                    raise
                # a coordinator that answered before and is now gone
                # has finished (or died) — either way the watch is over
                print(f"coordinator at {args.connect} has gone away")
                return 0
            if sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            elif probed_once:
                print(f"--- {time.strftime('%H:%M:%S')} ---")
            probed_once = True
            _print_status(reply)
            if reply.get("finished"):
                return 0
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_experiments_worker(args: argparse.Namespace) -> int:
    try:
        summary = run_worker(
            args.connect,
            store_path=args.store,
            poll_interval=args.poll_interval,
            worker_id=args.id,
            auth_token=args.auth_token,
            throttle=args.throttle,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
        )
    except FleetError as exc:
        raise SystemExit(str(exc)) from exc
    ending = "drained" if summary.get("drained") else "done"
    print(
        f"worker {summary['worker']} {ending}: {summary['units']} units, "
        f"{summary['records']} records (local store: {summary['store']})"
    )
    return 0


def _cmd_experiments_drain(args: argparse.Namespace) -> int:
    """Ask a coordinator to gracefully retire one worker."""
    reply = _coordinator_request(
        args,
        {"type": "drain", "target": args.worker},
        expect="ok",
        action="drain",
    )
    print(
        f"worker {reply.get('draining')} draining: it finishes its "
        "leased unit, uploads its records and exits — nothing requeues"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on prediction service (HTTP + fleet ports)."""
    from repro.service import PredictionService, ServiceError

    try:
        service = PredictionService(
            args.spool,
            host=args.host,
            port=args.port,
            fleet_port=args.fleet_port,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
            min_unit_cells=args.min_unit_cells,
            target_unit_seconds=args.target_unit_seconds,
            max_active=args.max_active,
            auth_token=args.auth_token,
        )
    except (ServiceError, FleetError, OSError) as exc:
        raise SystemExit(str(exc)) from exc
    try:
        (gw_host, gw_port), (fl_host, fl_port) = service.start()
    except OSError as exc:
        raise SystemExit(f"could not bind the service: {exc}") from exc
    print(f"service http on {gw_host}:{gw_port}", flush=True)
    print(f"service fleet on {fl_host}:{fl_port}", flush=True)
    print(
        f"spool: {service.queue.spool} "
        f"(plans survive restarts; POST /plans to submit)",
        flush=True,
    )
    service.serve_forever()
    return 0


def _cmd_experiments_merge(args: argparse.Namespace) -> int:
    sources = [ResultsStore(p) for p in args.stores]
    missing = [str(s.path) for s in sources if not s.exists()]
    if missing:
        raise SystemExit(f"no such results store(s): {', '.join(missing)}")
    try:
        dest = _open_results_store(args.into)
        summary = dest.merge(*sources)
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"merged {summary['sources']} store(s) into {dest.path}: "
        f"{summary['records']} records, {summary['duplicates']} "
        "duplicate cells dropped (first writer wins)"
    )
    return 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    """Merge trace JSONL files into one Perfetto-loadable timeline."""
    try:
        summary = export_timeline(
            args.traces, args.output, trace_id=args.trace_id
        )
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    trace_ids = summary.get("trace_ids") or []
    ids_text = ", ".join(trace_ids) if trace_ids else "none tagged"
    print(
        f"timeline written: {args.output} ({summary.get('spans', 0)} "
        f"spans on {len(summary.get('tracks') or [])} track(s); "
        f"trace ids: {ids_text})"
    )
    if len(trace_ids) > 1 and not args.trace_id:
        print(
            "note: events from multiple trace ids were merged; pass "
            "--trace-id to isolate one run",
            file=sys.stderr,
        )
    return 0


#: Every leaf command: (name, help, function). ``experiments`` and
#: ``obs`` group theirs under a subcommand of their own (``_GROUPS``).
_COMMANDS = (
    ("simulate", "run one fire simulation", _cmd_simulate),
    ("run", "run one prediction system", _cmd_run),
    (
        "sweep",
        "run a systems × cases × seeds experiment grid (one seed "
        "also prints each case's per-step quality comparison)",
        _cmd_sweep,
    ),
    (
        "experiments worker",
        "join a coordinator's fleet and execute leased work units",
        _cmd_experiments_worker,
    ),
    (
        "experiments drain",
        "gracefully retire one worker: it finishes its leased "
        "unit, uploads its records and exits with nothing requeued "
        "(elastic scale-down)",
        _cmd_experiments_drain,
    ),
    (
        "experiments status",
        "query a running coordinator for live fleet progress and "
        "per-worker utilization (read-only; never delays shutdown)",
        _cmd_experiments_status,
    ),
    (
        "experiments merge-stores",
        "aggregate several JSONL results stores into one "
        "(first writer wins, sorted output, partial tails compacted)",
        _cmd_experiments_merge,
    ),
    (
        "serve",
        "run the always-on prediction service: an HTTP gateway "
        "for plan submission/polling/streaming plus a multi-plan "
        "fleet coordinator with cost-weighted fair-share scheduling "
        "across tenants",
        _cmd_serve,
    ),
    (
        "obs timeline",
        "merge --trace JSONL files into one Chrome trace-event "
        "timeline (open in Perfetto or chrome://tracing); propagated "
        "trace ids and clock offsets place spans on per-worker tracks",
        _cmd_obs_timeline,
    ),
)

_GROUPS = {
    "experiments": "distributed experiment execution and store aggregation",
    "obs": "observability utilities over collected telemetry files",
}


def _flag(commands: str, *flags: str, **kwargs) -> tuple:
    """One row of :data:`_FLAGS`: the leaf commands (space-separated)
    that take ``flags``, and their ``add_argument`` keywords."""
    return commands.split(), flags, kwargs


#: The flag table: one row per flag meaning. A flag that means
#: something else on another command (another default or help) has a
#: row of its own. Every int and float flag has a ``_checked`` type,
#: with the library's own floor where the library has one. A callable
#: default is read when the parser is built.
_FLAGS = (
    # -- the case and the search budget -------------------------------
    _flag("simulate run", "--case", choices=sorted(CASE_BUILDERS),
          default="grassland"),
    _flag("simulate", "--size", default=60,
          type=_checked(_number, int, CaseSpec.MIN_SIZE)),
    _flag("sweep", "--systems", default="ess,ess-ns",
          help="comma-separated list from: " + ", ".join(_SYSTEM_NAMES)),
    _flag("sweep", "--cases", default="grassland",
          help="comma-separated list from: "
          + ", ".join(sorted(CASE_BUILDERS))),
    _flag("run sweep", "--size", default=44, help="grid side, cells",
          type=_checked(_number, int, CaseSpec.MIN_SIZE)),
    _flag("run sweep", "--steps", default=3, help="prediction steps",
          type=_checked(_number, int, CaseSpec.MIN_STEPS)),
    _flag("run", "system", choices=_SYSTEM_NAMES),
    _flag("run", "--seed", type=_checked(_number, int, 0), default=42),
    _flag("sweep", "--seeds", default="0,1",
          help="comma-separated repeat seeds (each offset by --seed)"),
    _flag("sweep", "--seed", type=_checked(_number, int, 0), default=0,
          help="base seed added to every --seeds entry; together with the "
          "plan it makes every recorded run reproducible"),
    _flag("run sweep", "--workers", default=1,
          type=_checked(_number, int, BudgetSpec.MIN_WORKERS)),
    _flag("run sweep", "--population", default=16,
          type=_checked(_number, int, BudgetSpec.MIN_POPULATION)),
    _flag("run sweep", "--generations", default=6,
          type=_checked(_number, int, BudgetSpec.MIN_GENERATIONS)),
    _flag("run sweep", "--backend", choices=backend_names(),
          default="reference",
          help="simulation-engine kernel for fitness evaluation "
          "(--workers N > 1 evaluates it in an N-process pool)"),
    _flag("run sweep", "--cache-size", default=0,
          type=_checked(_number, int, BudgetSpec.MIN_CACHE_SIZE),
          help="per-step LRU scenario-result cache capacity (0 = off)"),
    _flag("run sweep", "--session-cache-size", default=0,
          type=_checked(_number, int, BudgetSpec.MIN_CACHE_SIZE),
          help="run-scoped cross-step result cache capacity, shared by "
          "all prediction steps of a run — and, under a shared experiment "
          "session, by every system of a (case, backend) group (0 = off; "
          "replaces --cache-size when set)"),
    # -- simulate's scenario --------------------------------------------
    _flag("simulate", "--minutes", default=45.0,
          type=_checked(_number, float, 0, None, True)),
    _flag("simulate", "--model", type=_checked(_number, int), default=1),
    _flag("simulate", "--wind-speed", type=_FINITE, default=8.0),
    _flag("simulate", "--wind-dir", type=_FINITE, default=90.0),
    _flag("simulate", "--m1", type=_FINITE, default=6.0),
    _flag("simulate", "--mherb", type=_FINITE, default=60.0),
    _flag("simulate", "--slope", type=_FINITE, default=5.0),
    _flag("simulate", "--aspect", type=_FINITE, default=270.0),
    # -- sweep's grid and artifacts -------------------------------------
    _flag("sweep", "--name", default="sweep", help="plan label"),
    _flag("sweep", "--plan",
          help="load the experiment plan from this JSON file; the file "
          "then governs systems, cases, seeds, backend AND the whole "
          "budget (population/generations/workers/caches) — the "
          "corresponding flags are ignored"),
    _flag("sweep", "--save-plan",
          help="write the executed plan to this JSON file"),
    _flag("sweep", "--results",
          help="stream one JSONL record per completed run into this file; "
          "re-invoking with the same path resumes, computing only the "
          "missing (system, case, seed) cells"),
    # -- where sweep's work runs ----------------------------------------
    _flag("sweep", "--shards", type=_checked(_number, int, 1), default=1,
          help="run pending work units in this many local fleet worker "
          "processes (requires --results; N > 1 selects --executor "
          "process)"),
    _flag("sweep", "--executor", choices=("inline", "process", "fleet"),
          default="inline",
          help="where the plan's pending work units execute: in this "
          "process (inline, unless --shards N > 1), leased to --shards "
          "local worker processes (process), or leased cell-by-cell to TCP "
          "workers started with 'repro experiments worker' (fleet; "
          "requires --results and honours --host/--port/--lease-timeout/"
          "--poll-interval/--min-unit-cells/--auth-token/--timeout/"
          "--cost-snapshot)"),
    _flag("sweep", "--host", default="127.0.0.1",
          help="coordinator listen address (0.0.0.0 to accept remote "
          "workers)"),
    _flag("sweep", "--port", type=_PORT, default=0,
          help="coordinator listen port (0 = OS-assigned; the bound "
          "address is printed either way)"),
    _flag("sweep", "--timeout",
          type=_checked(check_seconds, "fleet timeout"), default=None,
          help="fleet: abort if the plan is still incomplete after this "
          "many seconds (default: wait forever — workers may join at any "
          "time)"),
    _flag("sweep", "--cost-snapshot", metavar="PATH",
          help="fleet: persist the cost model to this JSON sidecar on "
          "finish and restore it on start, so the next run's first "
          "leases are already sized from measured per-cell rates "
          "(missing or unreadable files mean a cold start, never an "
          "error)"),
    # -- the two fleet coordinators: sweep's fleet executor and serve ---
    _flag("sweep serve", "--lease-timeout",
          type=_checked(check_seconds, "lease timeout"), default=30.0,
          help="seconds of worker silence after which its leased work "
          "unit is handed to another worker (workers heartbeat at a "
          "quarter of this)"),
    _flag("sweep serve", "--min-unit-cells", type=_checked(_number, int, 1),
          default=1,
          help="lease-size floor (>= 1): work is never carved into units "
          "of fewer (system, case, seed, backend) cells than this"),
    _flag("sweep serve", "--target-unit-seconds",
          type=_checked(check_seconds, "target_unit_seconds"), default=1.0,
          help="per-lease wall-clock target: leases grow until a unit is "
          "predicted to take about this long, with --min-unit-cells as "
          "the floor"),
    _flag("sweep serve", "--poll-interval",
          type=_checked(check_seconds, "poll interval"), default=0.5,
          help="the longest an idle worker's lease request is held open "
          "before it is answered 'wait' (work reaches held workers as "
          "soon as it exists), advertised to workers as the hold they "
          "ask for, seconds"),
    # -- the service ----------------------------------------------------
    _flag("serve", "--spool", required=True, metavar="DIR",
          help="service state directory: admitted plans, per-plan "
          "results stores and the cost-model snapshot live here, so a "
          "restarted service resumes its queue"),
    _flag("serve", "--host", default="127.0.0.1",
          help="listen address for both ports (0.0.0.0 to accept remote "
          "clients and workers; the HTTP gateway is unauthenticated — "
          "bind it privately)"),
    _flag("serve", "--port", type=_PORT, default=8321,
          help="HTTP gateway port (0 = OS-assigned; the bound address "
          "is printed)"),
    _flag("serve", "--fleet-port", type=_PORT, default=0,
          help="worker-facing fleet protocol port (0 = OS-assigned; "
          "point 'repro experiments worker --connect' here)"),
    _flag("serve", "--max-active", default=8,
          type=_checked(_number, int, PlanQueue.MIN_ACTIVE),
          help="admission bound: plans queued or running at once before "
          "submissions are answered 429 with a Retry-After derived "
          "from the cost model's predicted drain time"),
    # -- fleet clients: worker, drain and status ------------------------
    _flag("worker drain status", "--connect", required=True,
          metavar="HOST:PORT",
          help="coordinator address (--executor fleet's, or repro "
          "serve's fleet port)"),
    _flag("sweep worker drain status serve", "--auth-token",
          default=lambda: os.environ.get("REPRO_FLEET_TOKEN"),
          help="shared secret for the fleet port's HMAC challenge-"
          "response handshake; unauthenticated peers are rejected before "
          "any plan bytes move (default: $REPRO_FLEET_TOKEN; unset "
          "disables authentication)"),
    _flag("drain status", "--request-timeout",
          type=_checked(check_seconds, "request timeout"), default=10.0,
          help="seconds to wait for the coordinator's reply"),
    _flag("drain", "--worker", required=True,
          help="worker identity to retire (the --id it joined with, "
          "default hostname-pid; see 'repro experiments status')"),
    _flag("status", "--watch",
          type=_checked(check_seconds, "watch interval"), default=None,
          metavar="SECONDS",
          help="re-probe and redraw every SECONDS until the coordinator "
          "finishes (a fleet whose plan is recorded) or goes away; a "
          "service is watched until interrupted (default: one snapshot)"),
    _flag("worker", "--store", metavar="DIR",
          help="directory of worker-local results stores, one "
          "<plan_id>.jsonl per served plan; reusing it across worker "
          "restarts resumes interrupted units (default: a fresh "
          "temporary directory)"),
    _flag("worker", "--poll-interval",
          type=_checked(check_seconds, "poll interval"), default=None,
          help="the longest this worker lets an idle lease request be "
          "held (the coordinator's own poll interval caps it), seconds "
          "(default: what the coordinator advertises)"),
    _flag("worker", "--id", help="stable worker identity (default: "
          "hostname-pid)"),
    _flag("worker", "--throttle", type=_checked(check_throttle),
          default=None, metavar="SECONDS_PER_CELL",
          help="artificially slow this worker down by sleeping this many "
          "seconds per executed cell — a test knob for exercising "
          "capacity-aware scheduling on heterogeneous fleets (default: "
          "$REPRO_WORKER_THROTTLE)"),
    _flag("worker", "--backoff-base",
          type=_checked(check_seconds, "backoff base"), default=0.5,
          metavar="SECONDS",
          help="initial retry delay ceiling after a failed coordinator "
          "exchange; doubles per consecutive failure (with jitter) up "
          "to --backoff-cap"),
    _flag("worker", "--backoff-cap",
          type=_checked(check_seconds, "backoff cap"), default=5.0,
          metavar="SECONDS",
          help="maximum retry delay ceiling under the exponential "
          "backoff"),
    # -- store and trace utilities --------------------------------------
    _flag("merge-stores", "--into", required=True,
          help="destination store; its existing records take precedence"),
    _flag("merge-stores", "stores", nargs="+",
          help="source stores, in precedence order"),
    _flag("timeline", "traces", nargs="+", metavar="TRACE_JSONL",
          help="trace files written by --trace (one per process: "
          "coordinator and each worker)"),
    _flag("timeline", "-o", "--output", required=True,
          help="destination timeline JSON"),
    _flag("timeline", "--trace-id", default=None,
          help="keep only spans of this propagated trace id (default: "
          "all events; untagged events are always kept)"),
    _flag("run", "--output", help="save the run as JSON"),
    _flag("sweep", "--output", help="save the aggregated sweep as JSON"),
    # -- telemetry of every long-running command (see repro.obs) --------
    _flag("run sweep worker serve", "--trace", metavar="PATH",
          help="stream telemetry span events (one JSON object per line: "
          "run/step/generation/unit spans, fleet summaries) into this "
          "JSONL file"),
    _flag("run sweep worker serve", "--metrics", metavar="PATH",
          help="write a Prometheus-text metrics snapshot (engine batch "
          "timings, cache hit/miss counters, fleet utilization) to this "
          "file when the command finishes"),
    _flag("run sweep worker serve", "--log-level",
          choices=("debug", "info", "warning", "error"), default=None,
          help="enable stderr logging at this level (the "
          "repro.distributed.* loggers narrate lease/steal/requeue/drain "
          "events; default: logging stays unconfigured)"),
    # serve's gateway already answers the same routes itself
    _flag("run sweep worker", "--http-port", type=_PORT, default=None,
          metavar="PORT",
          help="serve live observability over HTTP on 127.0.0.1:PORT "
          "while the command runs: /metrics (Prometheus text of the "
          "process registry — under --executor fleet that includes "
          "the folded per-worker series), /healthz, and /status (JSON "
          "fleet snapshot when a coordinator is live, read-only; 0 = "
          "OS-assigned, the bound address is printed)"),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, built from the flag table."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ESS-NS wildfire-prediction reproduction toolkit",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    leaves = {}
    for path, help_text, func in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest=f"{group}_command", required=True)
        leaves[name] = subs[group].add_parser(name, help=help_text)
        leaves[name].set_defaults(func=func)
    for commands, flags, kwargs in _FLAGS:
        if callable(kwargs.get("default")):
            kwargs = {**kwargs, "default": kwargs["default"]()}
        for command in commands:
            leaves[command].add_argument(*flags, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _setup_obs(args)
    try:
        return args.func(args)
    finally:
        # even a failing command leaves a metrics snapshot and a
        # flushed trace — that is when they are most wanted
        _teardown_obs(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
