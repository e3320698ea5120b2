"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows without writing a script:

* ``simulate`` — run one fire simulation on a canonical case terrain
  and print burned-area statistics (the fireLib-style use).
* ``run`` — run one prediction system on a case and print the per-step
  table; optionally save the result as JSON.
* ``compare`` — run several systems on the same case and print the E1
  quality-per-step comparison; like ``sweep`` it takes ``--executor``,
  so a one-case grid can spread over a worker fleet cell by cell.
* ``sweep`` — run a full systems × cases × seeds grid and print the
  aggregated table; ``--executor`` picks where the grid's pending work
  units execute (inline, or a TCP worker fleet — ``--shards N`` starts
  N local workers for it). ``sweep --plan P --results R --executor
  fleet`` is the one way to run a saved plan on a fleet.
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

``compare`` and ``sweep`` are thin *plan builders*: they assemble a
declarative :class:`~repro.experiments.plan.ExperimentPlan` from the
flags (or load one from ``--plan``) and hand execution to the
experiment layer, which shares one engine session per (case, backend)
group and can stream results into a resumable ``--results`` store.
"""

from __future__ import annotations

import argparse
import logging
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
    ProcessShardExecutor,
    run_worker,
)
from repro.distributed.protocol import (
    check_seconds,
    request as _fleet_request,
)
from repro.distributed.worker import parse_address
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
from repro.experiments.costs import DEFAULT_SLOW_UNIT_FACTOR
from repro.firelib.simulator import FireSimulator
from repro.obs.http import ObsHTTPServer
from repro.obs.timeline import export_timeline
from repro.rng import make_rng
from repro.systems.factory import SYSTEM_NAMES as _SYSTEM_NAMES
from repro.systems.factory import build_system as _build_system
from repro.workloads.cases import CASE_BUILDERS

__all__ = ["main", "build_system"]


def build_system(
    name: str,
    population: int = 16,
    generations: int = 6,
    n_workers: int = 1,
    tuning: str = "both",
    backend: str = "reference",
    cache_size: int = 0,
    session_cache_size: int = 0,
):
    """Construct a prediction system by CLI name with matched budgets.

    Thin wrapper over :func:`repro.systems.factory.build_system` that
    turns unknown names into a clean CLI exit instead of a traceback.
    """
    try:
        return _build_system(
            name,
            population=population,
            generations=generations,
            n_workers=n_workers,
            tuning=tuning,
            backend=backend,
            cache_size=cache_size,
            session_cache_size=session_cache_size,
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


def _add_budget(parser: argparse.ArgumentParser) -> None:
    """Search/engine budget flags shared by run, compare and sweep."""
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--population", type=int, default=16)
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="reference",
        help="simulation-engine kernel for fitness evaluation "
        "(--workers N > 1 evaluates it in an N-process pool)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="per-step LRU scenario-result cache capacity (0 = off)",
    )
    parser.add_argument(
        "--session-cache-size",
        type=int,
        default=0,
        help="run-scoped cross-step result cache capacity, shared by "
        "all prediction steps of a run — and, under a shared experiment "
        "session, by every system of a (case, backend) group (0 = off; "
        "replaces --cache-size when set)",
    )


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    """Trace/metrics/logging flags of every long-running command (see
    :mod:`repro.obs`)."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="stream telemetry span events (one JSON object per line: "
        "run/step/generation/unit spans, fleet summaries) into this "
        "JSONL file",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a Prometheus-text metrics snapshot (engine batch "
        "timings, cache hit/miss counters, fleet utilization) to this "
        "file when the command finishes",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable stderr logging at this level (the "
        "repro.distributed.* loggers narrate lease/steal/requeue/drain "
        "events; default: logging stays unconfigured)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags plus ``--http-port``: run, compare, sweep and
    worker (``serve``'s gateway already answers the same routes)."""
    _add_telemetry(parser)
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live observability over HTTP on 127.0.0.1:PORT "
        "while the command runs: /metrics (Prometheus text of the "
        "process registry — under --executor fleet that includes "
        "the folded per-worker series), /healthz, and /status (JSON "
        "fleet snapshot when a coordinator is live, read-only; 0 = "
        "OS-assigned, the bound address is printed)",
    )


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


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a clean usage error otherwise)."""
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seconds(what: str):
    """argparse type of a duration setting named ``what``: finite
    seconds > 0 (a clean usage error otherwise)."""

    def parse(text: str) -> float:
        try:
            return check_seconds(text, what)
        except FleetError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _add_auth_token(parser: argparse.ArgumentParser) -> None:
    """``--auth-token``: every fleet client and coordinator entry point."""
    parser.add_argument(
        "--auth-token",
        default=os.environ.get("REPRO_FLEET_TOKEN"),
        help="shared secret for the fleet port's HMAC challenge-"
        "response handshake; unauthenticated peers are rejected before "
        "any plan bytes move (default: $REPRO_FLEET_TOKEN; unset "
        "disables authentication)",
    )


def _add_client(parser: argparse.ArgumentParser) -> None:
    """``--connect``/``--request-timeout``/``--auth-token`` for the
    one-shot coordinator clients (``drain`` and ``status``)."""
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (--executor fleet's, or repro "
        "serve's fleet port)",
    )
    parser.add_argument(
        "--request-timeout",
        type=_seconds("request timeout"),
        default=10.0,
        help="seconds to wait for the coordinator's reply",
    )
    _add_auth_token(parser)


def _add_leasing(parser: argparse.ArgumentParser) -> None:
    """Lease flags and the idle-hold ``--poll-interval`` of both fleet
    coordinators: compare/sweep's fleet executor and ``serve``."""
    parser.add_argument(
        "--lease-timeout",
        type=_seconds("lease timeout"),
        default=30.0,
        help="seconds of worker silence after which its leased work "
        "unit is handed to another worker (workers heartbeat at a "
        "quarter of this)",
    )
    parser.add_argument(
        "--min-unit-cells",
        type=_positive_int,
        default=1,
        help="lease-size floor (>= 1): work is never carved into units "
        "of fewer (system, case, seed, backend) cells than this",
    )
    parser.add_argument(
        "--target-unit-seconds",
        type=_seconds("target_unit_seconds"),
        default=1.0,
        help="per-lease wall-clock target: leases grow until a unit is "
        "predicted to take about this long, with --min-unit-cells as "
        "the floor",
    )
    parser.add_argument(
        "--poll-interval",
        type=_seconds("poll interval"),
        default=0.5,
        help="the longest an idle worker's lease request is held open "
        "before it is answered 'wait' (work reaches held workers as "
        "soon as it exists); also the re-ask cadence advertised to "
        "older workers that cannot hold, seconds",
    )


def _add_executor(parser: argparse.ArgumentParser) -> None:
    """``--shards``/``--executor`` + fleet flags (compare and sweep)."""
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="run pending work units in this many local fleet worker "
        "processes (requires --results; N > 1 selects --executor process)",
    )
    parser.add_argument(
        "--executor",
        choices=("inline", "process", "fleet"),
        default="inline",
        help="where the plan's pending work units execute: in this "
        "process (inline, unless --shards N > 1), leased to --shards "
        "local worker processes (process), or leased cell-by-cell to TCP "
        "workers started with 'repro experiments worker' (fleet; "
        "requires --results and honours --host/--port/--lease-timeout/"
        "--poll-interval/--min-unit-cells/--auth-token/--timeout/"
        "--cost-snapshot)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="coordinator listen address (0.0.0.0 to accept remote "
        "workers)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="coordinator listen port (0 = OS-assigned; the bound "
        "address is printed either way)",
    )
    _add_auth_token(parser)
    parser.add_argument(
        "--slow-unit-factor",
        type=float,
        default=DEFAULT_SLOW_UNIT_FACTOR,
        help="emit a slow_unit trace event when a completed unit "
        "exceeds its cost-model prediction by this factor (its "
        "observed/predicted ratio always lands in the "
        "repro_cost_residual_ratio histogram; 0 disables the event)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="fleet: abort if the plan is still incomplete after this "
        "many seconds (default: wait forever — workers may join at any "
        "time)",
    )
    parser.add_argument(
        "--cost-snapshot",
        metavar="PATH",
        help="fleet: persist the cost model to this JSON sidecar on "
        "finish and restore it on start, so the next run's first "
        "leases are already sized from measured per-cell rates "
        "(missing or unreadable files mean a cold start, never an "
        "error)",
    )
    _add_leasing(parser)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", choices=sorted(CASE_BUILDERS), default="grassland")
    parser.add_argument("--size", type=int, default=44, help="grid side, cells")
    parser.add_argument("--steps", type=int, default=3, help="prediction steps")
    parser.add_argument("--seed", type=int, default=42)
    _add_budget(parser)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.minutes > 0:
        raise SystemExit(f"--minutes must be positive, got {args.minutes:g}")
    try:
        fire = CaseSpec(args.case, size=args.size, steps=2).build()
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
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
    sim = FireSimulator(fire.terrain)
    result = sim.simulate(
        scenario, [fire.terrain.center()], horizon=args.minutes
    )
    burned = result.burned()
    print(f"terrain: {args.case} {fire.terrain.shape}")
    print(f"scenario: {scenario}")
    print(f"horizon: {args.minutes:g} min")
    print(f"burned cells: {int(burned.sum())} / {fire.terrain.n_cells}")
    print(f"max head-fire rate: {result.ros_max_ftmin:.2f} ft/min")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # checked here, not by BudgetSpec: run accepts populations below its
    # plan floor of 4
    if args.generations < 1:
        raise SystemExit(f"generations must be >= 1, got {args.generations}")
    try:
        fire = CaseSpec(args.case, size=args.size, steps=args.steps).build()
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    system = build_system(
        args.system,
        args.population,
        args.generations,
        args.workers,
        backend=args.backend,
        cache_size=args.cache_size,
        session_cache_size=args.session_cache_size,
    )
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


def _cmd_compare(args: argparse.Namespace) -> int:
    names = tuple(n.strip() for n in args.systems.split(","))
    try:
        plan = ExperimentPlan(
            name="compare",
            systems=names,
            cases=(CaseSpec(args.case, size=args.size, steps=args.steps),),
            seeds=(args.seed,),
            backends=(args.backend,),
            budget=_budget(args),
        )
        store = _open_results_store(args.results) if args.results else None
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from exc
    result = _run_plan(args, plan, store)
    case = plan.cases[0]
    print(f"case: {case.name} {case.size}x{case.size}, {case.steps} steps")
    print(format_comparison(compare_runs(result.runs())))
    print(format_experiment(result))
    return 0


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


def _run_plan(
    args: argparse.Namespace, plan: ExperimentPlan, store: ResultsStore | None
) -> ExperimentResult:
    """Run ``plan`` under the ``--executor``/``--shards`` flags.

    Shared by ``compare`` and ``sweep``; a plain :class:`ReproError` or
    a :class:`FleetError` (every loopback worker dead, the fleet
    ``--timeout`` spent) becomes a clean one-line exit (see
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
            slow_unit_factor=args.slow_unit_factor,
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
    if not args.watch:
        _print_status(_probe_status(args))
        return 0
    if args.watch < 0:
        raise SystemExit(
            f"--watch must be a non-negative interval, got {args.watch:g}"
        )
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


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ESS-NS wildfire-prediction reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one fire simulation")
    p_sim.add_argument("--case", choices=sorted(CASE_BUILDERS), default="grassland")
    p_sim.add_argument("--size", type=int, default=60)
    p_sim.add_argument("--minutes", type=float, default=45.0)
    p_sim.add_argument("--model", type=int, default=1)
    p_sim.add_argument("--wind-speed", type=float, default=8.0)
    p_sim.add_argument("--wind-dir", type=float, default=90.0)
    p_sim.add_argument("--m1", type=float, default=6.0)
    p_sim.add_argument("--mherb", type=float, default=60.0)
    p_sim.add_argument("--slope", type=float, default=5.0)
    p_sim.add_argument("--aspect", type=float, default=270.0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser("run", help="run one prediction system")
    p_run.add_argument("system", choices=_SYSTEM_NAMES)
    _add_common(p_run)
    p_run.add_argument("--output", help="save the run as JSON")
    _add_obs(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare systems on one case")
    p_cmp.add_argument(
        "--systems",
        default="ess,ess-ns",
        help="comma-separated list from: " + ", ".join(_SYSTEM_NAMES),
    )
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--results",
        help="stream one JSONL record per completed run into this file "
        "(resumable; required by --executor process/fleet)",
    )
    _add_executor(p_cmp)
    _add_obs(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser(
        "sweep", help="run a systems × cases × seeds experiment grid"
    )
    p_swp.add_argument(
        "--systems",
        default="ess,ess-ns",
        help="comma-separated list from: " + ", ".join(_SYSTEM_NAMES),
    )
    p_swp.add_argument(
        "--cases",
        default="grassland",
        help="comma-separated list from: " + ", ".join(sorted(CASE_BUILDERS)),
    )
    p_swp.add_argument("--size", type=int, default=44, help="grid side, cells")
    p_swp.add_argument("--steps", type=int, default=3, help="prediction steps")
    p_swp.add_argument(
        "--seeds",
        default="0,1",
        help="comma-separated repeat seeds (each offset by --seed)",
    )
    p_swp.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed added to every --seeds entry; together with the "
        "plan it makes every recorded run reproducible",
    )
    _add_budget(p_swp)
    p_swp.add_argument("--name", default="sweep", help="plan label")
    p_swp.add_argument(
        "--plan",
        help="load the experiment plan from this JSON file; the file "
        "then governs systems, cases, seeds, backend AND the whole "
        "budget (population/generations/workers/caches) — the "
        "corresponding flags are ignored",
    )
    p_swp.add_argument(
        "--save-plan", help="write the executed plan to this JSON file"
    )
    p_swp.add_argument(
        "--results",
        help="stream one JSONL record per completed run into this file; "
        "re-invoking with the same path resumes, computing only the "
        "missing (system, case, seed) cells",
    )
    _add_executor(p_swp)
    p_swp.add_argument("--output", help="save the aggregated sweep as JSON")
    _add_obs(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    p_exp = sub.add_parser(
        "experiments",
        help="distributed experiment execution and store aggregation",
    )
    exp_sub = p_exp.add_subparsers(dest="experiments_command", required=True)

    p_wrk = exp_sub.add_parser(
        "worker",
        help="join a coordinator's fleet and execute leased work units",
    )
    p_wrk.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (--executor fleet's, or repro "
        "serve's fleet port)",
    )
    p_wrk.add_argument(
        "--store",
        metavar="DIR",
        help="directory of worker-local results stores, one "
        "<plan_id>.jsonl per served plan; reusing it across worker "
        "restarts resumes interrupted units (default: a fresh "
        "temporary directory)",
    )
    p_wrk.add_argument(
        "--poll-interval",
        type=_seconds("poll interval"),
        default=None,
        help="the longest this worker lets an idle lease request be "
        "held (the coordinator's own poll interval caps it); against "
        "older coordinators that cannot hold, the sleep between asks, "
        "seconds (default: what the coordinator advertises)",
    )
    p_wrk.add_argument(
        "--id", help="stable worker identity (default: hostname-pid)"
    )
    p_wrk.add_argument(
        "--throttle",
        type=float,
        default=None,
        metavar="SECONDS_PER_CELL",
        help="artificially slow this worker down by sleeping this many "
        "seconds per executed cell — a test knob for exercising "
        "capacity-aware scheduling on heterogeneous fleets (default: "
        "$REPRO_WORKER_THROTTLE)",
    )
    _add_auth_token(p_wrk)
    p_wrk.add_argument(
        "--backoff-base",
        type=_seconds("backoff base"),
        default=0.5,
        metavar="SECONDS",
        help="initial retry delay ceiling after a failed coordinator "
        "exchange; doubles per consecutive failure (with jitter) up "
        "to --backoff-cap",
    )
    p_wrk.add_argument(
        "--backoff-cap",
        type=_seconds("backoff cap"),
        default=5.0,
        metavar="SECONDS",
        help="maximum retry delay ceiling under the exponential "
        "backoff",
    )
    _add_obs(p_wrk)
    p_wrk.set_defaults(func=_cmd_experiments_worker)

    p_drn = exp_sub.add_parser(
        "drain",
        help="gracefully retire one worker: it finishes its leased "
        "unit, uploads its records and exits with nothing requeued "
        "(elastic scale-down)",
    )
    _add_client(p_drn)
    p_drn.add_argument(
        "--worker",
        required=True,
        help="worker identity to retire (the --id it joined with, "
        "default hostname-pid; see 'repro experiments status')",
    )
    p_drn.set_defaults(func=_cmd_experiments_drain)

    p_st = exp_sub.add_parser(
        "status",
        help="query a running coordinator for live fleet progress and "
        "per-worker utilization (read-only; never delays shutdown)",
    )
    _add_client(p_st)
    p_st.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-probe and redraw every SECONDS until the coordinator "
        "finishes (a fleet whose plan is recorded) or goes away; a "
        "service is watched until interrupted (default: one snapshot)",
    )
    p_st.set_defaults(func=_cmd_experiments_status)

    p_mrg = exp_sub.add_parser(
        "merge-stores",
        help="aggregate several JSONL results stores into one "
        "(first writer wins, sorted output, partial tails compacted)",
    )
    p_mrg.add_argument(
        "--into",
        required=True,
        help="destination store; its existing records take precedence",
    )
    p_mrg.add_argument(
        "stores",
        nargs="+",
        help="source stores, in precedence order",
    )
    p_mrg.set_defaults(func=_cmd_experiments_merge)

    p_svc = sub.add_parser(
        "serve",
        help="run the always-on prediction service: an HTTP gateway "
        "for plan submission/polling/streaming plus a multi-plan "
        "fleet coordinator with cost-weighted fair-share scheduling "
        "across tenants",
    )
    p_svc.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="service state directory: admitted plans, per-plan "
        "results stores and the cost-model snapshot live here, so a "
        "restarted service resumes its queue",
    )
    p_svc.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address for both ports (0.0.0.0 to accept remote "
        "clients and workers; the HTTP gateway is unauthenticated — "
        "bind it privately)",
    )
    p_svc.add_argument(
        "--port",
        type=int,
        default=8321,
        help="HTTP gateway port (0 = OS-assigned; the bound address "
        "is printed)",
    )
    p_svc.add_argument(
        "--fleet-port",
        type=int,
        default=0,
        help="worker-facing fleet protocol port (0 = OS-assigned; "
        "point 'repro experiments worker --connect' here)",
    )
    _add_leasing(p_svc)
    p_svc.add_argument(
        "--max-active",
        type=int,
        default=8,
        help="admission bound: plans queued or running at once before "
        "submissions are answered 429 with a Retry-After derived "
        "from the cost model's predicted drain time",
    )
    _add_auth_token(p_svc)
    _add_telemetry(p_svc)
    p_svc.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser(
        "obs",
        help="observability utilities over collected telemetry files",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_tl = obs_sub.add_parser(
        "timeline",
        help="merge --trace JSONL files into one Chrome trace-event "
        "timeline (open in Perfetto or chrome://tracing); propagated "
        "trace ids and clock offsets place spans on per-worker tracks",
    )
    p_tl.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE_JSONL",
        help="trace files written by --trace (one per process: "
        "coordinator and each worker)",
    )
    p_tl.add_argument(
        "-o",
        "--output",
        required=True,
        help="destination timeline JSON",
    )
    p_tl.add_argument(
        "--trace-id",
        default=None,
        help="keep only spans of this propagated trace id (default: "
        "all events; untagged events are always kept)",
    )
    p_tl.set_defaults(func=_cmd_obs_timeline)

    args = parser.parse_args(argv)
    _setup_obs(args)
    try:
        return args.func(args)
    finally:
        # even a failing command leaves a metrics snapshot and a
        # flushed trace — that is when they are most wanted
        _teardown_obs(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
