"""The four workloads of the end-to-end benchmark.

Every workload draws its inputs from a fixed *pool* whose correct
outputs are pinned in ``expected.json`` (one digest per pool item), so
every output of every run is checked, not only the default seed's.
``--seconds`` sets how much of the pool a run takes and ``--seed`` the
order, so two runs with one seed see identical inputs and runs with
other seeds measure the same work. README.md says why each workload
exists and which layers it stresses.

A workload is built from ``(seed, workdir)``. ``setup_sample()`` times
its set-up once: ``prepare()`` in a fresh process, or for the service,
starting its processes. ``run(seconds, trace)`` measures and returns a
:class:`Result`.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Recorder, layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_PATH = HERE / "expected.json"

#: Per-layer metrics not derived from spans. Like the span-derived
#: ones, they are zero on workloads that do not exercise their layer.
NON_SPAN_LAYERS = (
    "engine.batch_s",
    "engine.cache_hit_ratio",
    "engine.cross_system_hits",
    "experiments.store_bytes",
    "distributed.shard_busy_frac",
    "distributed.worker_busy_frac",
    "distributed.round_trips",
    "distributed.steals",
    "distributed.process2_speedup",
    "distributed.fleet2_speedup",
    "service.http_requests",
    "service.http_busy_frac",
    "service.schedule_wait_frac",
    "stages.prediction_quality",
    "trace_overhead_frac",
)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_digest(run) -> str:
    """A prediction run's per-step outputs (kign, qualities, counts),
    without wall-clock and engine accounting."""
    return digest(
        [
            {k: v for k, v in s.to_dict().items() if k not in ("timings", "engine")}
            for s in run.steps
        ]
    )


def record_digest(record: dict) -> str:
    """A results-store record in the executor-parity view, without the
    plan name (service plans are named per submission)."""
    from repro.experiments.store import parity_view

    view = parity_view(record)
    view.pop("plan", None)
    return digest(view)


def cell_key(record: dict) -> str:
    return f"{record['system']}|{record['case']}|{record['seed']}"


_expected: dict | None = None


def expected(workload: str) -> dict:
    global _expected
    if _expected is None:
        _expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    return _expected.get(workload, {})


@dataclass
class Result:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    qualities: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is also noted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {what}")
        return ok

    def matches(self, workload: str, key: str, value: str) -> bool:
        """Whether an output digest is the pinned one (not counted)."""
        self.digests.append(value)
        want = expected(workload).get(key)
        if want != value:
            self.notes.append(f"{key}: digest {value} != expected {want}")
        return want == value


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 100.0 * q))


#: Every timed item runs this many times in a run, seconds apart, and
#: its latency is the best of its runs. The host's speed swings up to 2x
#: between seconds; a single pass measures which slow spells a run met,
#: the best of several passes apart in time measures the code.
PASSES = 3


def best_of(passes: list[list]) -> list:
    """Element-wise minimum over passes of equal-length lists."""
    return [min(values) for values in zip(*passes)]


def registry_total(entries, name: str, key: str = "value") -> float:
    """Sum of one field over every labelled series of a metric."""
    return float(sum(e.get(key, 0.0) for e in entries if e["name"] == name))


ENGINE_SERIES = (
    ("repro_engine_batch_seconds", "count"),
    ("repro_engine_batch_seconds", "sum"),
    ("repro_engine_cache_hits_total", "value"),
    ("repro_engine_cache_misses_total", "value"),
)


def engine_counts(before, after) -> Counter:
    """Engine batch and cache counters moved between two snapshots."""
    return Counter(
        {
            (name, key): registry_total(after, name, key) - registry_total(before, name, key)
            for name, key in ENGINE_SERIES
        }
    )


def engine_layers(counts: Counter) -> dict:
    batches = counts["repro_engine_batch_seconds", "count"]
    hits = counts["repro_engine_cache_hits_total", "value"]
    lookups = hits + counts["repro_engine_cache_misses_total", "value"]
    return {
        "engine.batch_s": (
            counts["repro_engine_batch_seconds", "sum"] / batches if batches else 0.0
        ),
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def record_layers(records) -> dict:
    """Cross-system cache hits and stored bytes of a batch of records."""
    return {
        "engine.cross_system_hits": sum(
            int((r["run"].get("session") or {}).get("cross_system_hits", 0))
            for r in records
        ),
        "experiments.store_bytes": sum(
            len(json.dumps(r, sort_keys=True)) + 1 for r in records
        ),
        "stages.prediction_quality": float(np.mean([r["quality"] for r in records])),
    }


def empty_layers() -> dict:
    return {**layer_metrics([]), **{name: 0.0 for name in NON_SPAN_LAYERS}}


def pool_order(seed: int, size: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(size)]


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(workdir)
    return env


class Workload:
    """Shared set-up timing: a fresh ``run.py _setup`` process."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir

    def setup_sample(self) -> float:
        """Seconds from spawning a process until it is ready to run the
        first timed item (the process runs ``prepare()``)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "_setup", self.name,
             str(self.seed), str(self.workdir)],
            stdout=subprocess.PIPE, env=child_env(self.workdir), cwd=ROOT,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        proc.wait(timeout=60)
        if line.strip() != b"READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {self.name} failed")
        return elapsed


# ----------------------------------------------------------------------
# predict_mosaic: the operator's prediction loop
# ----------------------------------------------------------------------
TRUE_SCENARIO = dict(
    model=1, wind_speed=8.0, wind_dir=90.0, m1=6.0, m10=8.0, m100=10.0,
    mherb=60.0, slope=5.0, aspect=270.0,
)


def mosaic_fire(index: int):
    """The reference fire of one mosaic pool item.

    The terrain seed is ``1000 + index``. When the true fire does not
    grow on that terrain (``WorkloadError``), the terrain is redrawn
    from seed ``1000 + index + 10000 * attempt``.
    """
    from repro.core.scenario import Scenario
    from repro.errors import WorkloadError
    from repro.workloads.mosaic import random_fuel_mosaic
    from repro.workloads.synthetic import make_reference_fire

    for attempt in range(10):
        terrain = random_fuel_mosaic(32, 32, hilly=True, rng=1000 + index + 10_000 * attempt)
        try:
            return make_reference_fire(
                terrain,
                Scenario(**TRUE_SCENARIO),
                ignition=[(16, 8)],
                n_steps=4,
                step_minutes=25.0,
                description=f"mosaic 32x32 #{index}",
            )
        except WorkloadError:
            continue
    raise WorkloadError(f"no growing mosaic fire for item {index}")


class Predict(Workload):
    """ESS-NS, vectorized backend, cache off, on one mosaic per pool
    item; the run seed is the item index.

    A run does a fixed amount of work: :data:`PASSES` passes over the
    first ``seconds / item_s / PASSES`` pool items, in an order set by
    the seed. Items differ several-fold in cost, so a run over a random
    subset would mostly measure which items it drew.
    """

    pool = 32
    population = 10
    item_s = 1.25  # nominal seconds per item, which sizes a run's work

    def items(self, seconds: float) -> list[int]:
        n = max(1, round(seconds / self.item_s))
        first = min(n, self.pool)
        order = pool_order(self.seed, first)
        return [order[k % first] for k in range(n)]

    def prepare(self) -> None:
        mosaic_fire(self.items(1)[0])
        self.system()

    def system(self):
        from repro.systems.factory import build_system

        return build_system(
            "ess-ns",
            population=self.population,
            generations=6,
            backend="vectorized",
        )

    def item(self, index: int, result: Result):
        """One run: ``(wall seconds, per-step seconds, digest)``."""
        fire = mosaic_fire(index)
        system = self.system()
        start = time.perf_counter()
        try:
            run = system.run(fire, rng=index)
        except Exception as exc:  # a raised run is a failed operation
            result.check(False, f"item {index} raised {exc!r}")
            return time.perf_counter() - start, [], None
        wall = time.perf_counter() - start
        value = run_digest(run)
        result.check(result.matches(self.name, str(index), value), f"item {index}")
        result.qualities.append(run.mean_quality())
        return wall, [s.timings.total() for s in run.steps], value

    def run(self, seconds: float, trace: bool) -> Result:
        result = Result()
        if trace:
            return self._traced(seconds, result)
        items = self.items(seconds / PASSES)
        self.item(items[0], result)  # warm-up: lazy imports, kernel cost model
        passes = [[self.item(index, result)[:2] for index in items] for _ in range(PASSES)]
        walls = best_of([[wall for wall, _ in runs] for runs in passes])
        steps = [
            step
            for same_item in zip(*passes)
            for step in best_of([step_seconds for _, step_seconds in same_item])
        ]
        result.metrics = {
            "latency_p50_s": quantile(steps, 0.5),
            "latency_p75_s": quantile(steps, 0.75),
            "throughput_per_s": len(steps) / sum(walls),
        }
        result.notes.append(
            f"{len(steps)} steps from {len(walls)} runs, best of {PASSES} passes"
        )
        return result

    def _traced(self, seconds: float, result: Result) -> Result:
        """A/B pairs over half the items: each untraced, then traced."""
        from repro.obs import telemetry

        recorder = Recorder(f"{self.name}-{os.getpid()}")
        engine = Counter()
        walls = {False: 0.0, True: 0.0}
        for index in self.items(seconds / 2):
            wall, _, value = self.item(index, result)
            walls[False] += wall
            before = telemetry().snapshot()
            with recorder.installed():
                wall, _, traced_value = self.item(index, result)
            engine += engine_counts(before, telemetry().snapshot())
            walls[True] += wall
            result.check(traced_value == value, f"item {index}: traced digest differs")
        result.spans = recorder.spans
        result.metrics = {
            **empty_layers(),
            **layer_metrics(recorder.spans),
            **engine_layers(engine),
            "stages.prediction_quality": float(np.nanmean(result.qualities)),
            "trace_overhead_frac": walls[True] / walls[False] - 1.0,
        }
        return result


# ----------------------------------------------------------------------
# study_grid: the researcher's comparison under three executors
# ----------------------------------------------------------------------
STUDY_SYSTEMS = ("ess", "ess-ns", "essim-ea", "essim-de", "essns-im")
STUDY_CASES = ("river_gap", "heterogeneous")
STUDY_EXECUTORS = ("inline", "process2", "fleet2")


def study_plan(seed: int):
    from repro.experiments import BudgetSpec, CaseSpec, ExperimentPlan

    return ExperimentPlan(
        name="e2e-study",
        systems=STUDY_SYSTEMS,
        cases=tuple(CaseSpec(c, size=40, steps=3) for c in STUDY_CASES),
        seeds=(seed,),
        backends=("vectorized",),
        budget=BudgetSpec(population=16, generations=6, session_cache_size=8192),
    )


def run_fleet(runner, plan, workdir: Path):
    """Loopback :class:`FleetExecutor` with two forked workers."""
    from repro.distributed import FleetExecutor, run_worker

    ctx = multiprocessing.get_context("fork")
    procs = []

    def on_bound(address):
        for i in range(2):
            proc = ctx.Process(
                target=run_worker,
                args=(address,),
                kwargs=dict(store_path=str(workdir / f"worker{i}.jsonl"), worker_id=f"e2e-w{i}"),
            )
            proc.start()
            procs.append(proc)

    executor = FleetExecutor(
        lease_timeout=30.0, poll_interval=0.05, timeout=120.0, on_bound=on_bound
    )
    try:
        runner.run(plan, executor=executor)
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
    return executor


class Study(Workload):
    """Rotations of one grid seed each: inline, process x2, fleet x2.

    A rotation runs one 10-cell plan (5 systems x 2 cases) under each
    executor in turn, so all three see the same cells. ``--seconds``
    fixes the number of rotations (one per ``rotation_s`` of nominal
    time) rather than the clock, so every run of one seed measures the
    same grid seeds. A cell's step latency is the best of its runs, one
    per executor; what the executors themselves cost shows in throughput.
    """

    pool = 3
    rotation_s = {False: 9.0, True: 13.0}

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        super().__init__(name, seed, workdir)
        self.order = pool_order(seed, self.pool)
        self._rounds = 0

    def prepare(self) -> None:
        import repro.distributed  # noqa: F401  (executor imports are set-up work)

        study_plan(self.order[0])

    def round(self, executor: str, seed: int, result: Result):
        """One plan under one executor: ``(wall, records, fleet)``."""
        from repro.distributed import InlineExecutor, ProcessShardExecutor
        from repro.experiments import ExperimentRunner, ResultsStore

        self._rounds += 1
        plan = study_plan(seed)
        store = ResultsStore(self.workdir / f"study-{self._rounds}-{executor}.jsonl")
        runner = ExperimentRunner(store=store)
        fleet = None
        start = time.perf_counter()
        try:
            if executor == "inline":
                runner.run(plan, executor=InlineExecutor())
            elif executor == "process2":
                runner.run(plan, executor=ProcessShardExecutor(2))
            else:
                fleet = run_fleet(runner, plan, self.workdir / f"fleet-{self._rounds}")
        except Exception as exc:  # missing cells below count as failures
            result.notes.append(f"{executor} round raised {exc!r}")
        wall = time.perf_counter() - start
        records = store.records()
        counts = Counter(cell_key(r) for r in records)
        for system in STUDY_SYSTEMS:
            for case in STUDY_CASES:
                key = f"{system}|{case}|{seed}"
                found = [r for r in records if cell_key(r) == key]
                ok = counts[key] == 1 and result.matches(
                    self.name, key, record_digest(found[0])
                )
                if result.check(ok, f"{executor}: cell {key} x{counts[key]}"):
                    result.qualities.append(found[0]["quality"])
        return wall, records, fleet

    def run(self, seconds: float, trace: bool) -> Result:
        from repro.obs import telemetry

        result = Result()
        rotations = max(1, round(seconds / self.rotation_s[trace]))
        walls = {e: [] for e in (*STUDY_EXECUTORS, "traced")}
        records_of = {e: [] for e in walls}
        fleets = []
        recorder = Recorder(f"{self.name}-{os.getpid()}")
        engine = Counter()
        for r in range(rotations):
            seed = self.order[r % self.pool]
            for executor in STUDY_EXECUTORS:
                wall, records, fleet = self.round(executor, seed, result)
                walls[executor].append(wall)
                records_of[executor] += records
                fleets += [fleet] if fleet is not None else []
                if trace and executor == "inline":
                    before = telemetry().snapshot()
                    with recorder.installed():
                        wall, traced, _ = self.round(executor, seed, result)
                    engine += engine_counts(before, telemetry().snapshot())
                    walls["traced"].append(wall)
                    records_of["traced"] += traced
                    result.check(
                        sorted(map(record_digest, traced)) == sorted(map(record_digest, records)),
                        f"grid seed {seed}: traced digests differ",
                    )

        def rate(executor):
            return len(records_of[executor]) / sum(walls[executor])

        if not trace:
            records = [r for e in STUDY_EXECUTORS for r in records_of[e]]
            runs_of: dict[str, list] = {}
            for r in records:
                runs_of.setdefault(cell_key(r), []).append(
                    [sum(s["timings"].values()) for s in r["run"]["steps"]]
                )
            steps = [step for runs in runs_of.values() for step in best_of(runs)]
            result.metrics = {
                "latency_p50_s": quantile(steps, 0.5),
                "latency_p75_s": quantile(steps, 0.75),
                "throughput_per_s": len(records) / sum(sum(walls[e]) for e in STUDY_EXECUTORS),
            }
            result.notes.append(
                f"{rotations} rotations; cells/s "
                + ", ".join(f"{e} {rate(e):.3f}" for e in STUDY_EXECUTORS)
            )
            return result
        workers = [st for fleet in fleets for st in fleet.worker_stats.values()]
        result.spans = recorder.spans
        result.metrics = {
            **empty_layers(),
            **layer_metrics(recorder.spans),
            **engine_layers(engine),
            **record_layers(records_of["traced"]),
            "distributed.shard_busy_frac": sum(
                float(r["seconds"]) for r in records_of["process2"]
            ) / (2 * sum(walls["process2"])),
            "distributed.worker_busy_frac": sum(st["busy_seconds"] for st in workers)
            / (2 * sum(walls["fleet2"])),
            "distributed.round_trips": sum(st["round_trips"] for st in workers),
            "distributed.steals": sum(fleet.steals for fleet in fleets),
            "distributed.process2_speedup": rate("process2") / rate("inline"),
            "distributed.fleet2_speedup": rate("fleet2") / rate("inline"),
            "trace_overhead_frac": sum(walls["traced"]) / sum(walls["inline"]) - 1.0,
        }
        return result


# ----------------------------------------------------------------------
# service_tenants: open-loop tenants against `repro serve`
# ----------------------------------------------------------------------
#: Plan seeds whose outputs ``expected.json`` pins. A run's steady part
#: submits the first ``6/s x 70% of --seconds / PASSES`` of them once
#: per pass, so every run submits the same plans (a few seeds cost 2-3x
#: the others, so other plans would move the tail).
SERVICE_POOL = 105
SERVICE_RATE = 6.0  # plans/s: well under the burst rate, even on a slowed host
SERVICE_TENANTS = 4
#: Each pass ends with bursts of BURST plans (seeds 0..47), one per
#: nominal BURST_S seconds of the run's remaining 30%.
BURST = 48
BURST_SHARE = 0.3
BURST_S = 2.5
POLL_GAP = 0.010  # at most one status poll per 10 ms, client-wide
POLL_EVERY = 0.020  # per plan
PLAN_TIMEOUT = 30.0


def service_plan(name: str, seed: int) -> dict:
    from repro.experiments import BudgetSpec, CaseSpec, ExperimentPlan

    return ExperimentPlan(
        name=name,
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("grassland", size=20, steps=2),),
        seeds=(seed,),
        backends=("vectorized",),
        budget=BudgetSpec(population=8, generations=2),
    ).to_dict()


class Client:
    """Blocking HTTP client; times every request by kind."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.seconds: dict[str, list[float]] = {}

    def call(self, kind: str, method: str, path: str, body: dict | None = None):
        start = time.perf_counter()
        conn = http.client.HTTPConnection(*self.address, timeout=15)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            reply = conn.getresponse()
            return reply.status, reply, reply.read()
        finally:
            conn.close()
            self.seconds.setdefault(kind, []).append(time.perf_counter() - start)

    def metrics(self) -> list[dict]:
        from repro.obs import parse_prometheus_text

        status, _, data = self.call("scrape", "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return parse_prometheus_text(data.decode())


class ServiceStack:
    """``repro serve`` plus two ``repro experiments worker`` processes."""

    def __init__(self, workdir: Path, spans_dir: Path | None = None) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.spans_dir = spans_dir
        self.env = child_env(workdir.parent)
        self.procs: list[subprocess.Popen] = []
        self.logs: list = []
        self.client: Client | None = None

    def _spawn(self, name: str, argv: list[str]) -> subprocess.Popen:
        log = open(self.workdir / f"{name}.log", "wb")
        self.logs.append(log)
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
        )
        self.procs.append(proc)
        return proc

    def start(self, result: Result) -> float:
        """Spawn everything, wait for both workers and a warm-up plan;
        returns the seconds that took."""
        started = time.perf_counter()
        server = self._spawn(
            "server",
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", str(self.workdir / "spool"),
                "--port", "0", "--fleet-port", "0",
                "--poll-interval", "0.02", "--max-active", "64",
            ],
        )
        log = self.workdir / "server.log"
        addresses: dict[str, str] = {}
        while len(addresses) < 2:
            if server.poll() is not None or time.perf_counter() - started > 60:
                raise RuntimeError(f"repro serve did not start: {log.read_text()}")
            time.sleep(0.005)
            for line in log.read_text().splitlines():
                if line.startswith(("service http on ", "service fleet on ")):
                    addresses[line.split()[1]] = line.rsplit(" ", 1)[1]
        host, port = addresses["http"].rsplit(":", 1)
        self.client = Client((host, int(port)))
        for i in range(2):
            argv = [
                "experiments", "worker", "--connect", addresses["fleet"],
                "--id", f"e2e-w{i}", "--store", str(self.workdir / f"worker{i}"),
            ]
            if self.spans_dir is None:
                argv = [sys.executable, "-m", "repro", *argv]
            else:
                spans = self.spans_dir / f"{self.workdir.name}-w{i}.jsonl"
                argv = [sys.executable, str(HERE / "run.py"), "_worker", str(spans), *argv]
            self._spawn(f"worker{i}", argv)
        while True:
            status, _, data = self.client.call("status", "GET", "/status")
            if status == 200 and {"e2e-w0", "e2e-w1"} <= set(json.loads(data)["workers"]):
                break
            if time.perf_counter() - started > 60:
                raise RuntimeError("service workers did not connect")
            time.sleep(0.005)
        now = time.perf_counter()
        drive(self.client, [(now, f"warmup-{i}", i, "warmup") for i in range(2)], result, [])
        return time.perf_counter() - started

    def stop(self) -> None:
        """Drain the workers, then stop the server; always reaps all."""
        try:
            if self.client is not None:
                for i in range(2):
                    try:
                        self.client.call("drain", "POST", f"/workers/e2e-w{i}/drain")
                    except OSError:
                        pass
            for proc in self.procs[1:]:
                _reap(proc, 20)
            if self.procs:
                self.procs[0].send_signal(signal.SIGTERM)
                _reap(self.procs[0], 20)
        finally:
            for proc in self.procs:
                _reap(proc, 0)
            for log in self.logs:
                log.close()


def _reap(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@dataclass
class _Pending:
    due: float
    name: str
    seed: int
    job: str
    next_poll: float


def drive(client: Client, schedule, result: Result, records_out: list) -> dict[str, float]:
    """Submit ``(due, name, seed, tenant)`` plans on schedule and follow
    each until all its records have streamed; returns the latency of
    every plan that passed, by name.

    Open loop: a plan is sent when due, whatever is still outstanding,
    and timed from its due time, so a stall also counts against the
    plans queued behind it. One plan is one operation: a non-2xx reply
    other than 429, a missing or duplicate cell, a digest mismatch or a
    plan not complete within ``PLAN_TIMEOUT`` fails it.
    """
    queue = sorted(schedule)
    pending: list[_Pending] = []
    latencies: dict[str, float] = {}
    late: list[float] = []
    last_poll = 0.0
    while queue or pending:
        now = time.perf_counter()
        if queue and queue[0][0] <= now:
            due, name, seed, tenant = queue.pop(0)
            status, reply, data = client.call(
                "submit", "POST", "/plans",
                {"plan": service_plan(name, seed), "tenant": tenant},
            )
            late.append(time.perf_counter() - due)
            if status == 429:  # backpressure: come back when told to
                retry = float(reply.getheader("Retry-After", "1"))
                queue.append((time.perf_counter() + retry, name, seed, tenant))
                queue.sort()
            elif status in (200, 201):
                # first poll at a per-plan phase in [0, POLL_EVERY): a
                # fixed phase would put every completion on the same
                # poll grid and split the latencies into two modes
                phase = int(digest(name), 16) / 16**16
                job = json.loads(data)["id"]
                pending.append(_Pending(due, name, seed, job, now + phase * POLL_EVERY))
            else:
                result.check(False, f"submit {name}: HTTP {status}")
            continue
        ready = [p for p in pending if p.next_poll <= now]
        if not ready or now - last_poll < POLL_GAP:
            # sleep until the next submission or poll is due
            poll_at = max(min((p.next_poll for p in pending), default=now), last_poll + POLL_GAP)
            time.sleep(max(0.0, min([poll_at] + [due for due, *_ in queue[:1]]) - now))
            continue
        last_poll = now
        plan = ready[0]
        plan.next_poll = now + POLL_EVERY
        outcome = follow(client, plan, result, records_out)
        if outcome is None and now - plan.due > PLAN_TIMEOUT:
            outcome = result.check(False, f"{plan.name}: incomplete after {PLAN_TIMEOUT}s")
        if outcome is not None:
            pending.remove(plan)
            if outcome:
                latencies[plan.name] = time.perf_counter() - plan.due
    if late:
        result.notes.append(
            f"client lateness p50 {quantile(late, 0.5) * 1e3:.2f} ms, "
            f"max {max(late) * 1e3:.2f} ms over {len(late)} submissions"
        )
    return latencies


def follow(client: Client, plan: _Pending, result: Result, records_out: list):
    """Poll one plan: ``None`` while unfinished, else whether it passed."""
    status, _, data = client.call("poll", "GET", f"/plans/{plan.job}")
    if status != 200:
        return result.check(False, f"poll {plan.name}: HTTP {status}")
    snapshot = json.loads(data)
    if snapshot["recorded_cells"] < snapshot["expected_cells"]:
        return None
    status, _, data = client.call("records", "GET", f"/plans/{plan.job}/records")
    if status != 200:
        return result.check(False, f"records {plan.name}: HTTP {status}")
    records = [json.loads(line) for line in data.decode().splitlines() if line]
    keys = sorted(cell_key(r) for r in records)
    wanted = sorted(f"{s}|grassland|{plan.seed}" for s in ("ess", "ess-ns"))
    ok = keys == wanted and all(
        [result.matches("service_tenants", cell_key(r), record_digest(r)) for r in records]
    )
    records_out += records
    result.qualities += [r["quality"] for r in records]
    return result.check(ok, f"{plan.name}: cells {keys}")


class Service(Workload):
    """Four tenants submitting tiny plans open-loop, then bursts; each
    pass submits the same steady plans, in an order rotated by the seed,
    and a plan's latency is the best of its passes."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        super().__init__(name, seed, workdir)
        self._stacks = 0
        self._plans = 0
        self.first_setup: float | None = None

    def _plan(self, seed: int) -> tuple[str, int, str]:
        """``(name, seed, tenant)`` of the next plan; names are unique."""
        k = self._plans
        self._plans += 1
        return f"e2e-{self.seed}-{k}", seed, f"tenant{k % SERVICE_TENANTS}"

    def steady_seeds(self, seconds: float) -> list[int]:
        n = max(1, round(SERVICE_RATE * (1 - BURST_SHARE) * seconds / PASSES))
        offset = pool_order(self.seed, n)[0]
        return [(offset + k) % n % SERVICE_POOL for k in range(n)]

    def stack(self, spans_dir: Path | None = None) -> ServiceStack:
        self._stacks += 1
        return ServiceStack(self.workdir / f"stack{self._stacks}", spans_dir)

    def setup_sample(self) -> float:
        """The service's set-up is its processes': timed in-process. The
        measured run's own start is the first sample."""
        if self.first_setup is not None:
            sample, self.first_setup = self.first_setup, None
            return sample
        stack = self.stack()
        try:
            return stack.start(Result())
        finally:
            stack.stop()

    def run(self, seconds: float, trace: bool) -> Result:
        result = Result()
        overhead = self._inline_ab(result) if trace else 0.0
        spans_dir = self.workdir / "spans" if trace else None
        if spans_dir is not None:
            spans_dir.mkdir()
        stack = self.stack(spans_dir)
        records: list[dict] = []
        try:
            self.first_setup = stack.start(result)
            client = stack.client
            client.seconds.clear()
            before = client.metrics()
            started = time.perf_counter()
            seeds = self.steady_seeds(seconds)
            passes, bursts, latencies = [], [], {}
            for _ in range(PASSES):
                plans = [self._plan(s) for s in seeds]
                begin = time.perf_counter()
                schedule = [(begin + i / SERVICE_RATE, *plan) for i, plan in enumerate(plans)]
                latencies.update(drive(client, schedule, result, records))
                passes.append([name for name, _, _ in plans])
                for _ in range(max(1, round(BURST_SHARE * seconds / (BURST_S * PASSES)))):
                    begin = time.perf_counter()
                    burst = [(begin, *self._plan(s)) for s in range(BURST)]
                    latencies.update(drive(client, burst, result, records))
                    bursts.append(BURST / (time.perf_counter() - begin))
            wall = time.perf_counter() - started
            after = client.metrics()
            http = {k: v for k, v in client.seconds.items() if k != "scrape"}
        finally:
            stack.stop()
        if not trace:
            steady = [
                min(latencies[name] for name in same)
                for same in zip(*passes)
                if all(name in latencies for name in same)
            ]
            result.metrics = {
                "latency_p50_s": quantile(steady, 0.5),
                "latency_p75_s": quantile(steady, 0.75),
                "throughput_per_s": max(bursts),
            }
            result.notes.append(
                f"{len(steady)} steady plans at {SERVICE_RATE:g}/s, best of {PASSES} passes; "
                f"bursts of {BURST}: "
                + ", ".join(f"{b:.1f}" for b in bursts)
                + " plans/s; HTTP p50 "
                + ", ".join(
                    f"{k} {quantile(v, 0.5) * 1e3:.2f} ms" for k, v in sorted(http.items())
                )
            )
            return result
        spans = [s for path in sorted(spans_dir.glob("*.jsonl")) for s in load_spans(path)]
        result.spans = spans

        def delta(name, key="value"):
            return registry_total(after, name, key) - registry_total(before, name, key)

        result.metrics = {
            **empty_layers(),
            **layer_metrics(spans),
            **engine_layers(engine_counts(before, after)),
            **record_layers(records),
            "distributed.worker_busy_frac": delta("repro_fleet_worker_busy_seconds")
            / (2 * wall),
            "distributed.steals": delta("repro_fleet_steals_total"),
            "service.http_requests": sum(len(v) for v in http.values()),
            "service.http_busy_frac": sum(map(sum, http.values())) / wall,
            "service.schedule_wait_frac": delta("repro_service_schedule_seconds", "sum")
            / sum(latencies.values()),
            "trace_overhead_frac": overhead,
        }
        return result

    def _inline_ab(self, result: Result) -> float:
        """Wrapper overhead on this workload's cells: 16 plans, each run
        in-process untraced and then traced; the digests must agree."""
        from repro.experiments import ExperimentPlan, ExperimentRunner

        recorder = Recorder(f"{self.name}-ab-{os.getpid()}")
        walls = {False: 0.0, True: 0.0}
        for seed in range(16):
            plan = ExperimentPlan.from_dict(service_plan(*self._plan(seed)[:2]))
            digests = {}
            for traced in (False, True):
                start = time.perf_counter()
                with recorder.installed() if traced else contextlib.nullcontext():
                    records = ExperimentRunner().run(plan).records
                walls[traced] += time.perf_counter() - start
                digests[traced] = [record_digest(r) for r in records]
            result.check(digests[False] == digests[True], f"{plan.name}: traced digests differ")
        return walls[True] / walls[False] - 1.0


WORKLOADS = {
    "predict_mosaic": Predict,
    "study_grid": Study,
    "service_tenants": Service,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](name, seed, workdir)


def regenerate_expected() -> dict:
    """Digests of every pool item, computed inline: the reference."""
    from repro.experiments import ExperimentPlan, ExperimentRunner

    out: dict = {}
    predict = Predict("predict_mosaic", 0, ROOT)
    out["predict_mosaic"] = {
        str(i): run_digest(predict.system().run(mosaic_fire(i), rng=i))
        for i in range(predict.pool)
    }
    out["study_grid"] = {
        cell_key(r): record_digest(r)
        for seed in range(Study.pool)
        for r in ExperimentRunner().run(study_plan(seed)).records
    }
    out["service_tenants"] = {
        cell_key(r): record_digest(r)
        for seed in range(SERVICE_POOL)
        for r in ExperimentRunner()
        .run(ExperimentPlan.from_dict(service_plan("e2e", seed)))
        .records
    }
    return out
