"""Tests for the distributed execution subsystem.

Covers the wire protocol (framing, EOF, oversize rejection, the HMAC
challenge-response handshake), local shards (never an idle worker;
a killed one requeues, all dead fails the run), executor validation,
the cell-leasing unit ledger (carve-on-demand stealing, stale-lease
requeue of exact cell subsets),
the one fleet coordinator (a plan queue behind one TCP server, its
status snapshot and the ``done`` it answers once the plan is recorded),
and the acceptance properties of the subsystem: all executors — inline,
local shards, and TCP fleets of every size — produce bitwise-identical
sorted store records for the same plan and seeds (in the shared
``parity_view``: wall-clock and session-reuse accounting excluded,
nothing else may differ, at *any* unit granularity), a one-group plan
spreads over a whole fleet via work stealing, resume crosses unit
granularities in both directions, and a fleet run with a worker killed
mid-run completes after lease-timeout requeue with zero lost or
duplicated cells.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import tempfile
import threading

import pytest

from repro.distributed import executors
from repro.distributed import (
    FleetAuthError,
    FleetCoordinator,
    FleetError,
    FleetExecutor,
    InlineExecutor,
    PlanQueue,
    ProcessShardExecutor,
    UnitLedger,
    parse_address,
    run_worker,
)
from repro.distributed.protocol import (
    MAX_MESSAGE_BYTES,
    recv_message,
    request,
    send_message,
)
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
from repro.experiments.store import parity_view
from repro.distributed.queue import plan_job_id

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork-start processes",
)

_FORK = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing
)


def _plan(**overrides) -> ExperimentPlan:
    """Two (case, backend) groups, two systems, one seed: 4 cells."""
    values = dict(
        name="fleet-test",
        systems=("ess", "ess-ns"),
        cases=(
            CaseSpec("grassland", size=20, steps=2),
            CaseSpec("river_gap", size=20, steps=2),
        ),
        seeds=(0,),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=8, generations=2, session_cache_size=2048
        ),
    )
    values.update(overrides)
    return ExperimentPlan(**values)


def _one_group_plan(n_seeds: int = 8) -> ExperimentPlan:
    """One case × two systems × many seeds: the few-big-groups shape
    that needs within-group stealing to occupy a fleet."""
    return _plan(
        cases=(CaseSpec("grassland", size=20, steps=2),),
        seeds=tuple(range(n_seeds)),
    )


def _fleet_plan_id(plan: ExperimentPlan) -> str:
    """The job id a FleetExecutor admits ``plan`` under — the name of
    each worker's local store file for it."""
    return plan_job_id(plan.to_dict(), "default")


def _sorted_normalized(store: ResultsStore) -> list[dict]:
    """Sorted records in the shared scheduling-free parity view."""
    return [
        parity_view(r) for r in sorted(store.records(), key=record_key)
    ]


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"type": "lease", "worker": "w1", "n": 3, "x": [1, 2]}
            send_message(a, payload)
            send_message(a, {"type": "wait"})
            assert recv_message(b) == payload
            assert recv_message(b) == {"type": "wait"}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_truncated_message_raises(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"type": "lease", "worker": "w"})
            a.close()
            # eat two bytes so the reader sees a torn header
            b.recv(2)
            with pytest.raises(FleetError, match="mid-message"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(FleetError, match="oversized"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("localhost:7341") == ("localhost", 7341)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        with pytest.raises(FleetError):
            parse_address("no-port")
        with pytest.raises(FleetError):
            parse_address("host:not-a-number")


# ----------------------------------------------------------------------
# Local shards: a loopback fleet never starts an idle worker
# ----------------------------------------------------------------------
class TestShardAssignments:
    @pytest.mark.parametrize("n_pending", [1, 2, 3, 7])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 16])
    def test_never_empty_covers_all_disjoint(self, n_pending, shards):
        """ProcessShardExecutor starts min(shards, pending cells)
        workers. Each one's first ask gets a non-empty lease, even from
        a single group, and the leases tile the pending cells."""
        plan = _plan(
            systems=("ess",),
            cases=(CaseSpec("grassland", size=20, steps=2),),
            seeds=tuple(range(n_pending)),
        )
        ledger = UnitLedger(
            WorkSet.compile(plan, set()),
            lease_timeout=5.0,
            completed_cells=set,
            cost_model=UnitCostModel(),
            clock=lambda: 0.0,
        )
        workers = [f"w{i}" for i in range(min(shards, n_pending))]
        grants = [ledger.lease(worker) for worker in workers]
        assert all(g["type"] == "unit" for g in grants), "an idle worker"
        while (grant := ledger.lease(workers[0]))["type"] == "unit":
            grants.append(grant)
        cells = [tuple(c) for g in grants for c in g["unit"]["cells"]]
        assert sorted(cells) == sorted(k.as_tuple() for k in plan.runs())

    def test_invalid_shards_raise(self):
        with pytest.raises(ReproError):
            ProcessShardExecutor(0)

    @needs_fork
    def test_more_shards_than_groups_runs_clean(self, tmp_path):
        """Regression: shards > pending groups must skip the surplus
        shard processes instead of spawning idle (or failing) ones."""
        plan = _plan()
        store = ResultsStore(tmp_path / "r.jsonl")
        result = ExperimentRunner(store=store).run(
            plan, executor=ProcessShardExecutor(5)
        )
        assert len(result.records) == plan.n_runs
        assert {record_key(r) for r in result.records} == {
            k.as_tuple() for k in plan.runs()
        }


# ----------------------------------------------------------------------
# Executor seam
# ----------------------------------------------------------------------
class TestExecutorSeam:
    def test_compile_drops_fully_recorded_groups(self, tmp_path):
        plan = _plan()
        groups = lambda done: [  # noqa: E731
            u.group for u in WorkSet.compile(plan, done).pending()
        ]
        assert groups(set()) == [0, 1]
        (_, keys0), _ = plan.groups()
        assert groups({k.as_tuple() for k in keys0}) == [1]

    @pytest.mark.parametrize(
        "executor",
        [ProcessShardExecutor(2), FleetExecutor(lease_timeout=5)],
        ids=["process", "fleet"],
    )
    def test_multiprocess_executors_need_a_store(self, executor):
        with pytest.raises(ReproError, match="ResultsStore"):
            ExperimentRunner().run(_plan(), executor=executor)

    def test_fleet_with_nothing_pending_serves_no_socket(self, tmp_path):
        """A fully recorded plan must resume without ever binding."""
        plan = _plan(cases=(CaseSpec("grassland", size=20, steps=2),))
        store = ResultsStore(tmp_path / "r.jsonl")
        ExperimentRunner(store=store).run(plan)
        executor = FleetExecutor(timeout=5.0)
        result = ExperimentRunner(store=store).run(plan, executor=executor)
        assert executor.address is None  # never bound
        assert result.n_resumed == plan.n_runs


# ----------------------------------------------------------------------
# Lease ledger (no sockets: fake clock, fake store coverage)
# ----------------------------------------------------------------------
class TestUnitLedger:
    def _ledger(self, covered: set, clock: list):
        # a floor of 2 cells keeps each 2-cell group whole
        return UnitLedger(
            WorkSet.compile(_plan(), set()),
            lease_timeout=5.0,
            completed_cells=lambda: set(covered),
            cost_model=UnitCostModel(),
            clock=lambda: clock[0],
            min_unit_cells=2,
        )

    def test_poll_completion_detects_coverage_without_a_request(self):
        """Regression: the last worker draining everything and then
        dying must not hang the run — completion is visible from the
        coordinator side via poll_completion."""
        plan = _plan()
        covered: set = set()
        clock = [0.0]
        ledger = self._ledger(covered, clock)
        g1 = ledger.lease("w")
        g2 = ledger.lease("w")
        assert g1["type"] == g2["type"] == "unit"
        assert ledger.complete("w", g1["lease"]) == {"type": "ok"}
        assert ledger.complete("w", g2["lease"]) == {"type": "ok"}
        covered |= {k.as_tuple() for k in plan.runs()}
        ledger.drained("w")  # ...then the worker dies silently
        assert not ledger.finished.is_set()
        assert ledger.poll_completion()
        assert ledger.finished.is_set()

    def test_poll_completion_requeues_stranded_cells(self):
        """A worker that completed units but died before draining
        leaves missing cells; polling requeues them as units."""
        covered: set = set()
        clock = [0.0]
        ledger = self._ledger(covered, clock)
        g1 = ledger.lease("w")
        g2 = ledger.lease("w")
        ledger.complete("w", g1["lease"])
        ledger.complete("w", g2["lease"])
        # worker recently seen and undrained: no verdict yet
        assert not ledger.poll_completion()
        clock[0] = 10.0  # past the lease timeout — presumed dead
        assert not ledger.poll_completion()
        assert ledger.requeues == 2
        # the requeued units go to whoever asks next
        assert ledger.lease("w2")["type"] == "unit"

    def test_expired_lease_requeues_unit(self):
        covered: set = set()
        clock = [0.0]
        ledger = self._ledger(covered, clock)
        grant = ledger.lease("w")
        ledger_grant2 = ledger.lease("other")  # second group
        assert ledger_grant2["type"] == "unit"
        clock[0] = 3.0
        assert ledger.heartbeat("w", grant["lease"]) == {"type": "ok"}
        clock[0] = 7.0  # renewed at 3.0, deadline 8.0: still alive
        assert ledger.heartbeat("w", grant["lease"]) == {"type": "ok"}
        clock[0] = 20.0
        assert ledger.heartbeat("w", grant["lease"]) == {"type": "expired"}
        assert ledger.complete("w", grant["lease"]) == {"type": "stale"}
        # both silent workers' units requeued, each the exact original
        # cell subset — re-leased to whoever asks next
        regrants = [ledger.lease("other"), ledger.lease("other")]
        assert all(r["type"] == "unit" for r in regrants)
        assert {tuple(map(tuple, r["unit"]["cells"])) for r in regrants} == {
            tuple(map(tuple, g["unit"]["cells"]))
            for g in (grant, ledger_grant2)
        }

    def test_last_pending_unit_splits_for_an_asking_worker(self):
        """Work stealing: one big group spreads over every asker by
        carving a probe lease off the pending unit for each of them."""
        plan = _one_group_plan(n_seeds=4)  # 8 cells, one group
        clock = [0.0]
        ledger = UnitLedger(
            WorkSet.compile(plan, set()),
            lease_timeout=5.0,
            completed_cells=set,
            cost_model=UnitCostModel(),
            clock=lambda: clock[0],
            min_unit_cells=1,
        )
        sizes = []
        grants = []
        for worker in ("w1", "w2", "w3", "w4"):
            grant = ledger.lease(worker)
            assert grant["type"] == "unit"
            grants.append(grant)
            sizes.append(len(grant["unit"]["cells"]))
        # every asker got work from the single group: a quarter of its
        # fair share each, never below the 1-cell floor
        assert sizes == [2, 1, 1, 1]
        assert ledger.steals == 4
        # the leases and the pending rest tile the group exactly — no
        # loss, no overlap
        cells = [tuple(c) for g in grants for c in g["unit"]["cells"]]
        assert len(set(cells)) == len(cells)
        assert set(cells) <= {k.as_tuple() for k in plan.runs()}
        assert ledger.progress()["pending_cells"] == plan.n_runs - len(cells)

    def test_stale_lease_of_half_recorded_unit_requeues_missing_only(self):
        """A worker that recorded half a unit and then died: the lease
        expires and requeues the whole cell subset (the new worker's
        store-resume skips nothing here — its store is its own), while
        the end-of-run coverage check requeues exactly the cells whose
        records never arrived. Nothing is lost, nothing doubled."""
        plan = _one_group_plan(n_seeds=4)
        all_cells = [k.as_tuple() for k in plan.runs()]
        covered: set = set()
        clock = [0.0]
        ledger = UnitLedger(
            WorkSet.compile(plan, set()),
            lease_timeout=5.0,
            completed_cells=lambda: set(covered),
            cost_model=UnitCostModel(),
            clock=lambda: clock[0],
            min_unit_cells=plan.n_runs,  # the floor keeps the unit whole
        )
        grant = ledger.lease("w1")
        # w1 drains half the unit's records, then goes silent
        covered |= set(map(tuple, grant["unit"]["cells"][:4]))
        clock[0] = 20.0
        regrant = ledger.lease("w2")
        assert regrant["type"] == "unit"
        assert ledger.requeues == 1
        assert regrant["unit"] == grant["unit"]  # exact cell subset
        # w2 completes and drains only the cells w1 never delivered
        assert ledger.complete("w2", regrant["lease"]) == {"type": "ok"}
        covered |= set(map(tuple, regrant["unit"]["cells"]))
        ledger.drained("w2")
        assert sorted(covered) == sorted(all_cells)
        assert ledger.poll_completion()


# ----------------------------------------------------------------------
# Fleet workers (loopback, separate processes)
# ----------------------------------------------------------------------
def _worker(address, store_path, worker_id):
    run_worker(address, store_path=store_path, worker_id=worker_id)


def _worker_dying_mid_group(address, store_path):
    """Exits hard after its first recorded run — mid-lease death."""
    run_worker(
        address,
        store_path=store_path,
        worker_id="dier-mid-group",
        on_record=lambda record: os._exit(17),
    )


def _worker_dying_after_complete(address, store_path):
    """Exits hard after reporting a group complete but before the
    coordinator drains its records — the stranded-records death."""
    run_worker(
        address,
        store_path=store_path,
        worker_id="dier-after-complete",
        after_complete=lambda index: os._exit(18),
    )


@pytest.fixture(scope="module")
def inline_store(tmp_path_factory):
    """The single-process ground truth every executor must reproduce."""
    store = ResultsStore(
        tmp_path_factory.mktemp("inline") / "inline.jsonl"
    )
    ExperimentRunner(store=store).run(_plan())
    return store


def _run_fleet(
    plan,
    store,
    tmp_path,
    targets,
    lease_timeout,
    timeout=180.0,
):
    """Run a fleet of worker processes against a loopback coordinator."""
    procs: list = []

    def on_bound(address):
        for i, target in enumerate(targets):
            proc = _FORK.Process(
                target=target,
                args=(address, str(tmp_path / f"worker{i}")),
            )
            proc.start()
            procs.append(proc)

    executor = FleetExecutor(
        lease_timeout=lease_timeout,
        poll_interval=0.05,
        timeout=timeout,
        on_bound=on_bound,
    )
    try:
        result = ExperimentRunner(store=store).run(plan, executor=executor)
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - only on test failure
                proc.kill()
    return result, executor, procs


@needs_fork
class TestExecutorParity:
    def test_all_executors_bitwise_identical(self, inline_store, tmp_path):
        """Acceptance: inline, process shards and a loopback two-worker
        fleet yield bitwise-identical sorted store records (wall-clock
        timing fields excluded — nothing else may differ)."""
        plan = _plan()
        expected_keys = sorted(k.as_tuple() for k in plan.runs())
        reference = _sorted_normalized(inline_store)
        assert [
            record_key(r) for r in sorted(
                inline_store.records(), key=record_key
            )
        ] == expected_keys

        process_store = ResultsStore(tmp_path / "process.jsonl")
        ExperimentRunner(store=process_store).run(
            plan, executor=ProcessShardExecutor(2)
        )
        assert _sorted_normalized(process_store) == reference

        fleet_store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, procs = _run_fleet(
            plan,
            fleet_store,
            tmp_path,
            targets=[
                lambda addr, path: _worker(addr, path, "w0"),
                lambda addr, path: _worker(addr, path, "w1"),
            ],
            lease_timeout=15.0,
        )
        assert [p.exitcode for p in procs] == [0, 0]
        assert len(result.records) == plan.n_runs
        assert _sorted_normalized(fleet_store) == reference
        # runner-level view follows plan order, like every executor
        assert [record_key(r) for r in result.records] == [
            k.as_tuple() for k in plan.runs()
        ]

    def test_fleet_resumes_partial_store(self, inline_store, tmp_path):
        """A store written by ANY executor resumes under the fleet:
        resume is the store's key contract, not an executor feature."""
        plan = _plan()
        store = ResultsStore(tmp_path / "resume.jsonl")
        (_, keys0), _ = plan.groups()
        done_inline = {k.as_tuple() for k in keys0}
        # seed the store with group 0 via the inline path
        for record in inline_store.records():
            if record_key(record) in done_inline:
                store.append(record)
        result, executor, procs = _run_fleet(
            plan,
            store,
            tmp_path,
            targets=[lambda addr, path: _worker(addr, path, "w0")],
            lease_timeout=15.0,
        )
        assert result.n_resumed == len(done_inline)
        assert _sorted_normalized(store) == _sorted_normalized(inline_store)


@needs_fork
class TestFleetFailureRecovery:
    @pytest.mark.parametrize(
        "dier",
        [_worker_dying_mid_group, _worker_dying_after_complete],
        ids=["killed-mid-group", "killed-after-complete-undrained"],
    )
    def test_killed_worker_requeues_and_completes(
        self, dier, inline_store, tmp_path
    ):
        """Acceptance: a fleet run with one worker killed mid-run
        completes after lease-timeout requeue with zero lost or
        duplicated (system, case, seed, backend) cells (the
        after-complete death is lossless for the *reported* unit, whose
        records rode the report, but the dier also abandons its
        piggybacked next lease, which must requeue)."""
        plan = _plan()
        store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, procs = _run_fleet(
            plan,
            store,
            tmp_path,
            targets=[
                dier,
                lambda addr, path: _worker(addr, path, "survivor"),
            ],
            lease_timeout=2.0,
        )
        assert executor.requeues >= 1
        exit_codes = sorted(p.exitcode for p in procs)
        assert exit_codes[0] == 0 and exit_codes[1] in (17, 18)
        records = sorted(store.records(), key=record_key)
        # zero lost, zero duplicated cells
        assert [record_key(r) for r in records] == sorted(
            k.as_tuple() for k in plan.runs()
        )
        # and the re-run groups match the inline ground truth bitwise
        assert _sorted_normalized(store) == _sorted_normalized(inline_store)
        assert len(result.records) == plan.n_runs

    def test_killed_loopback_worker_is_requeued(self, tmp_path, monkeypatch):
        """A local shard that dies after its first complete abandons the
        piggybacked next lease; the lease requeues to the surviving
        shard and the run completes, equal to inline."""
        plan = _one_group_plan(n_seeds=4)  # enough cells for a next lease
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        claimed = _FORK.Value("i", 0)

        def target(address, **kwargs):
            with claimed.get_lock():
                index = claimed.value
                claimed.value += 1
            if index == 0:
                kwargs["after_complete"] = lambda group: os._exit(1)
            return run_worker(address, **kwargs)

        monkeypatch.setattr(executors, "run_worker", target)
        store = ResultsStore(tmp_path / "sharded.jsonl")
        executor = ProcessShardExecutor(2)
        executor.lease_timeout = 2.0
        result = ExperimentRunner(store=store).run(plan, executor=executor)
        assert executor.requeues >= 1
        assert sorted(w.exitcode for w in executor._workers) == [0, 1]
        assert len(result.records) == plan.n_runs
        assert _sorted_normalized(store) == _sorted_normalized(inline)

    def test_all_loopback_workers_dead_raises(self, tmp_path, monkeypatch):
        """With every local shard gone, no worker will ever come: the
        run fails with their exit codes instead of waiting forever."""

        def target(address, **kwargs):
            os._exit(3)

        monkeypatch.setattr(executors, "run_worker", target)
        store = ResultsStore(tmp_path / "sharded.jsonl")
        with pytest.raises(ReproError, match=r"exit codes \[3, 3\]") as info:
            ExperimentRunner(store=store).run(
                _plan(), executor=ProcessShardExecutor(2)
            )
        assert "re-run to resume" in str(info.value)
        assert store.records() == []

    def test_timeout_without_workers_raises(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        executor = FleetExecutor(
            lease_timeout=1.0, poll_interval=0.05, timeout=0.3
        )
        with pytest.raises(FleetError, match="timed out"):
            ExperimentRunner(store=store).run(_plan(), executor=executor)


# ----------------------------------------------------------------------
# Worker against an in-thread coordinator (no subprocess): CLI-free
# round-trip of the plan payload a grant ships, including per-system
# budgets.
# ----------------------------------------------------------------------
class TestWorkerInThread:
    def test_worker_receives_plan_and_budgets_over_the_wire(self, tmp_path):
        plan = _plan(
            cases=(CaseSpec("grassland", size=20, steps=2),),
            budgets={"ess-ns": {"generations": 3}},
        )
        store = ResultsStore(tmp_path / "coord.jsonl")
        summary_box: dict = {}

        def worker(address):
            summary_box.update(
                run_worker(
                    address,
                    store_path=tmp_path / "worker",
                    worker_id="in-thread",
                )
            )

        threads: list[threading.Thread] = []

        def on_bound(address):
            thread = threading.Thread(target=worker, args=(address,))
            thread.start()
            threads.append(thread)

        executor = FleetExecutor(
            lease_timeout=10.0,
            poll_interval=0.05,
            timeout=120.0,
            on_bound=on_bound,
        )
        result = ExperimentRunner(store=store).run(plan, executor=executor)
        for thread in threads:
            thread.join(timeout=60)
        # the single 2-cell group split for the lone worker's first ask
        # (work stealing has no victim here, just smaller leases)
        assert summary_box["units"] == 2
        assert summary_box["records"] == plan.n_runs
        assert len(result.records) == plan.n_runs
        # the overridden budget really reached the worker: ess-ns ran
        # one generation more than ess under the same plan
        runs = {r["system"]: r["run"] for r in result.records}
        assert runs["ess-ns"]["steps"][0]["engine"]["evaluations"] > (
            runs["ess"]["steps"][0]["engine"]["evaluations"]
        )


def _run_thread_fleet(
    plan,
    coord_store,
    worker_stores,
    timeout=120.0,
    lease_timeout=10.0,
    min_unit_cells=1,
    auth_token=None,
    worker_tokens=None,
    worker_throttles=None,
):
    """In-thread fleet: N run_worker threads against a loopback
    coordinator; returns (result, executor, summaries, errors)."""
    threads: list[threading.Thread] = []
    summaries: list[dict] = []
    errors: list[Exception] = []
    tokens = worker_tokens or {}
    throttles = worker_throttles or {}

    def worker(address, index, store_path):
        try:
            summaries.append(
                run_worker(
                    address,
                    store_path=store_path,
                    worker_id=f"thread-w{index}",
                    auth_token=tokens.get(index, auth_token),
                    throttle=throttles.get(index),
                )
            )
        except Exception as exc:  # surfaced to the test thread
            errors.append(exc)

    def on_bound(address):
        for index, store_path in enumerate(worker_stores):
            thread = threading.Thread(
                target=worker, args=(address, index, store_path)
            )
            thread.start()
            threads.append(thread)

    executor = FleetExecutor(
        lease_timeout=lease_timeout,
        poll_interval=0.05,
        timeout=timeout,
        min_unit_cells=min_unit_cells,
        auth_token=auth_token,
        on_bound=on_bound,
    )
    try:
        result = ExperimentRunner(store=coord_store).run(
            plan, executor=executor
        )
    finally:
        for thread in threads:
            thread.join(timeout=60)
    return result, executor, summaries, errors


class TestCellLeasing:
    """Acceptance: cell-level leases spread one group over a fleet."""

    def test_one_group_plan_occupies_every_worker(self, tmp_path):
        """1 case × 2 systems × 8 seeds with 4 workers: every worker
        completes at least one unit (work stealing found them work in a
        single-group plan) and the merged store is bitwise-identical to
        the inline executor in the shared parity view."""
        plan = _one_group_plan(n_seeds=8)
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(
            plan, executor=InlineExecutor()
        )
        store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, summaries, errors = _run_thread_fleet(
            plan,
            store,
            [tmp_path / f"w{i}" for i in range(4)],
        )
        assert errors == []
        assert len(summaries) == 4
        assert all(s["units"] >= 1 for s in summaries), summaries
        assert sum(s["records"] for s in summaries) == plan.n_runs
        assert executor.steals >= 3  # 16 cells halved across 4 askers
        assert len(result.records) == plan.n_runs
        assert _sorted_normalized(store) == _sorted_normalized(inline)

    def test_forced_mid_group_steal_is_bitwise_clean(self, tmp_path):
        """A second worker stealing cells mid-group changes which
        session computes them — and not a byte of the records."""
        plan = _one_group_plan(n_seeds=2)  # 4 cells, one group
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, summaries, errors = _run_thread_fleet(
            plan, store, [tmp_path / "w0", tmp_path / "w1"]
        )
        assert errors == []
        # the first ask always splits the lone pending unit: a steal
        assert executor.steals >= 1
        keys = [record_key(r) for r in store.records()]
        assert sorted(keys) == sorted(k.as_tuple() for k in plan.runs())
        assert len(set(keys)) == len(keys)
        assert _sorted_normalized(store) == _sorted_normalized(inline)


class TestMixedGranularityResume:
    """Resume is the store's cell contract at every unit granularity."""

    def test_group_recorded_store_resumes_under_cell_leases(
        self, inline_store, tmp_path
    ):
        """A store written by whole-group inline execution resumes
        under a cell-leasing fleet: only the missing cells run."""
        plan = _plan()
        store = ResultsStore(tmp_path / "resume.jsonl")
        (_, keys0), _ = plan.groups()
        done = {k.as_tuple() for k in keys0}
        for record in inline_store.records():
            if record_key(record) in done:
                store.append(record)
        result, executor, summaries, errors = _run_thread_fleet(
            plan, store, [tmp_path / "w0", tmp_path / "w1"]
        )
        assert errors == []
        assert result.n_resumed == len(done)
        # the fleet computed exactly the other group's cells
        assert sum(s["records"] for s in summaries) == plan.n_runs - len(
            done
        )
        assert _sorted_normalized(store) == _sorted_normalized(inline_store)

    def test_cell_recorded_store_resumes_under_group_execution(
        self, inline_store, tmp_path
    ):
        """The inverse: a store holding scattered cell-leased records
        resumes under plain inline whole-group execution."""
        plan = _plan()
        store = ResultsStore(tmp_path / "resume.jsonl")
        runner = ExperimentRunner(store=store)
        # record two scattered single cells, as a cell-leased fleet
        # worker would: one unit per cell, mid-group granularity
        workset = WorkSet.compile(plan, set())
        for unit in workset.units:
            single = unit
            while single.n_cells > 1:
                single = single.split()[0]
            runner.run_units(plan, [single], set())
        assert len(store.records()) == 2
        result = ExperimentRunner(store=store).run(plan)
        assert result.n_resumed == 2
        assert len(result.records) == plan.n_runs
        assert _sorted_normalized(store) == _sorted_normalized(inline_store)


class TestFleetAuth:
    """Shared-secret HMAC challenge-response on the coordinator."""

    def test_authed_fleet_completes(self, tmp_path):
        plan = _one_group_plan(n_seeds=2)
        store = ResultsStore(tmp_path / "coord.jsonl")
        result, executor, summaries, errors = _run_thread_fleet(
            plan,
            store,
            [tmp_path / "w0"],
            auth_token="fleet-secret",
        )
        assert errors == []
        assert len(result.records) == plan.n_runs

    def test_worker_without_token_is_rejected_before_plan_bytes(
        self, tmp_path
    ):
        plan = _one_group_plan(n_seeds=2)
        store = ResultsStore(tmp_path / "coord.jsonl")
        with pytest.raises(FleetError, match="timed out"):
            _run_thread_fleet(
                plan,
                store,
                [tmp_path / "w0"],
                timeout=3.0,
                lease_timeout=1.0,
                auth_token="fleet-secret",
                worker_tokens={0: None},
            )
        assert store.records() == []  # nothing ever executed

    def test_wrong_token_raises_auth_error_without_retry_loop(
        self, tmp_path
    ):
        plan = _one_group_plan(n_seeds=2)
        store = ResultsStore(tmp_path / "coord.jsonl")
        errors: list[Exception] = []

        def on_bound(address):
            def w():
                try:
                    run_worker(
                        address,
                        store_path=tmp_path / "w",
                        worker_id="intruder",
                        auth_token="WRONG",
                        max_failures=1000,  # an auth error must not retry
                    )
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=w)
            thread.start()

        executor = FleetExecutor(
            lease_timeout=1.0,
            poll_interval=0.05,
            timeout=3.0,
            auth_token="fleet-secret",
            on_bound=on_bound,
        )
        with pytest.raises(FleetError, match="timed out"):
            ExperimentRunner(store=store).run(plan, executor=executor)
        assert errors and isinstance(errors[0], FleetAuthError)

    def test_rogue_coordinator_never_receives_the_request(self):
        """Mutual auth: a listener that cannot prove token knowledge
        gets an auth-hello (a bare nonce) and nothing else — a worker's
        record upload can never leak to an impersonated coordinator."""
        received: list[dict] = []
        server = socket.create_server(("127.0.0.1", 0))
        address = server.getsockname()

        def rogue():
            conn, _ = server.accept()
            with conn:
                received.append(recv_message(conn))
                # no proof — just an inviting reply
                send_message(conn, {"type": "welcome"})

        thread = threading.Thread(target=rogue)
        thread.start()
        secret_payload = {"type": "records", "records": [{"secret": 1}]}
        try:
            with pytest.raises(FleetAuthError, match="did not prove"):
                request(address, secret_payload, token="fleet-secret")
        finally:
            thread.join(timeout=10)
            server.close()
        assert received == [
            {"type": "auth-hello", "nonce": received[0]["nonce"]}
        ]
        assert "records" not in str(received)

    def test_empty_token_is_rejected_not_silently_disabled(self, tmp_path):
        """REPRO_FLEET_TOKEN="" (the unpopulated-secret foot-gun) must
        fail fast everywhere instead of running the fleet open."""
        with pytest.raises(FleetError, match="non-empty"):
            FleetExecutor(auth_token="")
        with pytest.raises(FleetError, match="non-empty"):
            run_worker(("127.0.0.1", 1), auth_token="")
        with pytest.raises(FleetError, match="non-empty"):
            request(("127.0.0.1", 1), {"type": "hello"}, token="")

    def test_unauthenticated_probe_sees_only_a_challenge(self, tmp_path):
        """Plan bytes ride on ``unit`` grants: a peer that has not
        answered the challenge must never get one — its hello and its
        lease ask are both answered with a bare challenge."""
        plan = _one_group_plan(n_seeds=2)
        store = ResultsStore(tmp_path / "coord.jsonl")
        probe_replies: list = []

        def on_bound(address):
            def probe():
                # a tokenless client: request() raises on the challenge
                for mtype in ("hello", "lease"):
                    try:
                        request(address, {"type": mtype, "worker": "spy"})
                    except FleetAuthError as exc:
                        probe_replies.append(exc)

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10)

        executor = FleetExecutor(
            lease_timeout=1.0,
            poll_interval=0.05,
            timeout=2.0,
            auth_token="fleet-secret",
            on_bound=on_bound,
        )
        with pytest.raises(FleetError, match="timed out"):
            ExperimentRunner(store=store).run(plan, executor=executor)
        assert len(probe_replies) == 2, "every probe must be challenged"
        assert all("auth token" in str(exc) for exc in probe_replies)
        assert store.records() == []


class TestWorkerStoreHygiene:
    """A reused worker-local store is held to the store contracts."""

    def _run_in_thread_fleet(
        self, plan, coord_store, worker_store, timeout, worker_errors=None
    ):
        worker_errors = [] if worker_errors is None else worker_errors
        threads: list[threading.Thread] = []

        def worker(address):
            try:
                run_worker(
                    address, store_path=worker_store, worker_id="hygiene"
                )
            except Exception as exc:  # surfaced to the test thread
                worker_errors.append(exc)

        def on_bound(address):
            thread = threading.Thread(target=worker, args=(address,))
            thread.start()
            threads.append(thread)

        executor = FleetExecutor(
            lease_timeout=2.0,
            poll_interval=0.05,
            timeout=timeout,
            on_bound=on_bound,
        )
        try:
            result = ExperimentRunner(store=coord_store).run(
                plan, executor=executor
            )
        finally:
            for thread in threads:
                thread.join(timeout=30)
        return result, worker_errors

    def test_foreign_records_never_reach_the_coordinator(self, tmp_path):
        """Regression: a worker store holding cells of other plans must
        not pollute the coordinator's results artifact on drain — even
        when the foreign records sit in the plan's own per-plan file."""
        plan = _plan(cases=(CaseSpec("grassland", size=20, steps=2),))
        worker_dir = tmp_path / "worker"
        worker_store = ResultsStore(
            worker_dir / f"{_fleet_plan_id(plan)}.jsonl"
        )
        foreign = {
            "plan": "last-week",
            "system": "ess",
            "case": "grassland",
            "seed": 999,  # not one of the plan's cells
            "backend": "vectorized",
            "quality": 0.1,
            "evaluations": 1,
            "seconds": 0.1,
            "run": {"system": "ESS", "steps": [], "session": {}},
        }
        worker_dir.mkdir()
        worker_store.append(foreign)
        coord_store = ResultsStore(tmp_path / "coord.jsonl")
        result, worker_errors = self._run_in_thread_fleet(
            plan, coord_store, worker_dir, timeout=120.0
        )
        assert worker_errors == []
        assert len(result.records) == plan.n_runs
        assert {record_key(r) for r in coord_store.records()} == {
            k.as_tuple() for k in plan.runs()
        }

    def test_rebudgeted_worker_store_is_refused(self, tmp_path):
        """Regression: a worker resuming its local store applies the
        per-system config-digest check — a store recorded under another
        budget is refused instead of silently served."""
        plan_old = _plan(cases=(CaseSpec("grassland", size=20, steps=2),))
        rebudgeted = _plan(
            cases=(CaseSpec("grassland", size=20, steps=2),),
            budget=BudgetSpec(
                population=8, generations=3, session_cache_size=2048
            ),
        )
        # the old budget's records sit in the rebudgeted plan's file
        worker_dir = tmp_path / "worker"
        worker_dir.mkdir()
        worker_store = ResultsStore(
            worker_dir / f"{_fleet_plan_id(rebudgeted)}.jsonl"
        )
        ExperimentRunner(store=worker_store).run(plan_old)
        coord_store = ResultsStore(tmp_path / "coord.jsonl")
        worker_errors: list[Exception] = []
        with pytest.raises(FleetError, match="timed out"):
            # the only worker refuses its store, so the fleet times out
            self._run_in_thread_fleet(
                rebudgeted,
                coord_store,
                worker_dir,
                timeout=4.0,
                worker_errors=worker_errors,
            )
        assert worker_errors, "the worker must have refused its store"
        assert "different configuration" in str(worker_errors[0])


# ----------------------------------------------------------------------
# Fleet telemetry: per-worker utilization and the status snapshot
# ----------------------------------------------------------------------
class TestFleetTelemetry:
    def _queue(self, tmp_path, clock: list):
        """A one-plan queue over a single 2-cell group that a 2-cell
        floor keeps whole: one grant covers the plan."""
        queue = PlanQueue(
            lease_timeout=5.0, min_unit_cells=2, clock=lambda: clock[0]
        )
        plan = _plan(cases=(CaseSpec("grassland", size=20, steps=2),))
        job = queue.admit(plan, ResultsStore(tmp_path / "coord.jsonl"))
        return queue, job

    def test_worker_stats_utilization_math(self, tmp_path):
        """busy/idle split over the membership span, fed by the
        telemetry payloads workers attach to heartbeats/completes."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w")  # first seen at t=0
        clock[0] = 2.0
        queue.heartbeat("w", job.id, grant["lease"], {"busy_seconds": 1.5})
        clock[0] = 4.0
        queue.complete(
            "w", job.id, grant["lease"], {"busy_seconds": 3.5, "records": 2}
        )
        st = queue.worker_stats()["w"]
        assert st["leases"] == 1 and st["units"] == 1
        assert st["cells"] == 2 and st["records"] == 2
        assert st["busy_seconds"] == pytest.approx(3.5)
        assert st["span_seconds"] == pytest.approx(4.0)
        assert st["idle_seconds"] == pytest.approx(0.5)
        assert st["utilization"] == pytest.approx(3.5 / 4.0)
        assert st["lease_seconds"] == pytest.approx(4.0)
        assert st["live"] is True
        clock[0] = 30.0  # long silent: presumed dead
        assert queue.worker_stats()["w"]["live"] is False

    def test_cumulative_busy_folds_with_max(self, tmp_path):
        """Late or duplicate reports carry *cumulative* busy time, so
        folding is a max — utilization can never be inflated by a
        heartbeat racing the complete report."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w")
        clock[0] = 4.0
        beat = lambda info: queue.heartbeat(  # noqa: E731
            "w", job.id, grant["lease"], info
        )
        beat({"busy_seconds": 3.0})
        # a delayed, lower cumulative report arrives after
        beat({"busy_seconds": 1.0})
        assert queue.worker_stats()["w"]["busy_seconds"] == pytest.approx(
            3.0
        )
        # garbage telemetry is ignored, not fatal
        beat({"busy_seconds": "soon"})
        beat("not a dict")
        assert queue.worker_stats()["w"]["busy_seconds"] == pytest.approx(
            3.0
        )

    def test_busy_clamped_to_membership_span(self, tmp_path):
        """A worker whose clock disagrees wildly cannot report more
        busy time than it was even a member for."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w")
        clock[0] = 2.0
        queue.heartbeat("w", job.id, grant["lease"], {"busy_seconds": 100.0})
        st = queue.worker_stats()["w"]
        assert st["busy_seconds"] == pytest.approx(100.0)  # as reported
        assert st["idle_seconds"] == 0.0  # but never negative idle
        assert st["utilization"] == pytest.approx(1.0)  # clamped to span

    def _coordinator(self, tmp_path):
        """A one-plan queue (the fleet executor's shape) behind the
        fleet server, not yet listening."""
        plan = _plan()
        store = ResultsStore(tmp_path / "coord.jsonl")
        queue = PlanQueue(lease_timeout=5.0)
        job = queue.admit(plan, store)
        return FleetCoordinator(queue, poll_interval=0.05), job, store

    def test_status_dispatch_is_read_only(self, tmp_path):
        """The status snapshot reports progress without registering the
        asker as a worker — probing a fleet must never extend its
        shutdown linger."""
        coordinator, job, _ = self._coordinator(tmp_path)
        queue = coordinator.queue
        grant = queue.lease("w1")
        queue.complete("w1", job.id, grant["lease"], {"records": 2})
        reply = coordinator.dispatch({"type": "status", "worker": "probe"})
        assert reply["type"] == "status"
        assert reply["finished"] is False
        [snapshot] = reply["plans"]
        assert snapshot["plan"] == job.plan.name
        assert snapshot["expected_cells"] == job.plan.n_runs
        assert snapshot["recorded_cells"] == 0  # store still empty
        assert snapshot["progress"]["workers"] == 1  # w1, not the probe
        assert set(reply["workers"]) == {"w1"}
        assert reply["workers"]["w1"]["units"] == 1

    def test_status_counts_only_this_plans_recorded_cells(self, tmp_path):
        coordinator, job, store = self._coordinator(tmp_path)
        record = {
            "system": "ess",
            "case": "grassland",
            "seed": 0,
            "backend": "vectorized",
            "run": {"steps": []},
        }
        store.append(record)
        store.append({**record, "case": "other-plan-case"})
        [snapshot] = coordinator.dispatch({"type": "status"})["plans"]
        assert snapshot["recorded_cells"] == 1
        assert snapshot["expected_cells"] == job.plan.n_runs

    def test_status_cli_against_a_live_coordinator(self, tmp_path, capsys):
        """`repro experiments status` end to end over the real socket."""
        from repro.cli import main

        coordinator, job, _ = self._coordinator(tmp_path)
        host, port = coordinator.start()
        try:
            coordinator.queue.lease("w1")
            assert (
                main(
                    ["experiments", "status", "--connect", f"{host}:{port}"]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert job.plan.name in out
            assert f"0/{job.plan.n_runs} cells recorded" in out
            assert "w1" in out
            # the probe itself never became a worker
            assert job.ledger.progress()["workers"] == 1
            assert set(coordinator.queue.worker_stats()) == {"w1"}
        finally:
            coordinator.close()

    def test_status_cli_renders_a_service_queue(self, tmp_path, capsys):
        """Regression: a spooled multi-plan queue whose only worker has
        just said hello renders (no KeyError on its stats), and
        ``--watch`` returns once the coordinator answers ``done``."""
        from repro.cli import main

        queue = PlanQueue(tmp_path / "spool", lease_timeout=5.0)
        queue.submit(_plan(name="svc-a").to_dict(), tenant="alice")
        queue.submit(_plan(name="svc-b").to_dict(), tenant="bob")
        queue.touch("w9")
        coordinator = FleetCoordinator(queue)
        host, port = coordinator.start()
        argv = ["experiments", "status", "--connect", f"{host}:{port}"]
        try:
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "'svc-a'" in out and "'svc-b'" in out
            assert "w9" in out and "0 units" in out
            queue.finish()
            assert main([*argv, "--watch", "0.2"]) == 0
            assert "coordinator finished" in capsys.readouterr().out
        finally:
            coordinator.close()

    def test_status_cli_fails_cleanly_without_a_coordinator(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "experiments",
                    "status",
                    "--connect",
                    "127.0.0.1:1",
                    "--request-timeout",
                    "0.5",
                ]
            )

# ----------------------------------------------------------------------
# Cost-aware scheduling: the predictive grant path of the unit ledger
# ----------------------------------------------------------------------
class TestCostLedger:
    """Deterministic (fake-clock) coverage of the cost-aware grant path:
    probe-first sizing, throughput-proportional leases, piggybacked
    granting, fragment re-merge, and snapshot determinism."""

    def _ledger(
        self,
        covered: set,
        clock: list,
        plan=None,
        model: UnitCostModel | None = None,
        target_unit_seconds: float = 1.0,
    ):
        return UnitLedger(
            WorkSet.compile(plan or _one_group_plan(n_seeds=8), set()),
            lease_timeout=5.0,
            completed_cells=lambda: set(covered),
            clock=lambda: clock[0],
            min_unit_cells=1,
            cost_model=model or UnitCostModel(),
            target_unit_seconds=target_unit_seconds,
        )

    def test_unknown_worker_gets_a_probe_lease(self):
        """A worker with no measured throughput gets a small probe (a
        quarter of its fair share), not half of everything — sizing
        information before committing cells."""
        clock = [0.0]
        ledger = self._ledger(set(), clock)  # 16 cells, one group
        grant = ledger.lease("w1")
        assert grant["type"] == "unit"
        unit = WorkUnit.from_dict(grant["unit"])
        assert unit.n_cells == 4  # fair share 16, probe = 16 // 4

    def test_measured_throughput_sizes_leases_proportionally(self):
        """Once both workers have measured throughput, the faster one
        is granted strictly more cells per lease."""
        clock = [0.0]
        ledger = self._ledger(set(), clock)
        g1 = ledger.lease("w1")
        g2 = ledger.lease("w2")
        # identical wall-clock, 4x the cells: w1 measures 4x faster
        ledger.complete(
            "w1", g1["lease"], {"unit_seconds": 1.0}, drained=True
        )
        ledger.complete(
            "w2", g2["lease"], {"unit_seconds": 1.0}, drained=True
        )
        fast = WorkUnit.from_dict(ledger.lease("w1")["unit"])
        slow = WorkUnit.from_dict(ledger.lease("w2")["unit"])
        assert fast.n_cells > slow.n_cells >= 1
        stats = ledger.worker_stats()
        assert stats["w1"]["throughput"] == pytest.approx(4.0)
        assert stats["w2"]["throughput"] == pytest.approx(1.0)

    def _queue(self, tmp_path, clock: list):
        queue = PlanQueue(lease_timeout=5.0, clock=lambda: clock[0])
        job = queue.admit(
            _one_group_plan(n_seeds=8), ResultsStore(tmp_path / "s.jsonl")
        )
        return queue, job

    def test_piggybacked_complete_carries_the_next_lease(self, tmp_path):
        """A complete carrying its records collapses
        complete -> drain -> lease into one exchange and the round-trip
        accounting shows it."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w1")
        reply = queue.complete(
            "w1", job.id, grant["lease"], {"unit_seconds": 0.5}, []
        )
        assert reply["type"] == "ok"
        assert reply["next"]["type"] == "unit"
        assert reply["next"]["plan_id"] == job.id
        st = queue.worker_stats()["w1"]
        assert st["lease_requests"] == 1  # only the explicit ask
        assert st["piggybacked"] == 1
        assert st["completes"] == 1
        assert st["drains"] == 0  # the drain rode the complete
        assert st["round_trips"] == 2

    def test_stale_complete_still_grants_next(self, tmp_path):
        """A worker whose lease expired still wants work: ``next``
        rides the stale reply too."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w1")
        clock[0] = 20.0  # lease long dead
        reply = queue.complete("w1", job.id, grant["lease"], None, [])
        assert reply["type"] == "stale"
        assert reply["next"]["type"] == "unit"

    def test_requeued_fragments_remerge_before_regrant(self):
        """Expired sliver leases from the same group fuse back into one
        contiguous unit before the next grant carves it afresh —
        fragmentation does not compound across worker deaths."""
        clock = [0.0]
        ledger = self._ledger(set(), clock)
        a = ledger.lease("w1")
        b = ledger.lease("w2")
        assert a["type"] == b["type"] == "unit"
        clock[0] = 20.0  # both leases expire, fragments requeue
        grant = ledger.lease("w3")
        assert grant["type"] == "unit"
        assert ledger.requeues == 2
        # the two fragments and the remainder merged into one unit
        # before w3's probe was carved from it
        assert ledger.progress()["pending_units"] == 1

    def test_grants_deterministic_from_identical_snapshots(self):
        """Two ledgers seeded from the same serialized cost model and
        driven through the same call sequence make identical grant
        decisions — cell for cell."""
        source = UnitCostModel()
        source.observe("grassland:vectorized", 4, 2.0)
        payload = source.to_dict()
        transcripts = []
        for _ in range(2):
            clock = [0.0]
            ledger = self._ledger(
                set(), clock, model=UnitCostModel.from_dict(payload)
            )
            grants = []
            g1 = ledger.lease("w1")
            grants.append(g1["unit"])
            g2 = ledger.lease("w2")
            grants.append(g2["unit"])
            ledger.complete(
                "w1", g1["lease"], {"unit_seconds": 0.5}, drained=True
            )
            ledger.complete(
                "w2", g2["lease"], {"unit_seconds": 2.0}, drained=True
            )
            grants.append(ledger.lease("w2")["unit"])
            grants.append(ledger.lease("w1")["unit"])
            transcripts.append(grants)
        assert transcripts[0] == transcripts[1]

    def test_target_unit_seconds_must_be_positive(self):
        with pytest.raises(FleetError, match="target_unit_seconds"):
            self._ledger(set(), [0.0], target_unit_seconds=0.0)
        # whole-group leases are gone: the floor is at least one cell
        with pytest.raises(FleetError, match="min_unit_cells"):
            FleetExecutor(min_unit_cells=0)
        with pytest.raises(ReproError, match="min_unit_cells"):
            ProcessShardExecutor(2, min_unit_cells=0)


class TestCostFleetEndToEnd:
    """Thread fleets end to end: piggybacked round-trips happen, every
    worker hears ``done``, and a throttled worker receives
    proportionally fewer cells — all bitwise-clean."""

    def test_cost_fleet_piggybacks_and_matches_inline(self, tmp_path):
        plan = _one_group_plan(n_seeds=8)
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, summaries, errors = _run_thread_fleet(
            plan, store, [tmp_path / f"w{i}" for i in range(2)]
        )
        assert errors == []
        stats = executor.worker_stats
        assert sum(s["piggybacked"] for s in stats.values()) >= 1
        # every completion was reported, none needed a separate drain
        # round-trip afterwards
        assert all(s["drains"] == 0 for s in stats.values()), stats
        assert all(s["round_trips"] >= 1 for s in stats.values())
        assert _sorted_normalized(store) == _sorted_normalized(inline)

    def test_fleet_workers_hear_done_and_keep_per_plan_stores(
        self, tmp_path
    ):
        """The single-plan fleet is a one-plan queue: both workers end
        on ``done`` (not ``bye``) once the plan is recorded, and each
        worker's local records sit in ``<store>/<plan_id>.jsonl``."""
        plan = _one_group_plan(n_seeds=8)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        worker_dirs = [tmp_path / f"w{i}" for i in range(2)]
        result, executor, summaries, errors = _run_thread_fleet(
            plan, store, worker_dirs
        )
        assert errors == []
        assert len(result.records) == plan.n_runs
        assert len(summaries) == 2
        assert not any(s["drained"] for s in summaries)  # both saw done
        by_worker = {s["worker"]: s for s in summaries}
        for index, worker_dir in enumerate(worker_dirs):
            summary = by_worker[f"thread-w{index}"]
            assert summary["store"] == str(worker_dir)
            assert summary["units"] >= 1
            local = ResultsStore(worker_dir / f"{_fleet_plan_id(plan)}.jsonl")
            assert len(local.records()) == summary["records"]
        assert sum(s["records"] for s in summaries) == plan.n_runs

    def test_default_worker_store_is_removed_on_done(
        self, tmp_path, monkeypatch
    ):
        """A worker started without a store directory makes a temporary
        one and removes it once the coordinator holds every record; a
        directory the caller named is kept."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        plan = _one_group_plan(n_seeds=4)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        kept = tmp_path / "kept"
        kept.mkdir()
        result, executor, summaries, errors = _run_thread_fleet(
            plan, store, [None, kept]
        )
        assert errors == []
        assert len(result.records) == plan.n_runs
        by_worker = {s["worker"]: s for s in summaries}
        assert by_worker["thread-w0"]["store"].startswith(str(scratch))
        assert list(scratch.iterdir()) == []
        assert by_worker["thread-w1"]["store"] == str(kept)
        assert kept.is_dir()

    def test_heterogeneous_fleet_respects_capacity(self, tmp_path):
        """Acceptance: in a 3-worker fleet with one worker throttled to
        a fraction of the others' speed, capacity-aware sizing hands
        the slow worker proportionally fewer cells, every worker still
        completes at least one unit, and the merged store is
        bitwise-identical to the inline run."""
        plan = _one_group_plan(n_seeds=12)  # 24 cells, one group
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        result, executor, summaries, errors = _run_thread_fleet(
            plan,
            store,
            [tmp_path / f"w{i}" for i in range(3)],
            worker_throttles={0: 0.5},  # +0.5 s per cell on worker 0
        )
        assert errors == []
        assert len(summaries) == 3
        assert all(s["units"] >= 1 for s in summaries), summaries
        stats = executor.worker_stats
        throttled = stats["thread-w0"]["cells"]
        others = [
            stats[w]["cells"] for w in stats if w != "thread-w0"
        ]
        assert throttled >= 1
        assert throttled < sum(others) / len(others), stats
        assert _sorted_normalized(store) == _sorted_normalized(inline)

    def test_worker_throttle_env_knob_is_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_THROTTLE", "soon")
        with pytest.raises(FleetError, match="REPRO_WORKER_THROTTLE"):
            run_worker(("127.0.0.1", 9))
        monkeypatch.delenv("REPRO_WORKER_THROTTLE")
        with pytest.raises(FleetError, match="throttle"):
            run_worker(("127.0.0.1", 9), throttle=-0.1)
