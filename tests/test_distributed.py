"""Tests for the distributed execution subsystem.

Covers the wire protocol (framing, EOF, oversize rejection, the HMAC
challenge-response handshake), local shards (never an idle worker;
a killed one requeues, all dead fails the run), executor validation,
a plan's lease state in the plan queue (carve-on-demand stealing,
stale-lease requeue of exact cell subsets),
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

import json
import math
import multiprocessing
import os
import socket
import tempfile
import threading
import time
import types

import pytest

from repro.distributed import executors
from repro.distributed import worker as worker_module
from repro.distributed import (
    FleetAuthError,
    FleetCoordinator,
    FleetError,
    FleetExecutor,
    InlineExecutor,
    PlanQueue,
    ProcessShardExecutor,
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
from repro.distributed.queue import PlanJob, plan_job_id

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


def _lease_queue(
    tmp_path, plan: ExperimentPlan, clock: list, **settings
) -> tuple[PlanQueue, PlanJob]:
    """A fake-clock queue holding ``plan`` with an empty tmp store —
    the lease state of one plan, driven through the queue's worker
    calls."""
    queue = PlanQueue(lease_timeout=5.0, clock=lambda: clock[0], **settings)
    job = queue.admit(plan, ResultsStore(tmp_path / "plan.jsonl"))
    return queue, job


def _records(cells) -> list[dict]:
    """Minimal store records of ``cells``: what a worker's
    ``complete`` uploads, as far as coverage is concerned."""
    return [
        dict(zip(("system", "case", "seed", "backend"), cell))
        for cell in cells
    ]


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
    def test_never_empty_covers_all_disjoint(
        self, n_pending, shards, tmp_path
    ):
        """ProcessShardExecutor starts min(shards, pending cells)
        workers. Each one's first ask gets a non-empty lease, even from
        a single group, and the leases tile the pending cells."""
        plan = _plan(
            systems=("ess",),
            cases=(CaseSpec("grassland", size=20, steps=2),),
            seeds=tuple(range(n_pending)),
        )
        queue, _ = _lease_queue(tmp_path, plan, [0.0])
        workers = [f"w{i}" for i in range(min(shards, n_pending))]
        grants = [queue.lease(worker) for worker in workers]
        assert all(g["type"] == "unit" for g in grants), "an idle worker"
        while (grant := queue.lease(workers[0]))["type"] == "unit":
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
# A plan's lease state (no sockets: fake clock, records written to the
# plan's tmp store by the test)
# ----------------------------------------------------------------------
class TestUnitLedger:
    def _queue(self, tmp_path, clock: list):
        # a floor of 2 cells keeps each 2-cell group whole
        return _lease_queue(tmp_path, _plan(), clock, min_unit_cells=2)

    def test_poll_completion_detects_coverage_without_a_request(
        self, tmp_path
    ):
        """Regression: the last worker uploading everything and then
        dying must not hang the run — its last ``complete`` carries the
        records, so the plan is done without any further request, and
        housekeeping keeps it done."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        g1 = queue.lease("w")
        g2 = queue.lease("w")
        assert g1["type"] == g2["type"] == "unit"
        for grant in (g1, g2):
            reply = queue.complete(
                "w", job.id, grant["lease"], None,
                _records(grant["unit"]["cells"]),
            )
            assert reply["type"] == "ok"
        # the worker dies silently after its last upload
        assert queue.wait_done(job, 0)
        clock[0] = 10.0
        queue.housekeep()
        assert job.state == "done"
        assert job.requeues == 0

    def test_poll_completion_requeues_stranded_cells(self, tmp_path):
        """A worker whose completes uploaded none of its units' records
        leaves missing cells; the coverage check requeues them as units
        at once — no worker is waited on for records."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        g1 = queue.lease("w")
        g2 = queue.lease("w")
        queue.complete("w", job.id, g1["lease"], None, [])
        reply = queue.complete("w", job.id, g2["lease"], None, [])
        assert job.state == "active"
        assert job.requeues == 2
        # the requeued units go to whoever asks next: the worker's own
        # piggybacked grant, then the next ask
        assert reply["next"]["type"] == "unit"
        assert queue.lease("w2")["type"] == "unit"

    def test_expired_lease_requeues_unit(self, tmp_path):
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        grant = queue.lease("w")
        grant2 = queue.lease("other")  # second group
        assert grant2["type"] == "unit"
        beat = lambda: queue.heartbeat(  # noqa: E731
            "w", job.id, grant["lease"]
        )
        clock[0] = 3.0
        assert beat() == {"type": "ok"}
        clock[0] = 7.0  # renewed at 3.0, deadline 8.0: still alive
        assert beat() == {"type": "ok"}
        clock[0] = 20.0
        assert beat() == {"type": "expired"}
        # both silent workers' units requeued, each the exact original
        # cell subset — re-leased to whoever asks next
        regrants = [queue.lease("other"), queue.lease("other")]
        assert all(r["type"] == "unit" for r in regrants)
        assert {tuple(map(tuple, r["unit"]["cells"])) for r in regrants} == {
            tuple(map(tuple, g["unit"]["cells"]))
            for g in (grant, grant2)
        }
        # the silent worker's late report no longer counts
        reply = queue.complete("w", job.id, grant["lease"], None, [])
        assert reply["type"] == "stale"

    def test_last_pending_unit_splits_for_an_asking_worker(self, tmp_path):
        """Work stealing: one big group spreads over every asker by
        carving a probe lease off the pending unit for each of them."""
        plan = _one_group_plan(n_seeds=4)  # 8 cells, one group
        queue, job = _lease_queue(tmp_path, plan, [0.0], min_unit_cells=1)
        sizes = []
        grants = []
        for worker in ("w1", "w2", "w3", "w4"):
            grant = queue.lease(worker)
            assert grant["type"] == "unit"
            grants.append(grant)
            sizes.append(len(grant["unit"]["cells"]))
        # every asker got work from the single group: a quarter of its
        # fair share each, never below the 1-cell floor
        assert sizes == [2, 1, 1, 1]
        assert job.steals == 4
        # the leases and the pending rest tile the group exactly — no
        # loss, no overlap
        cells = [tuple(c) for g in grants for c in g["unit"]["cells"]]
        assert len(set(cells)) == len(cells)
        assert set(cells) <= {k.as_tuple() for k in plan.runs()}
        progress = queue.snapshot(job)["progress"]
        assert progress["pending_cells"] == plan.n_runs - len(cells)

    def test_stale_lease_of_half_recorded_unit_requeues_missing_only(
        self, tmp_path
    ):
        """A worker that recorded half a unit and then died: the lease
        expires and requeues the whole cell subset (the new worker's
        store-resume skips nothing here — its store is its own), while
        the end-of-run coverage check requeues exactly the cells whose
        records never arrived. Nothing is lost, nothing doubled."""
        plan = _one_group_plan(n_seeds=4)
        all_cells = [k.as_tuple() for k in plan.runs()]
        clock = [0.0]
        queue, job = _lease_queue(
            tmp_path,
            plan,
            clock,
            min_unit_cells=plan.n_runs,  # the floor keeps the unit whole
        )
        grant = queue.lease("w1")
        clock[0] = 20.0  # w1 went silent: its lease expires
        regrant = queue.lease("w2")
        assert regrant["type"] == "unit"
        assert job.requeues == 1
        assert regrant["unit"] == grant["unit"]  # exact cell subset
        # w1's late complete is stale but still delivers the half of
        # the unit it recorded
        stale = queue.complete(
            "w1", job.id, grant["lease"], None,
            _records(grant["unit"]["cells"][:4]),
        )
        assert stale["type"] == "stale"
        # w2 completes with every record of the unit; the merge keeps
        # w1's copies of the cells both delivered
        reply = queue.complete(
            "w2", job.id, regrant["lease"], None,
            _records(regrant["unit"]["cells"]),
        )
        assert reply["type"] == "ok"
        assert sorted(job.completed_cells()) == sorted(all_cells)
        assert len(list(job.store.records())) == len(all_cells)
        queue.housekeep()
        assert job.state == "done"


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
    """Exits hard right after a ``complete`` exchange — its records
    already rode the report, so nothing is stranded."""
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
        secret_payload = {"type": "complete", "records": [{"secret": 1}]}
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
            "w", job.id, grant["lease"], {"busy_seconds": 3.5, "records": 2},
            _records(grant["unit"]["cells"]),
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

    def _two_plan_queue(self, tmp_path, clock: list):
        """Two admitted one-group plans and one grant of each to ``w``
        (the fair-share pick alternates between the fresh plans)."""
        queue = PlanQueue(lease_timeout=5.0, clock=lambda: clock[0])
        jobs = [
            queue.admit(
                _plan(
                    name=name, cases=(CaseSpec("grassland", size=20, steps=2),)
                ),
                ResultsStore(tmp_path / f"{name}.jsonl"),
            )
            for name in ("plan-a", "plan-b")
        ]
        grants = [queue.lease("w"), queue.lease("w")]
        assert [g["plan_id"] for g in grants] == [j.id for j in jobs]
        return queue, jobs, grants

    def test_busy_gauge_is_the_worker_max_across_plans(self, tmp_path):
        """A late heartbeat on one plan's old lease carries a lower
        cumulative busy time than the worker already reported on
        another plan; neither the gauge nor ``status`` goes back."""
        from repro.obs import telemetry

        clock = [0.0]
        queue, (a, b), (ga, gb) = self._two_plan_queue(tmp_path, clock)
        clock[0] = 7.0
        queue.complete(
            "w", a.id, ga["lease"], {"busy_seconds": 6.0},
            _records(ga["unit"]["cells"]),
        )
        queue.heartbeat("w", b.id, gb["lease"], {"busy_seconds": 6.5})
        queue.heartbeat("w", a.id, ga["lease"], {"busy_seconds": 5.9})
        gauge = telemetry().gauge(
            "repro_fleet_worker_busy_seconds", worker="w"
        )
        assert gauge.value == queue.worker_stats()["w"]["busy_seconds"]
        assert gauge.value == pytest.approx(6.5)

    def test_worker_view_folds_every_plan(self, tmp_path):
        """The fleet view of a worker serving two plans: work counters
        add up, ``busy_seconds`` is its largest cumulative report,
        ``throughput`` the mean of its per-plan estimates, and every
        plan's progress has the same keys."""
        clock = [0.0]
        queue, (a, b), (ga, gb) = self._two_plan_queue(tmp_path, clock)
        clock[0] = 1.0
        queue.complete(
            "w",
            a.id,
            ga["lease"],
            {"unit_seconds": 0.5, "busy_seconds": 0.5, "records": 1},
            _records(ga["unit"]["cells"]),
        )
        clock[0] = 3.0
        queue.complete(
            "w",
            b.id,
            gb["lease"],
            {"unit_seconds": 2.0, "busy_seconds": 2.5, "records": 1},
            _records(gb["unit"]["cells"]),
        )
        st = queue.worker_stats()["w"]
        cells = len(ga["unit"]["cells"]) + len(gb["unit"]["cells"])
        # each complete took the next grant too: four leases, two run
        assert (st["leases"], st["units"], st["cells"]) == (4, 2, cells)
        assert (st["records"], st["completes"]) == (2, 2)
        assert st["lease_seconds"] == pytest.approx(1.0 + 3.0)
        assert st["busy_seconds"] == pytest.approx(2.5)  # max, not 3.0
        # per-plan EMAs: 1 cell / 0.5 s on a, 1 cell / 2.0 s on b
        assert cells == 2
        assert st["throughput"] == pytest.approx((2.0 + 0.5) / 2)
        plans = queue.status()["plans"]
        assert len(plans) == 2
        assert set(plans[0]["progress"]) == set(plans[1]["progress"]) == {
            "pending_units",
            "pending_cells",
            "leased",
            "tentative_cells",
            "workers",
            "requeues",
            "steals",
        }

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
        queue.complete("w1", job.id, grant["lease"], {"records": 2}, [])
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
            progress = coordinator.queue.snapshot(job)["progress"]
            assert progress["workers"] == 1
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
# Cost-aware scheduling: the predictive grant path of the plan queue
# ----------------------------------------------------------------------
class TestCostLedger:
    """Deterministic (fake-clock) coverage of the cost-aware grant path:
    probe-first sizing, throughput-proportional leases, piggybacked
    granting, fragment re-merge, and snapshot determinism."""

    @staticmethod
    def _complete(queue, job, worker, grant, info) -> dict:
        """Complete a unit with an empty record upload; returns the
        piggybacked next grant."""
        reply = queue.complete(worker, job.id, grant["lease"], info, [])
        assert reply["next"]["type"] == "unit"
        return reply["next"]

    def test_unknown_worker_gets_a_probe_lease(self, tmp_path):
        """A worker with no measured throughput gets a small probe (a
        quarter of its fair share), not half of everything — sizing
        information before committing cells."""
        clock = [0.0]
        queue, _ = self._queue(tmp_path, clock)  # 16 cells, one group
        grant = queue.lease("w1")
        assert grant["type"] == "unit"
        unit = WorkUnit.from_dict(grant["unit"])
        assert unit.n_cells == 4  # fair share 16, probe = 16 // 4

    def test_measured_throughput_sizes_leases_proportionally(
        self, tmp_path
    ):
        """Once both workers have measured throughput, the faster one
        is granted strictly more cells per lease."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        g1 = queue.lease("w1")
        g2 = queue.lease("w2")
        # identical wall-clock, 4x the cells: w1 measures 4x faster
        fast = self._complete(queue, job, "w1", g1, {"unit_seconds": 1.0})
        slow = self._complete(queue, job, "w2", g2, {"unit_seconds": 1.0})
        fast = WorkUnit.from_dict(fast["unit"])
        slow = WorkUnit.from_dict(slow["unit"])
        assert fast.n_cells > slow.n_cells >= 1
        stats = queue.worker_stats()
        assert stats["w1"]["throughput"] == pytest.approx(4.0)
        assert stats["w2"]["throughput"] == pytest.approx(1.0)

    def _queue(self, tmp_path, clock: list):
        queue = PlanQueue(lease_timeout=5.0, clock=lambda: clock[0])
        job = queue.admit(
            _one_group_plan(n_seeds=8), ResultsStore(tmp_path / "s.jsonl")
        )
        return queue, job

    def test_piggybacked_complete_carries_the_next_lease(self, tmp_path):
        """A complete carrying its records also takes the next lease,
        in one exchange, and the round-trip accounting shows it."""
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

    def test_requeued_fragments_remerge_before_regrant(self, tmp_path):
        """Expired sliver leases from the same group fuse back into one
        contiguous unit before the next grant carves it afresh —
        fragmentation does not compound across worker deaths."""
        clock = [0.0]
        queue, job = self._queue(tmp_path, clock)
        a = queue.lease("w1")
        b = queue.lease("w2")
        assert a["type"] == b["type"] == "unit"
        clock[0] = 20.0  # both leases expire, fragments requeue
        grant = queue.lease("w3")
        assert grant["type"] == "unit"
        assert job.requeues == 2
        # the two fragments and the remainder merged into one unit
        # before w3's probe was carved from it
        assert queue.snapshot(job)["progress"]["pending_units"] == 1

    def test_grants_deterministic_from_identical_snapshots(self, tmp_path):
        """Two queues seeded from the same serialized cost model and
        driven through the same call sequence make identical grant
        decisions — cell for cell."""
        source = UnitCostModel()
        source.observe("grassland:vectorized", 4, 2.0)
        payload = source.to_dict()
        transcripts = []
        for i in range(2):
            snapshot = tmp_path / f"costs{i}.json"
            snapshot.write_text(json.dumps(payload), encoding="utf-8")
            clock = [0.0]
            queue = PlanQueue(lease_timeout=5.0, clock=lambda: clock[0])
            queue.use_cost_snapshot(snapshot)
            job = queue.admit(
                _one_group_plan(n_seeds=8),
                ResultsStore(tmp_path / f"s{i}.jsonl"),
            )
            grants = []
            g1 = queue.lease("w1")
            grants.append(g1["unit"])
            g2 = queue.lease("w2")
            grants.append(g2["unit"])
            for worker, grant, seconds in (("w1", g1, 0.5), ("w2", g2, 2.0)):
                grants.append(
                    self._complete(
                        queue, job, worker, grant, {"unit_seconds": seconds}
                    )["unit"]
                )
            transcripts.append(grants)
        assert transcripts[0] == transcripts[1]

    def test_target_unit_seconds_must_be_positive(self):
        with pytest.raises(FleetError, match="target_unit_seconds"):
            PlanQueue(target_unit_seconds=0.0)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_throttle_is_refused_before_connecting(
        self, bad, monkeypatch
    ):
        """``time.sleep(throttle * cells)`` raises for NaN and inf, so
        they must fail up front, not after the first unit has run."""

        def no_contact(*args, **kwargs):
            raise AssertionError("the coordinator was contacted")

        monkeypatch.setattr(worker_module, "request", no_contact)
        monkeypatch.delenv("REPRO_WORKER_THROTTLE", raising=False)
        with pytest.raises(FleetError, match="finite number of seconds"):
            run_worker(("127.0.0.1", 9), throttle=bad)
        monkeypatch.setenv("REPRO_WORKER_THROTTLE", str(bad))
        with pytest.raises(FleetError, match="REPRO_WORKER_THROTTLE"):
            run_worker(("127.0.0.1", 9))


# ----------------------------------------------------------------------
# Held leases on the wire: idle workers hear of work when it exists
# ----------------------------------------------------------------------
class _GrantProbe(PlanQueue):
    """A plan queue that signals its first ``wait`` decision and its
    first grant of any plan. A held request keeps the queue lock from
    its ``wait`` decision until it parks on the queue's condition, so
    any queue call made after ``told_wait`` lands while it is held."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.told_wait = threading.Event()
        self.granted = threading.Event()

    def _decide_locked(self, worker: str) -> dict:
        reply = super()._decide_locked(worker)
        if reply["type"] == "wait":
            self.told_wait.set()
        return reply

    def _first_grant_locked(self, job, worker: str) -> None:
        super()._first_grant_locked(job, worker)
        self.granted.set()


def _scripted_worker(monkeypatch, welcome: dict) -> tuple[list, list]:
    """Run a worker against a scripted coordinator (welcome, one
    ``wait``, then ``done``); returns the payloads it sent and the
    sleeps it took."""
    replies = iter([welcome, {"type": "wait"}, {"type": "done"}])
    sent: list[dict] = []
    slept: list[float] = []

    def scripted(address, payload, timeout=30.0, token=None):
        sent.append(dict(payload))
        return next(replies)

    monkeypatch.setattr(worker_module, "request", scripted)
    monkeypatch.setattr(
        worker_module,
        "time",
        types.SimpleNamespace(
            sleep=slept.append, perf_counter=time.perf_counter, time=time.time
        ),
    )
    run_worker(("127.0.0.1", 9), poll_interval=5.0, request_timeout=4.0)
    return sent, slept


class TestHeldLeaseWire:
    def test_idle_worker_gets_new_work_within_a_second(self, tmp_path):
        """The headline regression: a worker polling every 5 s, told
        ``wait`` on an empty queue, receives a plan admitted afterwards
        at once — its ask is held open and woken by the admission, not
        answered after the worker's next sleep."""
        queue = _GrantProbe(lease_timeout=10.0)
        coordinator = FleetCoordinator(queue, poll_interval=5.0)
        address = coordinator.start()
        box: dict = {}

        def work() -> None:
            box["summary"] = run_worker(
                address,
                store_path=tmp_path / "worker",
                worker_id="idle-w",
                poll_interval=5.0,
            )

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        try:
            assert queue.told_wait.wait(30)
            assert queue.worker_stats()["idle-w"]["lease_requests"] >= 1
            plan = _plan(
                systems=("ess",),
                cases=(CaseSpec("grassland", size=20, steps=2),),
            )
            job = queue.admit(plan, ResultsStore(tmp_path / "coord.jsonl"))
            assert queue.granted.wait(1.0), "the idle worker slept"
            assert queue.wait_done(job, 60)
            queue.finish()
            thread.join(10)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert box["summary"]["units"] == 1

    def test_hold_is_capped_by_the_poll_interval_and_the_ask(self):
        """No request is held longer than min(poll interval, asked)."""
        coordinator = FleetCoordinator(PlanQueue(), poll_interval=1.0)
        ask = {"type": "lease", "worker": "w"}
        started = time.monotonic()
        assert coordinator.dispatch({**ask, "hold": 60.0}) == {"type": "wait"}
        held = time.monotonic() - started
        assert 1.0 <= held < 5.0
        started = time.monotonic()
        assert coordinator.dispatch({**ask, "hold": 0.1}) == {"type": "wait"}
        assert 0.1 <= time.monotonic() - started < 1.0

    def test_lease_without_hold_is_answered_at_once(self):
        """A ``lease`` whose ``hold`` is missing, malformed or not
        positive is answered ``wait`` immediately."""
        coordinator = FleetCoordinator(PlanQueue(), poll_interval=30.0)
        started = time.monotonic()
        for extra in ({}, {"hold": "soon"}, {"hold": -1}, {"hold": 0}):
            reply = coordinator.dispatch(
                {"type": "lease", "worker": "w", **extra}
            )
            assert reply == {"type": "wait"}
        assert time.monotonic() - started < 1.0

    def test_close_returns_while_a_request_is_held(self):
        queue = _GrantProbe()
        coordinator = FleetCoordinator(queue, poll_interval=2.0)
        address = coordinator.start()
        box: dict = {}

        def ask() -> None:
            box["reply"] = request(
                address, {"type": "lease", "worker": "w", "hold": 2.0}
            )

        thread = threading.Thread(target=ask, daemon=True)
        thread.start()
        assert queue.told_wait.wait(10)
        started = time.monotonic()
        coordinator.close()
        assert time.monotonic() - started < 2.0
        thread.join(10)
        assert box["reply"] == {"type": "wait"}  # answered at hold's end

    def test_worker_asks_for_holds_when_welcomed_with_hold(
        self, monkeypatch
    ):
        sent, slept = _scripted_worker(
            monkeypatch,
            {"type": "welcome", "lease_timeout": 30.0, "hold": True},
        )
        leases = [p for p in sent if p["type"] == "lease"]
        assert len(leases) == 2
        # its poll interval, capped at half the request timeout
        assert all(p["hold"] == 2.0 for p in leases)
        assert slept == []  # a held wait is followed by the next ask

class TestCompleteCarriesRecords:
    """Records reach the coordinator only inline on ``complete``: a
    ``complete`` without a record list is malformed, and there is no
    separate upload message."""

    def _coordinator(self, tmp_path):
        queue = PlanQueue(lease_timeout=5.0)
        job = queue.admit(_plan(), ResultsStore(tmp_path / "coord.jsonl"))
        return FleetCoordinator(queue, poll_interval=0.05), job

    @pytest.mark.parametrize("records", [None, "records", {"r": 1}, 3])
    def test_complete_without_a_record_list_is_refused(
        self, tmp_path, records
    ):
        """Refused before any state changes: the lease stays held, so
        the unit is neither counted nor requeued."""
        coordinator, job = self._coordinator(tmp_path)
        queue = coordinator.queue
        grant = queue.lease("w")
        with pytest.raises(FleetError, match="record list"):
            queue.complete("w", job.id, grant["lease"], None, records)
        assert list(job.leases) == [grant["lease"]]
        assert queue.worker_stats()["w"]["completes"] == 0

    def test_wire_answers_error_to_a_complete_without_records(
        self, tmp_path
    ):
        """A worker that leaves ``records`` out is told so, instead of
        having its unit's cells requeued and re-run forever."""
        coordinator, job = self._coordinator(tmp_path)
        address = coordinator.start()
        try:
            grant = request(address, {"type": "lease", "worker": "w"})
            reply = request(
                address,
                {
                    "type": "complete",
                    "worker": "w",
                    "plan_id": job.id,
                    "lease": grant["lease"],
                },
            )
        finally:
            coordinator.close()
        assert reply["type"] == "error"
        assert "record list" in reply["error"]

    def test_records_message_is_an_unknown_type(self, tmp_path):
        coordinator, job = self._coordinator(tmp_path)
        message = {
            "type": "records",
            "worker": "w",
            "plan_id": job.id,
            "records": [],
        }
        with pytest.raises(FleetError, match="unknown fleet message type"):
            coordinator.dispatch(message)
        address = coordinator.start()
        try:
            reply = request(address, message)
        finally:
            coordinator.close()
        assert reply["type"] == "error"
        assert "unknown fleet message type" in reply["error"]


class TestPollIntervalValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_coordinator_rejects(self, bad):
        with pytest.raises(FleetError, match="poll interval"):
            FleetCoordinator(PlanQueue(), poll_interval=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_executor_rejects(self, bad):
        with pytest.raises(FleetError, match="poll interval"):
            FleetExecutor(poll_interval=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_worker_rejects_before_connecting(self, bad):
        with pytest.raises(FleetError, match="poll interval"):
            run_worker(("127.0.0.1", 9), poll_interval=bad, max_failures=1)


class TestLeaseSettingsValidation:
    """The queue and the fleet executor check their scheduling settings
    once, at construction — not at the first admission, after a
    submission was already spooled."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "setting, name",
        [
            ("lease_timeout", "lease timeout"),
            ("target_unit_seconds", "target_unit_seconds"),
        ],
        ids=["lease_timeout", "target_unit_seconds"],
    )
    @pytest.mark.parametrize("build", [PlanQueue, FleetExecutor])
    def test_times_must_be_finite_and_positive(
        self, build, setting, name, bad
    ):
        with pytest.raises(FleetError, match=name):
            build(**{setting: bad})

    @pytest.mark.parametrize("bad", [0, -1, float("nan")])
    def test_queue_lease_floor_is_at_least_one_cell(self, bad):
        with pytest.raises(FleetError, match="min_unit_cells"):
            PlanQueue(min_unit_cells=bad)

    def test_rejected_queue_spools_nothing(self, tmp_path):
        with pytest.raises(FleetError, match="lease timeout"):
            PlanQueue(tmp_path / "spool", lease_timeout=0)
        assert not (tmp_path / "spool").exists()
