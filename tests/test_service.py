"""Tests of the always-on prediction service (:mod:`repro.service`).

Three properties carry the subsystem:

* **fair share is parity-inert** — plans submitted concurrently by
  different tenants, interleaved over one worker pool by the deficit
  scheduler, each produce a store bitwise-identical (parity view) to
  the same plan run inline;
* **priority means overtaking** — a high-priority late submission is
  granted before a queued bulk plan that has been soaking up the
  fleet;
* **drain is lossless** — a worker retired mid-run finishes its lease,
  uploads its records, exits with ``drained: true``, and the run
  completes with zero requeued cells and zero lost or duplicated
  records.

Plus the satellite pieces: connect-retry backoff shape, admission
backpressure over HTTP, record streaming with resume-by-offset, and
spool persistence across service restarts.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.distributed import FleetError, FleetExecutor, run_worker
from repro.distributed.protocol import request as fleet_request
from repro.distributed.worker import backoff_delay
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
    record_key,
)
from repro.experiments.store import parity_view
from repro.obs.http import ObsHTTPServer
from repro.service import (
    AdmissionError,
    PlanQueue,
    PredictionService,
    ServiceError,
    UnknownPlanError,
    plan_job_id,
)


def _plan(**overrides) -> ExperimentPlan:
    """Tiny real plan: 1 case x 2 systems x 1 seed = 2 cells."""
    values = dict(
        name="service-test",
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


def _normalized(store: ResultsStore) -> list[dict]:
    return [
        parity_view(r) for r in sorted(store.records(), key=record_key)
    ]


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read())


def _post(url: str, payload: dict | None = None) -> tuple[int, dict]:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


# ----------------------------------------------------------------------
# Connect-retry backoff (satellite: worker resilience)
# ----------------------------------------------------------------------
class TestBackoffDelay:
    def test_ceiling_doubles_to_the_cap(self):
        # jitter pinned high: the delay IS the ceiling
        delays = [
            backoff_delay(n, base=0.5, cap=5.0, jitter=lambda: 1.0)
            for n in range(1, 7)
        ]
        assert delays == [0.5, 1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_spans_half_to_full_ceiling(self):
        low = backoff_delay(3, base=1.0, cap=60.0, jitter=lambda: 0.0)
        high = backoff_delay(3, base=1.0, cap=60.0, jitter=lambda: 1.0)
        assert low == pytest.approx(2.0)  # ceiling 4.0, half
        assert high == pytest.approx(4.0)

    def test_random_jitter_stays_in_range(self):
        for n in range(1, 10):
            delay = backoff_delay(n, base=0.5, cap=5.0)
            ceiling = min(5.0, 0.5 * 2 ** (n - 1))
            assert ceiling / 2 <= delay <= ceiling

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(FleetError, match="positive"):
            backoff_delay(1, base=0.0)
        with pytest.raises(FleetError, match="positive"):
            backoff_delay(1, cap=-1.0)


# ----------------------------------------------------------------------
# The PlanQueue scheduler, scripted (no sockets, no engine)
# ----------------------------------------------------------------------
class TestPlanQueueScheduling:
    def test_job_ids_are_keyed_and_idempotent(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        payload = _plan().to_dict()
        job, created = queue.submit(payload, tenant="alice")
        again, created_again = queue.submit(payload, tenant="alice")
        assert created and not created_again
        assert again is job
        assert job.id == plan_job_id(payload, "alice")
        # a different tenant's identical plan is a different job
        other, _ = queue.submit(payload, tenant="bob")
        assert other.id != job.id

    def test_rejects_nonpositive_priority(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        with pytest.raises(ServiceError, match="priority"):
            queue.submit(_plan().to_dict(), priority=0.0)

    def test_admission_backpressure_predicts_retry(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool", max_active=1)
        first = _plan(name="first").to_dict()
        queue.submit(first, tenant="alice")
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_plan(name="second").to_dict(), tenant="bob")
        assert excinfo.value.retry_after >= 1.0
        # resubmission of an admitted plan never bounces: idempotency
        # beats the admission bound
        _, created = queue.submit(first, tenant="alice")
        assert not created

    def test_unknown_plan_raises(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        with pytest.raises(UnknownPlanError):
            queue.job("no-such-job")

    def test_high_priority_late_submission_overtakes_bulk(self, tmp_path):
        """The fair-share core: a bulk plan soaking up the fleet is
        overtaken by an interactive tenant's late, high-priority
        submission — the bulk plan's deficit went negative with every
        grant it took, the newcomer starts at zero and earns credit
        four times faster."""
        queue = PlanQueue(tmp_path / "spool", lease_timeout=60.0)
        bulk, _ = queue.submit(
            _plan(name="bulk", seeds=tuple(range(8))).to_dict(),
            tenant="batch",
            priority=1.0,
        )
        # the bulk plan monopolises the pool while it is alone — and,
        # being alone, earns back exactly what it is charged
        for i in range(3):
            grant = queue.lease(f"w{i}")
            assert grant["type"] == "unit"
            assert grant["plan_id"] == bulk.id
        assert bulk.deficit == pytest.approx(0.0)
        urgent, _ = queue.submit(
            _plan(name="urgent", seeds=(99,)).to_dict(),
            tenant="interactive",
            priority=4.0,
        )
        # the very next grants flip to the newcomer: its 4x weight
        # earns credit faster than the bulk plan which pays full price
        # for everything it takes, despite bulk's 16-cell backlog
        grants = [queue.lease(f"w{3 + i}") for i in range(2)]
        assert urgent.id in [g["plan_id"] for g in grants]
        # and its grant ships everything a plan-less worker needs
        urgent_grant = next(
            g for g in grants if g["plan_id"] == urgent.id
        )
        assert urgent_grant["plan"]["name"] == "urgent"
        assert urgent_grant["unit"]["cells"]

    def test_weighted_shares_follow_priority(self, tmp_path):
        """Over many grants of equal-cost units, a priority-3 tenant
        receives about three times the work of a priority-1 tenant."""
        queue = PlanQueue(tmp_path / "spool", lease_timeout=60.0)
        heavy, _ = queue.submit(
            _plan(name="heavy", seeds=tuple(range(30))).to_dict(),
            tenant="a",
            priority=3.0,
        )
        light, _ = queue.submit(
            _plan(name="light", seeds=tuple(range(100, 130))).to_dict(),
            tenant="b",
            priority=1.0,
        )
        taken = {heavy.id: 0, light.id: 0}
        for i in range(16):
            grant = queue.lease(f"w{i}")
            assert grant["type"] == "unit"
            taken[grant["plan_id"]] += len(grant["unit"]["cells"])
        assert taken[heavy.id] > taken[light.id]
        ratio = taken[heavy.id] / max(taken[light.id], 1)
        assert 1.5 <= ratio <= 6.0  # ~3, loose bounds for unit sizing

    def test_cancel_stops_grants_and_spool_resurrection(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        job, _ = queue.submit(_plan(name="doomed").to_dict())
        queue.cancel(job.id)
        assert job.status() == "cancelled"
        assert queue.lease("w0")["type"] == "wait"
        # cancelled plans do not come back on restart
        reborn = PlanQueue(tmp_path / "spool")
        with pytest.raises(UnknownPlanError):
            reborn.job(job.id)

    def test_spool_restores_admitted_plans(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        job, _ = queue.submit(
            _plan(name="persistent").to_dict(), tenant="alice"
        )
        restarted = PlanQueue(tmp_path / "spool")
        restored = restarted.job(job.id)
        assert restored.plan.name == "persistent"
        assert restored.tenant == "alice"
        assert restored.status() == "queued"

    def test_finish_answers_done_to_every_ask(self, tmp_path):
        """The single-plan fleet's end state: once its executor closes
        the queue, every worker — leasing or completing — hears
        ``done``, and the linger can tell when all live ones have."""
        queue = PlanQueue(tmp_path / "spool", lease_timeout=60.0)
        job, _ = queue.submit(_plan(name="closing").to_dict())
        grant = queue.lease("w0")
        queue.touch("w1")
        assert not queue.status()["finished"]
        queue.finish()
        assert queue.status()["finished"]
        assert not queue.wait_all_informed(0)  # nobody told yet
        reply = queue.complete("w0", job.id, grant["lease"], None, [])
        assert reply["next"] == {"type": "done"}
        assert not queue.wait_all_informed(0)  # w1 still polling
        assert queue.lease("w1") == {"type": "done"}
        assert queue.wait_all_informed(0)

    def test_drained_worker_gets_bye_only_when_clean(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool", lease_timeout=60.0)
        queue.submit(_plan(name="drainer", seeds=(0, 1, 2)).to_dict())
        grant = queue.lease("w0")
        assert grant["type"] == "unit"
        queue.drain_worker("w0")
        # still holding a lease: not released yet
        assert queue.lease("w0")["type"] == "wait"
        # completing the unit (records inline) clears the way out
        reply = queue.complete(
            "w0", grant["plan_id"], grant["lease"], None, []
        )
        assert reply["next"]["type"] == "bye"
        # an undrained fleet keeps being served by other workers
        assert queue.lease("w1")["type"] == "unit"


class _ProbedQueue(PlanQueue):
    """A plan queue that signals when it has decided ``wait`` for an
    ask. A held request keeps the queue lock from that decision until
    it parks on the queue's condition, so any queue call made after
    the signal lands while the request is held."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.told_wait = threading.Event()

    def _decide_locked(self, worker: str) -> dict:
        reply = super()._decide_locked(worker)
        if reply["type"] == "wait":
            self.told_wait.set()
        return reply


def _held_lease(queue: PlanQueue, worker: str, hold: float) -> dict:
    """Start a held ``lease`` on a thread; the returned box gets the
    ``reply`` and the ``seconds`` it was held once it is answered."""
    box: dict = {}

    def ask() -> None:
        started = time.monotonic()
        box["reply"] = queue.lease(worker, hold=hold)
        box["seconds"] = time.monotonic() - started

    box["thread"] = threading.Thread(target=ask, daemon=True)
    box["thread"].start()
    return box


def _answer(box: dict, timeout: float = 10.0) -> dict:
    box["thread"].join(timeout)
    assert not box["thread"].is_alive(), "held lease never answered"
    return box["reply"]


# ----------------------------------------------------------------------
# Held leases: an idle ask is answered when the queue changes
# ----------------------------------------------------------------------
class TestHeldLeases:
    """Every held request below asks for a 60 s hold, so an answer
    well inside the 10 s join can only come from a notification."""

    @pytest.mark.parametrize("entry", ["submit", "admit"])
    def test_new_plan_wakes_a_held_lease(self, tmp_path, entry):
        queue = _ProbedQueue(
            tmp_path / "spool" if entry == "submit" else None
        )
        box = _held_lease(queue, "w0", hold=60.0)
        assert queue.told_wait.wait(10)
        if entry == "submit":
            job, _ = queue.submit(_plan().to_dict())
        else:
            job = queue.admit(_plan(), ResultsStore(tmp_path / "s.jsonl"))
        reply = _answer(box)
        assert reply["type"] == "unit"
        assert reply["plan_id"] == job.id
        assert box["seconds"] < 10

    def test_expired_lease_requeues_to_a_held_lease(self, tmp_path):
        """Housekeeping requeues a silent worker's lease; the held ask
        of an idle worker receives exactly those cells."""
        clock = [0.0]
        queue = _ProbedQueue(
            tmp_path / "spool",
            lease_timeout=5.0,
            min_unit_cells=2,  # one grant covers the 2-cell plan
            clock=lambda: clock[0],
        )
        queue.submit(_plan().to_dict())
        first = queue.lease("w0")
        assert first["type"] == "unit"
        box = _held_lease(queue, "w1", hold=60.0)
        assert queue.told_wait.wait(10)
        clock[0] = 20.0  # w0 fell silent: its lease is overdue
        queue.housekeep()
        reply = _answer(box)
        assert reply["type"] == "unit"
        assert reply["unit"]["cells"] == first["unit"]["cells"]

    def test_finish_answers_a_held_lease_done(self, tmp_path):
        queue = _ProbedQueue()
        box = _held_lease(queue, "w0", hold=60.0)
        assert queue.told_wait.wait(10)
        assert not queue.wait_all_informed(0)
        queue.finish()
        assert _answer(box) == {"type": "done"}
        assert queue.wait_all_informed(timeout=10)

    def test_drain_answers_a_held_lease_bye(self, tmp_path):
        queue = _ProbedQueue()
        box = _held_lease(queue, "w0", hold=60.0)
        assert queue.told_wait.wait(10)
        queue.drain_worker("w0")
        assert _answer(box) == {"type": "bye"}

    def test_held_lease_without_new_work_waits_out_its_hold(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        box = _held_lease(queue, "w0", hold=0.2)
        assert _answer(box) == {"type": "wait"}
        assert 0.2 <= box["seconds"] < 5.0
        assert queue.worker_stats()["w0"]["lease_requests"] == 1

    def test_unheld_lease_answers_wait_at_once(self, tmp_path):
        queue = PlanQueue(tmp_path / "spool")
        started = time.monotonic()
        assert queue.lease("w0") == {"type": "wait"}
        assert queue.lease("w0", hold=-1.0) == {"type": "wait"}
        assert queue.lease("w0", hold=float("nan")) == {"type": "wait"}
        assert time.monotonic() - started < 1.0

    def test_linger_returns_once_the_last_live_worker_hears_done(
        self, tmp_path
    ):
        """``wait_all_informed`` wakes on the ``done`` it waits for."""
        queue = _ProbedQueue(lease_timeout=60.0)
        queue.touch("w0")
        queue.finish()
        box = {}

        def linger() -> None:
            box["informed"] = queue.wait_all_informed(timeout=60.0)

        thread = threading.Thread(target=linger, daemon=True)
        thread.start()
        assert queue.lease("w0") == {"type": "done"}
        thread.join(10)
        assert not thread.is_alive() and box["informed"] is True


# ----------------------------------------------------------------------
# End-to-end over HTTP: two tenants, one worker pool, full parity
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_concurrent_plans_complete_with_inline_parity(self, tmp_path):
        plan_a = _plan(name="tenant-a", seeds=(0, 1))
        plan_b = _plan(
            name="tenant-b",
            systems=("ess",),
            cases=(CaseSpec("river_gap", size=20, steps=2),),
            seeds=(7,),
        )
        service = PredictionService(
            tmp_path / "spool",
            lease_timeout=10.0,
            poll_interval=0.05,
            housekeep_interval=0.2,
        )
        (gw_host, gw_port), fleet = service.start()
        base = f"http://{gw_host}:{gw_port}"
        summaries: dict[str, dict] = {}
        errors: list[Exception] = []
        try:
            status, job_a = _post(
                base + "/plans",
                {"plan": plan_a.to_dict(), "tenant": "alice"},
            )
            assert status == 201
            status, job_b = _post(
                base + "/plans",
                {
                    "plan": plan_b.to_dict(),
                    "tenant": "bob",
                    "priority": 2.0,
                },
            )
            assert status == 201
            # idempotent resubmission: 200, same job
            status, again = _post(
                base + "/plans",
                {"plan": plan_a.to_dict(), "tenant": "alice"},
            )
            assert status == 200
            assert again["id"] == job_a["id"]

            def work(wid: str) -> None:
                try:
                    summaries[wid] = run_worker(
                        fleet, worker_id=wid, poll_interval=0.05
                    )
                except Exception as exc:  # surfaced to the test thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(f"svc-w{i}",))
                for i in range(2)
            ]
            for t in threads:
                t.start()

            deadline = time.time() + 120
            while time.time() < deadline:
                _, a = _get(base + f"/plans/{job_a['id']}")
                _, b = _get(base + f"/plans/{job_b['id']}")
                if a["status"] == "done" and b["status"] == "done":
                    break
                time.sleep(0.2)
            assert a["status"] == "done", a
            assert b["status"] == "done", b
            assert a["recorded_cells"] == a["expected_cells"] == 4
            assert b["recorded_cells"] == b["expected_cells"] == 1

            # records stream with a resume cursor
            with urllib.request.urlopen(
                base + f"/plans/{job_a['id']}/records"
            ) as resp:
                lines = resp.read().decode().strip().splitlines()
                cursor = resp.headers["X-Repro-Next-Offset"]
            assert len(lines) == 4
            assert cursor == "4"
            streamed_keys = {
                record_key(json.loads(line)) for line in lines
            }
            assert len(streamed_keys) == 4
            with urllib.request.urlopen(
                base + f"/plans/{job_a['id']}/records?offset={cursor}"
            ) as resp:
                assert resp.read().decode().strip() == ""

            # queue gauges are exposed on /metrics
            with urllib.request.urlopen(base + "/metrics") as resp:
                metrics = resp.read().decode()
            assert "repro_service_queue_depth" in metrics
            assert 'repro_service_plans{state="done"}' in metrics

            # drain both workers: graceful exits, nothing requeued
            for wid in ("svc-w0", "svc-w1"):
                status, body = _post(base + f"/workers/{wid}/drain")
                assert status == 202 and body["draining"] == wid
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert set(summaries) == {"svc-w0", "svc-w1"}
            assert all(s["drained"] for s in summaries.values())
            _, status_body = _get(base + "/status")
            for job in status_body["plans"]:
                assert job["progress"]["requeues"] == 0
        finally:
            service.close()

        # the service store is bitwise-identical (parity view) to the
        # same plan run inline, for both tenants
        for plan, job in ((plan_a, job_a), (plan_b, job_b)):
            inline = ResultsStore(tmp_path / f"inline-{plan.name}.jsonl")
            ExperimentRunner(store=inline).run(plan)
            served = ResultsStore(
                tmp_path / "spool" / "stores" / f"{job['id']}.jsonl"
            )
            assert _normalized(served) == _normalized(inline)

    def test_gateway_rejects_and_backpressures(self, tmp_path):
        service = PredictionService(
            tmp_path / "spool",
            lease_timeout=5.0,
            housekeep_interval=0.5,
            max_active=1,
        )
        (host, port), _fleet = service.start()
        base = f"http://{host}:{port}"
        try:
            # malformed body -> 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                req = urllib.request.Request(
                    base + "/plans", data=b"{nope", method="POST"
                )
                urllib.request.urlopen(req)
            assert excinfo.value.code == 400
            # well-formed JSON, malformed plan -> 400, not 500
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    base + "/plans",
                    {"plan": {"cases": [{"case": "grassland"}]}},
                )
            assert excinfo.value.code == 400
            # unknown plan -> 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/plans/feedfacedead")
            assert excinfo.value.code == 404
            # full queue -> 429 with a Retry-After hint
            status, _ = _post(
                base + "/plans", {"plan": _plan(name="one").to_dict()}
            )
            assert status == 201
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    base + "/plans",
                    {"plan": _plan(name="two").to_dict()},
                )
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            service.close()

    def test_read_only_routes_match_the_obs_server(self, tmp_path):
        """The gateway and an :class:`ObsHTTPServer` over the same queue
        answer ``/healthz`` with the same body and ``/status`` with the
        same keys: both go through one route function."""
        service = PredictionService(tmp_path / "spool", housekeep_interval=0.5)
        (host, port), _fleet = service.start()
        server = ObsHTTPServer(port=0, status=service.queue.status)
        obs_host, obs_port = server.start()
        try:
            _post(f"http://{host}:{port}/plans", {"plan": _plan().to_dict()})
            answers = []
            for base in (
                f"http://{host}:{port}",
                f"http://{obs_host}:{obs_port}",
            ):
                with urllib.request.urlopen(base + "/healthz") as resp:
                    healthz = resp.read()
                _, status = _get(base + "/status")
                answers.append((healthz, sorted(status)))
        finally:
            server.close()
            service.close()
        assert answers[0] == answers[1]
        assert answers[0][0] == b"ok\n"
        assert {"plans", "workers"} <= set(answers[0][1])

    def test_service_restart_resumes_spool_and_costs(self, tmp_path):
        """Stop a service mid-queue; its heir re-admits the spooled
        plan, reloads the cost snapshot, and a worker completes the
        run with the records recorded before the restart intact."""
        plan = _plan(name="survivor", seeds=(0, 1))
        first = PredictionService(
            tmp_path / "spool", lease_timeout=5.0, housekeep_interval=0.2
        )
        (host, port), _fleet = first.start()
        status, job = _post(
            f"http://{host}:{port}/plans",
            {"plan": plan.to_dict(), "tenant": "alice"},
        )
        assert status == 201
        first.close()
        assert (tmp_path / "spool" / "costs.json").exists()

        second = PredictionService(
            tmp_path / "spool",
            lease_timeout=10.0,
            poll_interval=0.05,
            housekeep_interval=0.2,
        )
        (host, port), fleet = second.start()
        base = f"http://{host}:{port}"
        try:
            _, revived = _get(base + f"/plans/{job['id']}")
            assert revived["status"] == "queued"
            worker = threading.Thread(
                target=run_worker,
                args=(fleet,),
                kwargs={"worker_id": "heir-w0", "poll_interval": 0.05},
            )
            worker.start()
            deadline = time.time() + 120
            while time.time() < deadline:
                _, snap = _get(base + f"/plans/{job['id']}")
                if snap["status"] == "done":
                    break
                time.sleep(0.2)
            assert snap["status"] == "done"
            _post(base + "/workers/heir-w0/drain")
            worker.join(timeout=60)
        finally:
            second.close()
        served = ResultsStore(
            tmp_path / "spool" / "stores" / f"{job['id']}.jsonl"
        )
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        assert _normalized(served) == _normalized(inline)


# ----------------------------------------------------------------------
# Drain is lossless: mid-run retirement requeues and duplicates nothing
# ----------------------------------------------------------------------
class TestDrainLifecycle:
    def test_mid_run_drain_loses_and_duplicates_nothing(self, tmp_path):
        """Retire one of two workers after its first completed unit.
        The drained worker exits gracefully (``drained: true``), the
        survivor finishes the plan, zero cells requeue, and the store
        matches an inline run record for record."""
        plan = _plan(seeds=tuple(range(6)))  # 12 cells to spread
        store = ResultsStore(tmp_path / "coord.jsonl")
        summaries: list[dict] = []
        errors: list[Exception] = []
        threads: list[threading.Thread] = []
        drained_once = threading.Event()
        address_box: dict = {}

        def drain_after_first_complete(_group: int) -> None:
            # fires on w0's thread right after its first complete
            # exchange: the drain lands mid-run, deterministically
            if not drained_once.is_set():
                drained_once.set()
                reply = fleet_request(
                    address_box["addr"],
                    {"type": "drain", "target": "drain-w0"},
                )
                assert reply.get("type") == "ok"

        def worker(index: int) -> None:
            try:
                summaries.append(
                    run_worker(
                        address_box["addr"],
                        store_path=tmp_path / f"worker{index}",
                        worker_id=f"drain-w{index}",
                        poll_interval=0.05,
                        after_complete=(
                            drain_after_first_complete
                            if index == 0
                            else None
                        ),
                    )
                )
            except Exception as exc:
                errors.append(exc)

        def on_bound(address):
            address_box["addr"] = address
            for index in range(2):
                thread = threading.Thread(target=worker, args=(index,))
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
        assert not errors, errors
        assert drained_once.is_set()
        # a drain moves zero cells: nothing requeued, nothing lost
        assert executor.requeues == 0
        assert len(result.records) == plan.n_runs
        by_worker = {s["worker"]: s for s in summaries}
        assert by_worker["drain-w0"]["drained"] is True
        assert by_worker["drain-w1"]["drained"] is False  # saw "done"
        # every expected cell exactly once in the coordinator store
        keys = [record_key(r) for r in store.records()]
        assert len(keys) == len(set(keys)) == plan.n_runs
        # and byte-for-byte what an inline run records
        inline = ResultsStore(tmp_path / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        assert _normalized(store) == _normalized(inline)
