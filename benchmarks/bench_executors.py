"""Executor comparison: inline vs ``--shards 2`` vs a loopback fleet.

Measures the wall-clock of the same experiment plan run inline, by
:class:`~repro.distributed.executors.ProcessShardExecutor` (a fleet
that starts its own two loopback workers) and by a
:class:`~repro.distributed.executors.FleetExecutor` with two workers
forked here, and verifies their stores agree bitwise (wall-clock
timing fields excluded). The two multi-process rows parallelise over
cells leased by the same coordinator, so their advantage grows with
the number of cells and the per-cell cost; both pay the TCP
lease/drain round-trips, which this bench shows to be negligible
against real simulation work.

``few_big_groups_rows`` measures the fleet's scheduling on a
one-case/many-seeds plan (a single ``(case, backend)`` group, the shape
that needs within-group work stealing to occupy a fleet): cost-aware
leases (predictive packing, capacity-sized leases, piggybacked
granting). It reports each worker's busy time against the run's
wall-clock (how much fleet capacity sat idle) plus the coordinator's
per-worker round-trip count (how much of the run was spent talking
instead of working). The retired whole-group and halving policies
measured 1.94 s / 0.86 s idle and 42 / 32 round-trips on the full-size
row where cost-aware leases measured 0.44 s and 17 (see README).

``smoke_executors`` / ``smoke_few_big_groups`` run the same
comparisons at tiny sizes with no timing assertions — the
distributed-smoke CI job calls them.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from pathlib import Path

from repro.distributed import (
    FleetExecutor,
    InlineExecutor,
    ProcessShardExecutor,
    run_worker,
)
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
)
from repro.experiments.store import parity_view, record_key


def _plan(
    size: int, steps: int, population: int, generations: int, seeds
) -> ExperimentPlan:
    return ExperimentPlan(
        name="bench-executors",
        systems=("ess", "ess-ns"),
        cases=(
            CaseSpec("grassland", size=size, steps=steps),
            CaseSpec("river_gap", size=size, steps=steps),
        ),
        seeds=tuple(seeds),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=population,
            generations=generations,
            session_cache_size=4096,
        ),
    )


def _fingerprint(store: ResultsStore) -> list[dict]:
    """Sorted records in the shared scheduling-free parity view."""
    return [
        parity_view(r) for r in sorted(store.records(), key=record_key)
    ]


def _run_fleet(plan: ExperimentPlan, store: ResultsStore, workdir: Path):
    """Loopback coordinator + two worker processes."""
    ctx = multiprocessing.get_context("fork")
    procs: list = []

    def on_bound(address):
        for i in range(2):
            proc = ctx.Process(
                target=run_worker,
                args=(address,),
                kwargs=dict(
                    store_path=str(workdir / f"fleet-worker{i}"),
                    worker_id=f"bench-w{i}",
                ),
            )
            proc.start()
            procs.append(proc)

    executor = FleetExecutor(
        lease_timeout=60.0, poll_interval=0.05, timeout=3600.0,
        on_bound=on_bound,
    )
    try:
        ExperimentRunner(store=store).run(plan, executor=executor)
    finally:
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():  # pragma: no cover - bench hygiene
                proc.kill()


def executor_rows(
    size: int = 28,
    steps: int = 2,
    population: int = 16,
    generations: int = 3,
    seeds=(0, 1),
) -> list[dict]:
    """Time the three executors on one plan; assert store parity."""
    plan = _plan(size, steps, population, generations, seeds)
    rows: list[dict] = []
    fingerprints: list = []
    with tempfile.TemporaryDirectory(prefix="bench-executors-") as tmp:
        workdir = Path(tmp)
        for label, run in (
            (
                "inline",
                lambda store: ExperimentRunner(store=store).run(
                    plan, executor=InlineExecutor()
                ),
            ),
            (
                "process x2",
                lambda store: ExperimentRunner(store=store).run(
                    plan, executor=ProcessShardExecutor(2)
                ),
            ),
            (
                "fleet x2 (loopback)",
                lambda store: _run_fleet(plan, store, workdir),
            ),
        ):
            store = ResultsStore(
                workdir / f"{label.split()[0]}.jsonl"
            )
            start = time.perf_counter()
            run(store)
            elapsed = time.perf_counter() - start
            fingerprints.append(_fingerprint(store))
            rows.append(
                {
                    "executor": label,
                    "seconds": elapsed,
                    "records": len(store.records()),
                }
            )
        reference = fingerprints[0]
        for label_rows, fingerprint in zip(rows, fingerprints):
            assert fingerprint == reference, (
                f"{label_rows['executor']} diverged from inline"
            )
    baseline = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = baseline / row["seconds"]
    return rows


def executor_table(rows: list[dict]) -> str:
    header = f"{'executor':<22}{'records':>8}{'seconds':>10}{'speedup':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['executor']:<22}{row['records']:>8}"
            f"{row['seconds']:>10.2f}{row['speedup']:>9.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Few-big-groups mode — idle-worker time and round-trips of cell leasing.
# ----------------------------------------------------------------------
def _summary_worker(address, store_path, worker_id, queue) -> None:
    queue.put(run_worker(address, store_path=store_path, worker_id=worker_id))


def _run_fleet_collecting(
    plan: ExperimentPlan,
    store: ResultsStore,
    workdir: Path,
    workers: int,
    label: str,
) -> tuple[float, list[dict], FleetExecutor]:
    """One fleet run; returns (wall seconds, worker summaries, executor)."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs: list = []

    def on_bound(address):
        for i in range(workers):
            proc = ctx.Process(
                target=_summary_worker,
                args=(
                    address,
                    str(workdir / f"{label}-w{i}"),
                    f"{label}-w{i}",
                    queue,
                ),
            )
            proc.start()
            procs.append(proc)

    executor = FleetExecutor(
        lease_timeout=60.0,
        poll_interval=0.05,
        timeout=3600.0,
        on_bound=on_bound,
    )
    start = time.perf_counter()
    try:
        ExperimentRunner(store=store).run(plan, executor=executor)
    finally:
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():  # pragma: no cover - bench hygiene
                proc.kill()
    wall = time.perf_counter() - start
    summaries = [queue.get(timeout=10) for _ in procs]
    return wall, summaries, executor


def few_big_groups_rows(
    size: int = 28,
    steps: int = 2,
    population: int = 16,
    generations: int = 3,
    n_seeds: int = 6,
    workers: int = 3,
) -> list[dict]:
    """Idle-worker time on a one-group plan under cost-aware leases.

    The plan has a single ``(case, backend)`` group (one case, many
    seeds), so only within-group work stealing can occupy the fleet:
    cost-aware scheduling packs it predictively, sizes leases to
    measured worker throughput and piggybacks granting on the complete
    reports (one round-trip per unit at steady state). The row reports
    wall clock, summed worker busy time, the implied idle time
    (``workers * wall - busy``) and the coordinator's round-trip
    accounting; the store must agree bitwise with an inline run in the
    parity view.
    """
    plan = ExperimentPlan(
        name="bench-few-big-groups",
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("grassland", size=size, steps=steps),),
        seeds=tuple(range(n_seeds)),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=population,
            generations=generations,
            session_cache_size=4096,
        ),
    )
    with tempfile.TemporaryDirectory(prefix="bench-few-big-") as tmp:
        workdir = Path(tmp)
        inline = ResultsStore(workdir / "inline.jsonl")
        ExperimentRunner(store=inline).run(plan)
        store = ResultsStore(workdir / "cost.jsonl")
        wall, summaries, executor = _run_fleet_collecting(
            plan, store, workdir, workers, "cost"
        )
        assert _fingerprint(store) == _fingerprint(inline), (
            "cost-aware units diverged from inline"
        )
        records = len(store.records())
    busy = sum(s["busy_seconds"] for s in summaries)
    stats = executor.worker_stats.values()
    return [
        {
            "mode": "cost-aware units",
            "scheduling": "cost",
            "workers": workers,
            "seconds": wall,
            "busy_seconds": busy,
            "idle_seconds": max(workers * wall - busy, 0.0),
            "units_per_worker": sorted(s["units"] for s in summaries),
            "steals": executor.steals,
            # wire-exchange accounting: total worker requests and how
            # many of them were pure lease asks — the overhead
            # piggybacked granting exists to cut
            "round_trips": sum(s["round_trips"] for s in stats),
            "lease_requests": sum(s["lease_requests"] for s in stats),
            "piggybacked": sum(s["piggybacked"] for s in stats),
            "records": records,
        }
    ]


def few_big_groups_table(rows: list[dict]) -> str:
    header = (
        f"{'mode':<18}{'records':>8}{'seconds':>10}{'busy':>8}"
        f"{'idle':>8}{'steals':>8}{'trips':>7}  units/worker"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['mode']:<18}{row['records']:>8}{row['seconds']:>10.2f}"
            f"{row['busy_seconds']:>8.2f}{row['idle_seconds']:>8.2f}"
            f"{row['steals']:>8}{row['round_trips']:>7}  "
            f"{row['units_per_worker']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Smoke mode — tiny grid, parity only (the distributed-smoke CI job).
# ----------------------------------------------------------------------
def smoke_executors() -> list[dict]:
    """All three executors agree bitwise on a tiny 2-group plan."""
    from _report import bench_json

    workload = dict(size=20, steps=2, population=8, generations=2, seeds=[0])
    rows = executor_rows(
        size=20, steps=2, population=8, generations=2, seeds=(0,)
    )
    bench_json(
        "executors", "executors_smoke", {"workload": workload, "rows": rows}
    )
    return rows


def smoke_few_big_groups() -> list[dict]:
    """Cost-aware leases agree bitwise with inline on a tiny one-group
    plan, and at least one lease actually rides a complete reply (the
    timing-free, CI-safe half of the round-trip claim)."""
    from _report import bench_json

    workload = dict(
        size=20, steps=2, population=8, generations=2, n_seeds=4, workers=2
    )
    rows = few_big_groups_rows(
        size=20, steps=2, population=8, generations=2, n_seeds=4, workers=2
    )
    assert rows[0]["piggybacked"] > 0, "no lease was piggybacked"
    bench_json(
        "executors",
        "few_big_groups_smoke",
        {"workload": workload, "rows": rows},
    )
    return rows


# ----------------------------------------------------------------------
# Full benchmark (pytest-benchmark harness)
# ----------------------------------------------------------------------
def test_executor_comparison_report(benchmark):
    from _report import bench_json, report, run_once

    def _body():
        rows = executor_rows()
        report("bench_executors", executor_table(rows))
        bench_json(
            "executors",
            "executors",
            {
                "workload": dict(
                    size=28, steps=2, population=16, generations=3,
                    seeds=[0, 1],
                ),
                "rows": rows,
            },
        )
        return rows

    rows = run_once(benchmark, _body)
    assert all(row["records"] == rows[0]["records"] for row in rows)


def test_few_big_groups_report(benchmark):
    from _report import bench_json, report, run_once

    def _body():
        rows = few_big_groups_rows()
        report("bench_few_big_groups", few_big_groups_table(rows))
        bench_json(
            "executors",
            "few_big_groups",
            {
                "workload": dict(
                    size=28, steps=2, population=16, generations=3,
                    n_seeds=6, workers=3,
                ),
                "rows": rows,
            },
        )
        return rows

    [row] = run_once(benchmark, _body)
    assert row["records"] == 12
    assert row["piggybacked"] > 0, "no lease was piggybacked"


if __name__ == "__main__":  # pragma: no cover - manual invocation
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--few-big-groups",
        action="store_true",
        help="run only the few-big-groups scheduling row and record it "
        "under benchmarks/reports/ (the full-size row the committed "
        "BENCH report keeps)",
    )
    cli = ap.parse_args()
    if cli.few_big_groups:
        from _report import bench_json, report

        fbg_rows = few_big_groups_rows()
        report("bench_few_big_groups", few_big_groups_table(fbg_rows))
        bench_json(
            "executors",
            "few_big_groups",
            {
                "workload": dict(
                    size=28, steps=2, population=16, generations=3,
                    n_seeds=6, workers=3,
                ),
                "rows": fbg_rows,
            },
        )
        print(few_big_groups_table(fbg_rows))
    else:
        print(executor_table(executor_rows()))
        print()
        print(few_big_groups_table(few_big_groups_rows()))
