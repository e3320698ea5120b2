"""Engine backends — throughput of the batched simulation engine.

Compares the ``reference`` and ``vectorized`` kernels in-process, and
the vectorized kernel in a 2-worker pool (``vectorized x2``), on the
synthetic (homogeneous grassland), mosaic (random fuel patches) and
ridge (heterogeneous slope/aspect rasters) workloads at GA-realistic
population sizes, measures what the scenario-result cache adds under an
elitist duplicate pattern, and times per-step engines against one
persistent run-scoped :class:`~repro.engine.EngineSession`.

Acceptance bars (asserted here): on the synthetic workload at
population ≥ 64 the vectorized backend is ≥ 3× faster than the
reference backend; on the heterogeneous-raster workload it is ≥ 2×;
both with bitwise-identical fitness values. The persistent session is
strictly faster than per-step engines on a 2-worker pool.

``smoke_*`` functions run the same comparisons at tiny sizes with no
timing assertions; ``tests/test_bench_engine_smoke.py`` wires them into
the tier-1 pytest run so backend regressions fail fast.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.scenario import ParameterSpace, Scenario
from repro.engine import EngineSession, SimulationEngine
from repro.grid.terrain import Terrain
from repro.systems.problem import PredictionStepProblem
from repro.workloads.cases import grassland_case
from repro.workloads.mosaic import random_fuel_mosaic
from repro.workloads.synthetic import ReferenceFire, make_reference_fire

SPACE = ParameterSpace()

#: Duplicate fraction injected into cache batches (elitism-like reuse).
_DUP_FRACTION = 0.25


def _mosaic_fire(size: int, n_steps: int = 2, seed: int = 3) -> ReferenceFire:
    terrain = random_fuel_mosaic(size, size, rng=seed)
    scenario = Scenario(
        model=1, wind_speed=8.0, wind_dir=90.0, m1=6.0, m10=8.0,
        m100=10.0, mherb=60.0, slope=5.0, aspect=270.0,
    )
    return make_reference_fire(
        terrain,
        scenario,
        ignition=[(size // 2, size // 4)],
        n_steps=n_steps,
        step_minutes=25.0,
        description=f"mosaic {size}x{size}",
    )


def _ridge_fire(size: int, n_steps: int = 2) -> ReferenceFire:
    """Heterogeneous slope/aspect rasters (the batched raster path)."""
    terrain = Terrain.with_ridge(size, size, max_slope=35.0)
    scenario = Scenario(
        model=1, wind_speed=8.0, wind_dir=90.0, m1=6.0, m10=8.0,
        m100=10.0, mherb=60.0, slope=5.0, aspect=270.0,
    )
    return make_reference_fire(
        terrain,
        scenario,
        ignition=[(size // 2, size // 4)],
        n_steps=n_steps,
        step_minutes=25.0,
        description=f"ridge {size}x{size}",
    )


def _step_problem(fire: ReferenceFire) -> PredictionStepProblem:
    return PredictionStepProblem(
        terrain=fire.terrain,
        start_burned=fire.start_mask(1),
        real_burned=fire.real_mask(1),
        horizon=fire.step_horizon(1),
    )


def _label(backend: str, n_workers: int) -> str:
    """Row label: the kernel name, suffixed ``xN`` when pooled."""
    return backend if n_workers == 1 else f"{backend} x{n_workers}"


def _time_backend(
    problem: PredictionStepProblem,
    backend: str,
    n_workers: int,
    genomes: np.ndarray,
    repeats: int,
) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` wall-clock and the fitness vector."""
    best = float("inf")
    values = None
    for _ in range(repeats):
        with SimulationEngine.from_problem(
            problem, backend=backend, n_workers=n_workers
        ) as engine:
            start = time.perf_counter()
            values = engine(genomes)
            best = min(best, time.perf_counter() - start)
    assert values is not None
    return best, values


def compare_backends(
    fire: ReferenceFire,
    population: int,
    seed: int = 7,
    repeats: int = 1,
    backends: tuple[tuple[str, int], ...] = (
        ("reference", 1),
        ("vectorized", 1),
        ("vectorized", 2),
    ),
) -> list[dict]:
    """Time each ``(kernel, n_workers)`` on one batch; assert equal fitness."""
    problem = _step_problem(fire)
    genomes = SPACE.sample(population, seed)
    rows: list[dict] = []
    baseline = None
    for backend, n_workers in backends:
        seconds, values = _time_backend(
            problem, backend, n_workers, genomes, repeats
        )
        label = _label(backend, n_workers)
        if baseline is None:
            baseline = (seconds, values)
        else:
            assert np.array_equal(values, baseline[1]), (
                f"{label} fitness differs from {_label(*backends[0])}"
            )
        rows.append(
            {
                "workload": fire.description,
                "backend": label,
                "population": population,
                "seconds": seconds,
                "speedup": baseline[0] / seconds,
                "evals_per_sec": population / seconds,
            }
        )
    return rows


def session_rows(
    fire: ReferenceFire,
    population: int,
    n_steps: int = 3,
    seed: int = 13,
    backend: str = "vectorized",
    n_workers: int = 2,
    repeats: int = 1,
) -> list[dict]:
    """Per-step engines vs one persistent session over a step loop.

    Both modes evaluate the identical genome batch at every step; the
    per-step mode pays an engine (and pool) construction per step, the
    session mode forks once and ships each step's terrain to the
    standing workers as an update message.
    """
    problems = [
        PredictionStepProblem(
            terrain=fire.terrain,
            start_burned=fire.start_mask(s),
            real_burned=fire.real_mask(s),
            horizon=fire.step_horizon(s),
        )
        for s in range(1, min(n_steps, fire.n_steps) + 1)
    ]
    genomes = SPACE.sample(population, seed)

    def run_per_step() -> np.ndarray:
        values = []
        for problem in problems:
            with SimulationEngine.from_problem(
                problem, backend=backend, n_workers=n_workers
            ) as engine:
                values.append(engine(genomes))
        return np.concatenate(values)

    def run_session() -> np.ndarray:
        values = []
        with EngineSession(backend=backend, n_workers=n_workers) as session:
            for problem in problems:
                engine = session.for_step(problem)
                values.append(engine(genomes))
                engine.close()
        return np.concatenate(values)

    rows = []
    baseline = None
    for mode, fn in (("per-step engines", run_per_step), ("session", run_session)):
        best = float("inf")
        values = None
        for _ in range(repeats):
            start = time.perf_counter()
            values = fn()
            best = min(best, time.perf_counter() - start)
        assert values is not None
        if baseline is None:
            baseline = (best, values)
        else:
            assert np.array_equal(values, baseline[1]), (
                f"{mode} fitness differs from per-step engines"
            )
        rows.append(
            {
                "workload": fire.description,
                "mode": mode,
                "backend": _label(backend, n_workers),
                "steps": len(problems),
                "population": population,
                "seconds": best,
                "speedup": baseline[0] / best,
            }
        )
    return rows


def sweep_session_rows(
    size: int = 32,
    steps: int = 2,
    population: int = 16,
    generations: int = 3,
    seeds: tuple[int, ...] = (0, 1),
    backend: str = "vectorized",
    n_workers: int = 1,
    session_cache: int = 4096,
    repeats: int = 1,
) -> list[dict]:
    """Shared-session sweep vs per-system sessions over a 2-system grid.

    Both modes execute the identical ESS + ESS-NS × seeds grid: the
    shared mode through the experiment runner (one
    :class:`~repro.engine.EngineSession` per (case, backend) group), the
    per-system mode as direct ``system.run`` calls, each building its
    own session. Cross-system repeats of the same step context skip the
    simulator, and with ``n_workers > 1`` the group forks **one** worker
    pool where per-system sessions fork one per run. Fitness
    trajectories are asserted bitwise-identical between the modes.
    """
    from repro.experiments import (
        BudgetSpec,
        CaseSpec,
        ExperimentPlan,
        ExperimentRunner,
    )

    plan = ExperimentPlan(
        name="bench-sweep",
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("grassland", size=size, steps=steps),),
        seeds=tuple(seeds),
        backends=(backend,),
        budget=BudgetSpec(
            population=population,
            generations=generations,
            n_workers=n_workers,
            session_cache_size=session_cache,
        ),
    )

    def per_system_sessions() -> list:
        return [
            plan.build_system(k.system, k.backend).run(
                plan.cases[0].build(), rng=k.seed
            )
            for k in plan.runs()
        ]

    def shared_session() -> list:
        return ExperimentRunner().run(plan).runs()

    modes = (
        ("per-system sessions", per_system_sessions),
        ("shared session", shared_session),
    )
    best = {mode: float("inf") for mode, _ in modes}
    results = {}
    # repeats are interleaved so clock drift and machine warm-up hit
    # both modes equally
    for _ in range(repeats):
        for mode, execute in modes:
            start = time.perf_counter()
            results[mode] = execute()
            best[mode] = min(best[mode], time.perf_counter() - start)
    baseline_mode = modes[0][0]
    baseline_qualities = [run.qualities() for run in results[baseline_mode]]
    rows = []
    for mode, _ in modes:
        runs = results[mode]
        for ours, theirs in zip(
            [run.qualities() for run in runs], baseline_qualities
        ):
            assert np.array_equal(ours, theirs, equal_nan=True), (
                f"{mode} qualities differ from {baseline_mode}"
            )
        rows.append(
            {
                "workload": f"grassland {size}x{size}",
                "mode": mode,
                "backend": _label(backend, n_workers),
                "runs": len(runs),
                "population": population,
                "seconds": best[mode],
                "speedup": best[baseline_mode] / best[mode],
                "simulations": sum(
                    int(step.engine.get("simulations", 0))
                    for run in runs
                    for step in run.steps
                ),
                "cross_system_hits": sum(
                    int(run.session.get("cross_system_hits", 0))
                    for run in runs
                ),
            }
        )
    return rows


def sweep_session_table(rows: list[dict]) -> str:
    return format_table(
        ["workload", "mode", "runs", "pop", "sims", "x-sys hits", "sec", "speedup"],
        [
            [
                r["workload"],
                r["mode"],
                r["runs"],
                r["population"],
                r["simulations"],
                r["cross_system_hits"],
                round(r["seconds"], 4),
                round(r["speedup"], 2),
            ]
            for r in rows
        ],
    )


def cache_rows(fire: ReferenceFire, population: int, seed: int = 11) -> list[dict]:
    """Vectorized backend with/without the cache on a duplicate-heavy batch."""
    problem = _step_problem(fire)
    rng = np.random.default_rng(seed)
    genomes = SPACE.sample(population, seed)
    n_dup = max(1, int(population * _DUP_FRACTION))
    genomes[rng.choice(population, n_dup, replace=False)] = genomes[0]
    rows = []
    for cache_size in (0, 4 * population):
        # the per-step tier: a one-step SessionResultCache view
        with EngineSession(
            backend="vectorized", cache_size=cache_size
        ).for_step(problem) as engine:
            start = time.perf_counter()
            engine(genomes)
            engine(genomes)  # the next generation resubmits survivors
            seconds = time.perf_counter() - start
            stats = engine.stats
        rows.append(
            {
                "workload": fire.description,
                "cache": cache_size,
                "evaluations": stats.evaluations,
                "simulations": stats.simulations,
                "hit_rate": stats.cache.hit_rate(),
                "seconds": seconds,
            }
        )
    return rows


def backend_table(rows: list[dict]) -> str:
    return format_table(
        ["workload", "backend", "pop", "sec", "speedup", "evals/s"],
        [
            [
                r["workload"],
                r["backend"],
                r["population"],
                round(r["seconds"], 4),
                round(r["speedup"], 2),
                round(r["evals_per_sec"], 1),
            ]
            for r in rows
        ],
    )


def cache_table(rows: list[dict]) -> str:
    return format_table(
        ["workload", "cache", "evals", "sims", "hit rate", "sec"],
        [
            [
                r["workload"],
                r["cache"],
                r["evaluations"],
                r["simulations"],
                round(r["hit_rate"], 3),
                round(r["seconds"], 4),
            ]
            for r in rows
        ],
    )


def session_table(rows: list[dict]) -> str:
    return format_table(
        ["workload", "mode", "backend", "steps", "pop", "sec", "speedup"],
        [
            [
                r["workload"],
                r["mode"],
                r["backend"],
                r["steps"],
                r["population"],
                round(r["seconds"], 4),
                round(r["speedup"], 2),
            ]
            for r in rows
        ],
    )


# ----------------------------------------------------------------------
# Smoke mode — tiny grids, 2 generations; wired into tier-1 pytest.
# ----------------------------------------------------------------------
def smoke_backends() -> list[dict]:
    """All backends agree bitwise on tiny synthetic/mosaic/ridge workloads."""
    from _report import bench_json

    rows = []
    rows += compare_backends(
        grassland_case(size=24, n_steps=2), population=12, repeats=1
    )
    rows += compare_backends(_mosaic_fire(20), population=12, repeats=1)
    rows += compare_backends(_ridge_fire(20), population=12, repeats=1)
    bench_json(
        "engine",
        "backends_smoke",
        {"workload": dict(population=12, repeats=1), "rows": rows},
    )
    return rows


def smoke_session() -> list[dict]:
    """Persistent session agrees bitwise with per-step engines."""
    from _report import bench_json

    rows = session_rows(
        grassland_case(size=20, n_steps=2), population=8, n_steps=2
    )
    bench_json(
        "engine",
        "session_smoke",
        {
            "workload": dict(size=20, population=8, n_steps=2),
            "rows": rows,
        },
    )
    return rows


def smoke_shared_sweep() -> list[dict]:
    """Shared-session sweeps agree bitwise and actually reuse across
    systems (no timing assertions at smoke sizes)."""
    from _report import bench_json

    rows = sweep_session_rows(
        size=20, steps=2, population=8, generations=2, seeds=(0,)
    )
    bench_json(
        "engine",
        "shared_sweep_smoke",
        {
            "workload": dict(
                size=20, steps=2, population=8, generations=2, seeds=[0]
            ),
            "rows": rows,
        },
    )
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["shared session"]["cross_system_hits"] > 0
    assert by_mode["per-system sessions"]["cross_system_hits"] == 0
    assert (
        by_mode["shared session"]["simulations"]
        < by_mode["per-system sessions"]["simulations"]
    )
    return rows


def smoke_pipeline() -> None:
    """A 2-generation ESS run is backend- and session-invariant end to end."""
    from repro.ea.ga import GAConfig
    from repro.systems import ESS, ESSConfig

    fire = grassland_case(size=24, n_steps=2)

    def run(backend: str, cache_size: int = 0, session_cache_size: int = 0):
        return ESS(
            ESSConfig(ga=GAConfig(population_size=8), max_generations=2),
            backend=backend,
            cache_size=cache_size,
            session_cache_size=session_cache_size,
        ).run(fire, rng=1)

    ref = run("reference")
    vec = run("vectorized")
    assert np.array_equal(ref.qualities(), vec.qualities(), equal_nan=True)
    assert [s.kign for s in ref.steps] == [s.kign for s in vec.steps]
    cached = run("vectorized", cache_size=256)
    assert cached.engine_totals()["simulations"] <= cached.engine_totals()[
        "evaluations"
    ]
    session = run("vectorized", session_cache_size=1024)
    assert np.array_equal(ref.qualities(), session.qualities(), equal_nan=True)
    assert session.session["steps"] == fire.n_steps


# ----------------------------------------------------------------------
# Full benchmark (pytest-benchmark harness)
# ----------------------------------------------------------------------
def test_engine_backend_comparison_report(benchmark):
    from _report import bench_json, report, run_once

    def _body():
        rows = []
        synthetic = grassland_case(size=64, n_steps=2)
        for population in (64, 128):
            rows += compare_backends(synthetic, population, repeats=3)
        mosaic = _mosaic_fire(48)
        rows += compare_backends(mosaic, 64, repeats=3)
        ridge = _ridge_fire(48)
        for population in (64, 128):
            rows += compare_backends(ridge, population, repeats=3)

        crows = cache_rows(synthetic, 64) + cache_rows(mosaic, 64)
        srows = session_rows(
            grassland_case(size=48, n_steps=3), population=64, n_steps=3,
            repeats=3,
        )
        swrows = sweep_session_rows(
            size=40, steps=3, population=32, generations=4, seeds=(0, 1),
            backend="vectorized", n_workers=2, repeats=3,
        )
        text = (
            backend_table(rows)
            + "\n\nscenario-result cache (25% duplicates, 2 generations):\n"
            + cache_table(crows)
            + "\n\nper-step engines vs persistent EngineSession "
            + "(vectorized kernel, 2 workers):\n"
            + session_table(srows)
            + "\n\nexperiment sweeps: per-system sessions vs one shared "
            + "session per (case, backend) group (vectorized kernel, 2 "
            + "workers):\n"
            + sweep_session_table(swrows)
        )
        report("engine_backends", text)
        bench_json(
            "engine",
            "backends",
            {
                "workload": dict(populations=[64, 128], repeats=3),
                "rows": rows,
            },
        )
        bench_json(
            "engine",
            "cache",
            {
                "workload": dict(population=64, dup_fraction=_DUP_FRACTION),
                "rows": crows,
            },
        )
        bench_json(
            "engine",
            "session",
            {
                "workload": dict(
                    size=48, population=64, n_steps=3, repeats=3
                ),
                "rows": srows,
            },
        )
        bench_json(
            "engine",
            "shared_sweep",
            {
                "workload": dict(
                    size=40, steps=3, population=32, generations=4,
                    seeds=[0, 1], backend="vectorized", n_workers=2,
                    repeats=3,
                ),
                "rows": swrows,
            },
        )

        # Acceptance bars: ≥ 3× on the synthetic workload at pop ≥ 64,
        # ≥ 2× on the heterogeneous-raster workload at pop ≥ 64.
        synth = [
            r
            for r in rows
            if r["backend"] == "vectorized" and "grassland" in r["workload"]
        ]
        worst = min(r["speedup"] for r in synth)
        assert worst >= 3.0, f"vectorized speedup {worst:.2f}x < 3x"
        hetero = [
            r
            for r in rows
            if r["backend"] == "vectorized" and "ridge" in r["workload"]
        ]
        worst_h = min(r["speedup"] for r in hetero)
        assert worst_h >= 2.0, (
            f"heterogeneous-raster vectorized speedup {worst_h:.2f}x < 2x"
        )
        # Acceptance bar: the persistent session beats per-step engines.
        by_mode = {r["mode"]: r["seconds"] for r in srows}
        assert by_mode["session"] < by_mode["per-step engines"], (
            f"session {by_mode['session']:.4f}s not faster than "
            f"per-step engines {by_mode['per-step engines']:.4f}s"
        )
        # Acceptance bar: a shared-session sweep costs no more wall time
        # than per-system sessions (it strictly skips simulations).
        by_sweep = {r["mode"]: r["seconds"] for r in swrows}
        assert (
            by_sweep["shared session"] <= by_sweep["per-system sessions"]
        ), (
            f"shared-session sweep {by_sweep['shared session']:.4f}s slower "
            f"than per-system sessions "
            f"{by_sweep['per-system sessions']:.4f}s"
        )
        cross = {r["mode"]: r["cross_system_hits"] for r in swrows}
        assert cross["shared session"] > 0
        return rows

    run_once(benchmark, _body)
