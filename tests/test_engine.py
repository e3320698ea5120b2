"""Tests for the batched simulation engine (facade, backends, cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reporting import format_engine_totals
from repro.core.scenario import ParameterSpace
from repro.engine import (
    EngineSession,
    ProcessBackend,
    SessionResultCache,
    SimulationEngine,
    StepSpec,
    backend_names,
    create_backend,
)
from repro.engine.cache import CacheStats
from repro.errors import ParallelError, ReproError, SimulationError
from repro.systems.results import RunResult, StepResult

SPACE = ParameterSpace()


@pytest.fixture()
def spec(step1_problem) -> StepSpec:
    p = step1_problem
    return StepSpec(
        terrain=p.terrain,
        start_burned=p.start_burned,
        real_burned=p.real_burned,
        horizon=p.horizon,
        space=p.space,
    )


def _view(capacity: int = 0, decimals: int = 8):
    """A one-step view onto a fresh result cache (the per-step tier)."""
    return SessionResultCache(capacity=capacity, decimals=decimals).view(
        b"step", 1
    )


class TestCache:
    def test_disabled_by_default(self):
        store = SessionResultCache()
        cache = store.view(b"step", 1)
        assert not store.enabled and not cache.enabled
        key = cache.key(SPACE.sample(1, 0)[0])
        cache.put(key, 0.5)
        assert cache.get(key) is None
        assert len(store) == 0

    def test_hit_after_put(self):
        cache = _view(capacity=4)
        g = SPACE.sample(1, 1)[0]
        key = cache.key(g)
        assert cache.get(key) is None
        cache.put(key, 0.75)
        assert cache.get(key) == 0.75
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_quantization_merges_close_genomes(self):
        cache = _view(capacity=4, decimals=4)
        g = SPACE.sample(1, 2)[0]
        cache.put(cache.key(g), 0.5)
        assert cache.get(cache.key(g + 1e-9)) == 0.5
        assert cache.get(cache.key(g + 1e-2)) is None

    def test_negative_zero_folds_into_zero(self):
        cache = _view(capacity=2)
        assert cache.key(np.array([-0.0, 1.0])) == cache.key(np.array([0.0, 1.0]))

    def test_lru_eviction_order(self):
        cache = _view(capacity=2)
        keys = [cache.key(np.full(9, float(i))) for i in range(3)]
        cache.put(keys[0], 0.0)
        cache.put(keys[1], 1.0)
        assert cache.get(keys[0]) == 0.0  # refresh 0 → 1 becomes LRU
        cache.put(keys[2], 2.0)
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) == 0.0
        assert cache.stats.evictions == 1

    def test_invalid_params_raise(self):
        with pytest.raises(ReproError):
            SessionResultCache(capacity=-1)
        with pytest.raises(ReproError):
            SessionResultCache(capacity=1, decimals=-2)

    def test_stats_merge_and_rate(self):
        a = CacheStats(hits=3, misses=1)
        b = CacheStats(hits=1, misses=3, evictions=2)
        a.merge(b)
        assert (a.hits, a.misses, a.evictions) == (4, 4, 2)
        assert a.hit_rate() == 0.5
        assert CacheStats().hit_rate() == 0.0


class TestRegistry:
    def test_builtin_names(self):
        assert backend_names() == ("reference", "vectorized")

    def test_unknown_backend_raises(self, spec):
        for name in ("gpu", "process"):
            with pytest.raises(ReproError, match="unknown engine backend"):
                create_backend(name, spec)


class TestStepSpec:
    def test_validates_shapes_and_horizon(self, terrain):
        good = np.zeros(terrain.shape, dtype=bool)
        good[0, 0] = True
        with pytest.raises(SimulationError):
            StepSpec(terrain, np.zeros((2, 2), bool), good, 10.0, SPACE)
        with pytest.raises(SimulationError):
            StepSpec(terrain, good, np.zeros((2, 2), bool), 10.0, SPACE)
        with pytest.raises(SimulationError):
            StepSpec(terrain, np.zeros(terrain.shape, bool), good, 10.0, SPACE)
        with pytest.raises(SimulationError):
            StepSpec(terrain, good, good, 0.0, SPACE)
        with pytest.raises(SimulationError):
            StepSpec(terrain, good, good, float("inf"), SPACE)


class TestSimulationEngine:
    def test_callable_matches_problem(self, step1_problem):
        genomes = SPACE.sample(6, 3)
        engine = SimulationEngine.from_problem(step1_problem)
        direct = np.array(
            [step1_problem.evaluate_one(g) for g in genomes]
        )
        assert np.array_equal(engine(genomes), direct)
        assert engine.evaluations == 6
        assert engine.stats.simulations == 6

    def test_backends_bitwise_equal(self, step1_problem):
        genomes = SPACE.sample(10, 4)
        ref = SimulationEngine.from_problem(step1_problem, backend="reference")
        vec = SimulationEngine.from_problem(step1_problem, backend="vectorized")
        assert np.array_equal(ref(genomes), vec(genomes))
        assert np.array_equal(
            ref.burned_maps(genomes[:4]), vec.burned_maps(genomes[:4])
        )

    def test_unknown_backend_raises(self, step1_problem):
        with pytest.raises(ReproError):
            SimulationEngine.from_problem(step1_problem, backend="nope")

    def test_empty_batch(self, step1_problem):
        engine = SimulationEngine.from_problem(step1_problem)
        assert engine(np.zeros((0, 9))).shape == (0,)

    def test_cache_skips_repeat_simulations(self, step1_problem):
        engine = EngineSession(backend="vectorized", cache_size=64).for_step(
            step1_problem
        )
        genomes = SPACE.sample(5, 5)
        first = engine(genomes)
        second = engine(genomes)
        assert np.array_equal(first, second)
        assert engine.stats.evaluations == 10
        assert engine.stats.simulations == 5
        assert engine.cache_stats.hits == 5

    def test_cache_dedupes_within_batch(self, step1_problem):
        engine = EngineSession(backend="reference", cache_size=64).for_step(
            step1_problem
        )
        g = SPACE.sample(3, 6)
        batch = np.vstack([g, g])
        values = engine(batch)
        assert np.array_equal(values[:3], values[3:])
        assert engine.stats.simulations == 3

    def test_closed_engine_rejects_calls(self, step1_problem):
        engine = SimulationEngine.from_problem(step1_problem)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ParallelError):
            engine(SPACE.sample(1, 0))

    def test_process_backend_matches_serial(self, step1_problem):
        genomes = SPACE.sample(8, 8)
        expected = SimulationEngine.from_problem(step1_problem)(genomes)
        with SimulationEngine.from_problem(
            step1_problem, backend="vectorized", n_workers=2
        ) as engine:
            assert isinstance(engine._backend, ProcessBackend)
            assert np.array_equal(engine(genomes), expected)

    def test_n_workers_wraps_any_backend_in_pool(self, step1_problem):
        genomes = SPACE.sample(6, 9)
        expected = SimulationEngine.from_problem(step1_problem)(genomes)
        for backend in ("reference", "vectorized"):
            with SimulationEngine.from_problem(
                step1_problem, backend=backend, n_workers=2
            ) as engine:
                assert isinstance(engine._backend, ProcessBackend)
                assert engine._backend.inner == backend
                assert engine.stats.backend == backend
                assert np.array_equal(engine(genomes), expected)


class TestProblemIntegration:
    def test_with_backend_copies(self, step1_problem):
        fast = step1_problem.with_backend("vectorized")
        assert fast.backend == "vectorized"
        assert fast.cache_size == step1_problem.cache_size
        assert step1_problem.backend == "reference"
        genomes = SPACE.sample(4, 10)
        assert np.array_equal(
            step1_problem.evaluate_batch(genomes), fast.evaluate_batch(genomes)
        )

    def test_pickle_roundtrip_drops_engine(self, step1_problem):
        import pickle

        genomes = SPACE.sample(3, 11)
        before = step1_problem.evaluate_batch(genomes)
        clone = pickle.loads(pickle.dumps(step1_problem))
        assert clone._engine is None
        assert np.array_equal(clone.evaluate_batch(genomes), before)


class TestEngineReporting:
    def _run_with_engine(self) -> RunResult:
        run = RunResult(system="ESS")
        for step in (1, 2):
            run.steps.append(
                StepResult(
                    step=step,
                    kign=0.1,
                    calibration_fitness=0.5,
                    prediction_quality=float("nan") if step == 1 else 0.5,
                    best_scenario_fitness=0.6,
                    n_solutions=4,
                    evaluations=20,
                    engine={
                        "backend": "vectorized",
                        "n_workers": 1,
                        "evaluations": 20,
                        "simulations": 15,
                        "cache": {"hits": 5, "misses": 15, "evictions": 1},
                    },
                )
            )
        return run

    def test_engine_totals_aggregates(self):
        totals = self._run_with_engine().engine_totals()
        assert totals["backend"] == "vectorized"
        assert totals["evaluations"] == 40
        assert totals["simulations"] == 30
        assert totals["cache"] == {"hits": 10, "misses": 30, "evictions": 2}

    def test_engine_totals_empty_without_stats(self):
        run = RunResult(system="ESS")
        assert run.engine_totals() == {}
        assert format_engine_totals(run) == ""

    def test_format_engine_totals_line(self):
        line = format_engine_totals(self._run_with_engine())
        assert "backend=vectorized" in line
        assert "cache-hits=10/40" in line

    def test_step_result_engine_roundtrip(self):
        run = self._run_with_engine()
        back = RunResult.from_dict(run.to_dict())
        assert back.steps[0].engine == run.steps[0].engine

    def test_legacy_payload_without_engine_key(self):
        run = self._run_with_engine()
        data = run.to_dict()
        for s in data["steps"]:
            s.pop("engine")
        back = RunResult.from_dict(data)
        assert back.engine_totals() == {}


class TestSystemRunEngine:
    def test_run_records_engine_stats(self, small_fire):
        from repro.ea.ga import GAConfig
        from repro.systems import ESS, ESSConfig

        system = ESS(
            ESSConfig(ga=GAConfig(population_size=6), max_generations=2),
            backend="vectorized",
            cache_size=128,
        )
        run = system.run(small_fire, rng=2)
        totals = run.engine_totals()
        assert totals["backend"] == "vectorized"
        assert totals["evaluations"] >= totals["simulations"] > 0
        # the Statistical Stage maps run through the same engine
        assert totals["map_simulations"] > 0

    def test_backend_does_not_change_results(self, small_fire):
        from repro.ea.ga import GAConfig
        from repro.systems import ESS, ESSConfig

        def result(backend):
            return ESS(
                ESSConfig(ga=GAConfig(population_size=6), max_generations=2),
                backend=backend,
            ).run(small_fire, rng=3)

        ref, vec = result("reference"), result("vectorized")
        assert np.array_equal(ref.qualities(), vec.qualities(), equal_nan=True)
        assert [s.kign for s in ref.steps] == [s.kign for s in vec.steps]

    def test_invalid_backend_rejected(self):
        from repro.systems import ESS

        with pytest.raises(ReproError):
            ESS(backend="warp-drive")
        with pytest.raises(ReproError):
            ESS(cache_size=-5)
