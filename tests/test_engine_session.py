"""Tests for the run-scoped engine session subsystem.

Covers the session-owned resources (persistent worker pool, cross-step
result cache), the per-step engine views, the post-close stats freeze,
and the lightweight problem-update path of the pooled executors.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.reporting import format_run, format_session_totals
from repro.core.scenario import ParameterSpace
from repro.engine import (
    EngineSession,
    SessionResultCache,
    SimulationEngine,
    step_context_digest,
)
from repro.engine.cache import CacheStats
from repro.engine.session import SessionStats
from repro.errors import ParallelError, ReproError
from repro.parallel.executor import ProcessPoolEvaluator
from repro.systems.problem import PredictionStepProblem
from repro.systems.results import RunResult

SPACE = ParameterSpace()


def _spec_of(problem):
    from repro.engine import StepSpec

    return StepSpec.from_problem(problem)


class TestContextDigest:
    def test_same_spec_same_digest(self, step1_problem):
        assert step_context_digest(_spec_of(step1_problem)) == step_context_digest(
            _spec_of(step1_problem)
        )

    def test_horizon_changes_digest(self, step1_problem, small_fire):
        a = _spec_of(step1_problem)
        b = PredictionStepProblem(
            terrain=step1_problem.terrain,
            start_burned=step1_problem.start_burned,
            real_burned=step1_problem.real_burned,
            horizon=step1_problem.horizon + 1.0,
        )
        assert step_context_digest(a) != step_context_digest(_spec_of(b))

    def test_real_burned_changes_digest(self, step1_problem, small_fire):
        b = PredictionStepProblem(
            terrain=step1_problem.terrain,
            start_burned=step1_problem.start_burned,
            real_burned=small_fire.real_mask(2),
            horizon=step1_problem.horizon,
        )
        assert step_context_digest(_spec_of(step1_problem)) != step_context_digest(
            _spec_of(b)
        )


class TestSessionResultCache:
    def test_disabled_by_default(self):
        store = SessionResultCache()
        assert not store.enabled
        view = store.view(b"ctx", 1)
        key = view.key(SPACE.sample(1, 0)[0])
        view.put(key, 0.5)
        assert view.get(key) is None

    def test_cross_step_hit_accounting(self):
        store = SessionResultCache(capacity=8)
        g = SPACE.sample(1, 1)[0]
        v1 = store.view(b"ctx", 1)
        v1.put(v1.key(g), 0.25)
        assert v1.get(v1.key(g)) == 0.25  # same-step hit
        assert store.cross_step_hits == 0
        v2 = store.view(b"ctx", 2)
        assert v2.get(v2.key(g)) == 0.25  # served across the step boundary
        assert store.cross_step_hits == 1
        # run-level totals aggregate both views
        assert store.stats.hits == 2
        assert v1.stats.hits == 1 and v2.stats.hits == 1

    def test_contexts_are_isolated(self):
        store = SessionResultCache(capacity=8)
        g = SPACE.sample(1, 2)[0]
        a = store.view(b"step-a", 1)
        b = store.view(b"step-b", 2)
        a.put(a.key(g), 0.5)
        assert b.get(b.key(g)) is None  # same genome, different context
        assert store.n_contexts == 2

    def test_lru_eviction_spans_contexts(self):
        store = SessionResultCache(capacity=2)
        v = store.view(b"a", 1)
        w = store.view(b"b", 1)
        keys = [v.key(np.full(9, float(i))) for i in range(3)]
        v.put(keys[0], 0.0)
        w.put(keys[1], 1.0)
        w.put(keys[2], 2.0)  # evicts the oldest entry (context a)
        assert v.get(keys[0]) is None
        assert store.stats.evictions == 1

    def test_invalid_params_raise(self):
        with pytest.raises(ReproError):
            SessionResultCache(capacity=-1)
        with pytest.raises(ReproError):
            SessionResultCache(capacity=1, decimals=-1)


class TestEngineSession:
    def test_for_step_matches_plain_engine(self, step1_problem):
        genomes = SPACE.sample(8, 3)
        expected = SimulationEngine.from_problem(step1_problem)(genomes)
        with EngineSession(backend="vectorized", session_cache_size=64) as session:
            engine = session.for_step(step1_problem)
            assert np.array_equal(engine(genomes), expected)

    def test_cross_step_cache_hits_on_repeated_genomes(self, step1_problem):
        """Acceptance: ≥1 cross-step hit across step views of a run."""
        genomes = SPACE.sample(6, 4)
        with EngineSession(backend="vectorized", session_cache_size=256) as session:
            first = session.for_step(step1_problem)
            a = first(genomes)
            first.close()
            second = session.for_step(step1_problem)
            b = second(genomes)
            second.close()
            stats = session.stats
        assert np.array_equal(a, b)
        assert stats.cross_step_hits >= 1
        assert stats.cache.hits >= 6
        # the second step simulated nothing
        assert second.stats.simulations == 0
        assert second.stats.cache.hits == 6

    def test_session_cache_off_keeps_per_step_cache(self, step1_problem):
        with EngineSession(backend="vectorized", cache_size=32) as session:
            engine = session.for_step(step1_problem)
            genomes = SPACE.sample(4, 5)
            engine(genomes)
            engine(genomes)
            assert engine.stats.cache.hits == 4
            assert session.stats.cache.hits == 0  # no cross-step tier

    def test_reuse_after_close_raises(self, step1_problem):
        session = EngineSession()
        session.close()
        session.close()  # idempotent
        with pytest.raises(ReproError, match="already closed"):
            session.for_step(step1_problem)

    def test_invalid_params_raise(self):
        with pytest.raises(ReproError):
            EngineSession(backend="warp-drive")
        with pytest.raises(ReproError):
            EngineSession(n_workers=0)
        with pytest.raises(ReproError):
            EngineSession(session_cache_size=-1)
        with pytest.raises(ReproError):
            EngineSession(cache_size=-1)

    def test_stats_to_dict_shape(self):
        stats = SessionStats(backend="vectorized", n_workers=2, steps=3)
        payload = stats.to_dict()
        assert payload["backend"] == "vectorized"
        assert set(payload) == {
            "backend",
            "n_workers",
            "steps",
            "contexts",
            "systems",
            "pool_reuses",
            "cross_step_hits",
            "cross_system_hits",
            "cache",
        }


class TestProcessBackendLifecycle:
    def test_pool_survives_across_steps(self, step1_problem, small_fire):
        genomes = SPACE.sample(6, 6)
        expected = SimulationEngine.from_problem(step1_problem)(genomes)
        step2 = PredictionStepProblem(
            terrain=small_fire.terrain,
            start_burned=small_fire.start_mask(2),
            real_burned=small_fire.real_mask(2),
            horizon=small_fire.step_horizon(2),
        )
        expected2 = SimulationEngine.from_problem(step2)(genomes)
        with EngineSession(backend="vectorized", n_workers=2) as session:
            e1 = session.for_step(step1_problem)
            assert np.array_equal(e1(genomes), expected)
            e1.close()
            pool = session._pool
            assert pool is not None and not pool._closed
            e2 = session.for_step(step2)
            assert session._pool is pool  # same pool object, updated in place
            assert np.array_equal(e2(genomes), expected2)
            e2.close()
            stats = session.stats
        assert stats.pool_reuses == 1
        assert stats.n_workers == 2
        assert pool.problem_updates == 2  # one spec broadcast per step

    def test_step_view_close_leaves_pool_running(self, step1_problem):
        with EngineSession(backend="vectorized", n_workers=2) as session:
            engine = session.for_step(step1_problem)
            engine(SPACE.sample(4, 7))
            engine.close()
            assert not session._pool._closed

    def test_session_close_closes_pool_exactly_once(self, step1_problem):
        session = EngineSession(backend="vectorized", n_workers=2)
        engine = session.for_step(step1_problem)
        engine(SPACE.sample(4, 8))
        engine.close()
        pool = session._pool
        session.close()
        assert pool._closed
        session.close()  # second close is a no-op, not a double-shutdown
        with pytest.raises(ParallelError):
            pool(SPACE.sample(2, 9))

    def test_n_workers_wraps_serial_backend_via_session_pool(self, step1_problem):
        genomes = SPACE.sample(6, 10)
        expected = SimulationEngine.from_problem(step1_problem)(genomes)
        with EngineSession(backend="reference", n_workers=2) as session:
            e1 = session.for_step(step1_problem)
            assert np.array_equal(e1(genomes), expected)
            e1.close()
            e2 = session.for_step(step1_problem)
            assert np.array_equal(e2(genomes), expected)
            e2.close()
            assert session.stats.pool_reuses == 1


class TestStatsFreezeOnClose:
    def test_close_detaches_stats_from_live_cache(self, step1_problem):
        """Regression: stats read after close must not see later mutation."""
        engine = EngineSession(backend="vectorized", cache_size=64).for_step(
            step1_problem
        )
        genomes = SPACE.sample(5, 11)
        engine(genomes)
        live_cache_stats = engine.cache_stats
        before = engine.stats.to_dict()
        engine.close()
        # simulate the shared-cache case: the underlying counters move on
        live_cache_stats.hits += 100
        live_cache_stats.misses += 100
        assert engine.stats.to_dict() == before
        assert engine.stats.cache is not live_cache_stats

    def test_close_snapshot_matches_session_view(self, step1_problem):
        with EngineSession(backend="vectorized", session_cache_size=64) as session:
            e1 = session.for_step(step1_problem)
            genomes = SPACE.sample(4, 12)
            e1(genomes)
            snapshot = e1.stats.to_dict()
            e1.close()
            # a later step hitting the shared store must not rewrite e1
            e2 = session.for_step(step1_problem)
            e2(genomes)
            e2.close()
            assert e1.stats.to_dict() == snapshot
            assert session.stats.cache.hits >= 4


class TestExecutorUpdateProblem:
    class _Offset:
        """Picklable toy problem: fitness = row sum + offset."""

        def __init__(self, offset: float) -> None:
            self.offset = offset

        def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
            return np.atleast_2d(genomes).sum(axis=1) + self.offset

    def test_update_swaps_problem_in_every_worker(self):
        genomes = np.ones((8, 3))
        with ProcessPoolEvaluator(self._Offset(0.0), n_workers=2) as pool:
            assert np.allclose(pool(genomes), 3.0)
            pool.update_problem(self._Offset(10.0))
            assert np.allclose(pool(genomes), 13.0)
            assert pool.problem_updates == 1

    def test_pool_can_start_idle(self):
        genomes = np.ones((4, 2))
        with ProcessPoolEvaluator(None, n_workers=2) as pool:
            with pytest.raises(Exception):
                pool(genomes)  # workers hold no problem yet
            pool.update_problem(self._Offset(1.0))
            assert np.allclose(pool(genomes), 3.0)

    def test_update_after_close_raises(self):
        pool = ProcessPoolEvaluator(self._Offset(0.0), n_workers=1)
        pool.close()
        with pytest.raises(ParallelError):
            pool.update_problem(self._Offset(1.0))


class TestProblemSessionIntegration:
    def test_engine_property_uses_session_view(self, step1_problem):
        with EngineSession(backend="vectorized", session_cache_size=32) as session:
            step1_problem.attach_session(session)
            engine = step1_problem.engine
            assert engine is step1_problem.engine  # memoised, one view
            assert session.stats.steps == 1

    def test_pickle_drops_session(self, step1_problem):
        with EngineSession(backend="vectorized") as session:
            step1_problem.attach_session(session)
            genomes = SPACE.sample(3, 13)
            before = step1_problem.evaluate_batch(genomes)
            clone = pickle.loads(pickle.dumps(step1_problem))
            assert clone._session is None and clone._engine is None
            assert np.array_equal(clone.evaluate_batch(genomes), before)


class TestRunLevelSessionStats:
    def _run(self, small_fire, **kwargs):
        from repro.ea.ga import GAConfig
        from repro.systems import ESS, ESSConfig

        return ESS(
            ESSConfig(ga=GAConfig(population_size=6), max_generations=2),
            **kwargs,
        ).run(small_fire, rng=2)

    def test_run_records_session_block(self, small_fire):
        run = self._run(small_fire, backend="vectorized", session_cache_size=256)
        assert run.session["steps"] == small_fire.n_steps
        assert run.session["contexts"] == small_fire.n_steps
        cache = run.session["cache"]
        assert cache["hits"] + cache["misses"] > 0

    def test_session_cache_does_not_change_results(self, small_fire):
        plain = self._run(small_fire, backend="vectorized")
        cached = self._run(
            small_fire, backend="vectorized", session_cache_size=4096
        )
        assert np.array_equal(
            plain.qualities(), cached.qualities(), equal_nan=True
        )
        assert [s.kign for s in plain.steps] == [s.kign for s in cached.steps]

    def test_session_roundtrips_through_json(self, small_fire, tmp_path):
        run = self._run(small_fire, backend="vectorized", session_cache_size=64)
        path = tmp_path / "run.json"
        run.save_json(path)
        back = RunResult.load_json(path)
        assert back.session == run.session

    def test_legacy_payload_without_session(self, small_fire):
        run = self._run(small_fire, backend="vectorized")
        data = run.to_dict()
        data.pop("session")
        back = RunResult.from_dict(data)
        assert back.session == {}
        assert format_session_totals(back) == ""

    def test_format_session_totals_line(self, small_fire):
        run = self._run(small_fire, backend="vectorized", session_cache_size=256)
        line = format_session_totals(run)
        assert line.startswith("session:")
        assert "pool-reuses=" in line
        assert line in format_run(run)

    def test_invalid_session_cache_size_rejected(self):
        from repro.systems import ESS

        with pytest.raises(ReproError):
            ESS(session_cache_size=-1)


class TestSessionScopes:
    """Per-system stat views over one shared session."""

    def test_scope_stats_are_deltas(self, step1_problem):
        genomes = SPACE.sample(6, 20)
        with EngineSession(backend="vectorized", session_cache_size=256) as s:
            with s.scoped("first") as first:
                engine = s.for_step(step1_problem)
                engine(genomes)
                engine.close()
            with s.scoped("second") as second:
                engine = s.for_step(step1_problem)
                engine(genomes)
                engine.close()
        assert first.stats.steps == 1 and second.stats.steps == 1
        assert first.stats.cache.misses == 6
        assert first.stats.cache.hits == 0
        # the second scope was served entirely by the first's inserts
        assert second.stats.cache.hits == 6
        assert second.stats.cross_system_hits == 6
        assert second.stats.cross_step_hits == 6
        # scope deltas partition the session totals
        total = s.stats
        assert total.cache.hits == first.stats.cache.hits + second.stats.cache.hits
        assert total.systems == 2

    def test_scope_freezes_on_exit(self, step1_problem):
        session = EngineSession(backend="vectorized", session_cache_size=64)
        scope = session.scoped("a")
        engine = session.for_step(step1_problem)
        engine(SPACE.sample(3, 21))
        engine.close()
        scope.close()
        frozen = scope.stats.to_dict()
        later = session.scoped("b")
        engine = session.for_step(step1_problem)
        engine(SPACE.sample(3, 21))
        engine.close()
        later.close()
        assert scope.stats.to_dict() == frozen
        session.close()

    def test_unscoped_sessions_count_no_cross_system_hits(self, step1_problem):
        genomes = SPACE.sample(4, 22)
        with EngineSession(backend="vectorized", session_cache_size=64) as s:
            for _ in range(2):
                engine = s.for_step(step1_problem)
                engine(genomes)
                engine.close()
            assert s.stats.cross_step_hits == 4
            assert s.stats.cross_system_hits == 0

    def test_stats_minus_subtracts_counterwise(self):
        a = SessionStats(
            backend="vectorized", n_workers=2, steps=5, contexts=3,
            systems=2, pool_reuses=4, cross_step_hits=7,
            cross_system_hits=2, cache=CacheStats(hits=10, misses=4),
        )
        b = SessionStats(
            backend="vectorized", n_workers=2, steps=2, contexts=1,
            systems=1, pool_reuses=1, cross_step_hits=3,
            cross_system_hits=1, cache=CacheStats(hits=6, misses=1),
        )
        delta = a.minus(b)
        assert delta.steps == 3 and delta.contexts == 2
        assert delta.systems == 1 and delta.pool_reuses == 3
        assert delta.cross_step_hits == 4 and delta.cross_system_hits == 1
        assert delta.cache.hits == 4 and delta.cache.misses == 3

    def test_scoped_after_close_raises(self):
        session = EngineSession()
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.scoped("late")


class TestSessionCacheStatsMerge:
    def test_cache_stats_copy_into_session_stats(self):
        store = SessionResultCache(capacity=4)
        view = store.view(b"c", 1)
        g = SPACE.sample(1, 14)[0]
        view.put(view.key(g), 1.0)
        view.get(view.key(g))
        copied = CacheStats(**store.stats.to_dict())
        store.stats.hits += 10
        assert copied.hits == 1  # detached copy, not a live reference
