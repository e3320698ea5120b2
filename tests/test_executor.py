"""Tests for the serial / process-pool fitness backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel.executor import (
    ProcessPoolEvaluator,
    SerialEvaluator,
    default_worker_count,
)


class TestSerialEvaluator:
    def test_matches_problem(self, toy_problem, space):
        genomes = space.sample(10, 0)
        ev = SerialEvaluator(toy_problem)
        assert np.array_equal(ev(genomes), toy_problem.evaluate_batch(genomes))

    def test_counts_evaluations(self, toy_problem, space):
        ev = SerialEvaluator(toy_problem)
        ev(space.sample(4, 0))
        ev(space.sample(6, 1))
        assert ev.evaluations == 10

    def test_single_genome_promoted(self, toy_problem, space):
        ev = SerialEvaluator(toy_problem)
        out = ev(space.sample(1, 0)[0])
        assert out.shape == (1,)

    def test_context_manager(self, toy_problem):
        with SerialEvaluator(toy_problem) as ev:
            assert ev.evaluations == 0

    def test_bad_problem_shape_raises(self, space):
        class Broken:
            def evaluate_batch(self, genomes):
                return np.zeros(1)

        with pytest.raises(ParallelError):
            SerialEvaluator(Broken())(space.sample(3, 0))


class TestProcessPoolEvaluator:
    def test_matches_serial(self, toy_problem, space):
        genomes = space.sample(17, 5)
        expected = SerialEvaluator(toy_problem)(genomes)
        with ProcessPoolEvaluator(toy_problem, n_workers=2) as pool:
            assert np.allclose(pool(genomes), expected)

    def test_empty_batch(self, toy_problem):
        with ProcessPoolEvaluator(toy_problem, n_workers=2) as pool:
            assert pool(np.zeros((0, 9))).shape == (0,)

    def test_closed_pool_raises(self, toy_problem, space):
        pool = ProcessPoolEvaluator(toy_problem, n_workers=2)
        pool.close()
        with pytest.raises(ParallelError):
            pool(space.sample(2, 0))

    def test_close_idempotent(self, toy_problem):
        pool = ProcessPoolEvaluator(toy_problem, n_workers=2)
        pool.close()
        pool.close()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_bad_worker_count_raises(self, toy_problem, bad):
        with pytest.raises(ParallelError):
            ProcessPoolEvaluator(toy_problem, n_workers=bad)

    def test_counts_evaluations(self, toy_problem, space):
        with ProcessPoolEvaluator(toy_problem, n_workers=2) as pool:
            pool(space.sample(7, 0))
            assert pool.evaluations == 7


class TestMakeEvaluator:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1
