"""Tests for the picklable PredictionStepProblem (the OS-Worker job)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.fitness import jaccard_fitness
from repro.errors import SimulationError
from repro.systems.problem import PredictionStepProblem


class TestConstruction:
    def test_basic(self, step1_problem):
        assert step1_problem.horizon > 0
        assert step1_problem.space.dimension == 9

    def test_shape_checks(self, small_fire):
        good = small_fire.start_mask(1)
        with pytest.raises(SimulationError):
            PredictionStepProblem(
                small_fire.terrain,
                np.zeros((3, 3), dtype=bool),
                small_fire.real_mask(1),
                10.0,
            )
        with pytest.raises(SimulationError):
            PredictionStepProblem(
                small_fire.terrain, good, np.zeros((3, 3), dtype=bool), 10.0
            )

    def test_empty_start_raises(self, small_fire):
        with pytest.raises(SimulationError):
            PredictionStepProblem(
                small_fire.terrain,
                np.zeros(small_fire.terrain.shape, dtype=bool),
                small_fire.real_mask(1),
                10.0,
            )

    def test_bad_horizon_raises(self, small_fire):
        with pytest.raises(SimulationError):
            PredictionStepProblem(
                small_fire.terrain,
                small_fire.start_mask(1),
                small_fire.real_mask(1),
                0.0,
            )


class TestEvaluation:
    def test_true_scenario_scores_high(self, small_fire, step1_problem, space):
        true_genome = space.encode(small_fire.true_scenarios[0])
        fitness = step1_problem.evaluate_one(true_genome)
        assert fitness > 0.9  # the generating scenario must fit well

    def test_wet_scenario_scores_low(self, step1_problem, space, wet_scenario):
        fitness = step1_problem.evaluate_one(space.encode(wet_scenario))
        # No growth simulated vs substantial real growth → near zero.
        assert fitness < 0.1

    def test_batch_matches_single(self, step1_problem, space):
        genomes = space.sample(6, 3)
        batch = step1_problem.evaluate_batch(genomes)
        singles = [step1_problem.evaluate_one(g) for g in genomes]
        assert np.allclose(batch, singles)

    def test_fitness_in_unit_interval(self, step1_problem, space):
        batch = step1_problem.evaluate_batch(space.sample(12, 8))
        assert (batch >= 0).all() and (batch <= 1).all()

    def test_burned_map_contains_start(self, small_fire, step1_problem, space):
        g = space.sample(1, 0)[0]
        burned = step1_problem.burned_map(g)
        assert (burned & small_fire.start_mask(1)).sum() == small_fire.start_mask(1).sum()

    def test_burned_maps_stack(self, step1_problem, space):
        stack = step1_problem.burned_maps(space.sample(3, 1))
        assert stack.shape == (3, *step1_problem.terrain.shape)
        assert stack.dtype == bool

    def test_consistency_with_jaccard(self, small_fire, step1_problem, space):
        g = space.sample(1, 5)[0]
        expected = jaccard_fitness(
            small_fire.real_mask(1),
            step1_problem.burned_map(g),
            small_fire.start_mask(1),
        )
        assert step1_problem.evaluate_one(g) == pytest.approx(expected)


class TestPickling:
    def test_roundtrip_preserves_results(self, step1_problem, space):
        genomes = space.sample(4, 9)
        expected = step1_problem.evaluate_batch(genomes)
        clone = pickle.loads(pickle.dumps(step1_problem))
        assert np.allclose(clone.evaluate_batch(genomes), expected)
