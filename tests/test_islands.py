"""Tests for the epoch-based island model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.ea.ga import GAConfig, GeneticAlgorithm
from repro.ea.termination import Termination
from repro.errors import ParallelError
from repro.parallel.executor import SerialEvaluator
from repro.parallel.islands import IslandModel, IslandModelConfig

TERM = Termination(max_generations=8, fitness_threshold=0.99)


def _model(n_islands=3, interval=2, topology="ring", migrants=1):
    return IslandModel(
        lambda: GeneticAlgorithm(GAConfig(population_size=10)),
        IslandModelConfig(
            n_islands=n_islands,
            migration_interval=interval,
            n_migrants=migrants,
            topology=topology,
        ),
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_islands": 0},
            {"migration_interval": 0},
            {"n_migrants": -1},
            {"topology": "mesh"},
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ParallelError):
            IslandModelConfig(**kwargs)


class TestIslandRun:
    def test_all_islands_evolve(self, toy_problem, space):
        res = _model().run(SerialEvaluator(toy_problem), space, TERM, rng=0)
        assert len(res.populations) == 3
        assert all(len(pop) == 10 for pop in res.populations)
        assert res.generations == 8
        assert res.best.fitness > 0.5

    def test_histories_use_global_generations(self, toy_problem, space):
        res = _model(interval=3).run(SerialEvaluator(toy_problem), space, TERM, rng=0)
        gens = res.histories[0].series("generation")
        assert np.array_equal(gens, np.arange(1, 9))

    def test_deterministic(self, toy_problem, space):
        a = _model().run(SerialEvaluator(toy_problem), space, TERM, rng=9)
        b = _model().run(SerialEvaluator(toy_problem), space, TERM, rng=9)
        assert a.best.fitness == b.best.fitness

    def test_threshold_between_epochs(self, toy_problem, space):
        term = Termination(max_generations=40, fitness_threshold=0.5)
        res = _model().run(SerialEvaluator(toy_problem), space, term, rng=1)
        assert res.generations < 40
        assert "threshold" in res.stop_reason

    def test_single_island_no_migration(self, toy_problem, space):
        res = _model(n_islands=1).run(SerialEvaluator(toy_problem), space, TERM, rng=0)
        assert len(res.populations) == 1

    def test_evaluations_accumulate(self, toy_problem, space):
        res = _model().run(SerialEvaluator(toy_problem), space, TERM, rng=0)
        # 3 islands × (10 initial per epoch-start reuse + 10 per gen × 8)
        assert res.evaluations >= 3 * (10 + 8 * 10)


class TestMigration:
    def test_ring_migration_spreads_best(self, toy_problem, space):
        # With aggressive migration the islands share their champions:
        # after the run, every island contains a copy-level individual
        # close to the global best.
        res = _model(migrants=3, interval=2).run(
            SerialEvaluator(toy_problem), space, TERM, rng=3
        )
        best = res.best.fitness
        for pop in res.populations:
            island_best = max(ind.fitness for ind in pop)
            assert island_best > best * 0.5

    def test_broadcast_topology_runs(self, toy_problem, space):
        res = _model(topology="broadcast").run(
            SerialEvaluator(toy_problem), space, TERM, rng=0
        )
        assert res.best.fitness > 0.5

    def test_none_topology_isolates(self, toy_problem, space):
        res = _model(topology="none").run(
            SerialEvaluator(toy_problem), space, TERM, rng=0
        )
        assert len(res.populations) == 3


class TestIntervention:
    def test_intervention_called_each_epoch(self, toy_problem, space):
        calls = []

        def intervention(epoch, populations):
            calls.append(epoch)
            return populations

        _model(interval=2).run(
            SerialEvaluator(toy_problem), space, TERM, rng=0,
            intervention=intervention,
        )
        assert calls == [0, 1, 2, 3]  # 8 generations / interval 2

    def test_intervention_can_replace_population(self, toy_problem, space):
        def nuke(epoch, populations):
            return [
                [Individual(genome=space.sample(1, 1)[0]) for _ in pop]
                for pop in populations
            ]

        res = _model(interval=4).run(
            SerialEvaluator(toy_problem), space, TERM, rng=0, intervention=nuke
        )
        assert all(len(pop) == 10 for pop in res.populations)
