"""Tests for the §IV future-work extensions.

Covers hybrid fitness/novelty guidance, accumulator continuation across
epochs, the dynamic novelty-threshold archive, solution-set mixing and
the island ESS-NS system.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.archive import BestSet, NoveltyArchive, ThresholdArchive
from repro.core.individual import Individual
from repro.ea.nsga import NoveltyGA, NoveltyGAConfig
from repro.ea.termination import Termination
from repro.errors import EvolutionError
from repro.parallel.executor import SerialEvaluator
from repro.parallel.islands import IslandModelConfig
from repro.systems import ESSNS, ESSNSIM, ESSNSConfig, ESSNSIMConfig
from repro.workloads.cases import grassland_case


def _ind(fit, nov, seed=0):
    rng = np.random.default_rng(seed)
    return Individual(genome=rng.random(4), fitness=fit, novelty=nov)


class TestHybridGuidance:
    @pytest.mark.parametrize("w", [-0.1, 1.1])
    def test_bad_weight_raises(self, w):
        with pytest.raises(EvolutionError):
            NoveltyGAConfig(fitness_weight=w)

    def test_pure_fitness_weight_converges_harder(self, toy_problem, space):
        term = Termination(max_generations=12)
        runs = {}
        for w in (0.0, 1.0):
            cfg = NoveltyGAConfig(
                population_size=20, k_neighbors=5, fitness_weight=w
            )
            runs[w] = NoveltyGA(cfg).run(
                SerialEvaluator(toy_problem), space, term, rng=6
            )
        # w=1 behaves like a fitness-guided GA: lower final diversity.
        div0 = runs[0.0].history.records[-1].genotypic_diversity
        div1 = runs[1.0].history.records[-1].genotypic_diversity
        assert div1 < div0
        # and it should climb the easy toy problem at least as well
        assert runs[1.0].best_set.max_fitness() >= 0.7

    def test_intermediate_weight_runs(self, toy_problem, space):
        cfg = NoveltyGAConfig(population_size=12, k_neighbors=4, fitness_weight=0.5)
        result = NoveltyGA(cfg).run(
            SerialEvaluator(toy_problem),
            space,
            Termination(max_generations=3),
            rng=0,
        )
        assert len(result.best_set) > 0


class TestAccumulatorContinuation:
    def test_best_set_survives_across_runs(self, toy_problem, space):
        cfg = NoveltyGAConfig(population_size=10, k_neighbors=4)
        archive = NoveltyArchive(cfg.archive_capacity)
        best = BestSet(cfg.best_set_capacity)
        term = Termination(max_generations=2)
        ev = SerialEvaluator(toy_problem)

        r1 = NoveltyGA(cfg).run(
            ev, space, term, rng=1, archive=archive, best_set=best
        )
        peak_after_first = best.max_fitness()
        assert peak_after_first > 0
        # Second epoch continues the same accumulators.
        NoveltyGA(cfg).run(
            ev, space, term, rng=2,
            initial_population=r1.population,
            archive=archive, best_set=best,
        )
        assert best.max_fitness() >= peak_after_first
        assert len(archive) > 0

    def test_external_archive_is_the_result_archive(self, toy_problem, space):
        cfg = NoveltyGAConfig(population_size=10, k_neighbors=4)
        archive = NoveltyArchive(cfg.archive_capacity)
        result = NoveltyGA(cfg).run(
            SerialEvaluator(toy_problem),
            space,
            Termination(max_generations=1),
            rng=0,
            archive=archive,
        )
        assert result.archive is archive


class TestThresholdArchive:
    def test_admission_semantics(self):
        ta = ThresholdArchive(threshold=0.5)
        ta.update([_ind(0.5, 0.6, 1), _ind(0.5, 0.4, 2)])
        assert len(ta) == 1
        assert ta.admissions_total == 1

    def test_threshold_rises_on_flood(self):
        ta = ThresholdArchive(
            threshold=0.1, adjust_every=1, target_admissions=1
        )
        before = ta.threshold
        ta.update([_ind(0.5, 0.9, i) for i in range(5)])  # 5 admissions > 1
        assert ta.threshold > before

    def test_threshold_lowers_on_drought(self):
        ta = ThresholdArchive(threshold=0.9, adjust_every=1)
        before = ta.threshold
        ta.update([_ind(0.5, 0.1, 1)])  # no admission
        assert ta.threshold < before

    def test_max_size_trims_least_novel(self):
        ta = ThresholdArchive(threshold=0.01, max_size=3, adjust_every=100)
        ta.update([_ind(0.5, 0.1 * i, i) for i in range(1, 7)])
        assert len(ta) == 3
        kept = sorted(ind.novelty for ind in ta)
        assert kept == pytest.approx([0.4, 0.5, 0.6])

    def test_unbounded_by_default(self):
        ta = ThresholdArchive(threshold=0.01, adjust_every=1000)
        ta.update([_ind(0.5, 0.5, i) for i in range(50)])
        assert len(ta) == 50

    def test_requires_scores(self):
        ta = ThresholdArchive()
        with pytest.raises(EvolutionError):
            ta.update([Individual(genome=np.zeros(3), fitness=0.5)])

    def test_fitness_values_interface(self):
        ta = ThresholdArchive(threshold=0.1)
        ta.update([_ind(0.3, 0.5, 1), _ind(0.8, 0.6, 2)])
        assert sorted(ta.fitness_values()) == [0.3, 0.8]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0.0},
            {"adjust_every": 0},
            {"raise_factor": 1.0},
            {"lower_factor": 1.0},
            {"target_admissions": 0},
            {"max_size": 0},
        ],
    )
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(EvolutionError):
            ThresholdArchive(**kwargs)

    def test_plugs_into_novelty_ga(self, toy_problem, space):
        ta = ThresholdArchive(threshold=0.01, max_size=20)
        cfg = NoveltyGAConfig(population_size=10, k_neighbors=4)
        result = NoveltyGA(cfg).run(
            SerialEvaluator(toy_problem),
            space,
            Termination(max_generations=3),
            rng=0,
            archive=ta,
        )
        assert result.archive is ta
        assert len(result.best_set) > 0


class TestSolutionMixing:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"novel_fraction": -0.1},
            {"random_fraction": 1.0},
            {"novel_fraction": 0.6, "random_fraction": 0.5},
            {"archive_kind": "bogus"},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(EvolutionError):
            ESSNSConfig(**kwargs)

    def test_mixed_solution_set_is_larger(self, small_fire):
        base_cfg = NoveltyGAConfig(
            population_size=10, k_neighbors=4, best_set_capacity=8
        )
        plain = ESSNS(
            ESSNSConfig(nsga=base_cfg, max_generations=2)
        ).run(small_fire, rng=4)
        mixed = ESSNS(
            ESSNSConfig(
                nsga=base_cfg,
                max_generations=2,
                novel_fraction=0.25,
                random_fraction=0.25,
            )
        ).run(small_fire, rng=4)
        for p, m in zip(plain.steps, mixed.steps):
            assert m.n_solutions >= p.n_solutions

    def test_threshold_archive_kind_runs(self, small_fire):
        cfg = ESSNSConfig(
            nsga=NoveltyGAConfig(
                population_size=10, k_neighbors=4, best_set_capacity=8
            ),
            max_generations=2,
            archive_kind="threshold",
        )
        run = ESSNS(cfg).run(small_fire, rng=4)
        assert len(run.steps) == small_fire.n_steps


class TestESSNSIM:
    def _config(self, **over):
        defaults = dict(
            nsga=NoveltyGAConfig(
                population_size=8, k_neighbors=3, best_set_capacity=6
            ),
            islands=IslandModelConfig(
                n_islands=2, migration_interval=2, n_migrants=1
            ),
            max_generations=4,
        )
        defaults.update(over)
        return ESSNSIMConfig(**defaults)

    def test_run_structure(self, small_fire):
        run = ESSNSIM(self._config()).run(small_fire, rng=0)
        assert run.system == "ESSNS-IM"
        assert len(run.steps) == small_fire.n_steps
        # one bestSet per island feeds the Monitor
        assert all(2 <= s.n_solutions <= 12 for s in run.steps)

    def test_hybrid_name(self, small_fire):
        system = ESSNSIM(
            self._config(
                nsga=NoveltyGAConfig(
                    population_size=8,
                    k_neighbors=3,
                    best_set_capacity=6,
                    fitness_weight=0.5,
                )
            )
        )
        assert system.name == "ESSNS-IM(w=0.5)"

    def test_deterministic(self, small_fire):
        a = ESSNSIM(self._config()).run(small_fire, rng=9)
        b = ESSNSIM(self._config()).run(small_fire, rng=9)
        assert np.array_equal(a.qualities(), b.qualities(), equal_nan=True)

    def test_broadcast_topology(self, small_fire):
        cfg = self._config(
            islands=IslandModelConfig(
                n_islands=2,
                migration_interval=2,
                n_migrants=1,
                topology="broadcast",
            )
        )
        run = ESSNSIM(cfg).run(small_fire, rng=1)
        assert len(run.steps) == small_fire.n_steps

    def test_quality_in_range(self, small_fire):
        run = ESSNSIM(self._config()).run(small_fire, rng=2)
        q = run.qualities()
        assert np.isnan(q[0])
        assert ((q[1:] >= 0) & (q[1:] <= 1)).all()

    # Step-record digests pinned before ESSNS-IM moved onto IslandModel.
    # The ``random`` archive policy draws from the archive streams, so
    # these catch a changed stream order that the goldens (``novelty``
    # policy only) cannot.
    @pytest.mark.parametrize(
        "policy, topology, weight, digest",
        [
            ("novelty", "ring", 0.0, "32b90a4dccf06c87"),
            ("novelty", "ring", 0.5, "15fcf88b85021714"),
            ("novelty", "broadcast", 0.0, "ccd255fc9981cb33"),
            ("novelty", "broadcast", 0.5, "68b1eaa0abf31d8f"),
            ("novelty", "none", 0.0, "f02e874b870895f1"),
            ("novelty", "none", 0.5, "683edda660fa408b"),
            ("random", "ring", 0.0, "4b8c7a110d63af59"),
            ("random", "ring", 0.5, "f471d49fea1f4b68"),
            ("random", "broadcast", 0.0, "f8bf579fabca1dc9"),
            ("random", "broadcast", 0.5, "ef959b8005cb875c"),
            ("random", "none", 0.0, "0efbfc6a0d6a7767"),
            ("random", "none", 0.5, "1192859a7afdc8c7"),
        ],
    )
    def test_pinned_step_records(self, policy, topology, weight, digest):
        cfg = ESSNSIMConfig(
            nsga=NoveltyGAConfig(
                population_size=8,
                k_neighbors=3,
                best_set_capacity=6,
                archive_capacity=5,
                archive_policy=policy,
                fitness_weight=weight,
            ),
            islands=IslandModelConfig(
                n_islands=3, migration_interval=2, n_migrants=1, topology=topology
            ),
            max_generations=5,
        )
        run = ESSNSIM(cfg, backend="vectorized").run(
            grassland_case(size=24, n_steps=3), rng=7
        )
        steps = [
            {k: v for k, v in s.to_dict().items() if k not in ("timings", "engine")}
            for s in run.steps
        ]
        payload = json.dumps(steps, sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest()[:16] == digest
