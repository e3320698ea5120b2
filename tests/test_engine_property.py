"""Property tests: the vectorized backend is bitwise-exact.

The acceptance bar for the engine subsystem is that the ``vectorized``
backend matches ``SerialEvaluator`` + :class:`FireSimulator` **bit for
bit** — not approximately — across random scenarios on all 13 NFFL
fuel models, on homogeneous and heterogeneous terrains, under both
stencils. The genome-batched propagation kernel is additionally checked
against the reference Dijkstra on random travel-time rasters.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.scenario import ParameterSpace
from repro.engine import SimulationEngine
from repro.engine.fastprop import FlatGrid, propagate_raster, propagate_uniform
from repro.firelib.propagation import (
    _offset_azimuth_deg,
    propagate,
    stencil,
)
from repro.grid.terrain import Terrain
from repro.parallel.executor import SerialEvaluator
from repro.systems.problem import PredictionStepProblem

SPACE = ParameterSpace()


def _problem(terrain: Terrain, n_neighbors: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    start = np.zeros(terrain.shape, dtype=bool)
    r0, c0 = terrain.rows // 2, terrain.cols // 2
    start[r0 - 1 : r0 + 2, c0 - 1 : c0 + 2] = True
    real = start | (rng.random(terrain.shape) < 0.2)
    return PredictionStepProblem(
        terrain=terrain,
        start_burned=start,
        real_burned=real,
        horizon=30.0,
        n_neighbors=n_neighbors,
    )


def _model_genomes(model: int, n: int, seed: int) -> np.ndarray:
    genomes = SPACE.sample(n, seed)
    genomes[:, 0] = model
    return genomes


class TestVectorizedBitwise:
    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_uniform_terrain(self, model):
        problem = _problem(Terrain.uniform(16, 16), seed=model)
        genomes = _model_genomes(model, 5, 100 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_fuel_raster(self, model):
        terrain = Terrain.with_fuel_patches(
            16,
            16,
            base_model=model,
            patches=[
                (slice(0, 8), slice(10, 14), (model % 13) + 1),
                (slice(12, 16), slice(0, 4), 0),  # unburnable pocket
            ],
        )
        problem = _problem(terrain, seed=200 + model)
        genomes = _model_genomes(model, 4, 300 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_slope_aspect_rasters(self):
        problem = _problem(Terrain.with_ridge(16, 16), seed=7)
        genomes = SPACE.sample(6, 41)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_heterogeneous_rasters(self, model):
        """Batched raster path: non-uniform slope/aspect, bitwise-exact."""
        rng = np.random.default_rng(500 + model)
        terrain = Terrain(
            16,
            16,
            slope=rng.uniform(0.0, 45.0, (16, 16)),
            aspect=rng.uniform(0.0, 360.0, (16, 16)),
        )
        problem = _problem(terrain, seed=600 + model)
        genomes = _model_genomes(model, 5, 700 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_rasters_mixed_models(self):
        """One batch spanning several fuel beds over shared rasters."""
        rng = np.random.default_rng(81)
        terrain = Terrain(
            14,
            14,
            slope=rng.uniform(0.0, 60.0, (14, 14)),
            aspect=rng.uniform(0.0, 360.0, (14, 14)),
        )
        problem = _problem(terrain, seed=82)
        genomes = SPACE.sample(13, 83)
        genomes[:, 0] = np.arange(1, 14)  # every NFFL model in one batch
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_fuel_raster_with_slope_aspect_rasters(self):
        rng = np.random.default_rng(84)
        fuel = rng.integers(1, 14, (16, 16))
        fuel[2:5, 2:5] = 0  # unburnable pocket
        terrain = Terrain(
            16,
            16,
            fuel=fuel,
            slope=rng.uniform(0.0, 45.0, (16, 16)),
            aspect=rng.uniform(0.0, 360.0, (16, 16)),
        )
        problem = _problem(terrain, seed=85)
        genomes = SPACE.sample(8, 86)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("raster", ["slope", "aspect"])
    def test_single_raster_with_scenario_scalar(self, raster):
        """Only one raster present: the other comes from each genome."""
        rng = np.random.default_rng(87)
        kwargs = (
            {"slope": rng.uniform(0.0, 45.0, (14, 14))}
            if raster == "slope"
            else {"aspect": rng.uniform(0.0, 360.0, (14, 14))}
        )
        problem = _problem(Terrain(14, 14, **kwargs), seed=88)
        genomes = SPACE.sample(7, 89)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_rasters_16_neighbors(self):
        rng = np.random.default_rng(90)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, n_neighbors=16, seed=91)
        genomes = SPACE.sample(5, 92)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_burned_maps_bitwise(self):
        rng = np.random.default_rng(93)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, seed=94)
        genomes = SPACE.sample(4, 95)
        ref = SimulationEngine.from_problem(problem, backend="reference")
        vec = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(
            ref.burned_maps(genomes), vec.burned_maps(genomes)
        )

    def test_heterogeneous_dedupes_repeated_genomes(self):
        rng = np.random.default_rng(96)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, seed=97)
        g = SPACE.sample(3, 98)
        batch = np.vstack([g, g, g[:1]])
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(batch), engine(batch))

    def test_unburnable_river(self):
        problem = _problem(Terrain.with_river(16, 16, gap_row=8), seed=9)
        genomes = SPACE.sample(6, 42)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_16_neighbor_stencil(self):
        problem = _problem(Terrain.uniform(14, 14), n_neighbors=16, seed=11)
        genomes = SPACE.sample(6, 43)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_burned_maps_bitwise(self):
        problem = _problem(Terrain.uniform(14, 14), seed=13)
        genomes = SPACE.sample(4, 44)
        ref = SimulationEngine.from_problem(problem, backend="reference")
        vec = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(
            ref.burned_maps(genomes), vec.burned_maps(genomes)
        )


class TestFlatKernelsMatchReference:
    @pytest.mark.parametrize("n_neighbors", [8, 16])
    def test_raster_kernel_random_travel(self, n_neighbors):
        rng = np.random.default_rng(n_neighbors)
        offsets = stencil(n_neighbors)
        travel = rng.uniform(0.5, 5.0, size=(len(offsets), 12, 12))
        travel[rng.random(travel.shape) < 0.1] = np.inf
        blocked = rng.random((12, 12)) < 0.15
        seeds = [(6, 6), (2, 3)]
        blocked[6, 6] = blocked[2, 3] = False
        expected = propagate(travel, seeds, horizon=20.0, blocked=blocked)
        got = propagate_raster(
            travel, offsets, seeds, horizon=20.0, blocked=blocked
        )
        assert np.array_equal(expected, got)

    def test_uniform_kernel_matches_constant_raster(self):
        offsets = stencil(8)
        weights = [1.0, 1.5, 2.0, np.inf, 1.0, 3.0, 0.5, 2.5]
        travel = np.broadcast_to(
            np.asarray(weights)[:, None, None], (8, 10, 10)
        ).copy()
        seeds = {(5, 5): 0.0, (0, 0): 2.0}
        expected = propagate(travel, seeds, horizon=12.0)
        got = propagate_uniform(weights, (10, 10), offsets, seeds, horizon=12.0)
        assert np.array_equal(expected, got)

    def test_no_horizon_propagates_to_exhaustion(self):
        offsets = stencil(8)
        weights = [2.0] * 8
        expected = propagate(
            np.full((8, 6, 6), 2.0), [(0, 0)], horizon=None
        )
        got = propagate_uniform(weights, (6, 6), offsets, [(0, 0)], horizon=None)
        assert np.array_equal(expected, got)

    def test_seed_validation_matches_reference(self):
        from repro.errors import SimulationError

        offsets = stencil(8)
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, [])
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, [(9, 9)])
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, {(1, 1): -1.0})
        # NaN ignition times and a NaN horizon, in every path
        travel = np.full((8, 6, 6), 1.0)
        grid = FlatGrid((6, 6), offsets)
        seeded = grid.seed([(1, 1)])
        nan_seed = {(1, 1): np.nan}
        for run in (
            lambda: propagate(travel, nan_seed),
            lambda: propagate(travel, [(1, 1)], horizon=np.nan),
            lambda: grid.seed(nan_seed),
            lambda: propagate_uniform([1.0] * 8, (6, 6), offsets, nan_seed),
            lambda: propagate_raster(travel, offsets, nan_seed),
            lambda: propagate_uniform(
                [1.0] * 8, (6, 6), offsets, [(1, 1)], horizon=np.nan
            ),
            lambda: propagate_raster(travel, offsets, [(1, 1)], horizon=np.nan),
            lambda: grid.run_uniform(np.ones((2, 8)), seeded, np.nan),
            lambda: grid.run_table(
                np.ones((2, 8, 1)), np.zeros((6, 6), dtype=int), seeded, np.nan
            ),
            lambda: grid.run_raster(travel[None], seeded, np.nan),
        ):
            with pytest.raises(SimulationError):
                run()

    def test_blocked_seed_is_noop(self):
        offsets = stencil(8)
        blocked = np.zeros((6, 6), dtype=bool)
        blocked[1, 1] = True
        out = propagate_uniform(
            [1.0] * 8, (6, 6), offsets, [(1, 1), (3, 3)], blocked=blocked
        )
        assert np.isinf(out[1, 1])
        assert out[3, 3] == 0.0

    def test_offset_azimuths_cover_compass(self):
        azimuths = [_offset_azimuth_deg(dr, dc) for dr, dc in stencil(8)]
        assert azimuths == pytest.approx([0, 45, 90, 135, 180, 225, 270, 315])


# ----------------------------------------------------------------------
# The batched kernel against the reference Dijkstra, genome by genome
# ----------------------------------------------------------------------
SHAPE = (11, 13)
#: Mapping ignitions with non-zero start times; (5, 5) is blocked below.
SEEDS = {(1, 2): 0.0, (8, 10): 3.5, (5, 5): 1.25, (9, 1): 30.0}


#: A large all-0.0 start region: the shape of every step after the first.
START_REGION = {(r, c): 0.0 for r in range(2, 9) for c in range(2, 11)}


def _random_case(n: int, n_neighbors: int, seed: int, kind: str = "uniform"):
    """``n`` random travel arrays (inf edges, last genome all-inf) and a
    random blocked mask.

    ``kind`` picks the finite travel times: ``uniform`` draws them from
    ``[0.2, 4)``, ``zeros`` makes 30% of those edges exactly ``0.0``
    (zero-weight cycles) and ``integer`` draws whole minutes ``0..4``
    (many tied walk sums).
    """
    rng = np.random.default_rng(seed)
    offsets = stencil(n_neighbors)
    size = (n, len(offsets), *SHAPE)
    if kind == "integer":
        travel = rng.integers(0, 5, size=size).astype(np.float64)
    else:
        travel = rng.uniform(0.2, 4.0, size=size)
    if kind == "zeros":
        travel[rng.random(size) < 0.3] = 0.0
    travel[rng.random(travel.shape) < 0.1] = np.inf
    travel[-1] = np.inf
    blocked = rng.random(SHAPE) < 0.15
    blocked[5, 5] = True
    blocked[1, 2] = blocked[8, 10] = False
    return offsets, travel, blocked


def _reference(travel, horizon, blocked, seeds=SEEDS):
    return np.stack(
        [propagate(t, seeds, horizon=horizon, blocked=blocked) for t in travel]
    )


class TestBatchedKernelMatchesReference:
    @pytest.mark.parametrize("n_neighbors", [8, 16])
    @pytest.mark.parametrize("horizon", [None, 9.5])
    @pytest.mark.parametrize("batch", ["1", "7", "chunks"])
    def test_random_travel_bitwise(self, n_neighbors, horizon, batch):
        chunk = FlatGrid(SHAPE, stencil(n_neighbors)).chunk
        n = 2 * chunk + 3 if batch == "chunks" else int(batch)
        offsets, travel, blocked = _random_case(n, n_neighbors, n + n_neighbors)
        got = propagate_raster(
            travel, offsets, SEEDS, horizon=horizon, blocked=blocked
        )
        assert got.shape == (n, *SHAPE)
        assert np.array_equal(got, _reference(travel, horizon, blocked))
        # the all-inf genome burns exactly its open seed cells in time
        seeds_only = np.full(SHAPE, np.inf)
        for (r, c), t0 in SEEDS.items():
            if not blocked[r, c] and (horizon is None or t0 <= horizon):
                seeds_only[r, c] = t0
        assert np.array_equal(got[-1], seeds_only)

    @pytest.mark.parametrize("n_neighbors", [8, 16])
    @pytest.mark.parametrize("horizon", [None, 9.0])
    @pytest.mark.parametrize(
        "kind, start",
        [("zeros", "seeds"), ("integer", "seeds"), ("uniform", "region")],
    )
    def test_edge_case_travel_bitwise(self, kind, start, horizon, n_neighbors):
        """Zero-weight cycles, tied integer walk sums (also tied with the
        horizon) and a large seeded region, across several chunks."""
        seeds = START_REGION if start == "region" else SEEDS
        n = FlatGrid(SHAPE, stencil(n_neighbors)).chunk + 3
        offsets, travel, blocked = _random_case(n, n_neighbors, n_neighbors, kind)
        got = propagate_raster(
            travel, offsets, seeds, horizon=horizon, blocked=blocked
        )
        assert np.array_equal(got, _reference(travel, horizon, blocked, seeds))

    @pytest.mark.parametrize("n_neighbors", [8, 16])
    def test_class_tables_bitwise(self, n_neighbors):
        rng = np.random.default_rng(40 + n_neighbors)
        offsets = stencil(n_neighbors)
        tables = rng.uniform(0.2, 4.0, size=(6, len(offsets), 5))
        tables[rng.random(tables.shape) < 0.1] = np.inf
        classes = rng.integers(0, 5, SHAPE)
        blocked = rng.random(SHAPE) < 0.1
        grid = FlatGrid(SHAPE, offsets, blocked)
        got = grid.run_table(tables, classes, grid.seed(SEEDS), horizon=12.0)
        travel = np.take(tables, classes, axis=2)
        assert np.array_equal(got, _reference(travel, 12.0, blocked))

    def test_uniform_batch_bitwise(self):
        rng = np.random.default_rng(50)
        offsets = stencil(8)
        weights = rng.uniform(0.5, 3.0, size=(7, 8))
        weights[2, 3] = np.inf
        got = propagate_uniform(weights, SHAPE, offsets, SEEDS, horizon=10.0)
        travel = np.broadcast_to(weights[:, :, None, None], (7, 8, *SHAPE))
        assert np.array_equal(got, _reference(travel, 10.0, None))

    def test_genome_alone_equals_genome_in_batch(self):
        offsets, travel, blocked = _random_case(9, 8, 60)
        batch = propagate_raster(
            travel, offsets, SEEDS, horizon=9.5, blocked=blocked
        )
        reordered = propagate_raster(
            travel[::-1], offsets, SEEDS, horizon=9.5, blocked=blocked
        )
        assert np.array_equal(reordered[::-1], batch)
        for k in (0, 4, 8):
            alone = propagate_raster(
                travel[k], offsets, SEEDS, horizon=9.5, blocked=blocked
            )
            assert np.array_equal(alone, batch[k])

    def test_engine_genome_alone_equals_genome_in_batch(self):
        rng = np.random.default_rng(61)
        terrain = Terrain(
            14,
            14,
            slope=rng.uniform(0.0, 45.0, (14, 14)),
            aspect=rng.uniform(0.0, 360.0, (14, 14)),
        )
        problem = _problem(terrain, seed=62)
        genomes = SPACE.sample(9, 63)
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        batch = engine.burned_maps(genomes)
        for k in (0, 5):
            assert np.array_equal(engine.burned_maps(genomes[k : k + 1])[0], batch[k])


#: ``tracemalloc`` peak, in bytes, of the dense-sweep kernel that the
#: frontier kernel replaced, for the ``run_raster`` call below.
DENSE_KERNEL_PEAK = 911_504


def test_raster_kernel_peak_memory_within_dense_kernel():
    """Wave slices keep a large seeded region's first wave (every seeded
    cell times every direction) from outgrowing the old kernel."""
    grid = FlatGrid((40, 40), stencil(8))
    travel = np.random.default_rng(3).uniform(0.2, 4.0, (grid.chunk, 8, 40, 40))
    seeded = np.full((40, 40), np.inf)
    seeded[6:34, 6:34] = 0.0
    grid.run_raster(travel, seeded, 12.0)  # warm up lazy numpy state
    tracemalloc.start()
    try:
        grid.run_raster(travel, seeded, 12.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_KERNEL_PEAK


#: ``tracemalloc`` peaks, in bytes, of the ``run_uniform`` and
#: ``run_table`` calls below on the kernel that assembled a dense
#: ``(D, genomes, rows, cols)`` travel array for every call, at its
#: ``grid.chunk`` genomes per call (the table peak is the same within
#: 24 bytes for 16 and for 1600 classes).
DENSE_UNIFORM_PEAK = 687_808
DENSE_TABLE_PEAK = 687_904


def _traced_peak(run) -> int:
    run()  # warm up lazy numpy state
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _seeded_40x40() -> np.ndarray:
    seeded = np.full((40, 40), np.inf)
    seeded[6:34, 6:34] = 0.0
    return seeded


def test_uniform_kernel_peak_memory_within_dense_kernel():
    """Per-slice gathers of ``weights + closed`` hold no travel array, so
    a call at the engine's ``genomes_per_call()`` chunk size stays within
    the dense kernel's peak at its smaller chunk."""
    grid = FlatGrid((40, 40), stencil(8))
    weights = np.random.default_rng(4).uniform(
        0.2, 4.0, (grid.genomes_per_call(), 8)
    )
    seeded = _seeded_40x40()
    peak = _traced_peak(lambda: grid.run_uniform(weights, seeded, 12.0))
    assert peak <= DENSE_UNIFORM_PEAK


@pytest.mark.parametrize("n_classes", [16, 1600])
def test_table_kernel_peak_memory_within_dense_kernel(n_classes):
    """The on-demand ``(D, genomes * classes)`` table replaces the dense
    travel array; at the engine's ``genomes_per_call(classes)`` chunk
    size a call stays within the dense kernel's peak, even with every
    cell its own class."""
    grid = FlatGrid((40, 40), stencil(8))
    rng = np.random.default_rng(5)
    tables = rng.uniform(
        0.2, 4.0, (grid.genomes_per_call(n_classes), 8, n_classes)
    )
    classes = rng.integers(0, n_classes, (40, 40))
    seeded = _seeded_40x40()
    peak = _traced_peak(lambda: grid.run_table(tables, classes, seeded, 12.0))
    assert peak <= DENSE_TABLE_PEAK
