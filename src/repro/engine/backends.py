"""Execution backends for the batched simulation engine.

A backend turns a genome batch into Eq. 3 fitness values (and burned
maps) for one prediction step. Two kernels ship, selectable by name:

* ``reference`` — wraps today's per-scenario
  :class:`~repro.firelib.simulator.FireSimulator`; the semantics every
  other backend must reproduce bit-for-bit.
* ``vectorized`` — decodes the deduplicated genome batch once and
  batches the Rothermel/ellipse math across it (one pass over the
  :class:`~repro.firelib.rothermel.FuelBedTable` for the scalar terms
  of every scenario, one for the directional travel times of every
  spatially-uniform scenario), and runs the propagation
  through the genome-batched kernel of :mod:`repro.engine.fastprop`,
  which on raster terrains computes a travel time only when the fire
  spreads out of a cell of that class.

:class:`ProcessBackend` is not a third name: it is the pool wrapper
the engine builds over either kernel whenever ``n_workers > 1``. It
fans fitness batches out to a
:class:`~repro.parallel.executor.ProcessPoolEvaluator` whose workers
each receive the step spec once (copy-on-write shared rasters under the
``fork`` start method) and evaluate their chunk with that kernel.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.fitness import batch_jaccard, jaccard_fitness
from repro.core.scenario import ParameterSpace, ScenarioBatch
from repro.engine.fastprop import ClassTables, FlatGrid
from repro.errors import ReproError, SimulationError
from repro.firelib.ellipse import ros_from_flank
from repro.firelib.moisture import Moisture
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.firelib.rothermel import (
    ROS_EPSILON,
    FuelBed,
    FuelBedTable,
    ellipse_fields,
    wind_ftmin,
)
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.obs import span
from repro.units import METERS_TO_FEET

#: Element budget for the three batched ``(chunk, n_classes)`` field
#: arrays of the raster path (float64: ~32 MB per chunk).
_RASTER_BLOCK_ELEMENTS = 4_000_000

__all__ = [
    "StepSpec",
    "EngineBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "backend_names",
    "create_backend",
]


@dataclass(frozen=True)
class StepSpec:
    """Everything a backend needs to evaluate one prediction step.

    The picklable, engine-level equivalent of
    :class:`repro.systems.problem.PredictionStepProblem` (which wraps
    one of these): terrain, the burned region the simulation restarts
    from, the real burned region it is scored against, and the step
    horizon.
    """

    terrain: Terrain
    start_burned: np.ndarray
    real_burned: np.ndarray
    horizon: float
    space: ParameterSpace
    n_neighbors: int = 8

    @classmethod
    def from_problem(cls, problem) -> "StepSpec":
        """Build a spec from anything shaped like a step problem.

        ``problem`` must expose ``terrain``, ``start_burned``,
        ``real_burned``, ``horizon``, ``space`` and ``n_neighbors`` —
        :class:`repro.systems.problem.PredictionStepProblem` does. The
        single construction point shared by the engine facade and the
        run-scoped session, so a new spec field cannot silently go
        missing on one path.
        """
        if isinstance(problem, cls):
            return problem
        return cls(
            terrain=problem.terrain,
            start_burned=problem.start_burned,
            real_burned=problem.real_burned,
            horizon=problem.horizon,
            space=problem.space,
            n_neighbors=problem.n_neighbors,
        )

    def __post_init__(self) -> None:
        start = np.asarray(self.start_burned, dtype=bool)
        real = np.asarray(self.real_burned, dtype=bool)
        if start.shape != self.terrain.shape:
            raise SimulationError(
                f"start_burned shape {start.shape} != terrain {self.terrain.shape}"
            )
        if real.shape != self.terrain.shape:
            raise SimulationError(
                f"real_burned shape {real.shape} != terrain {self.terrain.shape}"
            )
        if not start.any():
            raise SimulationError("start_burned must contain at least one cell")
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise SimulationError(
                f"horizon must be a positive finite time: {self.horizon}"
            )
        object.__setattr__(self, "start_burned", start)
        object.__setattr__(self, "real_burned", real)


class EngineBackend(ABC):
    """One execution strategy for a step's genome batches."""

    def __init__(self, spec: StepSpec) -> None:
        self.spec = spec

    @abstractmethod
    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Eq. 3 fitness of each genome row, shape ``(n,)``."""

    @abstractmethod
    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Simulated burned masks at the step end, shape ``(n, H, W)``."""

    def close(self) -> None:
        """Release any held resources (idempotent; default no-op)."""


# ----------------------------------------------------------------------
# reference
# ----------------------------------------------------------------------
class ReferenceBackend(EngineBackend):
    """Per-scenario evaluation through :class:`FireSimulator`.

    This is exactly the pre-engine Worker loop: decode one genome,
    restart the fire from the step-start region, score the burned map.
    """

    def __init__(self, spec: StepSpec) -> None:
        super().__init__(spec)
        self._simulator = FireSimulator(spec.terrain, n_neighbors=spec.n_neighbors)

    def _burned_map(self, genome: np.ndarray) -> np.ndarray:
        scenario = self.spec.space.decode(genome)
        result = self._simulator.simulate_from_burned(
            scenario, self.spec.start_burned, self.spec.horizon
        )
        return result.burned()

    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        out = np.empty(genomes.shape[0], dtype=np.float64)
        for i, g in enumerate(genomes):
            out[i] = jaccard_fitness(
                self.spec.real_burned, self._burned_map(g), self.spec.start_burned
            )
        return out

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        maps = np.empty((genomes.shape[0], *self.spec.terrain.shape), dtype=bool)
        for i, g in enumerate(genomes):
            maps[i] = self._burned_map(g)
        return maps


# ----------------------------------------------------------------------
# vectorized
# ----------------------------------------------------------------------
class VectorizedBackend(EngineBackend):
    """Batched NumPy fields + genome-batched propagation kernel.

    For spatially-uniform scenarios (no fuel/slope/aspect rasters) the
    per-cell spread fields collapse to per-genome scalars, so the
    directional travel times of the **whole batch** are produced in one
    ``(n, D)`` NumPy pass. Fuel, slope and aspect rasters keep
    per-cell fields over the terrain's
    :attr:`~repro.grid.terrain.Terrain.cell_classes`: R₀ and φ_w of
    every (genome, fuel bed) pair come from one pass over the
    :class:`~repro.firelib.rothermel.FuelBedTable`, and the ellipse math
    of each bed is one broadcast over its genomes × classes. Each
    ``(genome, class)`` travel time is computed on demand inside the
    kernel. Either way, arrival times come from the label-correcting
    kernel of :mod:`repro.engine.fastprop`, one call per chunk of
    genomes. Rows equal by value are simulated once and broadcast back.

    Work is kept for the rest of the step. Every fitness batch keeps
    the burned mask of each genome it simulated, bit-packed and keyed
    by the bytes of the genome row, and :meth:`burned_map_batch` hands
    only genomes it does not hold to the kernel: the Statistical Stage
    aggregates maps of genomes the Optimization Stage already
    simulated. ``keep_maps=False`` skips that memo, for a pool worker
    whose maps nobody asks for. Each distinct reach box's
    :class:`FlatGrid` and cell classes are built once. :meth:`close`
    drops both.

    Each batch records one ``fields`` span and one ``propagate`` span
    per kernel call in the process telemetry registry.
    """

    def __init__(self, spec: StepSpec, keep_maps: bool = True) -> None:
        super().__init__(spec)
        terrain = spec.terrain
        self._offsets = stencil(spec.n_neighbors)
        self._blocked = terrain.blocked_mask()
        cell_ft = terrain.cell_size * METERS_TO_FEET
        self._cell_ft = cell_ft
        self._azimuths = np.array(
            [_offset_azimuth_deg(dr, dc) for dr, dc in self._offsets]
        )
        self._distances = np.array(
            [cell_ft * math.hypot(dr, dc) for dr, dc in self._offsets]
        )
        # Step-start arrival times: every burned cell ignites at t=0
        # (blocked ones never ignite), as in simulate_from_burned.
        self._start = np.where(
            spec.start_burned & ~self._blocked, 0.0, np.inf
        )
        # Burned masks of simulated genomes, np.packbits of the flat
        # mask keyed by the genome row's _distinct_rows key; and per
        # reach box (its bounds) the box's FlatGrid and cell classes.
        self._keep_maps = keep_maps
        self._maps: dict[bytes, np.ndarray] = {}
        self._boxes: dict[tuple[int, int, int, int], tuple] = {}
        seed_rows, seed_cols = np.nonzero(spec.start_burned)
        self._seed_bbox = (
            (int(seed_rows.min()), int(seed_rows.max())),
            (int(seed_cols.min()), int(seed_cols.max())),
        )
        self._table = FuelBedTable.catalog()
        # Scalar scenarios collapse to D weights per genome; any raster
        # keeps per-cell fields.
        self._uniform = terrain.is_uniform
        if not self._uniform:
            self._classes = terrain.cell_classes
            # The burnable beds of a fuel raster, each with its classes
            # (unburnable classes keep zero fields; their cells are
            # blocked).
            fuel = self._classes.fuel
            self._bed_classes = (
                None
                if fuel is None
                else {
                    int(code): np.flatnonzero(fuel == code)
                    for code in np.unique(fuel[fuel != 0])
                }
            )

    # ------------------------------------------------------------------
    def _fractions(self, batch: ScenarioBatch) -> np.ndarray:
        """The batch's ``(n, 4)`` moisture fractions, range checked."""
        fractions = np.column_stack(
            [batch.m1, batch.m10, batch.m100, batch.mherb]
        ) / 100.0
        Moisture.check_fractions(fractions)
        return fractions

    def _uniform_weight_matrix(
        self, batch: ScenarioBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Travel-time weights ``(n, D)`` and ``ros_max`` ``(n,)`` of a
        batch of uniform scenarios.

        The Rothermel ellipse of each scenario is three scalars, which
        :meth:`~repro.firelib.rothermel.FuelBedTable.spread` computes for
        the whole batch at once; so do the travel times, in one
        broadcast pass.
        """
        ros, heading, ecc = self._table.spread(
            batch.model,
            self._fractions(batch),
            batch.wind_speed,
            batch.wind_dir,
            batch.slope,
            batch.aspect,
        )
        return self._directional_travel(ros * (1.0 - ecc), heading, ecc).T, ros

    def _directional_travel(
        self, flank: np.ndarray, heading: np.ndarray, ecc: np.ndarray
    ) -> np.ndarray:
        """``(D, n)`` travel times out of ``n`` growth ellipses given by
        their flanking rates ``ros_max * (1 - ecc)``: the per-direction
        elementwise ops of
        :func:`~repro.firelib.propagation.directional_travel_times`."""
        rates = ros_from_flank(flank, heading, ecc, self._azimuths[:, None])
        return np.divide(
            self._distances[:, None],
            rates,
            out=np.full(rates.shape, np.inf),
            where=rates > ROS_EPSILON,
        )

    # ------------------------------------------------------------------
    # Fuel/slope/aspect rasters: genome-axis batched fields
    # ------------------------------------------------------------------
    def _raster_fields(self, batch: ScenarioBatch) -> np.ndarray:
        """Per-class ellipse fields of a whole batch, ``(3, n, u)``:
        ros_max, heading and eccentricity.

        The genome-axis vectorization of
        :meth:`repro.firelib.simulator.FireSimulator.spread_fields`.
        Each genome burns one fuel bed per class: the scenario ``Model``
        on fuel-free terrains, each burnable raster fuel code
        otherwise. R₀ and φ_w of every (genome, bed) pair come from one
        :class:`~repro.firelib.rothermel.FuelBedTable` pass; then the
        wind–slope vector combination of each bed is one broadcast NumPy
        pass over (its spreading genomes × its terrain classes), with
        the bed's scalar coefficients. These are the elementwise float
        operations the reference path performs per genome per cell,
        deduplicated to the ``u`` distinct (fuel, slope, aspect) tuples,
        so the gathered per-cell values are bitwise identical.
        Non-spreading pairs keep all-zero fields, as the reference path
        short-circuits them.
        """
        n = len(batch)
        classes = self._classes
        fields = np.zeros((3, n, classes.count), dtype=np.float64)
        if self._bed_classes is None:
            rows, codes = np.arange(n), batch.model
        else:
            beds = list(self._bed_classes)
            rows, codes = np.repeat(np.arange(n), len(beds)), np.tile(beds, n)
        r0 = self._table.no_wind_rates(codes, self._fractions(batch)[rows])
        alive = r0 > ROS_EPSILON
        rows, codes, r0 = rows[alive], codes[alive], r0[alive]
        phi_w = self._table.phi_winds(codes, wind_ftmin(batch.wind_speed[rows]))
        for code in np.unique(codes):
            pairs = codes == code
            live = rows[pairs]
            on = (
                np.arange(classes.count)
                if self._bed_classes is None
                else self._bed_classes[int(code)]
            )
            bed = FuelBed.for_model(int(code))
            values = ellipse_fields(
                r0[pairs, None],
                phi_w[pairs, None],
                batch.wind_dir[live, None],
                classes.slope[None, on]
                if classes.slope is not None
                else batch.slope[live, None],
                classes.aspect[None, on]
                if classes.aspect is not None
                else batch.aspect[live, None],
                bed.slope_k,
                bed.wind_k,
                bed.wind_e_inv,
                scalar_terrain=False,
            )
            index = np.ix_(live, on)
            for plane, value in zip(fields, values):
                plane[index] = value
        return fields

    def _reach_box(self, ros_peak: float) -> tuple[slice, slice]:
        """Subgrid that provably contains everything the fire can reach.

        Every stencil move advances the Chebyshev distance by at most
        ``max(|dr|, |dc|) ≤ hypot(dr, dc)`` cells while costing at least
        ``cell_ft·hypot(dr, dc) / ros_peak`` minutes, so reaching a cell
        ``L`` Chebyshev-cells away from the seed set takes at least
        ``L·cell_ft / ros_peak`` minutes. Cells beyond
        ``horizon·ros_peak / cell_ft`` therefore stay unburned in the
        reference propagation too — restricting propagation to this
        box cannot change the output.

        The radius is rounded up to a multiple of 8 cells: enlarging
        the box never changes the output, and quantizing lets genomes of
        near-equal ros_max share one chunk's box at little extra cost.
        """
        rows, cols = self.spec.terrain.shape
        if ros_peak > ROS_EPSILON:
            radius = int(math.ceil(self.spec.horizon * ros_peak / self._cell_ft)) + 2
            radius = -(-radius // 8) * 8
        else:
            radius = 0
        (r0, r1), (c0, c1) = self._seed_bbox
        return (
            slice(max(0, r0 - radius), min(rows, r1 + 1 + radius)),
            slice(max(0, c0 - radius), min(cols, c1 + 1 + radius)),
        )

    def _box_geometry(self, box: tuple[slice, slice]) -> tuple:
        """``(grid, classes)`` of a reach box, built on first use.

        ``grid`` is the box's :class:`FlatGrid`. On raster terrains
        ``classes`` is ``np.unique`` of the box's cell classes with the
        inverse (``None`` on uniform terrain).
        """
        key = (box[0].start, box[0].stop, box[1].start, box[1].stop)
        geometry = self._boxes.get(key)
        if geometry is None:
            grid = FlatGrid(
                (box[0].stop - box[0].start, box[1].stop - box[1].start),
                self._offsets,
                self._blocked[box],
            )
            classes = (
                None
                if self._uniform
                else np.unique(self._classes.of_cell[box], return_inverse=True)
            )
            geometry = self._boxes[key] = (grid, classes)
        return geometry

    def _chunks(self, ros_peaks: np.ndarray):
        """Yield ``(rows, box, grid, classes)``: genome chunks sharing one box.

        Genomes go fastest first, so a chunk's reach box — that of its
        first genome — holds the reach box of every genome in it, and
        slow genomes (the bulk of a Table I sample) share small boxes.
        ``grid`` and ``classes`` are the box's :meth:`_box_geometry`. A
        chunk holds as many genomes as :meth:`FlatGrid.genomes_per_call`
        allows for what its kernel call allocates.
        """
        order = np.argsort(-ros_peaks, kind="stable")
        lo = 0
        while lo < len(order):
            box = self._reach_box(float(ros_peaks[order[lo]]))
            grid, classes = self._box_geometry(box)
            size = grid.genomes_per_call(
                None if classes is None else len(classes[0])
            )
            rows = order[lo : lo + size]
            yield rows, box, grid, classes
            lo += len(rows)

    def _uniform_burned(self, batch: ScenarioBatch) -> np.ndarray:
        """Burned masks of a deduplicated uniform-terrain batch."""
        horizon = self.spec.horizon
        maps = np.zeros((len(batch), *self.spec.terrain.shape), dtype=bool)
        with span("fields", genomes=len(batch)):
            weights, ros = self._uniform_weight_matrix(batch)
        for rows, box, grid, _ in self._chunks(ros):
            with span("propagate", genomes=len(rows), cells=grid.rows * grid.cols):
                times = grid.run_uniform(weights[rows], self._start[box], horizon)
            maps[rows, box[0], box[1]] = times <= horizon
        return maps

    def _raster_burned(self, batch: ScenarioBatch) -> np.ndarray:
        """Burned masks of a deduplicated fuel/slope/aspect-raster batch.

        Fields come from the genome-axis, class-deduplicated batched
        kernel. Per chunk, one kernel call propagates the whole chunk
        over the classes present in its reach box; each ``(genome,
        class)`` travel-table entry is computed only once the fire
        spreads out of a cell of that class (see
        :class:`~repro.engine.fastprop.ClassTables`).
        """
        horizon = self.spec.horizon
        maps = np.zeros((len(batch), *self.spec.terrain.shape), dtype=bool)
        fields_chunk = max(
            1, _RASTER_BLOCK_ELEMENTS // (3 * self._classes.count)
        )
        for lo in range(0, len(batch), fields_chunk):
            part = batch[lo : lo + fields_chunk]
            with span("fields", genomes=len(part), classes=self._classes.count):
                fields = self._raster_fields(part)
            # Class max == cell max: every class occurs on ≥1 cell.
            for rows, box, grid, (classes, cell_class) in self._chunks(
                fields[0].max(axis=1)
            ):
                # The chunk's (3, pairs) ellipse fields, pair k * u + j
                # being genome rows[k] on class classes[j], with ros_max
                # turned into the flanking rate ros_max * (1 - ecc).
                pair = fields[:, rows[:, None], classes[None, :]].reshape(3, -1)
                pair[0] *= 1.0 - pair[2]
                tables = ClassTables(
                    len(rows),
                    len(classes),
                    lambda pairs, pair=pair: self._directional_travel(
                        *pair.take(pairs, axis=1)
                    ),
                )
                with span(
                    "propagate", genomes=len(rows), cells=grid.rows * grid.cols
                ):
                    times = grid.run_table(
                        tables,
                        cell_class.reshape(grid.rows, grid.cols),
                        self._start[box],
                        horizon,
                    )
                maps[lo + rows, box[0], box[1]] = times <= horizon
        return maps

    def _burned(self, genomes: np.ndarray) -> np.ndarray:
        """Burned masks of distinct genome rows."""
        batch = self.spec.space.decode_batch(genomes)
        if self._uniform:
            return self._uniform_burned(batch)
        return self._raster_burned(batch)

    # ------------------------------------------------------------------
    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        keys, first, inverse = _distinct_rows(genomes)
        maps = self._burned(genomes[first])
        if self._keep_maps:
            packed = np.packbits(maps.reshape(len(maps), -1), axis=1)
            self._maps.update(zip(keys, packed))
        fits = batch_jaccard(
            self.spec.real_burned, maps, pre_burned=self.spec.start_burned
        )
        return fits[inverse]

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Burned masks, from the fitness batches' memo where it holds
        the genome row; the other distinct rows go to the kernel as one
        batch."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        shape = self.spec.terrain.shape
        keys, first, inverse = _distinct_rows(genomes)
        maps = np.empty((len(first), *shape), dtype=bool)
        held = [self._maps.get(key) for key in keys]
        hits = [g for g, packed in enumerate(held) if packed is not None]
        misses = [g for g, packed in enumerate(held) if packed is None]
        if hits:
            unpacked = np.unpackbits(
                np.stack([held[g] for g in hits]), axis=1, count=maps[0].size
            )
            maps[hits] = unpacked.view(bool).reshape(len(hits), *shape)
        if misses:
            maps[misses] = self._burned(genomes[[first[g] for g in misses]])
        return maps[inverse]

    def close(self) -> None:
        self._maps.clear()
        self._boxes.clear()


def _distinct_rows(genomes: np.ndarray) -> tuple[list[bytes], list[int], np.ndarray]:
    """Group the rows of a genome matrix by value.

    The groups of ``np.unique(genomes, axis=0)`` (``-0.0`` equals
    ``0.0``), in first-seen order and without its structured-row sort.
    Returns each group's key (the bytes of its rows with ``-0.0``
    folded into ``0.0``), the index of its first row, and each row's
    group.
    """
    groups: dict[bytes, int] = {}
    first: list[int] = []
    inverse = np.empty(len(genomes), dtype=np.intp)
    for i, row in enumerate(genomes + 0.0):
        inverse[i] = group = groups.setdefault(row.tobytes(), len(first))
        if group == len(first):
            first.append(i)
    return list(groups), first, inverse


# ----------------------------------------------------------------------
# worker pool over either kernel
# ----------------------------------------------------------------------
class _SpecProblem:
    """Picklable shim shipping a :class:`StepSpec` into pool workers.

    Satisfies :class:`repro.parallel.executor.BatchProblem`; the inner
    backend is rebuilt lazily after unpickling so only the spec crosses
    the process boundary (once, at pool start).
    """

    def __init__(self, spec: StepSpec, inner: str) -> None:
        self.spec = spec
        self.inner = inner
        self._backend: EngineBackend | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_backend"] = None
        return state

    def _get_backend(self) -> EngineBackend:
        if self._backend is None:
            # The parent serves map batches from its local backend, so a
            # worker keeps no masks.
            options = {"keep_maps": False} if self.inner == "vectorized" else {}
            self._backend = create_backend(self.inner, self.spec, **options)
        return self._backend

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        return self._get_backend().fitness_batch(genomes)


class ProcessBackend(EngineBackend):
    """Multiprocess fan-out over one kernel, for ``n_workers > 1``.

    Not selectable by name: :class:`~repro.engine.core.SimulationEngine`
    wraps the chosen kernel in this class whenever it is given more
    than one worker. Fitness batches are chunked across a
    :class:`~repro.parallel.executor.ProcessPoolEvaluator` whose
    workers each hold one ``inner``-kernel instance. Burned-map
    batches — the small per-step Statistical Stage calls — run on a
    local inner backend to avoid shipping ``(n, H, W)`` masks back
    through the pipe.

    When ``pool`` is given (a run-scoped session's persistent pool),
    the backend broadcasts this step's spec to the standing workers
    via :meth:`~repro.parallel.executor.ProcessPoolEvaluator.
    update_problem` instead of forking a fresh pool, and :meth:`close`
    leaves the pool running for the next step.
    """

    def __init__(
        self,
        spec: StepSpec,
        inner: str,
        n_workers: int | None = None,
        pool=None,
    ) -> None:
        super().__init__(spec)
        self.inner = inner
        self._local: EngineBackend | None = None  # built on first map batch
        if pool is not None:
            self._owns_pool = False
            self._pool = pool
            pool.update_problem(_SpecProblem(spec, inner))
        else:
            # imported here: executor pulls in multiprocessing, keep the
            # serial backends importable without it
            from repro.parallel.executor import ProcessPoolEvaluator

            self._owns_pool = True
            self._pool = ProcessPoolEvaluator(
                _SpecProblem(spec, inner), n_workers=n_workers
            )
        self.n_workers = self._pool.n_workers

    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        return self._pool(genomes)

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        if self._local is None:
            self._local = create_backend(self.inner, self.spec)
        return self._local.burned_map_batch(genomes)

    def close(self) -> None:
        if self._local is not None:
            self._local.close()
        if self._owns_pool:
            self._pool.close()


# ----------------------------------------------------------------------
# lookup by name
# ----------------------------------------------------------------------
_KERNELS: dict[str, type[EngineBackend]] = {
    "reference": ReferenceBackend,
    "vectorized": VectorizedBackend,
}


def backend_names() -> tuple[str, ...]:
    """Selectable backend names, sorted."""
    return tuple(sorted(_KERNELS))


def create_backend(name: str, spec: StepSpec, **kwargs) -> EngineBackend:
    """Instantiate a backend kernel by name."""
    try:
        cls = _KERNELS[name]
    except KeyError:
        raise ReproError(
            f"unknown engine backend {name!r}; choose from {backend_names()}"
        ) from None
    return cls(spec, **kwargs)
