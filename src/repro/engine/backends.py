"""Execution backends for the batched simulation engine.

A backend turns a genome batch into Eq. 3 fitness values (and burned
maps) for one prediction step. Two kernels ship, selectable by name:

* ``reference`` — wraps today's per-scenario
  :class:`~repro.firelib.simulator.FireSimulator`; the semantics every
  other backend must reproduce bit-for-bit.
* ``vectorized`` — batches the Rothermel/ellipse math across the whole
  genome batch (one NumPy pass for the directional travel times of
  every spatially-uniform scenario), deduplicates bitwise-equal
  genomes, and runs the propagation through the genome-batched kernel
  of :mod:`repro.engine.fastprop`.

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
from typing import Sequence

import numpy as np

from repro.core.fitness import batch_jaccard, jaccard_fitness
from repro.core.scenario import ParameterSpace
from repro.engine.fastprop import FlatGrid
from repro.errors import ReproError, SimulationError
from repro.firelib.ellipse import eccentricity_from_effective_wind, ros_at_azimuth
from repro.firelib.moisture import Moisture
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.firelib.rothermel import ROS_EPSILON, FuelBed, spread
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.units import METERS_TO_FEET, MPH_TO_FTMIN

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
    per-cell fields, but the Rothermel/ellipse math is vectorized over
    the **genome axis** with the rasters broadcast — one NumPy pass per
    fuel-bed group instead of one per genome. Either way, arrival times
    come from the label-correcting kernel of
    :mod:`repro.engine.fastprop`, one call per chunk of genomes.
    Bitwise-identical rows are simulated once and broadcast back.
    """

    def __init__(self, spec: StepSpec) -> None:
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
        seed_rows, seed_cols = np.nonzero(spec.start_burned)
        self._seed_bbox = (
            (int(seed_rows.min()), int(seed_rows.max())),
            (int(seed_cols.min()), int(seed_cols.max())),
        )
        # Scalar scenarios collapse to D weights per genome; any raster
        # keeps per-cell fields.
        self._uniform = (
            terrain.fuel is None and terrain.slope is None and terrain.aspect is None
        )
        if not self._uniform:
            # Deduplicate cells into terrain classes: every per-cell
            # quantity of the Rothermel/ellipse math depends only on
            # the (fuel, slope, aspect) tuple, so fields and travel
            # times are computed once per distinct tuple and gathered
            # back — at most 14 classes on fuel-only rasters, typically
            # tens for thousands of cells on DEM-derived (quantized)
            # rasters.
            columns = []
            for raster in (terrain.fuel, terrain.slope, terrain.aspect):
                if raster is not None:
                    columns.append(
                        np.asarray(raster, dtype=np.float64).reshape(-1)
                    )
            uniq, inverse = np.unique(
                np.stack(columns, axis=1), axis=0, return_inverse=True
            )
            self._class_of_cell = inverse.reshape(terrain.shape)
            col = 0
            if terrain.fuel is not None:
                self._class_fuel = uniq[:, col].astype(np.int64)
                col += 1
            else:
                self._class_fuel = None
            if terrain.slope is not None:
                self._class_slope = uniq[:, col]
                col += 1
            else:
                self._class_slope = None
            self._class_aspect = uniq[:, col] if terrain.aspect is not None else None
            self._n_classes = uniq.shape[0]

    # ------------------------------------------------------------------
    def _uniform_weight_matrix(
        self, scenarios: Sequence
    ) -> tuple[np.ndarray, np.ndarray]:
        """Travel-time weights ``(n, D)`` and ``ros_max`` ``(n,)`` of a
        batch of uniform scenarios.

        The Rothermel ellipse of each scenario is three scalars; the
        per-direction spread rates of the whole batch then come from a
        single broadcast ``ros_at_azimuth`` evaluation.
        """
        ros = np.empty(len(scenarios), dtype=np.float64)
        heading = np.empty_like(ros)
        ecc = np.empty_like(ros)
        for i, sc in enumerate(scenarios):
            moisture = Moisture.from_percent(sc.m1, sc.m10, sc.m100, sc.mherb)
            result = spread(
                int(sc.model),
                moisture,
                float(sc.wind_speed),
                float(sc.wind_dir),
                float(sc.slope),
                float(sc.aspect),
            )
            ros[i] = result.ros_max
            heading[i] = result.dir_max_deg
            ecc[i] = result.eccentricity
        rates = ros_at_azimuth(
            ros[:, None], heading[:, None], ecc[:, None], self._azimuths[None, :]
        )
        with np.errstate(divide="ignore"):
            weights = np.where(
                rates > ROS_EPSILON, self._distances[None, :] / rates, np.inf
            )
        return weights, ros

    # ------------------------------------------------------------------
    # Fuel/slope/aspect rasters: genome-axis batched fields
    # ------------------------------------------------------------------
    def _raster_fields(
        self, scenarios: Sequence
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class ellipse fields for a whole batch, each ``(n, u)``.

        The genome-axis vectorization of
        :meth:`repro.firelib.simulator.FireSimulator.spread_fields`:
        scenarios are grouped by fuel bed (the scenario ``Model`` on
        fuel-free terrains, each raster fuel code otherwise) and the
        wind–slope vector combination of every group is computed in one
        broadcast NumPy pass over ``(genomes × terrain classes)`` — the
        same elementwise float operations the reference path performs
        per genome per cell, deduplicated to the ``u`` distinct
        (fuel, slope, aspect) tuples, so the gathered per-cell values
        are bitwise identical.
        """
        n = len(scenarios)
        ros = np.zeros((n, self._n_classes), dtype=np.float64)
        dir_ = np.zeros((n, self._n_classes), dtype=np.float64)
        ecc = np.zeros((n, self._n_classes), dtype=np.float64)
        if self._class_fuel is None:
            by_model: dict[int, list[int]] = {}
            for i, sc in enumerate(scenarios):
                by_model.setdefault(int(sc.model), []).append(i)
            for code, rows in by_model.items():
                self._fill_raster_group(
                    code, rows, scenarios, self._class_slope,
                    self._class_aspect, None, ros, dir_, ecc,
                )
        else:
            all_rows = list(range(n))
            for code in np.unique(self._class_fuel):
                if code == 0:
                    continue  # unburnable: fields stay zero, cells blocked
                classes = np.flatnonzero(self._class_fuel == code)
                self._fill_raster_group(
                    int(code),
                    all_rows,
                    scenarios,
                    (
                        self._class_slope[classes]
                        if self._class_slope is not None
                        else None
                    ),
                    (
                        self._class_aspect[classes]
                        if self._class_aspect is not None
                        else None
                    ),
                    classes,
                    ros,
                    dir_,
                    ecc,
                )
        return ros, dir_, ecc

    def _fill_raster_group(
        self,
        code: int,
        rows: list[int],
        scenarios: Sequence,
        slope_cells: np.ndarray | None,
        aspect_cells: np.ndarray | None,
        cells: np.ndarray | None,
        out_ros: np.ndarray,
        out_dir: np.ndarray,
        out_ecc: np.ndarray,
    ) -> None:
        """One fuel bed × all its genomes, broadcast over the cells.

        ``slope_cells``/``aspect_cells`` are the raster values gathered
        at ``cells`` (``None`` = the scenario scalar applies, varying
        per genome); ``cells`` are the flat indices to scatter into
        (``None`` = the whole grid).
        """
        bed = FuelBed.for_model(code)
        r0 = np.empty(len(rows), dtype=np.float64)
        phi_w = np.empty_like(r0)
        wind_dir = np.empty_like(r0)
        for j, i in enumerate(rows):
            sc = scenarios[i]
            moisture = Moisture.from_percent(sc.m1, sc.m10, sc.m100, sc.mherb)
            r0[j] = bed.no_wind_rate(moisture)
            phi_w[j] = bed.phi_wind(
                max(0.0, float(sc.wind_speed)) * MPH_TO_FTMIN
            )
            wind_dir[j] = float(sc.wind_dir)
        # Non-spreading beds short-circuit to all-zero fields in the
        # reference path; keep those rows at the zero initialisation.
        alive = r0 > ROS_EPSILON
        if not alive.any():
            return
        live_rows = np.asarray(rows, dtype=np.intp)[alive]
        r0 = r0[alive, None]
        wnd_rate = (r0[:, 0] * phi_w[alive])[:, None]
        wind_dir = wind_dir[alive, None]
        if slope_cells is not None:
            slope = slope_cells[None, :]
        else:
            slope = np.array(
                [float(scenarios[i].slope) for i in live_rows], dtype=np.float64
            )[:, None]
        if aspect_cells is not None:
            aspect = aspect_cells[None, :]
        else:
            aspect = np.array(
                [float(scenarios[i].aspect) for i in live_rows], dtype=np.float64
            )[:, None]

        # The fireLib wind–slope vector combination, exactly as in
        # repro.firelib.rothermel.spread, with genomes down the rows.
        phi_s = bed.phi_slope(slope)
        upslope = np.mod(aspect + 180.0, 360.0)
        split = np.radians(np.mod(wind_dir - upslope, 360.0))
        slp_rate = r0 * phi_s
        x = slp_rate + wnd_rate * np.cos(split)
        y = wnd_rate * np.sin(split)
        rv = np.hypot(x, y)
        ros_max = r0 + rv
        phi_ew = rv / r0
        dir_max = np.mod(upslope + np.degrees(np.arctan2(y, x)), 360.0)
        dir_max = np.where(rv > ROS_EPSILON, dir_max, 0.0)
        ecc = eccentricity_from_effective_wind(bed.effective_wind(phi_ew))
        ecc = np.where(rv > ROS_EPSILON, ecc, 0.0)

        m = out_ros.shape[1] if cells is None else len(cells)
        target = (len(live_rows), m)
        if cells is None:
            out_ros[live_rows] = np.broadcast_to(ros_max, target)
            out_dir[live_rows] = np.broadcast_to(dir_max, target)
            out_ecc[live_rows] = np.broadcast_to(ecc, target)
        else:
            scatter = np.ix_(live_rows, cells)
            out_ros[scatter] = np.broadcast_to(ros_max, target)
            out_dir[scatter] = np.broadcast_to(dir_max, target)
            out_ecc[scatter] = np.broadcast_to(ecc, target)

    def _reach_box(self, ros_peak: float) -> tuple[slice, slice]:
        """Subgrid that provably contains everything the fire can reach.

        Every stencil move advances the Chebyshev distance by at most
        ``max(|dr|, |dc|) ≤ hypot(dr, dc)`` cells while costing at least
        ``cell_ft·hypot(dr, dc) / ros_peak`` minutes, so reaching a cell
        ``L`` Chebyshev-cells away from the seed set takes at least
        ``L·cell_ft / ros_peak`` minutes. Cells beyond
        ``horizon·ros_peak / cell_ft`` therefore stay unburned in the
        reference propagation too — restricting travel-time assembly
        and propagation to this box cannot change the output.

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

    def _chunks(self, ros_peaks: np.ndarray):
        """Yield ``(rows, box, grid)``: genome chunks sharing one box.

        Genomes go fastest first, so a chunk's reach box — that of its
        first genome — holds the reach box of every genome in it, and
        slow genomes (the bulk of a Table I sample) share small boxes.
        ``grid`` is the box's :class:`FlatGrid`; a chunk has at most
        ``grid.chunk`` genomes.
        """
        order = np.argsort(-ros_peaks, kind="stable")
        lo = 0
        while lo < len(order):
            box = self._reach_box(float(ros_peaks[order[lo]]))
            grid = FlatGrid(
                (box[0].stop - box[0].start, box[1].stop - box[1].start),
                self._offsets,
                self._blocked[box],
            )
            rows = order[lo : lo + grid.chunk]
            yield rows, box, grid
            lo += len(rows)

    def _uniform_burned(self, scenarios: Sequence) -> np.ndarray:
        """Burned masks of a deduplicated uniform-terrain batch."""
        horizon = self.spec.horizon
        maps = np.zeros((len(scenarios), *self.spec.terrain.shape), dtype=bool)
        weights, ros = self._uniform_weight_matrix(scenarios)
        for rows, box, grid in self._chunks(ros):
            times = grid.run_uniform(weights[rows], self._start[box], horizon)
            maps[rows, box[0], box[1]] = times <= horizon
        return maps

    def _raster_burned(self, scenarios: Sequence) -> np.ndarray:
        """Burned masks of a deduplicated fuel/slope/aspect-raster batch.

        Fields come from the genome-axis, class-deduplicated batched
        kernel. Per chunk, the ``(g, D, classes in the box)`` travel
        table follows in one broadcast pass over the classes present
        in the chunk's reach box — the identical elementwise ops of the
        per-direction, per-cell reference loop — and one kernel call
        propagates the whole chunk.
        """
        horizon = self.spec.horizon
        maps = np.zeros((len(scenarios), *self.spec.terrain.shape), dtype=bool)
        fields_chunk = max(
            1, _RASTER_BLOCK_ELEMENTS // max(1, 3 * self._n_classes)
        )
        for lo in range(0, len(scenarios), fields_chunk):
            ros, dir_, ecc = self._raster_fields(
                scenarios[lo : lo + fields_chunk]
            )
            # Class max == cell max: every class occurs on ≥1 cell.
            for rows, box, grid in self._chunks(ros.max(axis=1)):
                classes, cell_class = np.unique(
                    self._class_of_cell[box], return_inverse=True
                )
                pick = np.ix_(rows, classes)
                rates = ros_at_azimuth(
                    ros[pick][:, None, :],
                    dir_[pick][:, None, :],
                    ecc[pick][:, None, :],
                    self._azimuths[None, :, None],
                )
                with np.errstate(divide="ignore"):
                    tables = np.where(
                        rates > ROS_EPSILON,
                        self._distances[None, :, None] / rates,
                        np.inf,
                    )  # (g, D, classes)
                times = grid.run_table(
                    tables,
                    cell_class.reshape(grid.rows, grid.cols),
                    self._start[box],
                    horizon,
                )
                maps[lo + rows, box[0], box[1]] = times <= horizon
        return maps

    def _unique_burned(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Burned masks of the deduplicated batch + inverse index map."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        uniq, inverse = np.unique(genomes, axis=0, return_inverse=True)
        scenarios = [self.spec.space.decode(g) for g in uniq]
        burned = self._uniform_burned if self._uniform else self._raster_burned
        return burned(scenarios), inverse.reshape(-1)

    # ------------------------------------------------------------------
    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        maps, inverse = self._unique_burned(genomes)
        fits = batch_jaccard(
            self.spec.real_burned, maps, pre_burned=self.spec.start_burned
        )
        return fits[inverse]

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        maps, inverse = self._unique_burned(genomes)
        return maps[inverse]


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
            self._backend = create_backend(self.inner, self.spec)
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
