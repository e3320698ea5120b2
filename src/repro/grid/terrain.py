"""Terrain description consumed by the fire simulator.

In the ESS lineage the *scenario* (parameter vector, Table I of the
paper) describes environmental conditions and terrain topography as
scalars — the optimisation searches over uniform values of fuel model,
slope and aspect. The :class:`Terrain` therefore primarily fixes the grid
geometry; per-cell rasters are optional extensions used by the
heterogeneous workloads and override the scenario scalars when present.

Units
-----
* ``cell_size`` — metres (converted to the Rothermel foot/minute unit
  system inside :mod:`repro.firelib.rothermel`).
* ``slope`` — degrees from horizontal (0–81, Table I).
* ``aspect`` — degrees clockwise from North; the direction the surface
  *faces* (downslope direction), per the fireLib/BehavePlus convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TerrainError

__all__ = ["CellClasses", "Terrain"]

#: Valid NFFL fuel model codes; 0 denotes an unburnable cell (rock, water).
_VALID_FUEL_CODES = frozenset(range(0, 14))


@dataclass(frozen=True)
class CellClasses:
    """A raster terrain's cells grouped into their distinct ``(fuel,
    slope, aspect)`` raster tuples.

    Every per-cell quantity of the Rothermel/ellipse math depends only
    on that tuple, so it can be computed once per class and gathered
    back: at most 14 classes on fuel-only rasters, typically tens for
    thousands of cells on DEM-derived (quantized) rasters.

    ``of_cell`` is the ``(rows, cols)`` class index of every cell, in
    ``range(count)``; ``fuel``, ``slope`` and ``aspect`` are
    ``(count,)`` columns, ``None`` where the terrain has no such raster
    (the scenario scalar applies).
    """

    count: int
    of_cell: np.ndarray
    fuel: np.ndarray | None
    slope: np.ndarray | None
    aspect: np.ndarray | None

    @classmethod
    def of(cls, terrain: "Terrain") -> "CellClasses":
        """Deduplicate the cells of a terrain with at least one raster."""
        rasters = (terrain.fuel, terrain.slope, terrain.aspect)
        columns = [
            np.asarray(raster, dtype=np.float64).reshape(-1)
            for raster in rasters
            if raster is not None
        ]
        uniq, inverse = np.unique(
            np.stack(columns, axis=1), axis=0, return_inverse=True
        )
        values = iter(uniq.T)
        fuel, slope, aspect = (
            None if raster is None else next(values) for raster in rasters
        )
        return cls(
            count=len(uniq),
            of_cell=inverse.reshape(terrain.shape),
            fuel=None if fuel is None else fuel.astype(np.int64),
            slope=slope,
            aspect=aspect,
        )


@dataclass(frozen=True)
class Terrain:
    """Static description of the simulated landscape.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (cells).
    cell_size:
        Side of a (square) cell in metres. Must be positive.
    fuel:
        Optional per-cell NFFL fuel-model codes (``int`` array, 0–13;
        0 = unburnable). When ``None`` the scenario's ``Model`` scalar
        applies everywhere.
    slope, aspect:
        Optional per-cell rasters (degrees). When ``None`` the
        scenario's ``Slope``/``Aspect`` scalars apply everywhere.
    unburnable:
        Optional boolean mask of cells the fire can never enter.
        Combined with ``fuel == 0`` cells.
    """

    rows: int
    cols: int
    cell_size: float = 30.0
    fuel: np.ndarray | None = None
    slope: np.ndarray | None = None
    aspect: np.ndarray | None = None
    unburnable: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise TerrainError(
                f"terrain must be at least 2x2 cells, got {self.rows}x{self.cols}"
            )
        if not (self.cell_size > 0) or not np.isfinite(self.cell_size):
            raise TerrainError(f"cell_size must be positive, got {self.cell_size}")
        for name in ("fuel", "slope", "aspect", "unburnable"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            if arr.shape != self.shape:
                raise TerrainError(
                    f"{name} raster shape {arr.shape} != terrain shape {self.shape}"
                )
            object.__setattr__(self, name, arr)
        if self.fuel is not None:
            codes = np.unique(self.fuel)
            bad = set(int(c) for c in codes) - _VALID_FUEL_CODES
            if bad:
                raise TerrainError(f"invalid fuel model codes in raster: {sorted(bad)}")
            object.__setattr__(self, "fuel", self.fuel.astype(np.int64))
        if self.slope is not None:
            s = self.slope.astype(np.float64)
            if (s < 0).any() or (s >= 90).any():
                raise TerrainError("slope raster must be within [0, 90) degrees")
            object.__setattr__(self, "slope", s)
        if self.aspect is not None:
            object.__setattr__(
                self, "aspect", np.mod(self.aspect.astype(np.float64), 360.0)
            )
        if self.unburnable is not None:
            object.__setattr__(self, "unburnable", self.unburnable.astype(bool))

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(rows, cols)``."""
        return (self.rows, self.cols)

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.rows * self.cols

    @property
    def extent_m(self) -> tuple[float, float]:
        """Physical extent ``(height_m, width_m)``."""
        return (self.rows * self.cell_size, self.cols * self.cell_size)

    def center(self) -> tuple[int, int]:
        """Index of the central cell."""
        return (self.rows // 2, self.cols // 2)

    def contains(self, row: int, col: int) -> bool:
        """Whether ``(row, col)`` is a valid cell index."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    @property
    def is_uniform(self) -> bool:
        """Whether every cell takes fuel, slope and aspect from the
        scenario (no rasters)."""
        return self.fuel is None and self.slope is None and self.aspect is None

    @cached_property
    def cell_classes(self) -> CellClasses:
        """The cells' :class:`CellClasses`, computed once per terrain.

        Raises :class:`TerrainError` on uniform terrain, which has no
        rasters to group by.
        """
        if self.is_uniform:
            raise TerrainError("uniform terrain has no cell classes")
        return CellClasses.of(self)

    def blocked_mask(self) -> np.ndarray:
        """Boolean mask of cells the fire can never enter."""
        mask = np.zeros(self.shape, dtype=bool)
        if self.fuel is not None:
            mask |= self.fuel == 0
        if self.unburnable is not None:
            mask |= self.unburnable
        return mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, rows: int, cols: int, cell_size: float = 30.0) -> "Terrain":
        """Homogeneous terrain: every property comes from the scenario."""
        return cls(rows=rows, cols=cols, cell_size=cell_size)

    @classmethod
    def with_fuel_patches(
        cls,
        rows: int,
        cols: int,
        base_model: int,
        patches: list[tuple[slice, slice, int]],
        cell_size: float = 30.0,
    ) -> "Terrain":
        """Terrain with rectangular fuel patches over a base model.

        ``patches`` is a list of ``(row_slice, col_slice, fuel_code)``
        applied in order (later patches overwrite earlier ones).
        """
        fuel = np.full((rows, cols), base_model, dtype=np.int64)
        for rs, cs, code in patches:
            fuel[rs, cs] = code
        return cls(rows=rows, cols=cols, cell_size=cell_size, fuel=fuel)

    @classmethod
    def with_ridge(
        cls,
        rows: int,
        cols: int,
        max_slope: float = 30.0,
        cell_size: float = 30.0,
    ) -> "Terrain":
        """Terrain with a central north-south ridge.

        Slope increases linearly towards the ridge line; cells west of
        the ridge face west (aspect 270) and cells east face east
        (aspect 90). Used by the heterogeneous workloads.
        """
        ridge_col = cols // 2
        dist = np.abs(np.arange(cols) - ridge_col)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = 1.0 - dist / max(ridge_col, 1)
        slope_row = np.clip(frac, 0.0, 1.0) * max_slope
        slope = np.tile(slope_row, (rows, 1))
        aspect = np.where(np.arange(cols) < ridge_col, 270.0, 90.0)
        aspect = np.tile(aspect, (rows, 1))
        return cls(
            rows=rows,
            cols=cols,
            cell_size=cell_size,
            slope=slope,
            aspect=aspect,
        )

    @classmethod
    def with_river(
        cls,
        rows: int,
        cols: int,
        river_col: int | None = None,
        width: int = 1,
        gap_row: int | None = None,
        cell_size: float = 30.0,
    ) -> "Terrain":
        """Terrain crossed by an unburnable vertical strip ("river").

        An optional ``gap_row`` leaves a one-cell ford the fire can cross,
        which makes the prediction problem deceptive: scenarios must push
        the fire through the gap to match reality.
        """
        river_col = cols // 2 if river_col is None else river_col
        mask = np.zeros((rows, cols), dtype=bool)
        mask[:, river_col : river_col + width] = True
        if gap_row is not None:
            mask[gap_row, river_col : river_col + width] = False
        return cls(rows=rows, cols=cols, cell_size=cell_size, unburnable=mask)
