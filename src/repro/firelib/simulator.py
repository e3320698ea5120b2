"""The fire simulator facade (fireLib's ``FireSim`` equivalent).

:class:`FireSimulator` binds a :class:`~repro.grid.terrain.Terrain` and
turns a *scenario* — the nine Table I parameters — into the per-cell
ignition-time map the paper's pipeline consumes (``FS`` in Figs. 1–3).

The scenario is duck-typed through :class:`ScenarioInputs` so this
package stays independent of :mod:`repro.core`; the canonical
:class:`repro.core.scenario.Scenario` satisfies the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.errors import ScenarioError, SimulationError
from repro.firelib.moisture import Moisture
from repro.firelib.propagation import directional_travel_times, propagate
from repro.firelib.rothermel import spread
from repro.grid.firemap import IgnitionMap
from repro.grid.terrain import Terrain
from repro.units import METERS_TO_FEET

__all__ = ["ScenarioInputs", "FireSimulator", "SimulationResult", "METERS_TO_FEET"]


@runtime_checkable
class ScenarioInputs(Protocol):
    """Structural type of a simulator input scenario (Table I units).

    Attributes
    ----------
    model:
        NFFL fuel model code, 1–13.
    wind_speed:
        Wind speed, miles/hour.
    wind_dir:
        Compass azimuth toward which the wind blows, degrees clockwise
        from North.
    m1, m10, m100, mherb:
        Fuel moistures, percent.
    slope:
        Surface slope, degrees.
    aspect:
        Compass azimuth the surface faces, degrees clockwise from North.
    """

    model: int
    wind_speed: float
    wind_dir: float
    m1: float
    m10: float
    m100: float
    mherb: float
    slope: float
    aspect: float


@dataclass(frozen=True)
class SimulationResult:
    """Output of one simulator run.

    Attributes
    ----------
    ignition:
        Per-cell ignition times (minutes), ``inf`` where unburned.
    ros_max_ftmin:
        The maximum head-fire spread rate over the grid, ft/min.
    horizon:
        The horizon the run was clipped to (minutes).
    """

    ignition: IgnitionMap
    ros_max_ftmin: float
    horizon: float

    def burned(self, at_time: float | None = None) -> np.ndarray:
        """Burned mask at ``at_time`` (defaults to the horizon)."""
        return self.ignition.burned(self.horizon if at_time is None else at_time)


class FireSimulator:
    """Propagates fire over a fixed terrain for arbitrary scenarios.

    The terrain (grid geometry, optional per-cell rasters, unburnable
    mask) is bound at construction; each :meth:`simulate` call supplies
    a scenario, ignition cells and a horizon. Instances are immutable
    and safe to share across worker processes (workers typically build
    one from a :class:`~repro.grid.terrain.Terrain` received once).

    Parameters
    ----------
    terrain:
        The landscape to burn.
    n_neighbors:
        Propagation stencil, 8 (default, fireLib-like) or 16 (finer
        angular resolution at ~2× cost).
    """

    def __init__(self, terrain: Terrain, n_neighbors: int = 8) -> None:
        if n_neighbors not in (8, 16):
            raise SimulationError(
                f"n_neighbors must be 8 or 16, got {n_neighbors}"
            )
        self._terrain = terrain
        self._n_neighbors = n_neighbors
        self._blocked = terrain.blocked_mask()
        self._cell_ft = terrain.cell_size * METERS_TO_FEET

    @property
    def terrain(self) -> Terrain:
        """The bound terrain."""
        return self._terrain

    @property
    def n_neighbors(self) -> int:
        """Stencil size (8 or 16)."""
        return self._n_neighbors

    # ------------------------------------------------------------------
    def spread_fields(
        self, scenario: ScenarioInputs
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell ellipse description for one scenario.

        Returns ``(ros_max, dir_max_deg, eccentricity)`` arrays of the
        terrain shape (ft/min, degrees, unitless). This is the
        Rothermel half of :meth:`simulate`; the batched engine backends
        reuse it so every backend assembles fields through the exact
        same float operations.
        """
        moisture = Moisture.from_percent(
            scenario.m1, scenario.m10, scenario.m100, scenario.mherb
        )
        if scenario.wind_speed < 0:
            raise ScenarioError(
                f"wind speed must be >= 0 mph, got {scenario.wind_speed:g}"
            )
        terrain = self._terrain
        shape = terrain.shape

        slope = terrain.slope if terrain.slope is not None else float(scenario.slope)
        aspect = (
            terrain.aspect if terrain.aspect is not None else float(scenario.aspect)
        )

        ros_max = np.zeros(shape, dtype=np.float64)
        dir_max = np.zeros(shape, dtype=np.float64)
        ecc = np.zeros(shape, dtype=np.float64)

        if terrain.fuel is None:
            result = spread(
                int(scenario.model),
                moisture,
                float(scenario.wind_speed),
                float(scenario.wind_dir),
                slope,
                aspect,
            )
            ros_max[...] = result.ros_max
            dir_max[...] = result.dir_max_deg
            ecc[...] = result.eccentricity
        else:
            slope_arr = np.broadcast_to(np.asarray(slope, dtype=np.float64), shape)
            aspect_arr = np.broadcast_to(np.asarray(aspect, dtype=np.float64), shape)
            for code in np.unique(terrain.fuel):
                if code == 0:
                    continue  # unburnable, stays at ros 0
                mask = terrain.fuel == code
                result = spread(
                    int(code),
                    moisture,
                    float(scenario.wind_speed),
                    float(scenario.wind_dir),
                    slope_arr[mask],
                    aspect_arr[mask],
                )
                ros_max[mask] = result.ros_max
                dir_max[mask] = result.dir_max_deg
                ecc[mask] = result.eccentricity
        return ros_max, dir_max, ecc

    # ------------------------------------------------------------------
    def simulate(
        self,
        scenario: ScenarioInputs,
        ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
        horizon: float,
    ) -> SimulationResult:
        """Run one fire simulation.

        Parameters
        ----------
        scenario:
            Table I parameter bundle (see :class:`ScenarioInputs`).
        ignitions:
            Ignition cells — either ``(row, col)`` pairs igniting at
            t=0 or a mapping to start times (used to continue a fire
            from a previous real fire line, as the OS Workers do).
        horizon:
            Simulation length, minutes.

        Returns
        -------
        SimulationResult
        """
        if horizon <= 0 or not np.isfinite(horizon):
            raise SimulationError(f"horizon must be a positive finite time: {horizon}")
        ros_max, dir_max, ecc = self.spread_fields(scenario)
        travel = directional_travel_times(
            ros_max,
            dir_max,
            ecc,
            self._cell_ft,
            blocked=self._blocked,
            n_neighbors=self._n_neighbors,
        )
        times = propagate(
            travel, ignitions, horizon=horizon, blocked=self._blocked
        )
        return SimulationResult(
            ignition=IgnitionMap(times=times),
            ros_max_ftmin=float(ros_max.max(initial=0.0)),
            horizon=float(horizon),
        )

    # ------------------------------------------------------------------
    def simulate_from_burned(
        self,
        scenario: ScenarioInputs,
        burned: np.ndarray,
        horizon: float,
    ) -> SimulationResult:
        """Continue a fire from an already-burned region.

        Every burned cell is treated as igniting at t=0, which is how
        the OS Workers restart the simulator from the real fire line
        RFL_{i−1} (paper §II-A). Seeding only the fire-line frontier
        would be marginally cheaper but changes arrival times near
        concavities; seeding the full burned set matches fireLib's
        semantics. The returned map reports *new* ignition times; cells
        burned at the start keep time 0.
        """
        burned = np.asarray(burned, dtype=bool)
        if burned.shape != self._terrain.shape:
            raise SimulationError(
                f"burned mask shape {burned.shape} != terrain {self._terrain.shape}"
            )
        if not burned.any():
            raise SimulationError("cannot continue a fire from an empty burned mask")
        cells = [(int(r), int(c)) for r, c in zip(*np.nonzero(burned))]
        return self.simulate(scenario, cells, horizon)
