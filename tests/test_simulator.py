"""Tests for the FireSimulator facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScenarioError, SimulationError
from repro.firelib.simulator import METERS_TO_FEET, FireSimulator
from repro.grid.terrain import Terrain


class TestSimulate:
    def test_basic_run(self, terrain, scenario):
        sim = FireSimulator(terrain)
        res = sim.simulate(scenario, [terrain.center()], horizon=30.0)
        assert res.ignition.shape == terrain.shape
        assert res.burned().sum() > 1
        assert res.ros_max_ftmin > 0
        assert res.horizon == 30.0

    def test_deterministic(self, terrain, scenario):
        sim = FireSimulator(terrain)
        a = sim.simulate(scenario, [(5, 5)], horizon=20.0)
        b = sim.simulate(scenario, [(5, 5)], horizon=20.0)
        assert np.array_equal(a.ignition.times, b.ignition.times)

    def test_wind_biases_direction(self, terrain, scenario):
        sim = FireSimulator(terrain)
        east = sim.simulate(
            scenario.replace(wind_dir=90.0, slope=0.0), [(12, 12)], horizon=25.0
        )
        rows, cols = np.nonzero(east.burned())
        assert cols.mean() > 12.5  # pushed east
        assert abs(rows.mean() - 12.0) < 1.0

    def test_wet_scenario_does_not_spread(self, terrain, wet_scenario):
        sim = FireSimulator(terrain)
        res = sim.simulate(wet_scenario, [(12, 12)], horizon=60.0)
        assert res.burned().sum() == 1  # only the ignition cell

    def test_longer_horizon_burns_more(self, terrain, scenario):
        sim = FireSimulator(terrain)
        short = sim.simulate(scenario, [(12, 12)], horizon=10.0)
        long = sim.simulate(scenario, [(12, 12)], horizon=30.0)
        assert long.burned().sum() > short.burned().sum()
        # growth is monotone: everything burned early is burned late
        assert not (short.burned() & ~long.burned()).any()

    @pytest.mark.parametrize("horizon", [0.0, -5.0, float("inf")])
    def test_bad_horizon_raises(self, terrain, scenario, horizon):
        with pytest.raises(SimulationError):
            FireSimulator(terrain).simulate(scenario, [(1, 1)], horizon)

    def test_negative_wind_speed_raises(self, terrain, scenario):
        with pytest.raises(ScenarioError, match="wind speed"):
            FireSimulator(terrain).simulate(
                scenario.replace(wind_speed=-3.0), [(1, 1)], horizon=10.0
            )

    def test_bad_stencil_raises(self, terrain):
        with pytest.raises(SimulationError):
            FireSimulator(terrain, n_neighbors=6)

    def test_unburnable_mask_respected(self, scenario):
        t = Terrain.with_river(20, 20, river_col=10, width=1)
        sim = FireSimulator(t)
        res = sim.simulate(
            scenario.replace(wind_speed=20.0), [(10, 2)], horizon=120.0
        )
        assert not res.burned()[:, 10].any()
        assert not res.burned()[:, 11:].any()

    def test_heterogeneous_fuel_changes_speed(self, scenario):
        # left half grass (1), right half timber litter (8): fire
        # ignited at the boundary moves farther into the grass.
        t = Terrain.with_fuel_patches(
            21, 21, base_model=1, patches=[(slice(None), slice(10, None), 8)]
        )
        sim = FireSimulator(t)
        res = sim.simulate(
            scenario.replace(wind_speed=0.0, slope=0.0), [(10, 9)], horizon=120.0
        )
        b = res.burned()
        left = b[:, :9].sum()
        right = b[:, 10:].sum()
        assert left > right

    def test_terrain_slope_raster_overrides_scenario(self, scenario):
        # Per-cell aspect raster makes the east half upslope-east; fire
        # ignited center drifts east even with the scenario saying flat.
        slope = np.full((21, 21), 30.0)
        aspect = np.full((21, 21), 270.0)  # faces west → upslope east
        t = Terrain(rows=21, cols=21, cell_size=30.0, slope=slope, aspect=aspect)
        sim = FireSimulator(t)
        res = sim.simulate(
            scenario.replace(wind_speed=0.0, slope=0.0), [(10, 10)], horizon=20.0
        )
        rows, cols = np.nonzero(res.burned())
        assert cols.mean() > 10.2


class TestSimulateFromBurned:
    def test_continues_fire(self, terrain, scenario):
        sim = FireSimulator(terrain)
        first = sim.simulate(scenario, [(12, 12)], horizon=15.0)
        cont = sim.simulate_from_burned(scenario, first.burned(), horizon=15.0)
        assert cont.burned().sum() > first.burned().sum()
        # everything already burned stays burned (seeded at t=0)
        assert (cont.burned() & first.burned()).sum() == first.burned().sum()

    def test_empty_mask_raises(self, terrain, scenario):
        with pytest.raises(SimulationError):
            FireSimulator(terrain).simulate_from_burned(
                scenario, np.zeros(terrain.shape, dtype=bool), 10.0
            )

    def test_shape_mismatch_raises(self, terrain, scenario):
        with pytest.raises(SimulationError):
            FireSimulator(terrain).simulate_from_burned(
                scenario, np.ones((3, 3), dtype=bool), 10.0
            )


class TestUnits:
    def test_meters_to_feet(self):
        assert METERS_TO_FEET == pytest.approx(3.280839895)

    def test_smaller_cells_same_physical_spread(self, scenario):
        # Halving the cell size while doubling the cell count keeps the
        # physical burned extent roughly constant.
        t30 = Terrain.uniform(31, 31, cell_size=30.0)
        t15 = Terrain.uniform(61, 61, cell_size=15.0)
        b30 = FireSimulator(t30).simulate(scenario, [(15, 15)], 20.0).burned()
        b15 = FireSimulator(t15).simulate(scenario, [(30, 30)], 20.0).burned()
        area30 = b30.sum() * 30.0**2
        area15 = b15.sum() * 15.0**2
        assert area15 == pytest.approx(area30, rel=0.35)
