"""Tests for the Rothermel spread kernel (physics sanity + invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.firelib.fuel_models import get_model
from repro.firelib.moisture import Moisture
from repro.firelib.rothermel import (
    MPH_TO_FTMIN,
    FuelBed,
    SpreadResult,
    spread,
    spread_batch,
)

DRY = Moisture.from_percent(5, 6, 8, 50)
DAMP = Moisture.from_percent(10, 11, 12, 80)


class TestFuelBed:
    @pytest.mark.parametrize("code", range(1, 14))
    def test_intermediates_positive(self, code):
        bed = FuelBed.for_model(code)
        assert bed.sigma > 0
        assert bed.beta > 0
        assert bed.gamma > 0
        assert 0 < bed.xi < 1
        assert bed.wind_b > 0 and bed.wind_k > 0
        assert bed.slope_k > 0
        assert bed.rho_b > 0

    def test_cached_instance(self):
        assert FuelBed.for_model(3) is FuelBed.for_model(3)

    @pytest.mark.parametrize("code", range(1, 14))
    def test_dry_fuel_spreads(self, code):
        assert FuelBed.for_model(code).no_wind_rate(DRY) > 0

    def test_wetter_is_slower(self):
        bed = FuelBed.for_model(1)
        assert bed.no_wind_rate(DRY) > bed.no_wind_rate(DAMP)

    def test_extinction_moisture_stops_spread(self):
        bed = FuelBed.for_model(1)  # mext 12%
        soaked = Moisture.from_percent(30, 30, 30, 200)
        assert bed.no_wind_rate(soaked) == 0.0

    def test_grass_faster_than_timber_litter(self):
        # Model 1 (short grass) is the classic fast fuel; model 8
        # (closed timber litter) the classic slow one.
        assert FuelBed.for_model(1).no_wind_rate(DRY) > FuelBed.for_model(
            8
        ).no_wind_rate(DRY)

    def test_phi_wind_monotone(self):
        bed = FuelBed.for_model(1)
        winds = [0.0, 100.0, 400.0, 800.0]
        phis = [bed.phi_wind(w) for w in winds]
        assert phis[0] == 0.0
        assert all(a < b for a, b in zip(phis, phis[1:]))

    def test_phi_slope_monotone(self):
        bed = FuelBed.for_model(1)
        phis = [bed.phi_slope(s) for s in (0.0, 10.0, 30.0, 50.0)]
        assert phis[0] == 0.0
        assert all(a < b for a, b in zip(phis, phis[1:]))

    def test_effective_wind_inverts_phi(self):
        bed = FuelBed.for_model(1)
        wind = 300.0  # ft/min
        phi = bed.phi_wind(wind)
        assert bed.effective_wind(phi) == pytest.approx(wind, rel=1e-9)


class TestSpread:
    def test_no_wind_no_slope_is_circular(self):
        r = spread(1, DRY, 0.0, 0.0, 0.0, 0.0)
        assert r.ros_max == pytest.approx(r.ros_no_wind)
        assert r.eccentricity == 0.0

    def test_wind_sets_heading(self):
        r = spread(1, DRY, 10.0, 135.0, 0.0, 0.0)
        assert r.dir_max_deg == pytest.approx(135.0)
        assert r.ros_max > r.ros_no_wind
        assert 0 < r.eccentricity < 1

    def test_slope_pushes_upslope(self):
        # aspect 270 (faces west) → upslope is 90 (east)
        r = spread(1, DRY, 0.0, 0.0, 30.0, 270.0)
        assert r.dir_max_deg == pytest.approx(90.0)
        assert r.ros_max > r.ros_no_wind

    def test_wind_against_slope_partial_cancel(self):
        with_wind = spread(1, DRY, 5.0, 90.0, 20.0, 270.0)  # aligned
        against = spread(1, DRY, 5.0, 270.0, 20.0, 270.0)  # opposed
        assert with_wind.ros_max > against.ros_max

    def test_stronger_wind_faster_and_more_eccentric(self):
        slow = spread(1, DRY, 3.0, 0.0, 0.0, 0.0)
        fast = spread(1, DRY, 20.0, 0.0, 0.0, 0.0)
        assert fast.ros_max > slow.ros_max
        assert fast.eccentricity > slow.eccentricity

    def test_wet_fuel_yields_zero_everywhere(self):
        r = spread(1, Moisture.from_percent(40, 40, 40, 250), 10.0, 0.0, 10.0, 0.0)
        assert r.ros_no_wind == 0.0
        assert r.ros_max == 0.0
        assert not r.is_spreading()

    def test_array_terrain_broadcasts(self):
        slope = np.array([[0.0, 10.0], [20.0, 30.0]])
        aspect = np.full((2, 2), 180.0)
        r = spread(1, DRY, 5.0, 0.0, slope, aspect)
        assert np.asarray(r.ros_max).shape == (2, 2)
        # steeper cells spread faster: wind(N) + upslope(N) aligned
        ros = np.asarray(r.ros_max)
        assert ros[0, 0] < ros[0, 1] < ros[1, 0] < ros[1, 1]

    def test_scalar_output_types(self):
        r = spread(1, DRY, 5.0, 0.0, 10.0, 180.0)
        assert isinstance(r.ros_max, float)
        assert isinstance(r.dir_max_deg, float)
        assert isinstance(r.eccentricity, float)

    def test_result_is_spreading_flag(self):
        assert spread(1, DRY, 0.0, 0.0, 0.0, 0.0).is_spreading()

    def test_mph_constant(self):
        assert MPH_TO_FTMIN == 88.0

    def test_plausible_grass_magnitude(self):
        # Model 1 at ~5% moisture, no wind: literature puts R0 in the
        # low single digits of ft/min. Guard the order of magnitude so a
        # units regression (e.g. mph vs ft/min) cannot slip through.
        r = spread(1, DRY, 0.0, 0.0, 0.0, 0.0)
        assert 1.0 < r.ros_no_wind < 20.0
        windy = spread(1, DRY, 15.0, 0.0, 0.0, 0.0)
        assert 100.0 < windy.ros_max < 2000.0


def _moisture_rows(code: int, n: int, seed: int) -> np.ndarray:
    """``(n, 4)`` fraction rows: Table I draws, plus every dead moisture
    exactly at, just above and far above the model's extinction
    moisture, and the range bounds."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack(
        [rng.uniform(0.01, 0.6, (n, 3)), rng.uniform(0.3, 3.0, (n, 1))]
    )
    mext = get_model(code).mext_dead
    for k, dead in enumerate((mext, np.nextafter(mext, 1.0), 2 * mext, 1.0, 0.0)):
        rows[k, :3] = dead
    rows[5] = [0.0, 0.0, 0.0, 4.0]
    return rows


class TestBatchedMatchesScalar:
    """The batched methods the vectorized engine uses reproduce the
    scalar ones bit for bit (including their scalar ``**`` terms)."""

    @pytest.mark.parametrize("code", range(1, 14))
    def test_no_wind_rates(self, code):
        bed = FuelBed.for_model(code)
        rows = _moisture_rows(code, 400, code)
        batched = bed.no_wind_rates(rows)
        scalar = [bed.no_wind_rate(Moisture(*row)) for row in rows]
        assert np.array_equal(batched, scalar)
        if bed.p_dead.all():  # dead fuel above extinction cannot burn
            assert batched[2] == 0.0

    @pytest.mark.parametrize("code", [1, 4, 10])
    def test_phi_winds(self, code):
        bed = FuelBed.for_model(code)
        wind = np.concatenate(
            [[0.0, -0.0, -5.0, -1e-300, 1e-300], np.linspace(0.01, 7040.0, 997)]
        )
        expected = [bed.phi_wind(float(u)) for u in wind]
        assert np.array_equal(bed.phi_winds(wind), expected)

    @pytest.mark.parametrize("code", range(1, 14))
    def test_spread_batch(self, code):
        rng = np.random.default_rng(100 + code)
        rows = _moisture_rows(code, 300, 200 + code)
        wind = rng.uniform(-10.0, 80.0, 300)
        wind[:8] = [0.0, -0.0, -3.0, 0.0, 80.0, 1e-9, -1e-9, 40.0]
        wind_dir = rng.uniform(0.0, 360.0, 300)
        slope = rng.uniform(0.0, 81.0, 300)
        slope[:3] = 0.0
        aspect = rng.uniform(0.0, 360.0, 300)
        got = spread_batch(code, rows, wind, wind_dir, slope, aspect)
        for i, row in enumerate(rows):
            r = spread(
                code,
                Moisture(*row),
                float(wind[i]),
                float(wind_dir[i]),
                float(slope[i]),
                float(aspect[i]),
            )
            assert (got[0][i], got[1][i], got[2][i]) == (
                r.ros_max,
                r.dir_max_deg,
                r.eccentricity,
            )

    def test_moisture_batch_check_matches_constructor(self):
        rows = np.array([[0.05, 0.06, 0.08, 0.5], [1.5, 0.06, 0.08, 0.5]])
        Moisture.check_fractions(rows[:1])
        with pytest.raises(ScenarioError) as batched:
            Moisture.check_fractions(rows)
        with pytest.raises(ScenarioError) as scalar:
            Moisture(*rows[1])
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(ScenarioError, match="mherb"):
            Moisture.check_fractions(np.array([[0.05, 0.06, 0.08, np.nan]]))
