"""Rothermel (1972) / Albini (1976) surface-fire spread rate.

This module reproduces the fireLib computation pipeline:

1. **Fuel-bed intermediates** (:class:`FuelBed`) — everything that
   depends only on the fuel model: characteristic surface-area-to-volume
   ratio, packing ratio, optimum reaction velocity, propagating flux
   ratio, and the wind/slope factor coefficients. Computed once per
   model and cached.
2. **Environment-dependent step** (:func:`spread`) — combine the bed
   with moistures, midflame wind and slope to produce the no-wind
   spread rate, the maximum spread rate and its direction, and the
   eccentricity of the elliptical growth shape.

The unit system is customary Rothermel (ft, min, lb, Btu) exactly as in
fireLib; callers convert from Table I units (mph wind, percent
moisture, metre cells) at the boundary.

Vectorisation: all heavy math is NumPy; slope/aspect may be per-cell
arrays and broadcast through the wind–slope vector combination, so a
heterogeneous-terrain simulation costs one vectorised pass per distinct
fuel model (≤ 13) rather than one Python call per cell. The batched
engine goes one step further across scenarios: :meth:`FuelBed.
no_wind_rates`, :meth:`FuelBed.phi_winds` and :func:`spread_batch`
take many scenarios of one fuel model at once and reproduce the scalar
results bit for bit, and :func:`ellipse_fields` is the wind–slope
combination over ``(scenarios × terrain classes)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ScenarioError, SimulationError
from repro.firelib.ellipse import eccentricity_from_effective_wind
from repro.firelib.fuel_models import (
    EFFECTIVE_MINERAL,
    HEAT_CONTENT,
    PARTICLE_DENSITY,
    TOTAL_MINERAL,
    FuelModel,
    get_model,
)
from repro.firelib.moisture import Moisture
from repro.units import MPH_TO_FTMIN

__all__ = [
    "FuelBed",
    "SpreadResult",
    "ellipse_fields",
    "libm_power",
    "spread",
    "spread_batch",
    "wind_ftmin",
    "MPH_TO_FTMIN",
]

#: Smallest spread rate treated as nonzero, ft/min. Below this the fire
#: is considered unable to propagate (matches fireLib's ros smoothing).
ROS_EPSILON = 1e-9

#: Column of each particle ``moisture_key`` in an ``(n, 4)`` fraction
#: matrix (the :class:`Moisture` field order).
_MOISTURE_COLUMN = {"m1": 0, "m10": 1, "m100": 2, "mherb": 3}


def libm_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` per element, as a scalar ``**`` computes it.

    Python floats and NumPy scalars raise to a power through the C
    library's ``pow``; NumPy's array loop may use a different
    implementation that differs in the last bit for a few percent of
    inputs. The batched methods below reproduce scalar terms through
    this object-dtype power, which calls ``float.__pow__`` per element.
    """
    base = np.asarray(base, dtype=np.float64)
    return np.power(base.astype(object), exponent).astype(np.float64)


@dataclass(frozen=True)
class FuelBed:
    """Moisture/wind/slope-independent intermediates for one fuel model.

    All attributes follow Albini (1976) notation; see the module
    docstring for provenance. Instances are immutable and cached per
    model code via :meth:`for_model`.
    """

    model: FuelModel
    sigma: float  # characteristic SAV, 1/ft
    beta: float  # packing ratio
    beta_ratio: float  # beta / beta_opt
    gamma: float  # reaction velocity, 1/min
    xi: float  # propagating flux ratio
    wind_b: float  # Rothermel B
    wind_k: float  # C * ratio^-E  (phi_w = wind_k * U^B)
    wind_e_inv: float  # 1/B, for effective-wind inversion
    slope_k: float  # 5.275 * beta^-0.3 (phi_s = slope_k * tan²φ)
    # per-particle arrays (parallel):
    p_load: np.ndarray
    p_sav: np.ndarray
    p_dead: np.ndarray  # bool
    p_f: np.ndarray  # area weight within its life category
    p_fcat: np.ndarray  # life-category weight f_dead or f_live per particle
    p_moisture_key: tuple[str, ...]
    wn_dead: float  # net dead load weighted, lb/ft²
    wn_live: float  # net live load weighted, lb/ft²
    fine_dead: float  # Σ_dead w0 exp(-138/sav)
    fine_live: float  # Σ_live w0 exp(-500/sav)
    rho_b: float  # bulk density, lb/ft³

    @classmethod
    @lru_cache(maxsize=32)
    def for_model(cls, code: int) -> "FuelBed":
        """Build (and cache) the intermediates for model ``code``."""
        return cls.from_fuel_model(get_model(code))

    @classmethod
    def from_fuel_model(cls, model: FuelModel) -> "FuelBed":
        """Compute the Albini intermediates for an arbitrary model."""
        parts = model.particles
        if not parts:
            raise SimulationError(f"fuel model {model.code} has no particles")
        load = np.array([p.load for p in parts])
        sav = np.array([p.sav for p in parts])
        dead = np.array([p.life == "dead" for p in parts])
        keys = tuple(p.moisture_key for p in parts)

        area = load * sav / PARTICLE_DENSITY
        a_dead = float(area[dead].sum())
        a_live = float(area[~dead].sum())
        a_total = a_dead + a_live
        if a_total <= 0:
            raise SimulationError(f"fuel model {model.code} has zero surface area")

        # particle weight within its life category
        f = np.zeros_like(area)
        if a_dead > 0:
            f[dead] = area[dead] / a_dead
        if a_live > 0:
            f[~dead] = area[~dead] / a_live
        f_dead_cat = a_dead / a_total
        f_live_cat = a_live / a_total
        fcat = np.where(dead, f_dead_cat, f_live_cat)

        # characteristic SAV of the whole bed
        sigma_dead = float((f[dead] * sav[dead]).sum()) if a_dead > 0 else 0.0
        sigma_live = float((f[~dead] * sav[~dead]).sum()) if a_live > 0 else 0.0
        sigma = f_dead_cat * sigma_dead + f_live_cat * sigma_live

        # packing
        rho_b = model.total_load / model.depth
        beta = rho_b / PARTICLE_DENSITY
        beta_opt = 3.348 * sigma**-0.8189
        ratio = beta / beta_opt

        # reaction velocity
        sigma15 = sigma**1.5
        gamma_max = sigma15 / (495.0 + 0.0594 * sigma15)
        a_exp = 133.0 * sigma**-0.7913
        gamma = gamma_max * ratio**a_exp * math.exp(a_exp * (1.0 - ratio))

        # propagating flux ratio
        xi = math.exp((0.792 + 0.681 * math.sqrt(sigma)) * (beta + 0.1)) / (
            192.0 + 0.2595 * sigma
        )

        # wind & slope coefficients
        c_coef = 7.47 * math.exp(-0.133 * sigma**0.55)
        b_coef = 0.02526 * sigma**0.54
        e_coef = 0.715 * math.exp(-3.59e-4 * sigma)
        wind_k = c_coef * ratio**-e_coef
        slope_k = 5.275 * beta**-0.3

        # net loads per life category (mineral-damped)
        wn = load * (1.0 - TOTAL_MINERAL)
        wn_dead = float((f[dead] * wn[dead]).sum()) if a_dead > 0 else 0.0
        wn_live = float((f[~dead] * wn[~dead]).sum()) if a_live > 0 else 0.0

        # fine-fuel factors for the live extinction moisture
        fine_dead = float((load[dead] * np.exp(-138.0 / sav[dead])).sum())
        fine_live = float((load[~dead] * np.exp(-500.0 / sav[~dead])).sum())

        return cls(
            model=model,
            sigma=sigma,
            beta=beta,
            beta_ratio=ratio,
            gamma=gamma,
            xi=xi,
            wind_b=b_coef,
            wind_k=wind_k,
            wind_e_inv=1.0 / b_coef,
            slope_k=slope_k,
            p_load=load,
            p_sav=sav,
            p_dead=dead,
            p_f=f,
            p_fcat=fcat,
            p_moisture_key=keys,
            wn_dead=wn_dead,
            wn_live=wn_live,
            fine_dead=fine_dead,
            fine_live=fine_live,
            rho_b=rho_b,
        )

    # ------------------------------------------------------------------
    def no_wind_rate(self, moisture: Moisture) -> float:
        """Zero-wind zero-slope spread rate R₀, ft/min.

        Returns 0.0 when the bed cannot sustain combustion (moisture at
        or above extinction in every category).
        """
        m = np.array([moisture.value_for(k) for k in self.p_moisture_key])
        dead = self.p_dead

        # category moistures
        m_dead = float((self.p_f[dead] * m[dead]).sum()) if dead.any() else 0.0
        has_live = bool((~dead).any())
        m_live = float((self.p_f[~dead] * m[~dead]).sum()) if has_live else 0.0

        # extinction moistures
        mext_dead = self.model.mext_dead
        if has_live and self.fine_live > 0:
            fdmois = (
                float(
                    (
                        self.p_load[dead]
                        * np.exp(-138.0 / self.p_sav[dead])
                        * m[dead]
                    ).sum()
                )
                / self.fine_dead
                if self.fine_dead > 0
                else 0.0
            )
            w_ratio = self.fine_dead / self.fine_live
            mext_live = max(
                2.9 * w_ratio * (1.0 - fdmois / mext_dead) - 0.226, mext_dead
            )
        else:
            mext_live = mext_dead

        def eta_m(mf: float, mx: float) -> float:
            rm = mf / mx if mx > 0 else 1.0
            if rm >= 1.0:
                return 0.0  # at/above extinction: analytically zero
            return max(0.0, 1.0 - 2.59 * rm + 5.11 * rm**2 - 3.52 * rm**3)

        eta_dead = eta_m(m_dead, mext_dead)
        eta_live = eta_m(m_live, mext_live) if has_live else 0.0
        eta_s = 0.174 * EFFECTIVE_MINERAL**-0.19

        reaction_intensity = (
            self.gamma
            * HEAT_CONTENT
            * (self.wn_dead * eta_dead + self.wn_live * eta_live)
            * eta_s
        )  # Btu/ft²/min
        if reaction_intensity <= 0:
            return 0.0

        # heat sink: rho_b Σ f_cat f_i ε_i Q_ig,i
        eps = np.exp(-138.0 / self.p_sav)
        qig = 250.0 + 1116.0 * m
        heat_sink = self.rho_b * float((self.p_fcat * self.p_f * eps * qig).sum())
        if heat_sink <= 0:
            return 0.0

        return reaction_intensity * self.xi / heat_sink

    def no_wind_rates(self, fractions: np.ndarray) -> np.ndarray:
        """:meth:`no_wind_rate` of every row of an ``(n, 4)`` matrix.

        Rows are ``(m1, m10, m100, mherb)`` fractions, already range
        checked (:meth:`Moisture.check_fractions`). Every value is
        bitwise equal to the scalar method's: the same elementwise
        float operations in the same order, with each scalar ``**``
        through :func:`libm_power`.
        """
        try:
            cols = [_MOISTURE_COLUMN[k] for k in self.p_moisture_key]
        except KeyError as exc:
            raise ScenarioError(f"unknown moisture key {exc.args[0]!r}") from None
        m = np.asarray(fractions, dtype=np.float64)[:, cols]
        n = m.shape[0]
        dead = self.p_dead
        has_live = bool((~dead).any())
        m_dead = np.zeros(n)
        if dead.any():
            m_dead = (self.p_f[dead] * m[:, dead]).sum(axis=1)
        m_live = np.zeros(n)
        if has_live:
            m_live = (self.p_f[~dead] * m[:, ~dead]).sum(axis=1)

        mext_dead = self.model.mext_dead
        if has_live and self.fine_live > 0:
            fdmois = (
                (
                    self.p_load[dead] * np.exp(-138.0 / self.p_sav[dead]) * m[:, dead]
                ).sum(axis=1)
                / self.fine_dead
                if self.fine_dead > 0
                else np.zeros(n)
            )
            w_ratio = self.fine_dead / self.fine_live
            mext_live = 2.9 * w_ratio * (1.0 - fdmois / mext_dead) - 0.226
            # Python's max(a, b) keeps a unless b > a
            mext_live = np.where(mext_dead > mext_live, mext_dead, mext_live)
        else:
            mext_live = mext_dead

        def eta_m(mf: np.ndarray, mx) -> np.ndarray:
            rm = np.divide(mf, mx, out=np.ones(n), where=np.greater(mx, 0))
            eta = np.zeros(n)
            below = rm < 1.0  # at/above extinction: analytically zero
            r = rm[below]
            poly = 1.0 - 2.59 * r + 5.11 * libm_power(r, 2) - 3.52 * libm_power(r, 3)
            eta[below] = np.where(poly > 0.0, poly, 0.0)
            return eta

        eta_dead = eta_m(m_dead, mext_dead)
        eta_live = eta_m(m_live, mext_live) if has_live else 0.0
        eta_s = 0.174 * EFFECTIVE_MINERAL**-0.19

        reaction_intensity = (
            self.gamma
            * HEAT_CONTENT
            * (self.wn_dead * eta_dead + self.wn_live * eta_live)
            * eta_s
        )  # Btu/ft²/min
        eps = np.exp(-138.0 / self.p_sav)
        qig = 250.0 + 1116.0 * m
        heat_sink = self.rho_b * (self.p_fcat * self.p_f * eps * qig).sum(axis=1)
        burns = (reaction_intensity > 0) & (heat_sink > 0)
        return np.divide(
            reaction_intensity * self.xi, heat_sink, out=np.zeros(n), where=burns
        )

    def phi_winds(self, wind_ftmin: np.ndarray) -> np.ndarray:
        """:meth:`phi_wind` of every element, bitwise equal to it."""
        wind_ftmin = np.asarray(wind_ftmin, dtype=np.float64)
        out = np.zeros(wind_ftmin.shape)
        blowing = wind_ftmin > 0
        out[blowing] = self.wind_k * libm_power(wind_ftmin[blowing], self.wind_b)
        return out

    def phi_wind(self, wind_ftmin: float) -> float:
        """Wind factor φ_w for a midflame wind speed in ft/min."""
        if wind_ftmin <= 0:
            return 0.0
        return self.wind_k * wind_ftmin**self.wind_b

    def phi_slope(self, slope_deg: np.ndarray | float) -> np.ndarray | float:
        """Slope factor φ_s for slope(s) in degrees."""
        tan = np.tan(np.radians(slope_deg))
        return self.slope_k * tan * tan

    def effective_wind(self, phi_ew: np.ndarray | float) -> np.ndarray | float:
        """Invert the wind-factor relation: φ_ew → equivalent wind, ft/min."""
        phi = np.maximum(phi_ew, 0.0)
        return (phi / self.wind_k) ** self.wind_e_inv

    def effective_winds(self, phi_ew: np.ndarray) -> np.ndarray:
        """:meth:`effective_wind` of every element as a scalar call
        computes it (through :func:`libm_power`)."""
        phi = np.maximum(phi_ew, 0.0)
        return libm_power(phi / self.wind_k, self.wind_e_inv)


@dataclass(frozen=True)
class SpreadResult:
    """Directional spread description at one or many cells.

    Attributes
    ----------
    ros_no_wind:
        R₀, ft/min (scalar).
    ros_max:
        Maximum spread rate, ft/min (scalar or per-cell array).
    dir_max_deg:
        Compass azimuth of maximum spread, degrees clockwise from
        North (same shape as ``ros_max``).
    eccentricity:
        Eccentricity of the elliptical growth shape in [0, 1).
    effective_wind_ftmin:
        The combined wind+slope equivalent wind speed, ft/min.
    """

    ros_no_wind: float
    ros_max: np.ndarray | float
    dir_max_deg: np.ndarray | float
    eccentricity: np.ndarray | float
    effective_wind_ftmin: np.ndarray | float

    def is_spreading(self) -> bool:
        """Whether any cell has a positive maximum spread rate."""
        return bool(np.any(np.asarray(self.ros_max) > ROS_EPSILON))


def spread(
    model_code: int,
    moisture: Moisture,
    wind_speed_mph: float,
    wind_dir_deg: float,
    slope_deg: np.ndarray | float,
    aspect_deg: np.ndarray | float,
) -> SpreadResult:
    """Full Rothermel spread computation for one fuel model.

    Parameters
    ----------
    model_code:
        NFFL fuel model, 1–13 (Table I ``Model``).
    moisture:
        Fuel moistures (fractions).
    wind_speed_mph:
        Midflame wind speed, miles/hour (Table I ``WindSpd``).
    wind_dir_deg:
        Compass azimuth **toward which** the wind blows, degrees
        clockwise from North (Table I ``WindDir``); a pure-wind fire
        heads in this direction.
    slope_deg, aspect_deg:
        Terrain slope (degrees from horizontal) and aspect (compass
        azimuth the surface faces, i.e. the downslope direction).
        Scalars or per-cell arrays (broadcast together).

    Returns
    -------
    SpreadResult
        With per-cell arrays when slope/aspect were arrays.
    """
    bed = FuelBed.for_model(model_code)
    r0 = bed.no_wind_rate(moisture)

    slope_deg = np.asarray(slope_deg, dtype=np.float64)
    aspect_deg = np.asarray(aspect_deg, dtype=np.float64)
    slope_deg, aspect_deg = np.broadcast_arrays(slope_deg, aspect_deg)
    scalar_terrain = slope_deg.ndim == 0

    if r0 <= ROS_EPSILON:
        zeros = np.zeros_like(slope_deg, dtype=np.float64)
        z = 0.0 if scalar_terrain else zeros
        return SpreadResult(
            ros_no_wind=0.0,
            ros_max=z,
            dir_max_deg=z,
            eccentricity=z,
            effective_wind_ftmin=z,
        )

    wind_ftmin = max(0.0, wind_speed_mph) * MPH_TO_FTMIN
    phi_w = bed.phi_wind(wind_ftmin)
    phi_s = bed.phi_slope(slope_deg)

    # Vector combination of wind and slope influence (fireLib scheme).
    upslope = np.mod(aspect_deg + 180.0, 360.0)
    split = np.radians(np.mod(wind_dir_deg - upslope, 360.0))
    slp_rate = r0 * phi_s
    wnd_rate = r0 * phi_w
    x = slp_rate + wnd_rate * np.cos(split)
    y = wnd_rate * np.sin(split)
    rv = np.hypot(x, y)

    ros_max = r0 + rv
    phi_ew = rv / r0
    dir_max = np.mod(upslope + np.degrees(np.arctan2(y, x)), 360.0)
    # where there is no wind/slope push, the fire has no preferred heading
    dir_max = np.where(rv > ROS_EPSILON, dir_max, 0.0)

    eff_wind = bed.effective_wind(phi_ew)
    ecc = eccentricity_from_effective_wind(eff_wind)
    ecc = np.where(rv > ROS_EPSILON, ecc, 0.0)

    if scalar_terrain:
        return SpreadResult(
            ros_no_wind=float(r0),
            ros_max=float(ros_max),
            dir_max_deg=float(dir_max),
            eccentricity=float(ecc),
            effective_wind_ftmin=float(eff_wind),
        )
    return SpreadResult(
        ros_no_wind=float(r0),
        ros_max=ros_max,
        dir_max_deg=dir_max,
        eccentricity=ecc,
        effective_wind_ftmin=np.asarray(eff_wind),
    )


def wind_ftmin(wind_speed_mph: np.ndarray) -> np.ndarray:
    """Midflame wind in ft/min per element, converted as :func:`spread`
    converts its scalar (``max(0.0, mph) * MPH_TO_FTMIN``)."""
    # Python's max(0.0, v) keeps 0.0 unless v > 0.0
    return np.where(wind_speed_mph > 0.0, wind_speed_mph, 0.0) * MPH_TO_FTMIN


def ellipse_fields(
    bed: FuelBed,
    r0: np.ndarray,
    phi_w: np.ndarray,
    wind_dir_deg: np.ndarray,
    slope_deg: np.ndarray,
    aspect_deg: np.ndarray,
    scalar_terrain: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wind–slope vector combination of :func:`spread`, batched.

    Arguments broadcast together (genomes down the rows, say, and
    terrain classes across); every ``r0`` must exceed
    :data:`ROS_EPSILON`. Returns ``(ros_max, dir_max_deg,
    eccentricity)`` with the exact elementwise float operations of
    :func:`spread`. ``scalar_terrain`` says what :func:`spread` is
    reproduced on: scalar slope and aspect, whose effective wind is a
    scalar ``**`` (see :func:`libm_power`), or per-cell arrays.
    """
    phi_s = bed.phi_slope(slope_deg)
    upslope = np.mod(aspect_deg + 180.0, 360.0)
    split = np.radians(np.mod(wind_dir_deg - upslope, 360.0))
    slp_rate = r0 * phi_s
    wnd_rate = r0 * phi_w
    x = slp_rate + wnd_rate * np.cos(split)
    y = wnd_rate * np.sin(split)
    rv = np.hypot(x, y)
    ros_max = r0 + rv
    phi_ew = rv / r0
    dir_max = np.mod(upslope + np.degrees(np.arctan2(y, x)), 360.0)
    dir_max = np.where(rv > ROS_EPSILON, dir_max, 0.0)
    if scalar_terrain:
        eff_wind = bed.effective_winds(phi_ew)
    else:
        eff_wind = bed.effective_wind(phi_ew)
    ecc = eccentricity_from_effective_wind(eff_wind)
    ecc = np.where(rv > ROS_EPSILON, ecc, 0.0)
    return ros_max, dir_max, ecc


def spread_batch(
    model_code: int,
    fractions: np.ndarray,
    wind_speed_mph: np.ndarray,
    wind_dir_deg: np.ndarray,
    slope_deg: np.ndarray,
    aspect_deg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`spread` of ``n`` scenarios of one fuel model in one pass.

    ``fractions`` is the ``(n, 4)`` moisture matrix (see
    :meth:`FuelBed.no_wind_rates`); the other arguments are ``(n,)``
    scalar-terrain inputs. Returns ``(ros_max, dir_max_deg,
    eccentricity)``, each ``(n,)`` and bitwise equal to the scalar
    :func:`spread` row by row (all zero where the bed cannot spread).
    """
    bed = FuelBed.for_model(model_code)
    r0 = bed.no_wind_rates(fractions)
    wind = wind_ftmin(wind_speed_mph)
    out = np.zeros((3, len(r0)))
    alive = r0 > ROS_EPSILON
    if alive.any():
        out[:, alive] = ellipse_fields(
            bed,
            r0[alive],
            bed.phi_winds(wind[alive]),
            wind_dir_deg[alive],
            slope_deg[alive],
            aspect_deg[alive],
            scalar_terrain=True,
        )
    return out[0], out[1], out[2]
