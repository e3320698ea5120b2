"""Elliptical fire growth (Anderson 1983, as used by fireLib).

Under wind and/or slope, the fire perimeter is modelled as an ellipse
with the ignition point at the rear focus. The shape is summarised by a
single eccentricity derived from the *effective wind speed* (the
combined wind+slope push expressed as an equivalent wind). The spread
rate towards an arbitrary azimuth θ is then::

    R(θ) = R_max · (1 − ε) / (1 − ε·cos(θ − θ_max))

which equals ``R_max`` at the heading direction and
``R_max·(1−ε)/(1+ε)`` at the back of the fire.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "length_to_width_ratio",
    "eccentricity_from_effective_wind",
    "ros_at_azimuth",
    "ros_from_flank",
    "backing_ros",
    "flanking_ros",
]

#: fireLib constant: LWR = 1 + 0.002840909 · U_eff (U_eff in ft/min).
_LWR_PER_FTMIN = 0.002840909

#: Cap on the length-to-width ratio; beyond this the ellipse degenerates
#: numerically (fireLib effectively saturates around hurricane winds).
_LWR_MAX = 25.0


def length_to_width_ratio(effective_wind_ftmin: np.ndarray | float) -> np.ndarray | float:
    """Length-to-width ratio of the fire ellipse for a given effective wind."""
    u = np.maximum(np.asarray(effective_wind_ftmin, dtype=np.float64), 0.0)
    lwr = np.minimum(1.0 + _LWR_PER_FTMIN * u, _LWR_MAX)
    return lwr if lwr.ndim else float(lwr)


def eccentricity_from_effective_wind(
    effective_wind_ftmin: np.ndarray | float,
) -> np.ndarray | float:
    """Eccentricity ε ∈ [0, 1) of the growth ellipse.

    Zero effective wind yields a circular fire (ε = 0).
    """
    lwr = np.asarray(length_to_width_ratio(effective_wind_ftmin), dtype=np.float64)
    ecc = np.sqrt(lwr * lwr - 1.0) / lwr
    return ecc if ecc.ndim else float(ecc)


def ros_at_azimuth(
    ros_max: np.ndarray | float,
    dir_max_deg: np.ndarray | float,
    eccentricity: np.ndarray | float,
    azimuth_deg: np.ndarray | float,
) -> np.ndarray | float:
    """Spread rate towards ``azimuth_deg`` given the heading description.

    All arguments broadcast; the result keeps the broadcast shape.
    A zero ``ros_max`` yields zero in every direction.
    """
    ros_max = np.asarray(ros_max, dtype=np.float64)
    ecc = np.asarray(eccentricity, dtype=np.float64)
    ros = ros_from_flank(ros_max * (1.0 - ecc), dir_max_deg, ecc, azimuth_deg)
    return ros if ros.ndim else float(ros)


def ros_from_flank(
    flank: np.ndarray,
    dir_max_deg: np.ndarray | float,
    eccentricity: np.ndarray,
    azimuth_deg: np.ndarray | float,
) -> np.ndarray:
    """:func:`ros_at_azimuth` from the precomputed flanking rate
    ``flank = R_max·(1 − ε)``, bitwise equal to it.

    For callers that evaluate many azimuths or many gathers of one
    ellipse: the product is formed once instead of on every call.
    """
    theta = np.radians(
        np.asarray(azimuth_deg, dtype=np.float64)
        - np.asarray(dir_max_deg, dtype=np.float64)
    )
    denom = 1.0 - eccentricity * np.cos(theta)
    # ε < 1 always, so denom >= 1 - ε > 0; guard anyway for ε→1 numerics
    denom = np.maximum(denom, 1e-12)
    return flank / denom


def backing_ros(
    ros_max: np.ndarray | float, eccentricity: np.ndarray | float
) -> np.ndarray | float:
    """Spread rate directly against the heading (rear of the ellipse)."""
    ros_max = np.asarray(ros_max, dtype=np.float64)
    ecc = np.asarray(eccentricity, dtype=np.float64)
    ros = ros_max * (1.0 - ecc) / (1.0 + ecc)
    return ros if ros.ndim else float(ros)


def flanking_ros(
    ros_max: np.ndarray | float, eccentricity: np.ndarray | float
) -> np.ndarray | float:
    """Spread rate perpendicular to the heading."""
    ros_max = np.asarray(ros_max, dtype=np.float64)
    ecc = np.asarray(eccentricity, dtype=np.float64)
    ros = ros_max * (1.0 - ecc)
    return ros if ros.ndim else float(ros)
