"""Minimum-travel-time fire propagation over a cell grid.

fireLib propagates fire by contagion: a burning cell ignites each
neighbour after a travel time ``distance / R(θ)`` where θ is the compass
azimuth from the burning cell to the neighbour and R comes from the
burning cell's growth ellipse. The earliest arrival over all paths is
exactly a shortest-path problem, solved here with Dijkstra's algorithm
over a binary heap.

The expensive part — the per-direction spread rates — is fully
vectorised: :func:`directional_travel_times` produces a ``(D, H, W)``
array in one NumPy pass per direction, so the Python-level heap loop only
does O(cells·D) constant-time work.

Stencils: the default 8-neighbour stencil gives octagonal distortion of
a circular fire of at most ~8%; the 16-neighbour stencil (adds knight
moves) reduces it to ~3% at twice the edge cost.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SimulationError
from repro.firelib.ellipse import ros_at_azimuth
from repro.firelib.rothermel import ROS_EPSILON

__all__ = [
    "NEIGHBORS_8",
    "NEIGHBORS_16",
    "stencil",
    "directional_travel_times",
    "propagate",
]

#: 8-neighbour stencil: (drow, dcol). Row 0 is the northern edge, so
#: drow = -1 points North (azimuth 0°) and dcol = +1 points East (90°).
NEIGHBORS_8: tuple[tuple[int, int], ...] = (
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
)

#: 16-neighbour stencil: the 8 above plus knight moves.
NEIGHBORS_16: tuple[tuple[int, int], ...] = NEIGHBORS_8 + (
    (-2, 1),
    (-1, 2),
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
    (-1, -2),
    (-2, -1),
)


def stencil(n_neighbors: int) -> tuple[tuple[int, int], ...]:
    """The (drow, dcol) offsets for an 8- or 16-neighbour stencil."""
    if n_neighbors == 8:
        return NEIGHBORS_8
    if n_neighbors == 16:
        return NEIGHBORS_16
    raise SimulationError(f"stencil must have 8 or 16 neighbours, got {n_neighbors}")


def _offset_azimuth_deg(drow: int, dcol: int) -> float:
    """Compass azimuth (degrees clockwise from North) of an offset."""
    # North is -row, East is +col.
    return math.degrees(math.atan2(dcol, -drow)) % 360.0


def directional_travel_times(
    ros_max: np.ndarray,
    dir_max_deg: np.ndarray,
    eccentricity: np.ndarray,
    cell_size_ft: float,
    blocked: np.ndarray | None = None,
    n_neighbors: int = 8,
) -> np.ndarray:
    """Per-direction travel times (minutes) out of every cell.

    Parameters
    ----------
    ros_max, dir_max_deg, eccentricity:
        Per-cell ellipse description (ft/min, degrees, unitless), shape
        ``(H, W)`` each (scalars broadcast).
    cell_size_ft:
        Cell side in feet.
    blocked:
        Optional boolean mask; blocked *source* cells emit no fire
        (their outgoing times are ``inf``). Blocking of target cells is
        enforced by :func:`propagate`.
    n_neighbors:
        8 or 16.

    Returns
    -------
    np.ndarray
        Shape ``(D, H, W)``: ``out[d, r, c]`` is the time for fire to
        travel from cell ``(r, c)`` to its ``d``-th neighbour; ``inf``
        where the cell does not spread that way.
    """
    offsets = stencil(n_neighbors)
    ros_max = np.atleast_2d(np.asarray(ros_max, dtype=np.float64))
    dir_max_deg = np.broadcast_to(
        np.asarray(dir_max_deg, dtype=np.float64), ros_max.shape
    )
    eccentricity = np.broadcast_to(
        np.asarray(eccentricity, dtype=np.float64), ros_max.shape
    )
    if cell_size_ft <= 0:
        raise SimulationError(f"cell size must be positive, got {cell_size_ft}")

    out = np.empty((len(offsets), *ros_max.shape), dtype=np.float64)
    for d, (dr, dc) in enumerate(offsets):
        azimuth = _offset_azimuth_deg(dr, dc)
        distance = cell_size_ft * math.hypot(dr, dc)
        ros = ros_at_azimuth(ros_max, dir_max_deg, eccentricity, azimuth)
        with np.errstate(divide="ignore"):
            out[d] = np.where(ros > ROS_EPSILON, distance / ros, np.inf)
    if blocked is not None:
        out[:, np.asarray(blocked, dtype=bool)] = np.inf
    return out


def propagate(
    travel_time: np.ndarray,
    ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    horizon: float | None = None,
    blocked: np.ndarray | None = None,
    n_neighbors: int | None = None,
) -> np.ndarray:
    """Earliest-arrival ignition times from one or more ignition cells.

    Parameters
    ----------
    travel_time:
        ``(D, H, W)`` per-direction travel times from
        :func:`directional_travel_times`. ``D`` selects the stencil
        (8 or 16) unless ``n_neighbors`` overrides it.
    ignitions:
        Either an iterable of ``(row, col)`` cells igniting at t=0, or a
        mapping ``{(row, col): start_time}``.
    horizon:
        Simulation horizon in minutes; cells not reached by then are
        left at ``inf``. ``None`` propagates to exhaustion; NaN raises.
    blocked:
        Boolean mask of cells fire can never enter.

    Returns
    -------
    np.ndarray
        ``(H, W)`` float64 ignition times, ``inf`` where unburned.
    """
    if travel_time.ndim != 3:
        raise SimulationError(
            f"travel_time must be (D, H, W), got shape {travel_time.shape}"
        )
    n_dirs = travel_time.shape[0] if n_neighbors is None else n_neighbors
    offsets = stencil(n_dirs)
    if len(offsets) != travel_time.shape[0]:
        raise SimulationError(
            f"stencil size {len(offsets)} != travel_time directions "
            f"{travel_time.shape[0]}"
        )
    rows, cols = travel_time.shape[1:]
    blocked_mask = (
        np.zeros((rows, cols), dtype=bool)
        if blocked is None
        else np.asarray(blocked, dtype=bool)
    )
    if blocked_mask.shape != (rows, cols):
        raise SimulationError(
            f"blocked mask shape {blocked_mask.shape} != grid {(rows, cols)}"
        )

    if isinstance(ignitions, Mapping):
        seeds = {(int(r), int(c)): float(t) for (r, c), t in ignitions.items()}
    else:
        seeds = {(int(r), int(c)): 0.0 for (r, c) in ignitions}
    if not seeds:
        raise SimulationError("at least one ignition cell is required")

    times = np.full((rows, cols), np.inf, dtype=np.float64)
    heap: list[tuple[float, int, int]] = []
    for (r, c), t0 in seeds.items():
        if not (0 <= r < rows and 0 <= c < cols):
            raise SimulationError(f"ignition cell {(r, c)} outside {rows}x{cols} grid")
        if not t0 >= 0:  # also rejects NaN
            raise SimulationError(f"ignition time must be non-negative, got {t0}")
        if blocked_mask[r, c]:
            continue  # igniting an unburnable cell is a no-op
        if t0 < times[r, c]:
            times[r, c] = t0
            heapq.heappush(heap, (t0, r, c))

    limit = np.inf if horizon is None else float(horizon)
    if math.isnan(limit):
        raise SimulationError("horizon must be a number or None, got NaN")
    tt = travel_time  # local alias for the hot loop
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        t, r, c = pop(heap)
        if t > times[r, c]:
            continue  # stale entry
        if t > limit:
            break  # all remaining arrivals exceed the horizon
        for d, (dr, dc) in enumerate(offsets):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            if blocked_mask[nr, nc]:
                continue
            nt = t + tt[d, r, c]
            if nt < times[nr, nc]:
                times[nr, nc] = nt
                push(heap, (nt, nr, nc))

    if horizon is not None:
        times[times > limit] = np.inf
    return times
