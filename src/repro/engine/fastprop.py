"""Genome-batched propagation kernel for the simulation engine.

:func:`repro.firelib.propagation.propagate` runs Dijkstra's algorithm
one scenario at a time through a Python heap loop. The engine instead
propagates a whole chunk of genomes at once with one label-correcting
kernel over the flat ``(genomes, rows, cols)`` arrival-time array
``T`` and the flat ``(D, genomes, rows, cols)`` travel array ``W``:

* a *wave* relaxes every stencil edge out of the *frontier*, the cells
  whose arrival time fell in the previous wave (the first wave's
  frontier is every seed): it forms ``T[src] + W[d, src]`` for every
  direction ``d``, keeps the candidates strictly below ``T[dst]`` and
  applies them with ``np.minimum.at``; the cells it improves, marked
  in one reused boolean array, are the next wave's frontier, and the
  kernel stops after a wave that improves nothing;
* each wave runs in *slices* of ``CHUNK_ELEMENTS // 32 // D`` frontier
  cells, so its temporaries stay far below the travel array even when
  a large seeded region makes the first frontier huge;
* travel times carry ``inf`` on every edge that leaves or enters a
  blocked cell or leaves the grid, so such edges are never kept and
  need no branch;
* unburned cells start at the least float above the horizon rather
  than ``inf``, so "strictly below ``T[dst]``" also means "at or below
  the horizon"; the kernel maps what is left at that bound to ``inf``.

Why the result is **bitwise identical** to the reference Dijkstra:
travel times are non-negative and IEEE-754 addition is monotone
(``a <= b`` implies ``a + w <= b + w``), so both methods converge to
the same fixed point — every cell's minimum, over all walks from a
seed, of the left-to-right float sum along the walk. Dijkstra's output
is a fixed point of the same relaxation, every value it holds is such
a walk sum, and it lower-bounds every walk's sum by induction along the
walk; the same argument holds for the waves' fixed point, whatever the
order of the slices, because every value written is a walk sum and a
cell whose value falls is relaxed again in the next wave. ``min``
itself never rounds. A walk whose sum ends at or below the horizon has
every prefix at or below it, so refusing candidates above the horizon
changes no such cell. The property-test suite asserts equality for all
13 NFFL fuel models and both stencils.

Why it **terminates**, even on zero-weight cycles: after wave ``j``
every cell holds at most its least sum over walks of ``j`` edges or
fewer (induction on ``j``: the last edge's source either fell in wave
``j - 1`` and is relaxed in wave ``j``, or was relaxed with its
current value earlier). Removing a cycle from a walk never raises its
sum, so walks of at most ``cells - 1`` edges reach every minimum, and
no value falls after wave ``cells - 1``. A cell joins the frontier only
when its value falls strictly, so the wave after that has an empty
frontier; with ``<=`` instead of ``<``, a zero-weight cycle would keep
re-marking its cells forever.

Each kernel call holds the chunk's ``(D, genomes, rows, cols)`` travel
array, so callers cut genome batches into chunks of
:attr:`FlatGrid.chunk` genomes, keeping that array under
:data:`CHUNK_ELEMENTS` elements.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["CHUNK_ELEMENTS", "FlatGrid", "propagate_uniform", "propagate_raster"]

#: Element budget of one kernel call's ``(D, genomes, rows, cols)``
#: travel array (float64: 512 KiB). Larger chunks save little per-wave
#: overhead and raise the process's peak memory.
CHUNK_ELEMENTS = 1 << 16


def _horizon_bound(horizon: float | None) -> float:
    """The least float above ``horizon`` (``inf`` without one).

    The kernel starts unburned cells at this bound instead of ``inf``,
    so ``cand < times[dst]`` also enforces ``cand <= horizon``.
    """
    if horizon is None:
        return np.inf
    if math.isnan(horizon):
        raise SimulationError("horizon must be a number or None, got NaN")
    return float(np.nextafter(float(horizon), np.inf))


def _relax(
    times: np.ndarray,
    travel: np.ndarray,
    offsets: Sequence[tuple[int, int]],
    bound: float,
) -> None:
    """Frontier waves to the fixed point, in place.

    ``times`` is ``(g, rows, cols)``: seed arrival times below
    ``bound``, ``bound`` elsewhere. ``travel`` is ``(D, g, rows, cols)``:
    genome ``k``'s time from cell ``(r, c)`` along ``offsets[d]``,
    ``inf`` on closed edges, including every edge off the grid. An
    off-grid edge's flat target index wraps into a neighbouring row or
    genome, or past either end (the gather clips it), but its candidate
    is ``inf`` and never kept.
    """
    flat_times = times.reshape(-1)
    flat_travel = travel.reshape(-1)
    n_dirs, _, rows, cols = travel.shape
    planes = (np.arange(n_dirs) * flat_times.size)[:, None]
    steps = np.array([dr * cols + dc for dr, dc in offsets])[:, None]
    per_slice = max(1, CHUNK_ELEMENTS // 32 // n_dirs)
    mark = np.zeros(flat_times.size, dtype=bool)
    frontier = np.flatnonzero(flat_times < bound)
    while frontier.size:
        for lo in range(0, frontier.size, per_slice):
            src = frontier[lo : lo + per_slice]
            cand = np.take(flat_travel, planes + src)  # (D, slice)
            cand += np.take(flat_times, src)
            dst = steps + src
            keep = cand < np.take(flat_times, dst, mode="clip")
            dst = dst[keep]
            np.minimum.at(flat_times, dst, cand[keep])
            mark[dst] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False


class FlatGrid:
    """One grid's stencil geometry, shared by every chunk on it.

    Parameters
    ----------
    shape:
        Grid shape ``(rows, cols)``.
    offsets:
        Stencil offsets ``(drow, dcol)``.
    blocked:
        Optional boolean mask of cells fire can never enter.

    The three ``run_*`` methods assemble one chunk's travel array from
    a different input form and call the kernel once.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        offsets: Sequence[tuple[int, int]],
        blocked: np.ndarray | None = None,
    ) -> None:
        rows, cols = shape
        self.rows, self.cols = rows, cols
        self.offsets = tuple(offsets)
        blocked = (
            np.zeros((rows, cols), dtype=bool)
            if blocked is None
            else np.asarray(blocked, dtype=bool)
        )
        if blocked.shape != (rows, cols):
            raise SimulationError(
                f"blocked mask shape {blocked.shape} != grid {(rows, cols)}"
            )
        self.blocked = blocked
        # 0.0 on open edges, inf on edges out of a blocked cell or into
        # a blocked or off-grid one; adding it to travel times is exact
        # (w + 0.0 == w).
        reach = max(max(abs(dr), abs(dc)) for dr, dc in self.offsets)
        open_ = np.zeros((rows + 2 * reach, cols + 2 * reach), dtype=bool)
        open_[reach : reach + rows, reach : reach + cols] = out_of = ~blocked
        self._closed = np.full((len(self.offsets), rows, cols), np.inf)
        for d, (dr, dc) in enumerate(self.offsets):
            into = open_[
                reach + dr : reach + dr + rows, reach + dc : reach + dc + cols
            ]
            self._closed[d][out_of & into] = 0.0
        #: Genomes per kernel call on this grid (see CHUNK_ELEMENTS).
        self.chunk = max(1, CHUNK_ELEMENTS // self._closed.size)

    # ------------------------------------------------------------------
    def seed(
        self,
        ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    ) -> np.ndarray:
        """Initial ``(rows, cols)`` arrival times for the ``run_*`` methods.

        Validation matches :func:`repro.firelib.propagation.propagate`:
        out-of-grid cells and negative or NaN start times raise,
        igniting a blocked cell is a no-op.
        """
        if isinstance(ignitions, Mapping):
            seeds = {(int(r), int(c)): float(t) for (r, c), t in ignitions.items()}
        else:
            seeds = {(int(r), int(c)): 0.0 for (r, c) in ignitions}
        if not seeds:
            raise SimulationError("at least one ignition cell is required")
        times = np.full((self.rows, self.cols), np.inf)
        for (r, c), t0 in seeds.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise SimulationError(
                    f"ignition cell {(r, c)} outside {self.rows}x{self.cols} grid"
                )
            if not t0 >= 0:  # also rejects NaN
                raise SimulationError(
                    f"ignition time must be non-negative, got {t0}"
                )
            if not self.blocked[r, c]:
                times[r, c] = t0
        return times

    # ------------------------------------------------------------------
    def run_uniform(
        self,
        weights: np.ndarray,
        seeded: np.ndarray,
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with one travel time per genome and direction.

        ``weights`` is ``(g, D)`` (uniform terrain); returns the
        ``(g, rows, cols)`` arrival times, ``inf`` where unburned.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != len(self.offsets):
            raise SimulationError(
                f"weights shape {weights.shape} != (g, {len(self.offsets)})"
            )
        travel = self._travel(len(weights))
        np.add(weights.T[:, :, None, None], self._closed[:, None], out=travel)
        return self._run(travel, seeded, horizon)

    def run_table(
        self,
        tables: np.ndarray,
        classes: np.ndarray,
        seeded: np.ndarray,
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with per-cell-class travel times.

        ``tables`` is ``(g, D, K)``: genome ``k``'s travel time along
        direction ``d`` out of a class-``j`` cell; ``classes`` is the
        ``(rows, cols)`` class index of every cell.
        """
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 3 or tables.shape[1] != len(self.offsets):
            raise SimulationError(
                f"tables shape {tables.shape} != (g, {len(self.offsets)}, K)"
            )
        if classes.shape != (self.rows, self.cols):
            raise SimulationError(
                f"classes shape {classes.shape} != grid {(self.rows, self.cols)}"
            )
        travel = self._travel(len(tables))
        for d, closed in enumerate(self._closed):
            np.add(np.take(tables[:, d], classes, axis=1), closed, out=travel[d])
        return self._run(travel, seeded, horizon)

    def run_raster(
        self,
        travel_time: np.ndarray,
        seeded: np.ndarray,
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with per-cell ``(g, D, rows, cols)`` travel times."""
        travel_time = np.asarray(travel_time, dtype=np.float64)
        if travel_time.ndim != 4 or travel_time.shape[1:] != self._closed.shape:
            raise SimulationError(
                f"travel_time shape {travel_time.shape} != "
                f"(g, {len(self.offsets)}, {self.rows}, {self.cols})"
            )
        travel = self._travel(len(travel_time))
        np.add(
            travel_time.transpose(1, 0, 2, 3), self._closed[:, None], out=travel
        )
        return self._run(travel, seeded, horizon)

    # ------------------------------------------------------------------
    def _travel(self, genomes: int) -> np.ndarray:
        """An empty ``(D, genomes, rows, cols)`` travel array."""
        return np.empty((len(self.offsets), genomes, self.rows, self.cols))

    def _run(
        self, travel: np.ndarray, seeded: np.ndarray, horizon: float | None
    ) -> np.ndarray:
        bound = _horizon_bound(horizon)
        times = np.empty(travel.shape[1:])
        np.minimum(seeded, bound, out=times)
        _relax(times, travel, self.offsets, bound)
        times[times >= bound] = np.inf
        return times


# ----------------------------------------------------------------------
# Functional wrappers (tests, ad-hoc use)
# ----------------------------------------------------------------------
def _chunked(run, inputs: np.ndarray, single_ndim: int, chunk: int) -> np.ndarray:
    """Run a one-genome input or a batch, one kernel call per chunk."""
    single = inputs.ndim == single_ndim
    batch = inputs[None] if single else inputs
    out = np.concatenate(
        [run(batch[lo : lo + chunk]) for lo in range(0, len(batch), chunk)]
    )
    return out[0] if single else out


def propagate_uniform(
    weights: Sequence[float] | np.ndarray,
    shape: tuple[int, int],
    offsets: Sequence[tuple[int, int]],
    ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    horizon: float | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Earliest-arrival times when travel cost is uniform per direction.

    ``weights[d]`` is the travel time (minutes) along ``offsets[d]``
    from *any* cell — the homogeneous-terrain case where the Rothermel
    ellipse is the same everywhere; a ``(n, D)`` batch returns
    ``(n, rows, cols)``. Semantics (including the horizon clip to
    ``inf``) match :func:`repro.firelib.propagation.propagate`.
    """
    grid = FlatGrid(shape, offsets, blocked)
    seeded = grid.seed(ignitions)
    return _chunked(
        lambda w: grid.run_uniform(w, seeded, horizon),
        np.asarray(weights, dtype=np.float64),
        1,
        grid.chunk,
    )


def propagate_raster(
    travel_time: np.ndarray,
    offsets: Sequence[tuple[int, int]],
    ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    horizon: float | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Earliest-arrival times from a ``(D, H, W)`` travel-time array.

    The heterogeneous-terrain case: same inputs and semantics as
    :func:`repro.firelib.propagation.propagate`; a ``(n, D, H, W)``
    batch returns ``(n, H, W)``.
    """
    travel_time = np.asarray(travel_time, dtype=np.float64)
    if travel_time.ndim not in (3, 4):
        raise SimulationError(
            f"travel_time must be (D, H, W), got shape {travel_time.shape}"
        )
    if travel_time.shape[-3] != len(offsets):
        raise SimulationError(
            f"stencil size {len(offsets)} != travel_time directions "
            f"{travel_time.shape[-3]}"
        )
    grid = FlatGrid(travel_time.shape[-2:], offsets, blocked)
    seeded = grid.seed(ignitions)
    return _chunked(
        lambda t: grid.run_raster(t, seeded, horizon),
        travel_time,
        3,
        grid.chunk,
    )
