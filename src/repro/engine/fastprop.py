"""Genome-batched propagation kernel for the simulation engine.

:func:`repro.firelib.propagation.propagate` runs Dijkstra's algorithm
one scenario at a time through a Python heap loop. The engine instead
propagates a whole chunk of genomes at once with one label-correcting
kernel over a ``(genomes, rows, cols)`` arrival-time array:

* a *sweep* visits every stencil direction ``d`` and relaxes all cells
  at once on shifted views,
  ``T[dst] = min(T[dst], T[src] + W[:, d, src])``;
* travel times carry ``inf`` on every edge that leaves or enters a
  blocked cell, so blocked cells are never entered and need no branch;
* candidates above the horizon are clipped to ``inf`` after each
  sweep, so the fire never spreads past the horizon;
* each sweep recomputes only the bounding box of the cells the previous
  sweep changed, grown by the stencil reach (the *frontier box*), and
  the kernel stops when a sweep changes nothing.

Why the result is **bitwise identical** to the reference Dijkstra:
travel times are non-negative and IEEE-754 addition is monotone
(``a <= b`` implies ``a + w <= b + w``), so both methods converge to
the same fixed point — every cell's minimum, over all walks from a
seed, of the left-to-right float sum along the walk. Dijkstra's output
is a fixed point of the same relaxation, every value it holds is such
a walk sum, and it lower-bounds every walk's sum by induction along the
walk; the same argument holds for the sweeps' fixed point. ``min``
itself never rounds. A walk whose sum ends at or below the horizon has
every prefix at or below it, so clipping above the horizon changes no
such cell. The property-test suite asserts equality for all 13 NFFL
fuel models and both stencils.

Each kernel call holds the chunk's ``(genomes, D, rows, cols)`` travel
array, so callers cut genome batches into chunks of
:attr:`FlatGrid.chunk` genomes, keeping that array under
:data:`CHUNK_ELEMENTS` elements.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["CHUNK_ELEMENTS", "FlatGrid", "propagate_uniform", "propagate_raster"]

#: Element budget of one kernel call's ``(genomes, D, rows, cols)``
#: travel array (float64: 512 KiB). Larger chunks save little per-sweep
#: overhead and raise the process's peak memory.
CHUNK_ELEMENTS = 1 << 16


def _bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """``(r0, r1, c0, c1)`` bounds of a 2-D mask's true cells, or None."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _relax(
    times: np.ndarray,
    travel: np.ndarray,
    offsets: Sequence[tuple[int, int]],
    horizon: float | None,
) -> None:
    """Label-correcting sweeps to the fixed point, in place.

    ``times`` is ``(g, rows + 2p, cols + 2p)`` with a border of ``p`` =
    the stencil reach: seed arrival times, ``inf`` elsewhere, already
    clipped to the horizon. ``travel`` is ``(g, D, rows, cols)``:
    genome ``k``'s time from cell ``(r, c)`` along ``offsets[d]``,
    ``inf`` on closed edges (including every edge off the grid, so the
    border stays ``inf`` and no slice needs bounds checks).
    """
    p = (times.shape[1] - travel.shape[2]) // 2
    box = _bbox(np.isfinite(times).any(axis=0))
    while box is not None:
        r0, r1, c0, c1 = box
        region = times[:, r0 - p : r1 + p, c0 - p : c1 + p]
        before = region.copy()
        sources = times[:, r0:r1, c0:c1]
        for d, (dr, dc) in enumerate(offsets):
            candidate = sources + travel[:, d, r0 - p : r1 - p, c0 - p : c1 - p]
            target = times[:, r0 + dr : r1 + dr, c0 + dc : c1 + dc]
            np.minimum(target, candidate, out=target)
        if horizon is not None:
            region[region > horizon] = np.inf
        changed = _bbox((region != before).any(axis=0))
        if changed is None:
            return
        top, left = r0 - p, c0 - p  # region origin in the padded array
        box = (
            changed[0] + top, changed[1] + top, changed[2] + left, changed[3] + left
        )


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
        self.reach = reach = max(max(abs(dr), abs(dc)) for dr, dc in self.offsets)
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
        out-of-grid cells and negative start times raise, igniting a
        blocked cell is a no-op.
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
            if t0 < 0:
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
        return self._run(weights[:, :, None, None] + self._closed, seeded, horizon)

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
        travel = np.take(tables, classes, axis=2)
        travel += self._closed
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
        return self._run(travel_time + self._closed, seeded, horizon)

    # ------------------------------------------------------------------
    def _run(
        self, travel: np.ndarray, seeded: np.ndarray, horizon: float | None
    ) -> np.ndarray:
        p = self.reach
        times = np.full(
            (travel.shape[0], self.rows + 2 * p, self.cols + 2 * p), np.inf
        )
        inner = times[:, p : p + self.rows, p : p + self.cols]
        inner[...] = seeded
        if horizon is not None:
            inner[inner > horizon] = np.inf
        _relax(times, travel, self.offsets, horizon)
        return inner


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
