"""Genome-batched propagation kernel for the simulation engine.

:func:`repro.firelib.propagation.propagate` runs Dijkstra's algorithm
one scenario at a time through a Python heap loop. The engine instead
propagates a whole chunk of genomes at once with one label-correcting
kernel over the flat ``(genomes, rows, cols)`` arrival-time array
``T``:

* a *wave* relaxes every stencil edge out of the *frontier*, the cells
  whose arrival time fell in the previous wave (the first wave's
  frontier is every seed): it forms ``W[d, src] + T[src]`` for every
  direction ``d``, keeps the candidates strictly below ``T[dst]`` and
  applies them with ``np.minimum.at``; the cells it improves, marked
  in one reused boolean array, are the next wave's frontier, and the
  kernel stops after a wave that improves nothing;
* each wave runs in *slices* of ``CHUNK_ELEMENTS // 32 // D`` frontier
  cells, so its temporaries stay small even when a large seeded region
  makes the first frontier huge;
* the travel times ``W[d, src]`` of a slice are *gathered* for just its
  sources, as ``travel + closed``: ``closed`` is ``0.0`` on open edges
  and ``inf`` on every edge that leaves or enters a blocked cell or
  leaves the grid, so such edges are never kept and need no branch.
  :meth:`FlatGrid.run_uniform` gathers ``weights[genome, d]``;
  :meth:`FlatGrid.run_table` gathers from a ``(D, genomes * classes)``
  table that it fills the first time a ``(genome, class)`` pair is a
  source, so cells the fire never leaves cost nothing;
  :meth:`FlatGrid.run_raster` gathers from a dense ``(D, genomes, rows,
  cols)`` array;
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

A gathered travel time is the same float whichever form it comes
from: ``travel + closed`` is computed per element exactly as a dense
assembly computed it, then ``T[src]`` is added, so the order of the
additions is unchanged. Callers cut genome batches into chunks so that
what one call holds per genome (the arrival times, frontier, masks and
on-demand table) stays under the float64 size of
:data:`CHUNK_ELEMENTS` elements: :meth:`FlatGrid.genomes_per_call`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "CHUNK_ELEMENTS",
    "ClassTables",
    "FlatGrid",
]

#: Element budget of one kernel call's chunk: a dense float64 travel
#: array of this many elements (512 KiB), or as many bytes of arrival
#: times, frontier, masks and on-demand tables. Larger chunks do save
#: per-wave overhead: ``1 << 18`` won 5 of 6 alternating pairs of the
#: predict_mosaic benchmark (median 18 -> 26 steps/s on 2 shared vCPUs,
#: peak RSS +1.8 MB), but the peak-memory pins of
#: ``tests/test_engine_property.py`` hold this budget.
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
    travel_at: Callable[[np.ndarray], np.ndarray],
    offsets: Sequence[tuple[int, int]],
    bound: float,
) -> None:
    """Frontier waves to the fixed point, in place.

    ``times`` is ``(g, rows, cols)``: seed arrival times below
    ``bound``, ``bound`` elsewhere. ``travel_at(src)`` returns a fresh
    ``(D, len(src))`` array: for each flat source index into ``times``
    (genome ``k``, cell ``(r, c)``), the travel time along
    ``offsets[d]``, ``inf`` on closed edges, including every edge off
    the grid. An off-grid edge's flat target index wraps into a
    neighbouring row or genome, or past either end (the gather clips
    it), but its candidate is ``inf`` and never kept.
    """
    flat_times = times.reshape(-1)
    _, rows, cols = times.shape
    steps = np.array([dr * cols + dc for dr, dc in offsets])[:, None]
    per_slice = max(1, CHUNK_ELEMENTS // 32 // len(offsets))
    mark = np.zeros(flat_times.size, dtype=bool)
    # ndarray methods and a bound ufunc method: the np.take/np.flatnonzero
    # wrappers cost more than the work on the small per-wave arrays
    take = flat_times.take
    minimum_at = np.minimum.at
    frontier = (flat_times < bound).nonzero()[0]
    while frontier.size:
        for lo in range(0, frontier.size, per_slice):
            src = frontier[lo : lo + per_slice]
            cand = travel_at(src)  # (D, slice)
            cand += take(src)
            dst = steps + src
            keep = cand < take(dst, mode="clip")
            dst = dst[keep]
            minimum_at(flat_times, dst, cand[keep])
            mark[dst] = True
        src = frontier = None  # free this frontier before the next one
        frontier = mark.nonzero()[0]
        mark[frontier] = False


@dataclass(frozen=True)
class ClassTables:
    """A ``(genomes, D, classes)`` travel table computed on demand.

    ``compute(pairs)`` returns the ``(D, len(pairs))`` travel times out
    of a cell of class ``pairs % classes`` for genome ``pairs //
    classes``. :meth:`FlatGrid.run_table` calls it for a pair the first
    time the pair is a frontier source, so classes the fire never
    leaves cost nothing.
    """

    genomes: int
    classes: int
    compute: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def dense(cls, tables: np.ndarray) -> "ClassTables":
        """Wrap an already computed ``(g, D, K)`` array."""
        genomes, _, classes = tables.shape

        def compute(pairs: np.ndarray) -> np.ndarray:
            return tables[pairs // classes, :, pairs % classes].T

        return cls(genomes, classes, compute)


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

    The three ``run_*`` methods take travel times in a different input
    form and call the kernel once; each hands the kernel a gather that
    forms ``travel + closed`` for just the frontier cells of a slice.
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
        # (w + 0.0 == w). Flat: (D, rows * cols).
        reach = max(max(abs(dr), abs(dc)) for dr, dc in self.offsets)
        open_ = np.zeros((rows + 2 * reach, cols + 2 * reach), dtype=bool)
        open_[reach : reach + rows, reach : reach + cols] = out_of = ~blocked
        closed = np.full((len(self.offsets), rows, cols), np.inf)
        for d, (dr, dc) in enumerate(self.offsets):
            into = open_[
                reach + dr : reach + dr + rows, reach + dc : reach + dc + cols
            ]
            closed[d][out_of & into] = 0.0
        self._closed = closed.reshape(len(self.offsets), rows * cols)

    def genomes_per_call(self, classes: int | None = None) -> int:
        """Genomes per :meth:`run_uniform` call, or per :meth:`run_table`
        call over ``classes`` terrain classes.

        What a call holds per genome, beside wave-slice temporaries of
        fixed size: per cell, its float64 arrival time, at most one
        int64 frontier index, and one byte each in the wave mark and in
        one comparison mask; per class, :meth:`run_table`'s ``D``
        float64 table entries and one fill flag. This keeps that under
        the ``8 * CHUNK_ELEMENTS`` bytes of a dense travel array.
        """
        per_genome = self.rows * self.cols * (8 + 8 + 1 + 1)
        if classes is not None:
            per_genome += classes * (8 * len(self.offsets) + 1)
        return max(1, 8 * CHUNK_ELEMENTS // per_genome)

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
        by_dir = np.ascontiguousarray(weights.T)  # (D, g)
        closed = self._closed
        size = self.rows * self.cols

        def travel_at(src: np.ndarray) -> np.ndarray:
            genome, cell = np.divmod(src, size)
            travel = by_dir.take(genome, axis=1)
            travel += closed.take(cell, axis=1)
            return travel

        return self._run(travel_at, len(weights), seeded, horizon)

    def run_table(
        self,
        tables: ClassTables | np.ndarray,
        classes: np.ndarray,
        seeded: np.ndarray,
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with per-cell-class travel times.

        ``tables`` holds genome ``k``'s travel time along direction
        ``d`` out of a class-``j`` cell: a :class:`ClassTables`, or a
        ``(g, D, K)`` array. ``classes`` is the ``(rows, cols)`` class
        index of every cell. A ``(D, g * K)`` table is filled the first
        time a ``(genome, class)`` pair is a frontier source; a slice
        that holds one pair twice computes it twice, to the same value.
        """
        if not isinstance(tables, ClassTables):
            tables = np.asarray(tables, dtype=np.float64)
            if tables.ndim != 3 or tables.shape[1] != len(self.offsets):
                raise SimulationError(
                    f"tables shape {tables.shape} != (g, {len(self.offsets)}, K)"
                )
            tables = ClassTables.dense(tables)
        classes = np.asarray(classes)
        if classes.shape != (self.rows, self.cols):
            raise SimulationError(
                f"classes shape {classes.shape} != grid {(self.rows, self.cols)}"
            )
        if classes.size and (classes.min() < 0 or classes.max() >= tables.classes):
            raise SimulationError(
                f"class indices must lie in [0, {tables.classes})"
            )
        n_classes = tables.classes
        cell_class = classes.reshape(-1)
        size = self.rows * self.cols
        table = np.empty((len(self.offsets), tables.genomes * n_classes))
        filled = np.zeros(tables.genomes * n_classes, dtype=bool)
        closed = self._closed

        def travel_at(src: np.ndarray) -> np.ndarray:
            genome, cell = np.divmod(src, size)
            pairs = genome * n_classes + cell_class.take(cell)
            fresh = pairs[~filled[pairs]]
            if fresh.size:
                table[:, fresh] = tables.compute(fresh)
                filled[fresh] = True
            travel = table.take(pairs, axis=1)
            travel += closed.take(cell, axis=1)
            return travel

        return self._run(travel_at, tables.genomes, seeded, horizon)

    def run_raster(
        self,
        travel_time: np.ndarray,
        seeded: np.ndarray,
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with per-cell ``(g, D, rows, cols)`` travel times."""
        travel_time = np.asarray(travel_time, dtype=np.float64)
        n_dirs = len(self.offsets)
        if travel_time.ndim != 4 or travel_time.shape[1:] != (
            n_dirs,
            self.rows,
            self.cols,
        ):
            raise SimulationError(
                f"travel_time shape {travel_time.shape} != "
                f"(g, {n_dirs}, {self.rows}, {self.cols})"
            )
        genomes = len(travel_time)
        size = self.rows * self.cols
        travel = np.empty((n_dirs, genomes, size))
        np.add(
            travel_time.reshape(genomes, n_dirs, size).transpose(1, 0, 2),
            self._closed[:, None],
            out=travel,
        )
        flat = travel.reshape(-1)
        planes = (np.arange(n_dirs) * (genomes * size))[:, None]
        return self._run(
            lambda src: flat.take(planes + src), genomes, seeded, horizon
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        travel_at: Callable[[np.ndarray], np.ndarray],
        genomes: int,
        seeded: np.ndarray,
        horizon: float | None,
    ) -> np.ndarray:
        bound = _horizon_bound(horizon)
        times = np.empty((genomes, self.rows, self.cols))
        np.minimum(seeded, bound, out=times)
        _relax(times, travel_at, self.offsets, bound)
        times[times >= bound] = np.inf
        return times
