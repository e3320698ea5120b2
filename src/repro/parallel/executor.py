"""Batch fitness backends: serial and process-pool evaluation.

The evolutionary algorithms consume a ``FitnessFunction`` — any callable
``(n, d) genome matrix → (n,) fitness vector``. This module provides the
two standard backends:

* :class:`SerialEvaluator` — evaluates in-process; the deterministic
  reference every parallel backend must agree with bit-for-bit.
* :class:`ProcessPoolEvaluator` — fans chunks of genomes out to a
  ``multiprocessing`` pool. The *problem* object (terrain, burned maps,
  horizon) is pickled **once** into each worker at initialisation;
  per-call traffic is only the 9-float genomes and the fitness floats,
  following the small-message discipline of the mpi4py guide.

Problems must be picklable and stateless-after-construction (workers
share nothing). The concrete wildfire problem lives in
:mod:`repro.systems.problem`; tests use toy problems.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ParallelError

__all__ = [
    "BatchProblem",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "default_worker_count",
]


@runtime_checkable
class BatchProblem(Protocol):
    """A picklable batch evaluation problem."""

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Fitness of each row of ``genomes`` (shape ``(n, d)`` → ``(n,)``)."""
        ...


def default_worker_count() -> int:
    """A sensible worker count for this machine (≥ 1)."""
    return max(1, (os.cpu_count() or 1))


def _check_result(values: np.ndarray, expected: int) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64).reshape(-1)
    if out.shape != (expected,):
        raise ParallelError(
            f"problem returned {out.shape[0]} fitness values for "
            f"{expected} genomes"
        )
    return out


class SerialEvaluator:
    """In-process evaluation; the reference backend.

    Also counts evaluations and accumulates busy time so benchmarks can
    compare against the parallel backends.
    """

    def __init__(self, problem: BatchProblem) -> None:
        self._problem = problem
        self.evaluations = 0

    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        values = _check_result(
            self._problem.evaluate_batch(genomes), genomes.shape[0]
        )
        self.evaluations += genomes.shape[0]
        return values

    def close(self) -> None:
        """No resources to release; present for interface symmetry."""

    def __enter__(self) -> "SerialEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------
_WORKER_PROBLEM: BatchProblem | None = None
_WORKER_BARRIER = None

#: Safety timeout for the problem-update rendezvous, seconds.
_UPDATE_TIMEOUT = 120.0


def _init_worker(problem: BatchProblem | None, barrier=None) -> None:
    """Pool initialiser: stash the problem in process-local state."""
    global _WORKER_PROBLEM, _WORKER_BARRIER
    _WORKER_PROBLEM = problem
    _WORKER_BARRIER = barrier


def _install_problem(problem: BatchProblem) -> int:
    """Pool task: swap in a new problem, then rendezvous.

    The barrier holds every worker inside its install task until all
    ``n_workers`` tasks have been picked up, which forces the pool to
    hand exactly one install to each worker — the broadcast primitive
    ``Pool.map`` alone cannot guarantee. Returns the worker's PID so
    the caller can verify the distribution.
    """
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem
    if _WORKER_BARRIER is not None:
        _WORKER_BARRIER.wait(timeout=_UPDATE_TIMEOUT)
    return os.getpid()


#: Chunks per worker in each :class:`ProcessPoolEvaluator` call. More
#: chunks than workers balance the load for the per-genome reference
#: kernel, whose simulation times vary across scenarios (wet scenarios
#: finish almost instantly, windy ones burn the whole grid).
CHUNKS_PER_WORKER = 4


def _eval_chunk(chunk: np.ndarray) -> np.ndarray:
    """Evaluate one chunk inside a worker process."""
    if _WORKER_PROBLEM is None:
        raise ParallelError("worker process was not initialised with a problem")
    return np.asarray(_WORKER_PROBLEM.evaluate_batch(chunk), dtype=np.float64)


class ProcessPoolEvaluator:
    """Fan batch evaluations out to a ``multiprocessing`` pool.

    Parameters
    ----------
    problem:
        Picklable batch problem, shipped once per worker. ``None``
        starts an idle pool — call :meth:`update_problem` before the
        first evaluation (the run-scoped engine session does this).
    n_workers:
        Pool size (default: CPU count).

    Each evaluate call is split into ``n_workers × CHUNKS_PER_WORKER``
    chunks (see that constant). Results are reassembled **by index**,
    so the output is identical to :class:`SerialEvaluator` regardless
    of completion order. The pool outlives any single problem:
    :meth:`update_problem` swaps the worker-side problem in place (one
    small message per worker), so a run-scoped session keeps one pool
    across all prediction steps instead of re-forking per step.
    """

    def __init__(
        self,
        problem: BatchProblem | None,
        n_workers: int | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ParallelError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers or default_worker_count()
        self.evaluations = 0
        self.problem_updates = 0
        # fork is fine here (no threads at pool-creation time) and avoids
        # re-importing the package in every worker on every run.
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._barrier = ctx.Barrier(self.n_workers)
        self._pool = ctx.Pool(
            processes=self.n_workers,
            initializer=_init_worker,
            initargs=(problem, self._barrier),
        )
        self._closed = False

    def update_problem(self, problem: BatchProblem) -> None:
        """Swap the worker-side problem without restarting the pool.

        Broadcasts one install task to every live worker (barrier-
        synchronised so no worker is skipped); per-step state such as
        terrain rasters crosses the pipe once per worker per update,
        and the processes themselves are never re-forked.
        """
        if self._closed:
            raise ParallelError("evaluator already closed")
        pids = self._pool.map(
            _install_problem, [problem] * self.n_workers, chunksize=1
        )
        if len(set(pids)) != self.n_workers:  # pragma: no cover - defensive
            raise ParallelError(
                f"problem update reached {len(set(pids))} of "
                f"{self.n_workers} workers"
            )
        self.problem_updates += 1

    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        if self._closed:
            raise ParallelError("evaluator already closed")
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        n = genomes.shape[0]
        if n == 0:
            return np.zeros(0)
        n_chunks = min(n, self.n_workers * CHUNKS_PER_WORKER)
        chunks = np.array_split(genomes, n_chunks)
        results = self._pool.map(_eval_chunk, chunks)
        values = _check_result(np.concatenate(results), n)
        self.evaluations += n
        return values

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if not self._closed:
            self._pool.close()
            self._pool.join()
            self._closed = True

    def __enter__(self) -> "ProcessPoolEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

