"""Distributed experiment execution: executors, fleet, aggregation.

Makes "who executes a pending :class:`~repro.experiments.work.WorkUnit`"
a pluggable policy behind the :class:`WorkExecutor` protocol — the seam
at the :class:`~repro.experiments.runner.ExperimentRunner`:

* :class:`InlineExecutor` — in-process, sequential (the default when
  :meth:`~repro.experiments.runner.ExperimentRunner.run` gets no
  executor).
* :class:`ProcessShardExecutor` — local ``multiprocessing`` fan-out of
  units over a shared JSONL store (``repro sweep --shards N``),
  splitting big units so every shard gets work.
* :class:`FleetExecutor` — a TCP coordinator
  (``repro experiments serve-coordinator``) leasing units to remote
  ``repro experiments worker`` processes, with cell-level work stealing
  (the costliest pending unit is carved for an asking worker),
  heartbeat/lease-timeout requeue, optional shared-secret HMAC
  authentication, worker-local stores and first-writer-wins merging.

The fleet machinery is one coordinator for one plan or many: a
:class:`PlanQueue` of per-plan :class:`UnitLedger`\\ s behind a
:class:`FleetCoordinator` TCP server. The fleet executor admits its
one plan; ``repro serve`` (:mod:`repro.service`) puts an HTTP gateway
in front of the same pair.

Whatever the executor, resume stays the store's ``(system, case, seed,
backend)`` contract: a run interrupted anywhere resumes under any
executor *and any unit granularity*, and all executors produce
identical store contents (modulo wall-clock timings) for the same plan
and seeds — unit boundaries never change a cell's bytes.
"""

from repro.distributed.coordinator import FleetCoordinator, UnitLedger
from repro.distributed.executors import (
    FleetExecutor,
    InlineExecutor,
    ProcessShardExecutor,
    WorkExecutor,
)
from repro.distributed.protocol import FleetAuthError, FleetError
from repro.distributed.queue import PlanQueue
from repro.distributed.worker import backoff_delay, parse_address, run_worker

__all__ = [
    "FleetAuthError",
    "FleetCoordinator",
    "FleetError",
    "FleetExecutor",
    "InlineExecutor",
    "PlanQueue",
    "ProcessShardExecutor",
    "UnitLedger",
    "WorkExecutor",
    "backoff_delay",
    "parse_address",
    "run_worker",
]
