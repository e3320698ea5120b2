"""Distributed experiment execution: executors, fleet, aggregation.

Makes "who executes a pending :class:`~repro.experiments.work.WorkUnit`"
a pluggable policy behind the :class:`WorkExecutor` protocol — the seam
at the :class:`~repro.experiments.runner.ExperimentRunner`:

* :class:`InlineExecutor` — in-process, sequential (the default when
  :meth:`~repro.experiments.runner.ExperimentRunner.run` gets no
  executor).
* :class:`FleetExecutor` — the one parallel executor: a TCP
  coordinator (``repro experiments serve-coordinator``) leasing units
  to ``repro experiments worker`` processes, with cell-level work
  stealing (the costliest pending unit is carved for an asking
  worker), heartbeat/lease-timeout requeue, optional shared-secret
  HMAC authentication, worker-local stores and first-writer-wins
  merging.
* :class:`ProcessShardExecutor` — a :class:`FleetExecutor` that starts
  its own local workers on loopback (``repro sweep --shards N``) and
  fails, rather than waiting, if all of them die.

The fleet machinery is one coordinator for one plan or many: a
:class:`PlanQueue` — the one owner of every plan's lease state, under
one lock — behind a :class:`FleetCoordinator` TCP server. The fleet
executor admits its one plan; ``repro serve`` (:mod:`repro.service`)
puts an HTTP gateway in front of the same pair.

Whatever the executor, resume stays the store's ``(system, case, seed,
backend)`` contract: a run interrupted anywhere resumes under any
executor *and any unit granularity*, and all executors produce
identical store contents (modulo wall-clock timings) for the same plan
and seeds — unit boundaries never change a cell's bytes.
"""

from repro.distributed.coordinator import FleetCoordinator
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
    "WorkExecutor",
    "backoff_delay",
    "parse_address",
    "run_worker",
]
