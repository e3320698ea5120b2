"""Always-on prediction service: many plans, one worker fleet.

Everything below :mod:`repro.experiments` answers "run *this plan* to
completion". This package answers the serving question instead: keep a
worker fleet warm and feed it plans as tenants submit them. The
scheduling core is the fleet's own — a spooled
:class:`~repro.distributed.queue.PlanQueue` (lease state and one
results store per submitted plan, cost-model-weighted deficit
round-robin fair share, keyed idempotent job ids, admission
backpressure) served to workers by a
:class:`~repro.distributed.coordinator.FleetCoordinator`, exactly as a
single-plan ``serve-coordinator`` serves its one plan. What this
package adds is the client side:

* :class:`ServiceGateway` — the asyncio HTTP API (submit, poll, stream
  records with resume-by-offset, cancel, drain workers, ``/metrics``);
* :class:`PredictionService` — the assembled service behind
  ``repro serve``: spool, fleet port, HTTP port, housekeeping timer.

The service schedules; it never simulates. Every record a plan
produces through the service is bitwise-identical (in the
:func:`~repro.experiments.store.parity_view`) to the record the same
plan produces inline — whichever tenants it shared the fleet with.
"""

from repro.distributed.queue import (
    AdmissionError,
    PlanJob,
    PlanQueue,
    ServiceError,
    UnknownPlanError,
    plan_job_id,
)
from repro.service.app import PredictionService
from repro.service.gateway import ServiceGateway

__all__ = [
    "AdmissionError",
    "PlanJob",
    "PlanQueue",
    "PredictionService",
    "ServiceError",
    "ServiceGateway",
    "UnknownPlanError",
    "plan_job_id",
]
