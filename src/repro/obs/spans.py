"""Nestable tracing spans over the :class:`~repro.obs.metrics.Telemetry`
registry.

A span measures one unit of nested work — ``run`` > ``step`` >
``generation`` inside the prediction loop, ``unit`` around each
scheduled :class:`~repro.experiments.work.WorkUnit`. Spans are plain
context managers::

    with span("unit", group=3, cells=4):
        ...

On exit each span

* observes its duration into the ``repro_span_seconds{span=...}``
  histogram (so every traced name doubles as a latency metric for
  free), and
* emits one event dict to the registry's sinks::

      {"event": "span", "span": "unit", "id": "1a2bp1-7",
       "parent": "1a2bp1-2", "depth": 1, "start": <unix time>,
       "seconds": 0.42, "status": "ok" | "error", "thread": <ident>,
       "attrs": {...}}

Span ids are strings namespaced by a per-process, per-registry prefix
(:meth:`Telemetry.set_span_prefix` pins it — fleet workers use their
worker id), so traces merged across processes never collide. When the
registry has adopted a trace context (:meth:`Telemetry.adopt_trace`),
every span additionally carries ``trace_id`` and a span opened with an
empty local stack parents onto the adopted remote span — that is how a
worker's ``unit`` spans hang under the coordinator's ``plan`` root.

Nesting is tracked per *thread* (a ``threading.local`` stack on the
registry): the experiment runner's threads and the fleet worker's
heartbeat thread each get their own lineage, and a span opened on one
thread never becomes the parent of work on another.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import Telemetry

__all__ = ["SPAN_SECONDS_METRIC", "span"]

#: Histogram every finished span's duration lands in, labelled by span
#: name.
SPAN_SECONDS_METRIC = "repro_span_seconds"


@contextmanager
def span(name: str, telemetry: Telemetry | None = None, **attrs):
    """Trace one block of work as a named, nestable span.

    ``attrs`` must be JSON-safe (they are written verbatim to trace
    sinks). ``telemetry`` defaults to the process registry. Yields a
    mutable dict — the event-in-progress — so the block can attach
    late attributes::

        with span("unit", group=g) as ev:
            ev["attrs"]["records"] = n_done

    The span is recorded even when the block raises (with
    ``status: "error"``), so traces show where a run died.
    """
    if telemetry is None:
        from repro.obs import telemetry as default_telemetry

        telemetry = default_telemetry()
    stack = telemetry._stack()
    trace = telemetry.trace_context()
    event = {
        "event": "span",
        "span": str(name),
        "id": telemetry._next_span_id(),
        "parent": stack[-1] if stack else (trace or {}).get("parent_span"),
        "depth": len(stack),
        "start": time.time(),
        "thread": threading.get_ident(),
        "attrs": dict(attrs),
    }
    if trace:
        event["trace_id"] = trace["trace_id"]
    stack.append(event["id"])
    started = time.perf_counter()
    try:
        yield event
        event["status"] = "ok"
    except BaseException:
        event["status"] = "error"
        raise
    finally:
        event["seconds"] = time.perf_counter() - started
        stack.pop()
        histogram = telemetry._span_histograms.get(event["span"])
        if histogram is None:
            histogram = telemetry.histogram(
                SPAN_SECONDS_METRIC, span=event["span"]
            )
            telemetry._span_histograms[event["span"]] = histogram
        histogram.observe(event["seconds"])
        telemetry.emit(event)
