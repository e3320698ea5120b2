"""JSONL trace files → Chrome trace-event JSON (Perfetto-loadable).

A fleet run leaves one trace file per process — the coordinator's
(holding the ``plan`` root span) and one per worker (holding that
worker's ``unit → run → step → generation`` subtrees, all stamped with
the coordinator-assigned ``trace_id``). :func:`build_timeline` merges
them into a single document the Perfetto UI (https://ui.perfetto.dev)
or ``chrome://tracing`` opens directly:

* each input file becomes one *process track* (``pid``), named after
  the worker that wrote it (taken from its ``clock_sync`` events) or
  the file stem;
* span events become complete (``ph: "X"``) slices; the emitting
  thread becomes the track's ``tid`` so concurrent unit/heartbeat
  work nests correctly;
* worker timestamps are shifted by the file's last ``clock_sync``
  offset — the coordinator-measured estimate shipped on ``complete``
  replies — so all tracks share the coordinator's clock;
* free-form events that carry a ``time`` (``slow_unit``,
  ``clock_sync``) become instant markers.

Span ``id``/``parent``/``trace_id`` and all span attrs survive in each
slice's ``args``, so the cross-process parent links stay inspectable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

__all__ = ["build_timeline", "export_timeline", "load_trace"]


def load_trace(path) -> list[dict]:
    """The event dicts of one JSONL trace file.

    Undecodable lines are skipped rather than fatal: a killed worker
    truncates its last line mid-write, and that trace is exactly the
    one worth looking at.
    """
    events: list[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict):
                    events.append(event)
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    return events


def _track_label(path, events: list[dict]) -> str:
    for event in events:
        if event.get("event") == "clock_sync" and event.get("worker"):
            return str(event["worker"])
    return Path(path).stem


def _clock_offset(events: list[dict]) -> float:
    offset = 0.0
    for event in events:
        if event.get("event") == "clock_sync":
            try:
                offset = float(event.get("clock_offset", 0.0))
            except (TypeError, ValueError):
                continue
    return offset


def build_timeline(paths, trace_id: str | None = None) -> dict:
    """Merge trace files into one Chrome trace-event document.

    ``trace_id`` filters to a single experiment when a file mixes
    several runs; by default everything is kept and the ids seen are
    reported in ``otherData.trace_ids``.
    """
    trace_events: list[dict] = []
    trace_ids: set[str] = set()
    tracks: list[dict] = []
    spans = 0
    for pid, path in enumerate(paths, start=1):
        events = load_trace(path)
        label = _track_label(path, events)
        offset = _clock_offset(events)
        tracks.append(
            {
                "pid": pid,
                "label": label,
                "source": str(path),
                "clock_offset": offset,
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        tids: dict = {}
        for event in events:
            event_trace = event.get("trace_id")
            if event_trace:
                trace_ids.add(str(event_trace))
            if (
                trace_id is not None
                and event_trace is not None
                and event_trace != trace_id
            ):
                continue
            if (
                event.get("event") == "span"
                and "start" in event
                and "seconds" in event
            ):
                try:
                    start = float(event["start"])
                    seconds = max(float(event["seconds"]), 0.0)
                except (TypeError, ValueError):
                    continue
                tid = tids.setdefault(event.get("thread"), len(tids) + 1)
                args = {
                    "id": event.get("id"),
                    "parent": event.get("parent"),
                    "status": event.get("status"),
                }
                if event_trace:
                    args["trace_id"] = event_trace
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    args.update(attrs)
                trace_events.append(
                    {
                        "name": str(event.get("span")),
                        "cat": "span",
                        "ph": "X",
                        "ts": (start + offset) * 1e6,
                        "dur": seconds * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
                spans += 1
            elif event.get("event") and "time" in event:
                try:
                    when = float(event["time"])
                except (TypeError, ValueError):
                    continue
                trace_events.append(
                    {
                        "name": str(event["event"]),
                        "cat": "event",
                        "ph": "i",
                        "s": "p",
                        "ts": (when + offset) * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": {
                            key: value
                            for key, value in event.items()
                            if key not in ("event", "time")
                        },
                    }
                )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_ids": sorted(trace_ids),
            "tracks": tracks,
            "spans": spans,
        },
    }


def export_timeline(paths, output, trace_id: str | None = None) -> dict:
    """Write :func:`build_timeline` to ``output``; returns the summary
    (``otherData``) for the caller to report."""
    doc = build_timeline(paths, trace_id=trace_id)
    out = Path(output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, default=str)
        fh.write("\n")
    return doc["otherData"]
