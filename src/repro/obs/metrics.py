"""Process-local metric registry: counters, gauges, histograms.

The observability layer deliberately carries **no dependencies** — no
prometheus_client, no OpenTelemetry SDK — because the reproduction must
run in the same hermetic environment as the simulations it measures.
What it keeps from those ecosystems is the *data model*:

* a :class:`Telemetry` registry hands out metric instruments keyed by
  ``(name, labels)``; asking twice for the same pair returns the same
  instrument, so instrumentation sites never coordinate;
* :class:`Counter` (monotonic), :class:`Gauge` (set/add), and
  :class:`Histogram` (fixed upper-bound buckets with cumulative
  counts, plus sum/count) — enough to answer "how many", "how much
  right now", and "how long does one usually take";
* :meth:`Telemetry.prometheus_text` renders the whole registry in the
  Prometheus text exposition format, and :func:`parse_prometheus_text`
  reads such a snapshot back (the round-trip is what the CI smoke and
  the unit tests assert on).

Everything is thread-safe under one registry lock plus per-instrument
locks: instruments are updated from EA loops, pool drain threads and
fleet heartbeat threads concurrently.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import threading
from typing import Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Telemetry",
    "histogram_quantile",
    "parse_prometheus_text",
    "snapshot_delta",
]

#: Distinguishes registries created in the same process: the span-id
#: prefix combines the pid with this sequence, so a reset registry (or
#: a forked child, whose pid differs) can never reissue an id.
_PREFIX_SEQ = itertools.count(1)

#: Default histogram bucket upper bounds (seconds-oriented: the spans
#: and kernel timings this repo records range from sub-millisecond
#: cache hits to multi-minute fleet units).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: dict) -> tuple[tuple[str, str], ...]:
    out = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ReproError(f"invalid metric label name {key!r}")
        out.append((key, str(labels[key])))
    return tuple(out)


class Counter:
    """A monotonically increasing value (events, cells, cache hits)."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (in-flight units, utilization)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket distribution (batch seconds, unit seconds).

    Buckets are cumulative upper bounds in the Prometheus style; an
    implicit ``+Inf`` bucket always exists, so ``observe`` never drops
    a sample.
    """

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            if self._max is None or value > self._max:
                self._max = value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def fold(self, cumulative: Mapping, sum_delta, count_delta, max_value=None) -> bool:
        """Merge a cumulative-bucket delta shipped over the fleet wire.

        ``cumulative`` maps bound text (as in :meth:`snapshot`) to the
        *delta* of the cumulative count for that bound. Returns False —
        instead of raising — when the payload is malformed or its bucket
        layout disagrees with this instrument, because the caller folds
        untrusted worker input on the coordinator's hot path.
        """
        try:
            wire = {str(k): int(v) for k, v in cumulative.items()}
            sum_delta = float(sum_delta)
            count_delta = int(count_delta)
            max_value = None if max_value is None else float(max_value)
        except (AttributeError, TypeError, ValueError):
            return False
        with self._lock:
            keys = [format_bound(b) for b in self.bounds] + ["+Inf"]
            if set(wire) != set(keys):
                return False
            previous = 0
            per_bucket = []
            for key in keys:
                per_bucket.append(wire[key] - previous)
                previous = wire[key]
            if count_delta < 0 or any(d < 0 for d in per_bucket):
                return False
            for i, delta in enumerate(per_bucket):
                self._counts[i] += delta
            self._sum += sum_delta
            self._count += count_delta
            if max_value is not None and (self._max is None or max_value > self._max):
                self._max = max_value
        return True

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            cumulative = {}
            running = 0
            for bound, count in zip(self.bounds, self._counts):
                running += count
                cumulative[format_bound(bound)] = running
            cumulative["+Inf"] = running + self._counts[-1]
            return {
                "buckets": cumulative,
                "sum": self._sum,
                "count": self._count,
                "max": self._max if self._max is not None else 0.0,
            }


def format_bound(bound: float) -> str:
    """Canonical text form of a bucket bound (``0.5``, ``10``, ``+Inf``)."""
    if math.isinf(bound):
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Telemetry:
    """A registry of metric instruments plus attached event sinks.

    One instance is process-global (see :func:`repro.obs.telemetry`);
    tests build private ones. Instruments are created lazily on first
    request and shared by ``(name, labels)`` thereafter; requesting an
    existing name with a different instrument kind raises, so two
    instrumentation sites can never silently disagree about what a
    metric means.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._sinks: list = []
        # span name -> its ``repro_span_seconds`` histogram, resolved
        # once per name (see repro.obs.spans)
        self._span_histograms: dict[str, Histogram] = {}
        self._span_ids = 0
        self._span_stack = threading.local()
        self._span_prefix: str | None = None
        self._span_prefix_pid: int | None = None
        self._trace: dict | None = None
        self._trace_ids = 0

    # -- instruments ----------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._instrument("gauge", name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``.

        ``buckets`` only applies on first creation; later requests
        share the existing instrument whatever they pass.
        """
        return self._instrument("histogram", name, labels, buckets=buckets)

    def _instrument(self, kind: str, name: str, labels: dict, **kwargs):
        _check_name(name)
        key = (name, _check_labels(labels))
        with self._lock:
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ReproError(
                    f"metric {name!r} already registered as a {known}, "
                    f"requested as a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = _KINDS[kind](**kwargs)
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    # -- sinks ----------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Attach an event sink (span/event records are fanned out)."""
        with self._lock:
            self._sinks.append(sink)

    @property
    def sinks(self) -> list:
        with self._lock:
            return list(self._sinks)

    def emit(self, event: dict) -> None:
        """Send one event dict to every attached sink."""
        if not self._sinks:  # the common case: nothing to copy or lock
            return
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close and detach all sinks (idempotent)."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()

    # -- span bookkeeping (used by repro.obs.spans) ---------------------
    def _prefix_locked(self) -> str:
        pid = os.getpid()
        if self._span_prefix is None or self._span_prefix_pid != pid:
            # Regenerating when the pid changes covers fork-started
            # children, which inherit the parent registry whole.
            self._span_prefix = f"{pid:x}p{next(_PREFIX_SEQ)}"
            self._span_prefix_pid = pid
        return self._span_prefix

    def set_span_prefix(self, prefix: str) -> None:
        """Pin the span-id prefix (fleet workers use their worker id)."""
        with self._lock:
            self._span_prefix = str(prefix)
            self._span_prefix_pid = os.getpid()

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_ids += 1
            return f"{self._prefix_locked()}-{self._span_ids}"

    def _stack(self) -> list:
        stack = getattr(self._span_stack, "items", None)
        if stack is None:
            stack = self._span_stack.items = []
        return stack

    # -- trace context --------------------------------------------------
    def new_trace_id(self) -> str:
        """Mint a trace id (globally unique via the span-id prefix)."""
        with self._lock:
            self._trace_ids += 1
            return f"{self._prefix_locked()}-t{self._trace_ids}"

    def adopt_trace(self, trace_id, parent_span=None) -> None:
        """Join a (possibly remote) trace: subsequent spans carry
        ``trace_id`` and root spans parent onto ``parent_span``.
        A falsy ``trace_id`` clears the context."""
        with self._lock:
            if not trace_id:
                self._trace = None
            else:
                self._trace = {
                    "trace_id": str(trace_id),
                    "parent_span": parent_span,
                }

    def trace_context(self) -> dict | None:
        """The adopted ``{trace_id, parent_span}`` context, or None."""
        with self._lock:
            return dict(self._trace) if self._trace else None

    # -- export ---------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """All instruments as JSON-safe dicts, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [
            {
                "name": name,
                "labels": dict(labels),
                "type": metric.kind,
                **metric.snapshot(),
            }
            for (name, labels), metric in items
        ]

    def prometheus_text(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        seen_type: set[str] = set()
        for entry in self.snapshot():
            name, labels = entry["name"], entry["labels"]
            if name not in seen_type:
                lines.append(f"# TYPE {name} {entry['type']}")
                seen_type.add(name)
            if entry["type"] == "histogram":
                for bound, count in entry["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_text({**labels, 'le': bound})} {count}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(labels)} {_num(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_text(labels)} {entry['count']}"
                )
                lines.append(
                    f"{name}_max{_label_text(labels)} {_num(entry['max'])}"
                )
                if entry["count"]:
                    p50 = histogram_quantile(entry, 0.5)
                    p95 = histogram_quantile(entry, 0.95)
                    lines.append(
                        f"# quantiles {name}{_label_text(labels)} "
                        f"p50={p50:.6g} p95={p95:.6g} max={entry['max']:.6g}"
                    )
            else:
                lines.append(
                    f"{name}{_label_text(labels)} {_num(entry['value'])}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_prometheus(self, path) -> None:
        """Write :meth:`prometheus_text` to ``path`` atomically enough
        for a snapshot file (single write, truncating)."""
        with open(path, "w") as fh:
            fh.write(self.prometheus_text())

    # -- fleet aggregation ----------------------------------------------
    def fold_snapshot(self, entries, **extra_labels) -> int:
        """Fold a wire metric delta (see :func:`snapshot_delta`) into
        this registry under ``extra_labels`` (typically ``worker=``).

        The payload crosses a process boundary, so malformed entries are
        skipped rather than raised, and entries that already carry one
        of ``extra_labels`` are skipped too — that stops re-folding a
        previously folded series when a worker shares the coordinator's
        registry (in-thread fleets in tests). Returns the folded count.
        """
        if not isinstance(entries, (list, tuple)):
            return 0
        folded = 0
        for wire in entries:
            if not isinstance(wire, dict):
                continue
            labels = wire.get("labels")
            if not isinstance(labels, dict) or any(
                key in labels for key in extra_labels
            ):
                continue
            try:
                name = str(wire.get("name"))
                labels = {
                    **{str(k): str(v) for k, v in labels.items()},
                    **extra_labels,
                }
                kind = wire.get("type")
                if kind == "counter":
                    amount = float(wire.get("value", 0.0))
                    if amount > 0:
                        self.counter(name, **labels).inc(amount)
                        folded += 1
                elif kind == "gauge":
                    gauge = self.gauge(name, **labels)
                    gauge.set(max(gauge.value, float(wire.get("value", 0.0))))
                    folded += 1
                elif kind == "histogram":
                    buckets = wire.get("buckets")
                    if not isinstance(buckets, dict):
                        continue
                    bounds = sorted(
                        float(b) for b in buckets if b != "+Inf"
                    )
                    if not bounds:
                        continue
                    histogram = self.histogram(name, buckets=bounds, **labels)
                    if histogram.fold(
                        buckets,
                        wire.get("sum", 0.0),
                        wire.get("count", 0),
                        wire.get("max"),
                    ):
                        folded += 1
            except (ReproError, TypeError, ValueError):
                continue
        return folded


def _entry_key(entry: Mapping) -> tuple:
    return (
        entry["name"],
        tuple(sorted((str(k), str(v)) for k, v in entry["labels"].items())),
    )


def snapshot_delta(prev: list, cur: list) -> list[dict]:
    """The wire-compact difference between two :meth:`Telemetry.snapshot`
    calls: counter and histogram entries carry deltas (and are dropped
    entirely when nothing moved), gauges carry their current value when
    it changed. Fleet workers ship this on heartbeat/complete and the
    coordinator folds it with :meth:`Telemetry.fold_snapshot`."""
    before = {_entry_key(entry): entry for entry in prev}
    out: list[dict] = []
    for entry in cur:
        old = before.get(_entry_key(entry))
        name, labels, kind = entry["name"], dict(entry["labels"]), entry["type"]
        if kind == "counter":
            delta = entry["value"] - (old["value"] if old else 0.0)
            if delta > 0:
                out.append(
                    {"name": name, "labels": labels, "type": kind, "value": delta}
                )
        elif kind == "gauge":
            if old is None or old["value"] != entry["value"]:
                out.append(
                    {
                        "name": name,
                        "labels": labels,
                        "type": kind,
                        "value": entry["value"],
                    }
                )
        else:
            old_buckets = old["buckets"] if old else {}
            buckets = {
                bound: cum - old_buckets.get(bound, 0)
                for bound, cum in entry["buckets"].items()
            }
            if any(buckets.values()):
                out.append(
                    {
                        "name": name,
                        "labels": labels,
                        "type": kind,
                        "buckets": buckets,
                        "sum": entry["sum"] - (old["sum"] if old else 0.0),
                        "count": entry["count"] - (old["count"] if old else 0),
                        "max": entry["max"],
                    }
                )
    return out


def histogram_quantile(entry: Mapping, q: float) -> float:
    """Estimate the ``q``-quantile of one histogram snapshot entry.

    Linear interpolation inside the winning bucket, in the Prometheus
    ``histogram_quantile`` style, with one improvement the exact
    tracked ``max`` makes possible: estimates are capped at ``max``,
    so a handful of observations in a wide bucket can never yield a
    "p95" above the largest value ever seen, and a quantile landing in
    the ``+Inf`` overflow bucket answers with ``max`` instead of an
    unbounded guess.
    """
    count = int(entry.get("count", 0))
    buckets = entry.get("buckets") or {}
    if count <= 0 or not buckets:
        return 0.0
    target = min(max(float(q), 0.0), 1.0) * count
    top = float(entry.get("max", 0.0))

    def capped(estimate: float) -> float:
        return min(estimate, top) if top > 0.0 else estimate

    items = sorted(
        (float("inf") if bound == "+Inf" else float(bound), cum)
        for bound, cum in buckets.items()
    )
    prev_bound, prev_cum = 0.0, 0
    for bound, cum in items:
        if cum >= target:
            if math.isinf(bound):
                return max(top, prev_bound)
            in_bucket = cum - prev_cum
            if in_bucket <= 0:
                return capped(bound)
            frac = (target - prev_cum) / in_bucket
            return capped(prev_bound + (bound - prev_bound) * frac)
        prev_bound, prev_cum = bound, cum
    return max(top, prev_bound)


def _num(value: float) -> str:
    """Render a sample value without a spurious ``.0`` on integers."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    parts = ", ".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + parts + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape(value: str) -> str:
    return (
        value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
    )


def parse_prometheus_text(text: str) -> list[dict]:
    """Parse a text-exposition snapshot back into ``snapshot()`` shape.

    Supports exactly what :meth:`Telemetry.prometheus_text` emits —
    ``# TYPE`` comments, counters/gauges as single samples, histograms
    as ``_bucket{le=...}``/``_sum``/``_count`` families — which is all
    the round-trip tests and CI assertions need. Raises
    :class:`~repro.errors.ReproError` on lines it cannot read.
    """
    types: dict[str, str] = {}
    entries: dict[tuple[str, tuple], dict] = {}

    def entry(name: str, labels: dict, kind: str) -> dict:
        key = (name, tuple(sorted(labels.items())))
        if key not in entries:
            base: dict = {"name": name, "labels": labels, "type": kind}
            if kind == "histogram":
                base.update(buckets={}, sum=0.0, count=0, max=0.0)
            else:
                base["value"] = 0.0
            entries[key] = base
        return entries[key]

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                known = types.get(parts[2])
                if known is not None and known != parts[3]:
                    raise ReproError(
                        f"conflicting TYPE for {parts[2]!r}: "
                        f"{known} vs {parts[3]}"
                    )
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ReproError(f"unparseable metrics line: {raw!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        body = match.group("labels")
        if body:
            pos = 0
            while pos < len(body):
                pair = _LABEL_PAIR_RE.match(body, pos)
                if not pair:
                    raise ReproError(f"unparseable metric labels: {raw!r}")
                labels[pair.group("key")] = _unescape(pair.group("value"))
                pos = pair.end()
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ReproError(f"unparseable metric value: {raw!r}") from None
        for suffix in ("_bucket", "_sum", "_count", "_max"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                le = labels.pop("le", None)
                target = entry(base, labels, "histogram")
                if suffix == "_bucket":
                    target["buckets"][le] = int(value)
                elif suffix == "_sum":
                    target["sum"] = value
                elif suffix == "_count":
                    target["count"] = int(value)
                else:
                    target["max"] = value
                break
        else:
            kind = types.get(name, "gauge")
            entry(name, labels, kind)["value"] = value
    return [
        entries[key] for key in sorted(entries, key=lambda k: (k[0], k[1]))
    ]
