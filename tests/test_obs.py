"""Tests for ``repro.obs`` — the unified telemetry subsystem.

Covers the metric registry (get-or-create identity, label separation,
kind-conflict rejection, histogram bucketing), nestable spans (parent
lineage, error status, late attributes, per-thread stacks), the sinks
(JSONL laziness, flush-per-line and never-raise hardening), the
Prometheus text round-trip
(``parse_prometheus_text(prometheus_text()) == snapshot()``), and the
fleet observability plane: process-namespaced span ids, cross-process
trace adoption, delta-encoded snapshot aggregation, histogram
quantiles, the live HTTP exposition endpoints, the Perfetto timeline
export and cost-model residual monitoring — plus the subsystem's one
hard promise: **instrumentation never changes results** — a
traced-and-metered run produces a store bitwise-identical (in the
shared ``parity_view``) to an unobserved one, under every executor.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import urllib.request

import pytest

from repro import obs
from repro.distributed import FleetExecutor, InlineExecutor, ProcessShardExecutor, run_worker
from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
    record_key,
)
from repro.experiments.costs import (
    RESIDUAL_METRIC,
    UnitCostModel,
    record_residual,
)
from repro.experiments.store import parity_view
from repro.obs import (
    DEFAULT_BUCKETS,
    JsonlSink,
    ListSink,
    SPAN_SECONDS_METRIC,
    Telemetry,
    histogram_quantile,
    parse_prometheus_text,
    snapshot_delta,
    span,
)
from repro.obs.http import (
    ObsHTTPServer,
    clear_status_provider,
    set_status_provider,
    status_payload,
)
from repro.obs.timeline import build_timeline, export_timeline

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork-start processes",
)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Every test gets a pristine process registry (and leaves one)."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetricRegistry:
    def test_counter_get_or_create_identity(self):
        t = Telemetry()
        c = t.counter("requests_total", route="a")
        assert t.counter("requests_total", route="a") is c
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_labels_separate_instruments(self):
        t = Telemetry()
        t.counter("hits_total", backend="ref").inc()
        t.counter("hits_total", backend="vec").inc(4)
        assert t.counter("hits_total", backend="ref").value == 1
        assert t.counter("hits_total", backend="vec").value == 4

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ReproError):
            Telemetry().counter("c_total").inc(-1)

    def test_gauge_set_and_add(self):
        g = Telemetry().gauge("inflight")
        g.set(5)
        g.add(-2)
        assert g.value == 3.0

    def test_histogram_buckets_are_cumulative(self):
        h = Telemetry().histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["buckets"] == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_kind_conflict_raises(self):
        t = Telemetry()
        t.counter("thing")
        with pytest.raises(ReproError, match="already registered"):
            t.gauge("thing")

    def test_invalid_names_and_labels_raise(self):
        t = Telemetry()
        with pytest.raises(ReproError):
            t.counter("bad name")
        with pytest.raises(ReproError):
            t.counter("ok_total", **{"bad-label": "x"})

    def test_snapshot_is_sorted_and_json_safe(self):
        t = Telemetry()
        t.counter("b_total").inc()
        t.gauge("a_gauge", zone="z").set(2)
        snap = t.snapshot()
        assert [e["name"] for e in snap] == ["a_gauge", "b_total"]
        json.dumps(snap)  # must not raise


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        with span("run", t, system="ess") as outer:
            with span("step", t, step=1):
                pass
            with span("step", t, step=2):
                pass
        events = sink.events
        # children close (and emit) before the parent
        assert [e["span"] for e in events] == ["step", "step", "run"]
        steps, run = events[:2], events[2]
        assert run["parent"] is None and run["depth"] == 0
        assert all(e["parent"] == run["id"] for e in steps)
        assert all(e["depth"] == 1 for e in steps)
        assert run is outer
        assert run["attrs"] == {"system": "ess"}
        assert all(e["seconds"] >= 0 for e in events)

    def test_block_can_attach_late_attrs(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        with span("unit", t, group=3) as ev:
            ev["attrs"]["records"] = 7
        assert sink.events[0]["attrs"] == {"group": 3, "records": 7}

    def test_error_status_recorded_and_exception_propagates(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        with pytest.raises(ValueError):
            with span("run", t):
                raise ValueError("boom")
        assert sink.events[0]["status"] == "error"
        # the failed span still lands in the latency histogram
        h = t.histogram(SPAN_SECONDS_METRIC, span="run")
        assert h.count == 1

    def test_span_durations_feed_the_histogram(self):
        t = Telemetry()
        with span("generation", t):
            pass
        with span("generation", t):
            pass
        assert t.histogram(SPAN_SECONDS_METRIC, span="generation").count == 2

    def test_threads_have_independent_lineages(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        seen = {}

        def other_thread():
            with span("worker", t) as ev:
                seen.update(ev)

        with span("main", t):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        # the other thread's span must NOT inherit the main thread's
        # open span as its parent
        assert seen["parent"] is None and seen["depth"] == 0

    def test_default_registry_is_the_process_one(self):
        sink = ListSink()
        obs.telemetry().add_sink(sink)
        with span("solo"):
            pass
        assert [e["span"] for e in sink.events] == ["solo"]


# ----------------------------------------------------------------------
# Sinks and module-level wiring
# ----------------------------------------------------------------------
class TestSinks:
    def test_jsonl_sink_is_lazy_and_line_parseable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # no empty files for silent runs
        sink.emit({"event": "span", "span": "a"})
        sink.emit({"event": "span", "span": "b"})
        assert [json.loads(line)["span"] for line in path.open()] == [
            "a",
            "b",
        ]
        sink.close()
        sink.emit({"event": "span", "span": "late"})  # dropped, no raise
        assert len(path.read_text().splitlines()) == 2

    def test_reset_isolates_registries_and_closes_sinks(self, tmp_path):
        first = obs.configure(trace_path=tmp_path / "t.jsonl")
        first.counter("x_total").inc()
        fresh = obs.reset()
        assert fresh is obs.telemetry() and fresh is not first
        assert fresh.snapshot() == []
        assert fresh.sinks == []

    def test_dump_metrics_writes_the_process_snapshot(self, tmp_path):
        obs.telemetry().counter("things_total", kind="a").inc(3)
        path = tmp_path / "m.prom"
        obs.dump_metrics(path)
        parsed = parse_prometheus_text(path.read_text())
        assert parsed == obs.telemetry().snapshot()


# ----------------------------------------------------------------------
# Prometheus text round-trip
# ----------------------------------------------------------------------
class TestPrometheusRoundTrip:
    def _populated(self) -> Telemetry:
        t = Telemetry()
        t.counter("repro_cells_total", plan="p1").inc(12)
        t.counter("repro_cells_total", plan="p2").inc(3)
        t.gauge("repro_busy_seconds", worker='w "quoted"\\x').set(1.25)
        t.histogram("repro_unit_seconds").observe(0.02)
        t.histogram("repro_unit_seconds").observe(7.5)
        t.histogram(
            "repro_span_seconds", span="unit", buckets=(0.5, 2.0)
        ).observe(1.0)
        return t

    def test_round_trip_equals_snapshot(self):
        t = self._populated()
        assert parse_prometheus_text(t.prometheus_text()) == t.snapshot()

    def test_default_buckets_survive_the_trip(self):
        t = Telemetry()
        t.histogram("h_seconds").observe(0.3)
        (entry,) = parse_prometheus_text(t.prometheus_text())
        assert len(entry["buckets"]) == len(DEFAULT_BUCKETS) + 1
        assert entry["buckets"]["+Inf"] == 1

    def test_empty_registry_renders_and_parses_empty(self):
        t = Telemetry()
        assert t.prometheus_text() == ""
        assert parse_prometheus_text("") == []

    def test_unparseable_lines_raise(self):
        with pytest.raises(ReproError):
            parse_prometheus_text("what even is this line }{")


# ----------------------------------------------------------------------
# Instrumentation parity — observing a run never changes its results
# ----------------------------------------------------------------------
def _tiny_plan() -> ExperimentPlan:
    """One (case, backend) group, two systems, two seeds: 4 cells."""
    return ExperimentPlan(
        name="obs-parity",
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("grassland", size=20, steps=2),),
        seeds=(0, 1),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=8, generations=2, session_cache_size=2048
        ),
    )


def _sorted_normalized(store: ResultsStore) -> list[dict]:
    return [
        parity_view(r) for r in sorted(store.records(), key=record_key)
    ]


def _trace_events(path) -> list[dict]:
    return [json.loads(line) for line in open(path)]


class TestInstrumentationParity:
    def test_traced_inline_run_matches_untraced(self, tmp_path):
        plan = _tiny_plan()
        plain = ResultsStore(tmp_path / "plain.jsonl")
        ExperimentRunner(store=plain).run(plan, executor=InlineExecutor())

        obs.reset()
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        obs.configure(trace_path=trace)
        traced = ResultsStore(tmp_path / "traced.jsonl")
        ExperimentRunner(store=traced).run(plan, executor=InlineExecutor())
        obs.dump_metrics(metrics)
        obs.shutdown()

        # the one hard promise: not a byte of difference in the shared
        # parity view
        assert _sorted_normalized(traced) == _sorted_normalized(plain)
        # unit provenance rides on the records and parity_view strips it
        records = traced.records()
        assert all("telemetry" in r for r in records)
        assert all("telemetry" not in parity_view(r) for r in records)
        assert all(
            r["telemetry"]["unit_cells"] >= 1 for r in records
        )

        events = _trace_events(trace)
        unit_spans = [e for e in events if e.get("span") == "unit"]
        run_spans = [e for e in events if e.get("span") == "run"]
        plan_spans = [e for e in events if e.get("span") == "plan"]
        # inline execution: the single group arrives as one work unit
        assert len(unit_spans) == 1
        assert unit_spans[0]["attrs"]["cells"] == plan.n_runs
        # one run span per cell, parented by its unit span
        assert len(run_spans) == plan.n_runs
        assert {e["parent"] for e in run_spans} == {unit_spans[0]["id"]}
        # step and generation spans nest below runs
        assert any(e.get("span") == "step" for e in events)
        assert any(e.get("span") == "generation" for e in events)
        # the run sits under one plan root span, and every span is
        # tagged with the same trace id
        assert len(plan_spans) == 1
        assert unit_spans[0]["parent"] == plan_spans[0]["id"]
        trace_ids = {
            e["trace_id"] for e in events if e.get("event") == "span"
        }
        assert len(trace_ids) == 1

        parsed = parse_prometheus_text(metrics.read_text())
        names = {e["name"] for e in parsed}
        assert "repro_engine_cache_hits_total" in names
        assert "repro_engine_cache_misses_total" in names
        assert "repro_engine_batch_seconds" in names
        assert "repro_units_total" in names
        assert RESIDUAL_METRIC in names
        by_key = {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in parsed
        }
        assert (
            by_key[("repro_units_total", (("plan", plan.name),))]["value"]
            == 1
        )

    @needs_fork
    def test_traced_process_shards_match_untraced_inline(self, tmp_path):
        plan = _tiny_plan()
        plain = ResultsStore(tmp_path / "plain.jsonl")
        ExperimentRunner(store=plain).run(plan, executor=InlineExecutor())

        obs.reset()
        trace = tmp_path / "trace.jsonl"
        obs.configure(trace_path=trace)
        sharded = ResultsStore(tmp_path / "sharded.jsonl")
        ExperimentRunner(store=sharded).run(
            plan, executor=ProcessShardExecutor(2)
        )
        obs.shutdown()
        assert _sorted_normalized(sharded) == _sorted_normalized(plain)

        # every process traced into the parent's trace id, and shard
        # span ids live in per-process namespaces (no collisions even
        # though the forked children inherited the parent's counters)
        events = [e for e in _trace_events(trace) if e.get("event") == "span"]
        assert len({e.get("trace_id") for e in events}) == 1
        assert len({e["id"] for e in events}) == len(events)
        prefixes = {e["id"].rsplit("-", 1)[0] for e in events}
        assert len(prefixes) >= 2  # parent plus at least one shard

    @needs_fork
    def test_sharded_sweep_metrics_carry_worker_counters(self, tmp_path):
        """Loopback shards ship registry deltas to the coordinator, so a
        ``--shards`` run's metrics dump holds their unit and engine
        counters, labelled by worker (and only their own work, not what
        they inherited from the parent at fork)."""
        from repro.cli import main

        # cells this process ran before: the forked workers inherit
        # the counter but must not ship it as their own
        obs.telemetry().counter("repro_unit_cells_total", plan="earlier").inc(9)
        metrics = tmp_path / "m.prom"
        main(
            [
                "sweep", "--systems", "ess,ess-ns", "--cases", "grassland",
                "--size", "20", "--steps", "2", "--seeds", "0,1",
                "--population", "8", "--generations", "2",
                "--backend", "vectorized", "--shards", "2",
                "--results", str(tmp_path / "r.jsonl"),
                "--metrics", str(metrics),
            ]
        )
        parsed = parse_prometheus_text(metrics.read_text())
        cells = [
            e
            for e in parsed
            if e["name"] == "repro_unit_cells_total" and "worker" in e["labels"]
        ]
        assert sum(e["value"] for e in cells) == 4
        simulations = [
            e for e in parsed if e["name"] == "repro_engine_simulations_total"
        ]
        assert simulations
        assert all("worker" in e["labels"] for e in simulations)

    def test_traced_fleet_matches_untraced_inline(self, tmp_path):
        plan = _tiny_plan()
        plain = ResultsStore(tmp_path / "plain.jsonl")
        ExperimentRunner(store=plain).run(plan, executor=InlineExecutor())

        obs.reset()
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        obs.configure(trace_path=trace)
        store = ResultsStore(tmp_path / "fleet.jsonl")
        threads: list[threading.Thread] = []
        summaries: list[dict] = []

        def worker(address, index):
            summaries.append(
                run_worker(
                    address,
                    store_path=str(tmp_path / f"w{index}"),
                    worker_id=f"obs-w{index}",
                )
            )

        def on_bound(address):
            for index in range(2):
                thread = threading.Thread(
                    target=worker, args=(address, index)
                )
                thread.start()
                threads.append(thread)

        executor = FleetExecutor(
            lease_timeout=15.0,
            poll_interval=0.05,
            timeout=120.0,
            on_bound=on_bound,
        )
        try:
            ExperimentRunner(store=store).run(plan, executor=executor)
        finally:
            for thread in threads:
                thread.join(timeout=60)
        obs.dump_metrics(metrics)
        obs.shutdown()

        assert _sorted_normalized(store) == _sorted_normalized(plain)

        # one unit span per unit a worker executed (in-thread workers
        # share the process trace sink)
        events = _trace_events(trace)
        unit_spans = [e for e in events if e.get("span") == "unit"]
        assert len(unit_spans) == sum(s["units"] for s in summaries)
        # the coordinator's trace id propagates on every unit grant,
        # so every span of the fleet shares one trace
        trace_ids = {
            e.get("trace_id") for e in events if e.get("event") == "span"
        }
        assert len(trace_ids) == 1 and None not in trace_ids
        # complete replies carried a clock-offset estimate back
        assert all(
            isinstance(s.get("clock_offset"), float) for s in summaries
        )

        # the coordinator's per-worker utilization view is populated
        # and lands in the metrics snapshot as busy/idle gauges
        assert set(executor.worker_stats) == {"obs-w0", "obs-w1"}
        for st in executor.worker_stats.values():
            assert st["busy_seconds"] >= 0.0
            assert st["idle_seconds"] >= 0.0
        names = {
            e["name"] for e in parse_prometheus_text(metrics.read_text())
        }
        assert "repro_fleet_worker_busy_seconds" in names
        assert "repro_fleet_worker_idle_seconds" in names
        assert "repro_worker_busy_seconds" in names
        assert "repro_fleet_unit_seconds" in names
        # observed-vs-predicted residuals were recorded per completion
        assert RESIDUAL_METRIC in names
        # the fleet summary event reaches the trace sinks too
        assert any(e.get("event") == "fleet_summary" for e in events)


# ----------------------------------------------------------------------
# Span-id namespacing and trace adoption
# ----------------------------------------------------------------------
class TestSpanIdentity:
    def test_span_ids_are_prefixed_strings_and_unique(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        with span("a", t):
            pass
        with span("b", t):
            pass
        ids = [e["id"] for e in sink.events]
        assert all(isinstance(i, str) and "-" in i for i in ids)
        assert len(set(ids)) == 2
        # one registry, one namespace
        assert len({i.rsplit("-", 1)[0] for i in ids}) == 1

    def test_registries_in_one_process_never_collide(self):
        # the regression behind the fleet plane: two registries (or a
        # restarted process) used to both count spans 0, 1, 2, ...
        a, b = Telemetry(), Telemetry()
        sink_a, sink_b = ListSink(), ListSink()
        a.add_sink(sink_a)
        b.add_sink(sink_b)
        with span("x", a):
            pass
        with span("x", b):
            pass
        assert sink_a.events[0]["id"] != sink_b.events[0]["id"]

    def test_set_span_prefix_pins_the_namespace(self):
        t = Telemetry()
        t.set_span_prefix("w7")
        sink = ListSink()
        t.add_sink(sink)
        with span("unit", t):
            pass
        assert sink.events[0]["id"].startswith("w7-")
        assert t.new_trace_id().startswith("w7-t")

    @needs_fork
    def test_forked_children_get_fresh_prefixes(self):
        # forked children (the loopback workers ProcessShardExecutor
        # starts, say) inherit the parent registry and its span counter
        # wholesale; their ids must still be globally unique
        t = obs.telemetry()
        sink = ListSink()
        t.add_sink(sink)
        with span("parent", t):
            pass
        parent_id = sink.events[0]["id"]

        queue: multiprocessing.Queue = multiprocessing.Queue()

        def child() -> None:
            child_sink = ListSink()
            registry = obs.telemetry()
            registry.add_sink(child_sink)
            with span("child", registry):
                pass
            queue.put(child_sink.events[0]["id"])

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=child) for _ in range(2)]
        for p in procs:
            p.start()
        child_ids = [queue.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        ids = [parent_id] + child_ids
        assert len(set(ids)) == 3
        assert len({i.rsplit("-", 1)[0] for i in ids}) == 3


class TestTraceAdoption:
    def test_adopted_trace_tags_events_and_parents_roots(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        t.adopt_trace("trace-1", parent_span="remote-9")
        with span("unit", t):
            with span("run", t):
                pass
        run, unit = sink.events
        assert unit["trace_id"] == "trace-1" == run["trace_id"]
        # the remote parent applies to the root span only; nesting
        # stays in-process
        assert unit["parent"] == "remote-9"
        assert run["parent"] == unit["id"]
        assert t.trace_context() == {
            "trace_id": "trace-1",
            "parent_span": "remote-9",
        }

    def test_falsy_trace_id_clears_the_context(self):
        t = Telemetry()
        t.adopt_trace("trace-1")
        t.adopt_trace(None)
        assert t.trace_context() is None
        sink = ListSink()
        t.add_sink(sink)
        with span("solo", t):
            pass
        assert "trace_id" not in sink.events[0]
        assert sink.events[0]["parent"] is None


# ----------------------------------------------------------------------
# Wire aggregation: snapshot deltas folded into a fleet registry
# ----------------------------------------------------------------------
class TestSnapshotAggregation:
    def test_counter_deltas_ship_only_increases(self):
        t = Telemetry()
        t.counter("c_total").inc(3)
        first = t.snapshot()
        assert snapshot_delta([], first)[0]["value"] == 3
        t.counter("c_total").inc(2)
        (delta,) = snapshot_delta(first, t.snapshot())
        assert delta["value"] == 2
        # quiescent registry ships nothing
        assert snapshot_delta(t.snapshot(), t.snapshot()) == []

    def test_histogram_deltas_are_per_interval(self):
        t = Telemetry()
        h = t.histogram("h_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        first = t.snapshot()
        h.observe(5.0)
        (delta,) = snapshot_delta(first, t.snapshot())
        assert delta["count"] == 1
        assert delta["sum"] == pytest.approx(5.0)
        assert delta["buckets"] == {"1": 0, "10": 1, "+Inf": 1}

    def test_fold_snapshot_rebuilds_worker_labelled_series(self):
        worker = Telemetry()
        worker.counter("repro_cells_total").inc(4)
        worker.gauge("repro_worker_busy_seconds").set(2.5)
        worker.histogram("repro_unit_seconds", buckets=(1.0,)).observe(0.3)
        coordinator = Telemetry()
        sent: list = []
        for _ in range(2):  # two heartbeats, cumulative on arrival
            cur = worker.snapshot()
            folded = coordinator.fold_snapshot(
                snapshot_delta(sent, cur), worker="w1"
            )
            sent = cur
            worker.counter("repro_cells_total").inc(1)
        assert folded >= 1
        assert coordinator.counter("repro_cells_total", worker="w1").value == 5
        assert (
            coordinator.gauge("repro_worker_busy_seconds", worker="w1").value
            == 2.5
        )
        h = coordinator.histogram(
            "repro_unit_seconds", buckets=(1.0,), worker="w1"
        )
        assert h.count == 1 and h.sum == pytest.approx(0.3)

    def test_fold_snapshot_skips_malformed_and_already_labelled(self):
        t = Telemetry()
        folded = t.fold_snapshot(
            [
                "not a dict",
                {"name": "x_total", "labels": {}, "type": "counter"},
                {
                    # already carries the fold label: a feedback echo
                    "name": "y_total",
                    "labels": {"worker": "w1"},
                    "type": "counter",
                    "value": 3,
                },
                {
                    "name": "ok_total",
                    "labels": {},
                    "type": "counter",
                    "value": 2,
                },
            ],
            worker="w1",
        )
        assert folded == 1
        assert t.counter("ok_total", worker="w1").value == 2
        assert t.snapshot()[0]["name"] == "ok_total"
        assert t.fold_snapshot("garbage", worker="w1") == 0


# ----------------------------------------------------------------------
# Histogram quantiles and the extended exposition format
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_max_survives_the_text_round_trip(self):
        t = Telemetry()
        h = t.histogram("h_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(7.25)
        text = t.prometheus_text()
        assert "h_seconds_max 7.25" in text
        assert "# quantiles h_seconds" in text
        (entry,) = parse_prometheus_text(text)
        assert entry["max"] == 7.25
        assert parse_prometheus_text(text) == t.snapshot()

    def test_quantiles_interpolate_and_cap_at_max(self):
        t = Telemetry()
        h = t.histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.7, 3.0, 3.5):
            h.observe(value)
        (entry,) = t.snapshot()
        p50 = histogram_quantile(entry, 0.5)
        assert 1.0 <= p50 <= 2.0
        # everything sits below the top finite bound, so even p99 stays
        # within it — and never exceeds the tracked max
        assert histogram_quantile(entry, 0.99) <= 4.0
        h.observe(40.0)  # lands in +Inf: answered by the exact max
        (entry,) = t.snapshot()
        assert histogram_quantile(entry, 1.0) == 40.0

    def test_wide_bucket_interpolation_clamps_to_exact_max(self):
        # a few short units in a wide default bucket: naive linear
        # interpolation would report a p95 far above anything observed
        t = Telemetry()
        h = t.histogram("h_seconds", buckets=(0.5, 1.0, 5.0))
        for value in (0.6, 0.7, 0.8, 0.9, 1.1, 1.25):
            h.observe(value)
        (entry,) = t.snapshot()
        assert entry["max"] == 1.25
        assert histogram_quantile(entry, 0.95) <= 1.25
        assert histogram_quantile(entry, 0.5) <= 1.25


# ----------------------------------------------------------------------
# Parser error paths
# ----------------------------------------------------------------------
class TestParserErrorPaths:
    def test_unparseable_value_raises(self):
        with pytest.raises(ReproError, match="unparseable metric value"):
            parse_prometheus_text("ok_total nan_but_worse")

    def test_conflicting_type_lines_raise(self):
        text = "# TYPE x_total counter\n# TYPE x_total gauge\n"
        with pytest.raises(ReproError, match="conflicting TYPE"):
            parse_prometheus_text(text)

    def test_truncated_label_body_raises(self):
        with pytest.raises(ReproError):
            parse_prometheus_text('hits_total{backend="ref 1')

    def test_truncated_histogram_family_still_parses(self):
        # a crashed writer can leave a family without its _sum/_count
        # tail; the parser keeps what it saw instead of raising
        text = (
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="1"} 1\n'
            'h_seconds_bucket{le="+Inf"} 2\n'
        )
        (entry,) = parse_prometheus_text(text)
        assert entry["buckets"] == {"1": 1, "+Inf": 2}
        assert entry["count"] == 0 and entry["sum"] == 0.0


# ----------------------------------------------------------------------
# Sink hardening: losing a trace must not kill the traced run
# ----------------------------------------------------------------------
class TestJsonlSinkHardening:
    def test_vanished_directory_is_recreated_before_first_event(self, tmp_path):
        target = tmp_path / "gone" / "trace.jsonl"
        target.parent.mkdir()
        sink = JsonlSink(target)
        target.parent.rmdir()  # vanishes before the lazy open
        sink.emit({"event": "span", "span": "a"})
        assert target.exists()
        sink.close()

    def test_unopenable_path_goes_dark_without_raising(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed\n")
        sink = JsonlSink(blocker / "trace.jsonl")
        sink.emit({"event": "span", "span": "a"})  # must not raise
        sink.emit({"event": "span", "span": "b"})  # dropped silently
        sink.close()
        assert blocker.read_text().startswith("a file")


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------
def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:  # 404s etc. still have bodies
        return exc.code, ""


class TestObsHTTPServer:
    def test_endpoints_serve_registry_and_status(self):
        obs.telemetry().counter("repro_http_test_total", kind="x").inc(2)
        server = ObsHTTPServer(port=0)
        host, port = server.start()
        base = f"http://{host}:{port}"
        try:
            status, text = _get(f"{base}/metrics")
            assert status == 200
            entries = parse_prometheus_text(text)
            assert any(
                e["name"] == "repro_http_test_total" for e in entries
            )
            assert _get(f"{base}/healthz") == (200, "ok\n")
            status, text = _get(f"{base}/status")
            assert status == 200
            assert json.loads(text) == {"status": "idle"}
            assert _get(f"{base}/nope")[0] == 404
        finally:
            server.close()

    def test_status_provider_hook_is_scoped(self):
        provider = lambda: {"type": "status", "plan": "p9"}  # noqa: E731
        set_status_provider(provider)
        server = ObsHTTPServer(port=0)
        host, port = server.start()
        try:
            _, text = _get(f"http://{host}:{port}/status")
            assert json.loads(text)["plan"] == "p9"
            # clearing someone else's provider is a no-op
            clear_status_provider(lambda: {})
            _, text = _get(f"http://{host}:{port}/status")
            assert json.loads(text)["plan"] == "p9"
            clear_status_provider(provider)
            _, text = _get(f"http://{host}:{port}/status")
            assert json.loads(text) == {"status": "idle"}
        finally:
            server.close()
            clear_status_provider()

    def test_bound_method_provider_clears_by_equality(self):
        """Regression: ``obj.status`` builds a new bound method on every
        access, so clearing with a second access must still match."""

        class Coordinator:
            def status(self):
                return {"type": "status", "plan": "p10"}

        coordinator = Coordinator()
        set_status_provider(coordinator.status)
        try:
            assert status_payload()["plan"] == "p10"
            clear_status_provider(Coordinator().status)  # another owner
            assert status_payload()["plan"] == "p10"
            clear_status_provider(coordinator.status)
            assert status_payload() == {"status": "idle"}
        finally:
            clear_status_provider()


# ----------------------------------------------------------------------
# Timeline export
# ----------------------------------------------------------------------
def _write_trace(path, events) -> None:
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    )


class TestTimelineExport:
    def _fixture(self, tmp_path):
        coord = tmp_path / "coord.jsonl"
        worker = tmp_path / "w1.jsonl"
        _write_trace(
            coord,
            [
                {
                    "event": "span", "span": "plan", "id": "c-1",
                    "parent": None, "depth": 0, "start": 100.0,
                    "seconds": 50.0, "thread": 1, "status": "ok",
                    "trace_id": "T1", "attrs": {"plan": "p"},
                },
            ],
        )
        _write_trace(
            worker,
            [
                {
                    "event": "clock_sync", "time": 95.0,
                    "worker": "w1", "clock_offset": 5.0,
                },
                {
                    "event": "span", "span": "unit", "id": "w1-1",
                    "parent": "c-1", "depth": 0, "start": 105.0,
                    "seconds": 10.0, "thread": 2, "status": "ok",
                    "trace_id": "T1", "attrs": {"cells": 4},
                },
                {
                    "event": "span", "span": "unit", "id": "w1-2",
                    "parent": "c-9", "depth": 0, "start": 130.0,
                    "seconds": 1.0, "thread": 2, "status": "ok",
                    "trace_id": "T2", "attrs": {},
                },
            ],
        )
        return coord, worker

    def test_clock_offsets_align_worker_tracks(self, tmp_path):
        coord, worker = self._fixture(tmp_path)
        timeline = build_timeline([coord, worker])
        names = {
            e["args"]["name"]
            for e in timeline["traceEvents"]
            if e.get("ph") == "M"
        }
        assert names == {"coord", "w1"}
        spans = [
            e for e in timeline["traceEvents"] if e.get("ph") == "X"
        ]
        unit = next(
            e for e in spans if e["args"].get("id") == "w1-1"
        )
        # worker clock + measured offset = coordinator clock
        assert unit["ts"] == pytest.approx((105.0 + 5.0) * 1e6)
        assert unit["dur"] == pytest.approx(10.0 * 1e6)
        plan = next(e for e in spans if e["args"].get("id") == "c-1")
        assert plan["ts"] == pytest.approx(100.0 * 1e6)
        assert plan["pid"] != unit["pid"]  # separate tracks
        assert sorted(timeline["otherData"]["trace_ids"]) == ["T1", "T2"]

    def test_trace_id_filter_and_export(self, tmp_path):
        coord, worker = self._fixture(tmp_path)
        output = tmp_path / "timeline.json"
        summary = export_timeline([coord, worker], output, trace_id="T1")
        assert summary["spans"] == 2
        payload = json.loads(output.read_text())
        ids = {
            e["args"].get("id")
            for e in payload["traceEvents"]
            if e.get("ph") == "X"
        }
        assert ids == {"c-1", "w1-1"}  # the T2 span is filtered out

    def test_blank_and_undecodable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text(
            '{"event": "span", "span": "a", "id": "x-1", "start": 1.0,'
            ' "seconds": 0.5}\n'
            "\n"
            "not json at all\n"
        )
        timeline = build_timeline([path])
        assert timeline["otherData"]["spans"] == 1


# ----------------------------------------------------------------------
# Cost-model residual monitoring
# ----------------------------------------------------------------------
class TestCostResiduals:
    def test_ratio_lands_in_the_histogram(self):
        t = Telemetry()
        model = UnitCostModel()
        model.observe("case:ref", 10, 1.0)  # 0.1 s/cell measured
        ratio = record_residual(
            model, "case:ref", 10, 2.0, registry=t, worker="w1"
        )
        assert ratio == pytest.approx(2.0)
        (entry,) = t.snapshot()
        assert entry["name"] == RESIDUAL_METRIC
        assert entry["labels"] == {"kernel": "case:ref"}
        assert entry["count"] == 1

    def test_slow_unit_event_needs_a_measured_sample(self):
        t = Telemetry()
        sink = ListSink()
        t.add_sink(sink)
        model = UnitCostModel(default_rate=0.1)
        # 40x slower than the never-measured default prior: no event
        record_residual(model, "k", 1, 4.0, registry=t)
        assert sink.events == []
        model.observe("k", 1, 0.1)
        record_residual(model, "k", 1, 4.0, registry=t, worker="w1")
        (event,) = sink.events
        assert event["event"] == "slow_unit"
        assert event["worker"] == "w1"
        assert event["ratio"] > 3.0
        # within budget: histogram only, still no second event
        record_residual(model, "k", 1, 0.1, registry=t)
        assert len(sink.events) == 1

    def test_undefined_ratios_return_none(self):
        t = Telemetry()
        model = UnitCostModel()
        assert record_residual(model, "k", 0, 1.0, registry=t) is None
        assert record_residual(model, "k", 5, 0.0, registry=t) is None
        assert t.snapshot() == []
