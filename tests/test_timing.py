"""Tests for timing utilities and speedup metrics."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.ea.ga import GAConfig
from repro.errors import ParallelError
from repro.obs import ListSink
from repro.parallel.timing import StageTimings, efficiency, speedup
from repro.systems import ESS, ESSConfig


@pytest.fixture
def stage_spans():
    """A fresh process registry whose span events land in a list."""
    sink = ListSink()
    obs.reset().add_sink(sink)
    yield sink
    obs.reset()


class TestStageTimings:
    def test_add_accumulates(self):
        st = StageTimings()
        st.add("os", 1.0)
        st.add("os", 0.5)
        assert st.seconds["os"] == 1.5

    def test_measure_context(self):
        st = StageTimings()
        with st.measure("ss"):
            time.sleep(0.005)
        assert st.seconds["ss"] > 0

    def test_measure_is_a_stage_span_and_times_a_failing_block(
        self, stage_spans
    ):
        st = StageTimings()
        with pytest.raises(RuntimeError):
            with st.measure("cs"):
                time.sleep(0.005)
                raise RuntimeError("calibration failed")
        assert st.seconds["cs"] >= 0.004
        [event] = stage_spans.events
        assert event["span"] == "stage"
        assert event["attrs"] == {"stage": "cs"}
        assert event["status"] == "error"

    def test_traced_run_emits_a_stage_span_per_stage_and_step(
        self, small_fire, stage_spans
    ):
        """Steps 2.. time all four stages; step 1 has no previous Kign,
        so no prediction stage. The spans nest under their step."""
        run = ESS(
            ESSConfig(ga=GAConfig(population_size=8), max_generations=2)
        ).run(small_fire, rng=0)
        events = stage_spans.events
        steps = {e["id"]: e["attrs"]["step"] for e in events
                 if e["span"] == "step"}
        stages: dict[int, list[str]] = {}
        for e in events:
            if e["span"] == "stage":
                stages.setdefault(steps[e["parent"]], []).append(
                    e["attrs"]["stage"]
                )
        assert stages == {1: ["os", "ss", "cs"],
                          2: ["os", "ss", "cs", "ps"],
                          3: ["os", "ss", "cs", "ps"]}
        for step in run.steps:
            assert sorted(step.timings.seconds) == sorted(stages[step.step])

    def test_total_and_fractions(self):
        st = StageTimings()
        st.add("a", 3.0)
        st.add("b", 1.0)
        assert st.total() == 4.0
        fr = st.fractions()
        assert fr["a"] == pytest.approx(0.75)

    def test_fractions_empty(self):
        assert StageTimings().fractions() == {}

    def test_merge(self):
        a = StageTimings()
        a.add("x", 1.0)
        b = StageTimings()
        b.add("x", 2.0)
        b.add("y", 1.0)
        a.merge(b)
        assert a.seconds == {"x": 3.0, "y": 1.0}


class TestSpeedup:
    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0

    def test_efficiency(self):
        assert efficiency(10.0, 5.0, 4) == 0.5

    @pytest.mark.parametrize("s,p", [(-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_raises(self, s, p):
        with pytest.raises(ParallelError):
            speedup(s, p)

    def test_bad_workers_raises(self):
        with pytest.raises(ParallelError):
            efficiency(1.0, 1.0, 0)
