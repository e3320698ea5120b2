"""In-memory span recording around the layers' public functions.

The benchmark's ``--trace 1`` pass wraps the functions listed in
:data:`TARGETS` from the outside (the program itself is not edited):
each call becomes one span ``(id, parent, name, start, end, count)``
kept in memory and written out as JSONL when the run ends. A layer's
self time is its spans' durations minus what their child spans cover.

Wrapping is scoped: :meth:`Recorder.installed` patches the targets and
restores the originals on exit, so the untraced half of an A/B pair
runs the unmodified functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "TARGETS", "layer_metrics", "load_spans", "write_spans"]


def _rows(args, kwargs) -> int:
    """Genomes in a batch call (``self, genomes``)."""
    return len(args[1]) if len(args) > 1 else 0


#: ``(module, attribute, span name, count)``. ``attribute`` may name a
#: class method (``Class.method``); functions imported by name into a
#: caller's namespace are patched where the caller looks them up.
#: ``count`` maps the call's arguments to a work count kept on the span.
TARGETS = (
    ("repro.systems.base", "PredictionSystem.run", "systems.run", None),
    ("repro.systems.base", "aggregate_scenarios", "stages.statistical", None),
    ("repro.systems.base", "search_kign", "stages.calibration", None),
    ("repro.systems.base", "predict", "stages.prediction", None),
    ("repro.ea.nsga", "NoveltyGA.run", "ea.os", None),
    ("repro.ea.ga", "GeneticAlgorithm.run", "ea.os", None),
    ("repro.ea.de", "DifferentialEvolution.run", "ea.os", None),
    ("repro.ea.nsga", "novelty_scores", "core.novelty", None),
    ("repro.ea.ga", "generate_offspring", "ea.offspring", None),
    ("repro.ea.nsga", "generate_offspring", "ea.offspring", None),
    ("repro.engine.core", "SimulationEngine.evaluate_batch", "engine.evaluate", None),
    ("repro.engine.core", "SimulationEngine.burned_maps", "engine.burned_maps", None),
    ("repro.engine.backends", "VectorizedBackend.fitness_batch", "engine.kernel", _rows),
    ("repro.engine.backends", "VectorizedBackend.burned_map_batch", "engine.kernel", _rows),
    ("repro.engine.fastprop", "FlatGrid.run_uniform", "engine.propagate.uniform", None),
    ("repro.engine.fastprop", "FlatGrid.run_table", "engine.propagate.table", None),
    ("repro.engine.fastprop", "FlatGrid.run_raster", "engine.propagate.raster", None),
    ("repro.experiments.runner", "ExperimentRunner.run_units", "experiments.runner", None),
    ("repro.experiments.store", "ResultsStore.append", "experiments.store_append", None),
)


class Recorder:
    """Spans of one process, one run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._prefix = str(os.getpid())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, count=None):
        spans, stack_of, ids, prefix = self.spans, self._stack, self._ids, self._prefix

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = f"{prefix}:{next(ids)}"
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(args, kwargs) if count is not None else 1
                spans.append((sid, parent, name, start, end, n))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, count in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self.wrap(original, name, count))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def write_spans(spans, run_id: str, path) -> None:
    """Write spans as JSONL, one object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, n in spans:
            fh.write(
                json.dumps(
                    {
                        "run": run_id,
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "count": n,
                    }
                )
                + "\n"
            )


def load_spans(path) -> list[tuple]:
    """Spans written by :func:`write_spans`, as recorder tuples."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            out.append(
                (s["id"], s["parent"], s["name"], s["start"], s["end"], s["count"])
            )
    return out


def profile(spans) -> tuple[dict, float]:
    """Per span name ``calls``, ``count``, ``total`` and ``self`` seconds;
    and the summed duration of the top-level spans."""
    child_time: dict = defaultdict(float)
    for _sid, parent, _name, start, end, _n in spans:
        if parent is not None:
            child_time[parent] += end - start
    rows: dict = defaultdict(lambda: {"calls": 0, "count": 0, "total": 0.0, "self": 0.0})
    root = 0.0
    for sid, parent, name, start, end, n in spans:
        row = rows[name]
        row["calls"] += 1
        row["count"] += n
        row["total"] += end - start
        row["self"] += end - start - child_time.get(sid, 0.0)
        if parent is None:
            root += end - start
    return rows, root


def layer_metrics(spans) -> dict:
    """The span-derived per-layer metrics (see the README's table)."""
    rows, root = profile(spans)
    root = root or 1.0
    propagate = [rows[f"engine.propagate.{k}"] for k in ("uniform", "table", "raster")]
    propagate_s = sum(row["total"] for row in propagate)
    heterogeneous = (
        rows["engine.propagate.table"]["calls"] + rows["engine.propagate.raster"]["calls"]
    )
    return {
        "engine.evaluate_s": rows["engine.evaluate"]["total"],
        "engine.burned_maps_s": rows["engine.burned_maps"]["total"],
        "engine.kernel_s": rows["engine.kernel"]["total"],
        "engine.propagate_s": propagate_s,
        "engine.propagate_calls": sum(row["calls"] for row in propagate),
        "engine.raster_kernel_frac": (
            rows["engine.propagate.raster"]["calls"] / heterogeneous
            if heterogeneous
            else 0.0
        ),
        "engine.fields_s": rows["engine.kernel"]["total"] - propagate_s,
        "engine.cache_overhead_s": rows["engine.evaluate"]["self"],
        "engine.simulations": rows["engine.kernel"]["count"],
        "core.novelty_s": rows["core.novelty"]["total"],
        "ea.offspring_s": rows["ea.offspring"]["total"],
        "ea.os_self_s": rows["ea.os"]["self"],
        "stages.statistical_s": rows["stages.statistical"]["self"],
        "stages.calibration_s": rows["stages.calibration"]["total"],
        "stages.prediction_s": rows["stages.prediction"]["total"],
        "systems.step_self_s": rows["systems.run"]["self"],
        "experiments.store_appends": rows["experiments.store_append"]["calls"],
        "experiments.store_append_frac": (
            rows["experiments.store_append"]["total"] / root
        ),
        "experiments.runner_self_frac": rows["experiments.runner"]["self"] / root,
    }
