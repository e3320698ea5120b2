"""E3 — Master/Worker speedup of the fitness-evaluation stage.

The paper's first version parallelises exactly the scenario simulations
(§III-B "parallelism will only be implemented in the evaluation of the
scenarios"). This bench measures that stage serially and via the
process pool, and prints the speedup/efficiency table. On a single-core
host the exercise degenerates to a correctness check (pool and serial
bit-identical); the table still records the overhead structure.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.metrics import speedup_table
from repro.analysis.reporting import format_table
from repro.parallel.executor import ProcessPoolEvaluator, SerialEvaluator

from _report import report, run_once

BATCH = 48


def test_e3_speedup_report(benchmark, bench_problem, space):
    def _body():
        genomes = space.sample(BATCH, 17)
        serial = SerialEvaluator(bench_problem)
        t0 = time.perf_counter()
        reference = serial(genomes)
        serial_seconds = time.perf_counter() - t0

        parallel_seconds: dict[int, float] = {}
        identical = {}
        for workers in (2, 4):
            with ProcessPoolEvaluator(bench_problem, n_workers=workers) as pool:
                pool(genomes[:2])  # warm-up
                t0 = time.perf_counter()
                values = pool(genomes)
                parallel_seconds[workers] = time.perf_counter() - t0
            identical[workers] = bool(np.allclose(values, reference))

        rows = speedup_table(serial_seconds, parallel_seconds)
        table = format_table(
            ["workers", "seconds", "speedup", "efficiency"],
            [[r["workers"], r["seconds"], r["speedup"], r["efficiency"]] for r in rows],
        )
        extra = (
            f"\nhost cpu count: {os.cpu_count()}"
            f"\nall pool results identical to serial: {identical}"
        )
        report("E3_speedup", table + extra)
        assert all(identical.values())


    run_once(benchmark, _body)

def test_bench_serial_batch(benchmark, bench_problem, space):
    """Reference cost: BATCH scenario evaluations in-process."""
    genomes = space.sample(BATCH, 17)
    ev = SerialEvaluator(bench_problem)
    out = benchmark.pedantic(lambda: ev(genomes), rounds=3, iterations=1)
    assert out.shape == (BATCH,)


def test_bench_pool_batch(benchmark, bench_problem, space):
    """The same batch through a 2-worker process pool."""
    genomes = space.sample(BATCH, 17)
    with ProcessPoolEvaluator(bench_problem, n_workers=2) as pool:
        pool(genomes[:2])  # warm-up
        out = benchmark.pedantic(lambda: pool(genomes), rounds=3, iterations=1)
    assert out.shape == (BATCH,)
