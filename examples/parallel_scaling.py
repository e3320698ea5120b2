#!/usr/bin/env python
"""Master/Worker scaling of the fitness-evaluation stage (E3).

The paper's first version parallelises exactly one thing: the scenario
simulations + fitness computation, under a Master/Worker design. This
example measures that stage in isolation — the same batch of scenarios
evaluated serially and by the process pool at each worker count — and
prints the speedup table.

On a single-core container the speedup is expectedly ≤ 1 (the exercise
then demonstrates correctness: every pool returns the serial fitness
vector bit for bit); on a multi-core machine the pool approaches linear
scaling because scenario simulations are embarrassingly parallel.

Usage::

    python examples/parallel_scaling.py [--size 60] [--batch 64] [--max-workers 4]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import (
    ParameterSpace,
    PredictionStepProblem,
    ProcessPoolEvaluator,
    SerialEvaluator,
    grassland_case,
)
from repro.analysis.metrics import speedup_table
from repro.analysis.reporting import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=60)
    parser.add_argument("--batch", type=int, default=64, help="scenarios per batch")
    parser.add_argument("--max-workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    fire = grassland_case(size=args.size, n_steps=2)
    problem = PredictionStepProblem(
        terrain=fire.terrain,
        start_burned=fire.start_mask(1),
        real_burned=fire.real_mask(1),
        horizon=fire.step_horizon(1),
    )
    space = ParameterSpace()
    genomes = space.sample(args.batch, args.seed)

    serial = SerialEvaluator(problem)
    t0 = time.perf_counter()
    reference = serial(genomes)
    serial_seconds = time.perf_counter() - t0
    print(
        f"serial: {args.batch} scenarios on {args.size}x{args.size} in "
        f"{serial_seconds:.3f}s"
    )

    parallel_seconds: dict[int, float] = {}
    for workers in range(2, args.max_workers + 1):
        with ProcessPoolEvaluator(problem, n_workers=workers) as pool:
            pool(genomes[:4])  # warm the workers before timing
            t0 = time.perf_counter()
            values = pool(genomes)
            parallel_seconds[workers] = time.perf_counter() - t0
        assert np.allclose(values, reference), "pool must match serial exactly"

    rows = speedup_table(serial_seconds, parallel_seconds)
    print()
    print(
        format_table(
            ["workers", "seconds", "speedup", "efficiency"],
            [[r["workers"], r["seconds"], r["speedup"], r["efficiency"]] for r in rows],
        )
    )
    print("\nevery pool returned identical fitness vectors ✓")


if __name__ == "__main__":
    main()
