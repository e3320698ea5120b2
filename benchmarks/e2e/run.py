#!/usr/bin/env python3
"""End-to-end benchmark of the prediction loop, the study grid and the service.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W|all] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--repeats N] [--out F.jsonl]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl
    python3 benchmarks/e2e/run.py smoke
    python3 benchmarks/e2e/run.py expected

One workload with one repeat runs in this process: it prints every
metric by name and unit, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the
per-layer ones, and writes the spans to ``.bench_work/trace-*.jsonl``.
``all`` or ``--repeats`` > 1 runs every repetition in a fresh process.
``--out`` appends one JSON row per run, which ``compare`` reads.
``smoke`` runs each workload briefly and checks the output schema;
``expected`` recomputes ``expected.json`` (the pinned output digests).

The benchmark reads and writes only inside the checkout: scratch goes
to ``.bench_work/`` and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("predict_mosaic", "study_grid", "service_tenants")
#: Set-up samples per run; each service sample starts three processes.
SETUP_SAMPLES = {"service_tenants": 3}
SUBCOMMANDS = ("compare", "smoke", "expected", "_setup", "_worker")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def env_info() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_once(name: str, seed: int, seconds: float, trace: bool, out: str | None) -> int:
    import numpy as np

    import tracing
    import workloads

    # a terminated run still stops its service processes and scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=WORK))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        workload = workloads.make(name, seed, workdir)
        result = workload.run(seconds, trace)
        metrics = dict(result.metrics)
        if trace:
            trace_path = WORK / f"trace-{name}-s{seed}.jsonl"
            tracing.write_spans(result.spans, f"{name}-s{seed}", trace_path)
            result.notes.append(f"{len(result.spans)} spans in {trace_path.relative_to(ROOT)}")
        else:
            metrics["peak_rss_mb"] = peak_rss_mb()
            samples = []
            for _ in range(SETUP_SAMPLES.get(name, 5)):
                try:
                    samples.append(workload.setup_sample())
                except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                    result.check(False, f"set-up sample: {exc}")
            metrics["setup_s"] = statistics.median(samples)
            result.notes.append(
                "set-up samples " + ", ".join(f"{s:.3f}" for s in samples) + " s"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    values = {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in spec()[kind]
    }
    qualities = [q for q in result.qualities if q is not None]
    row = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": values,
        "digest": workloads.digest(sorted(result.digests)),
        "quality": float(np.nanmean(qualities)) if qualities else None,
        "env": env_info(),
    }
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    for metric, v in values.items():
        print(f"  {metric:<32} {v['value']:>14.6g} {v['unit']}")
    for note in result.notes:
        print(f"  # {note}")
    print(
        f"  # {result.attempted} operations, {result.failed} failed; digest "
        f"{row['digest']} over {len(result.digests)} outputs; mean quality {row['quality']}"
    )
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": row["correct"],
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": values,
            }
        ),
        flush=True,
    )
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int, out: str | None) -> dict:
    """One run in a fresh process; echoes its report, returns its result."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if out:
        argv += ["--out", out]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_many(names, seed: int, seconds: float, trace: int, repeats: int, out) -> int:
    results: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(repeats):
        for name in names:
            results[name].append(run_child(name, seed + rep, seconds, trace, out))
    summary = {}
    print(f"# medians over {repeats} run(s)")
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            value = statistics.median(r["metrics"][metric]["value"] for r in runs)
            unit = runs[0]["metrics"][metric]["unit"]
            summary[f"{name}.{metric}"] = {"value": value, "unit": unit}
            print(f"  {name + '.' + metric:<52} {value:>14.6g} {unit}")
    every = [r for runs in results.values() for r in runs]
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in every),
                "attempted": sum(r["attempted"] for r in every),
                "failed": sum(r["failed"] for r in every),
                "metrics": summary,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """The choosing-metrics rule: ``(verdict, B's win fraction)``.

    ``improved`` needs B to win >= 90% of the pairs and the medians to
    differ by more than A's quartile spread, or every B run to beat
    every A run. A spread wider than the bound on either side is
    ``unresolved`` unless every B run is worse than every A run.
    """
    worse = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if worse * (y - x) < 0) / len(pairs)
    qa1, med_a, qa3 = quartiles(a)
    qb1, med_b, qb3 = quartiles(b)
    change = worse * (med_b - med_a) / abs(med_a)
    if better == "lower":
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if all_better or (wins >= 0.9 and change < 0 and abs(med_b - med_a) > qa3 - qa1):
        return "improved", wins
    if all_worse:
        return "regressed", wins
    spread = max((qa3 - qa1) / abs(med_a), (qb3 - qb1) / abs(med_b))
    if spread > bound:
        return "unresolved", wins
    return ("regressed" if change > bound else "within-bound"), wins


def load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a: str, path_b: str) -> int:
    rows_a, rows_b = load_rows(path_a), load_rows(path_b)
    metrics = spec()["end_to_end"]
    for label, rows in (("A", rows_a), ("B", rows_b)):
        envs = [r["env"] for r in rows]
        loads = [e["loadavg"][0] for e in envs]
        first = envs[0] if envs else {}
        print(
            f"{label}: {len(rows)} rows; nproc {first.get('nproc')}, python "
            f"{first.get('python')}, numpy {first.get('numpy')}, git "
            f"{sorted({e['git_sha'] for e in envs})}, load {min(loads, default=0):.2f}"
            f"-{max(loads, default=0):.2f}"
        )
    regressed = False
    for name in WORKLOADS:
        a = [r for r in rows_a if r["workload"] == name and r["trace"] == 0]
        b = [r for r in rows_b if r["workload"] == name and r["trace"] == 0]
        if not a or not b:
            continue
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        same_out = all(
            x["seed"] == y["seed"] and x["digest"] == y["digest"] and x["quality"] == y["quality"]
            for x, y in zip(a, b)
        )
        ok = all(r["correct"] for r in a + b)
        print(
            f"\n== {name}: {n} pairs; outputs identical: {'yes' if same_out else 'NO'}; "
            f"all correct: {'yes' if ok else 'NO'}"
        )
        print(f"  {'metric':<18} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'B wins':>7}  verdict")
        for m in metrics:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            word, wins = verdict(va, vb, m["better"], m["bound"])
            regressed |= word == "regressed"
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"  {m['name']:<18} {qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                f" {qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {wins:>7.0%}  {word}"
                f" (bound {m['bound']:.0%})"
            )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# smoke, expected, and the child-process entry points
# ----------------------------------------------------------------------
def git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    ).stdout


def smoke() -> int:
    """Each workload once, briefly; checks schema, correctness and that
    the checkout is left as it was."""
    started = time.perf_counter()
    before = git_status()
    bench = spec()
    problems = []
    for name, trace in [(w, 0) for w in WORKLOADS] + [("predict_mosaic", 1)]:
        result = run_child(name, 0, 1, trace, None)
        wanted = bench["per_layer" if trace else "end_to_end"]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name}: result keys {sorted(result)}")
        if set(result["metrics"]) != {m["name"] for m in wanted}:
            problems.append(f"{name}: metric names differ from BENCHMARK.json")
        for m in wanted:
            got = result["metrics"].get(m["name"], {})
            if got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
                problems.append(f"{name}: metric {m['name']} is {got}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{name}: not correct ({result['failed']} failed)")
    if git_status() != before:
        problems.append("the run changed files of the checkout")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print(f"smoke {'failed' if problems else 'passed'} in {time.perf_counter() - started:.1f}s")
    return 1 if problems else 0


def worker_entry(spans_path: str, argv: list[str]) -> int:
    """A ``repro`` CLI process whose layers are traced; spans are
    written when it exits (a drained worker exits normally)."""
    import tracing
    from repro.cli import main

    recorder = tracing.Recorder(f"worker-{os.getpid()}")
    with recorder.installed():
        try:
            return main(argv)
        finally:
            tracing.write_spans(recorder.spans, recorder.run_id, spans_path)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    if command == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.jsonl B.jsonl")
        return compare(argv[1], argv[2])
    if command == "smoke":
        return smoke()
    if command == "expected":
        import workloads

        table = workloads.regenerate_expected()
        workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    if command == "_setup":
        import workloads

        name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        workloads.make(name, seed, workdir).prepare()
        print("READY", flush=True)
        return 0
    if command == "_worker":
        return worker_entry(argv[1], argv[2:])

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="append one JSON row per run to this file")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")
    out = os.path.abspath(args.out) if args.out else None
    if args.workload != "all" and args.repeats == 1:
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace), out)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return run_many(names, args.seed, args.seconds, args.trace, args.repeats, out)


if __name__ == "__main__":
    sys.exit(main())
