"""Streaming JSONL results store with crash-safe resume.

Long sweeps die — machines reboot, jobs get preempted — and a sweep
that only writes its results at the end loses everything. The
:class:`ResultsStore` therefore streams: **one JSON line per completed
run**, appended and flushed the moment the run finishes. Restarting the
same plan against the same store skips every run whose
``(system, case, seed, backend)`` key is already recorded and computes
only the missing cells.

Durability/concurrency contract:

* every record is written as a single ``write`` to a file opened in
  append mode, under an exclusive ``flock`` (on POSIX), then flushed
  and fsynced — two processes pointed at the same store path (say, two
  ``repro sweep --results`` runs) append without interleaving lines;
* a crash can at worst leave one unterminated *final* line (no
  trailing newline), which :meth:`ResultsStore.records` detects and
  ignores — even when its payload happens to parse — and which the
  next ``append`` truncates away, so the interrupted run simply
  re-executes on resume; malformed newline-terminated lines are real
  corruption and raise.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro.errors import ReproError

try:  # POSIX: appends are flock-serialised across processes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "ResultsStore",
    "backends_by_system",
    "parity_view",
    "record_key",
    "system_label",
]


def record_key(record: dict) -> tuple[str, str, int, str]:
    """The resume/dedup identity of one result record."""
    try:
        return (
            str(record["system"]),
            str(record["case"]),
            int(record["seed"]),
            str(record["backend"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"result record without a full run key: {exc}") from exc


def parity_view(record: dict) -> dict:
    """A result record minus its scheduling-dependent observability.

    The executor-parity view: every remaining field — qualities, kign
    trajectories, requested-evaluation counts, config digests — is
    deterministic from ``(plan, seed)`` and must agree bitwise across
    execution policies *and work-unit granularities*. Two kinds of
    field cannot and are stripped:

    * **wall-clock** — top-level ``seconds``/``run_seconds`` and the
      per-step stage ``timings``: no two executions measure the same
      time;
    * **session-reuse accounting** — the ``run.session`` payload and
      the per-step engine ``simulations``/``cache`` counters: how many
      evaluations were answered by a shared cache instead of the
      simulator depends on *which cells shared a session*, i.e. on how
      units were split/stolen across workers — scheduling observability,
      not results (cache hits serve bitwise-identical values);
    * **telemetry provenance** — the top-level ``telemetry`` block
      (which work unit delivered the cell, its size, any future
      scheduling attribution): pure observability from
      :mod:`repro.obs`, different under every executor and unit
      granularity by design.

    One definition, so every parity gate (tests, benchmarks, the
    distributed-smoke CI job) normalizes the same fields.
    """
    out = dict(record)
    out.pop("seconds", None)
    out.pop("run_seconds", None)
    out.pop("telemetry", None)
    run = dict(out.get("run") or {})
    run.pop("session", None)
    steps = []
    for step in run.get("steps", []):
        step = {k: v for k, v in step.items() if k != "timings"}
        engine = step.get("engine")
        if isinstance(engine, dict):
            step["engine"] = {
                k: v
                for k, v in engine.items()
                if k not in ("simulations", "cache")
            }
        steps.append(step)
    run["steps"] = steps
    out["run"] = run
    return out


def backends_by_system(records: Iterable[dict]) -> dict[str, dict[str, None]]:
    """First-seen engine backends per system label.

    The shared basis of the multi-backend row-labelling rule used by
    both the sweep table and the experiment summary (one
    implementation, so the two reports can never drift apart).
    """
    out: dict[str, dict[str, None]] = {}
    for record in records:
        out.setdefault(str(record["system"]), {})[
            str(record.get("backend", ""))
        ] = None
    return out


def system_label(record: dict, backends_of: dict[str, dict[str, None]]) -> str:
    """Row label of one record: ``system[backend]`` only when that
    system's records span several backends, the plain name otherwise —
    backends are never silently merged into one row."""
    system = str(record["system"])
    if len(backends_of.get(system, {})) > 1:
        return f"{system}[{record.get('backend', '')}]"
    return system


class ResultsStore:
    """Append-only JSONL store of experiment result records.

    Parameters
    ----------
    path:
        The ``.jsonl`` file; created (with parent directories) on the
        first append. Several processes may append to the same path.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether any record has ever been written."""
        return self.path.exists()

    def __len__(self) -> int:
        return len(self.records())

    def append(self, record: dict) -> None:
        """Durably append one completed-run record (one JSON line).

        A crash mid-append leaves a truncated final line; before
        writing, the tail is cut back to the last complete line (under
        the same lock) so the store always returns to the "complete
        lines only" invariant — the interrupted run simply re-executes.
        """
        record_key(record)  # validate before touching the file
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as fh:
            if fcntl is not None:  # serialise concurrent appends
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            self._drop_partial_tail(fh)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    @staticmethod
    def _drop_partial_tail(fh) -> None:
        """Truncate a crash's unterminated final line (no-op otherwise)."""
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        chunk = 1 << 20
        pos = size
        while pos > 0:
            start = max(0, pos - chunk)
            fh.seek(start)
            data = fh.read(pos - start)
            cut = data.rfind(b"\n")
            if cut >= 0:
                fh.truncate(start + cut + 1)
                return
            pos = start
        fh.truncate(0)

    # ------------------------------------------------------------------
    def merge(self, *sources, dedupe=record_key) -> dict:
        """Aggregate other stores (or record iterables) into this one.

        The multi-store aggregation primitive behind ``repro
        experiments merge-stores`` and the fleet coordinator's merge
        of the records workers upload:

        * **first writer wins** — this store's existing records take
          precedence, then the sources in argument order (each in its
          own append order); later records with an already-seen
          ``dedupe`` key are dropped, deterministically;
        * **sorted output** — the merged store is rewritten ordered by
          the dedupe key, so two merges covering the same cells produce
          byte-comparable files regardless of arrival order;
        * **compaction** — crash-partial tails (this store's and the
          sources') are dropped on the way through, and the rewrite is
          atomic (temp file + rename), so a crash mid-merge leaves
          either the old store or the new one, never a hybrid.

        Sources may be :class:`ResultsStore` instances or plain
        iterables of record dicts (e.g. records that arrived over the
        fleet protocol). Not safe concurrently with appends to *this*
        store. Returns a summary: total ``records`` written, duplicate
        records dropped, and sources consumed.
        """
        merged: dict[tuple, dict] = {}
        duplicates = 0
        for source in (self, *sources):
            records = (
                source.records()
                if isinstance(source, ResultsStore)
                else list(source)
            )
            for record in records:
                key = dedupe(record)
                if key in merged:
                    duplicates += 1
                else:
                    merged[key] = record
        lines = [
            json.dumps(merged[key], sort_keys=True) + "\n"
            for key in sorted(merged)
        ]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".merge-tmp")
        with open(tmp, "w") as fh:
            fh.writelines(lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return {
            "records": len(merged),
            "duplicates": duplicates,
            "sources": len(sources),
        }

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """All complete records, in append order.

        A record counts as complete only when its line is terminated:
        a final line without its trailing newline — even one that
        happens to parse as JSON — is a crash-interrupted append and is
        skipped, exactly mirroring what the next ``append`` truncates
        away, so resume re-runs that cell instead of first counting it
        done and then losing it. A malformed line followed by valid
        ones is corruption and raises.
        """
        if not self.path.exists():
            return []
        with open(self.path) as fh:
            text = fh.read()
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines = lines[:-1]
        out: list[dict] = []
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            # crash-partial tails were already dropped above, so any
            # malformed complete line is real corruption — raising here
            # (rather than skipping) stops the next append from burying
            # it mid-file where it would poison every later read
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"corrupt results store {self.path}: malformed record "
                    f"on line {i + 1}: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise ReproError(
                    f"corrupt results store {self.path}: line {i + 1} is not "
                    "a record object"
                )
            out.append(payload)
        return out

    def completed(self) -> set[tuple[str, str, int, str]]:
        """Run keys already recorded — the resume skip-set."""
        return {record_key(r) for r in self.records()}

    def select(self, keys: Iterable[tuple[str, str, int, str]]) -> list[dict]:
        """Records matching ``keys``, in append order."""
        wanted = set(keys)
        return [r for r in self.records() if record_key(r) in wanted]
